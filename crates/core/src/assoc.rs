//! The associative-dispatcher method (Section 3.2).
//!
//! The loop is distributed into (1) a loop evaluating the dispatcher terms
//! — transformed into a parallel prefix computation — and (2) the remainder
//! as a DOALL over the precomputed terms (Figure 3 of the paper).

use crate::dispatch::AffineRecurrence;
use crate::induction::InductionOutcome;
use std::sync::atomic::{AtomicU64, Ordering};
use wlp_obs::NoopRecorder;
use wlp_runtime::{doall_dynamic, ChunkPolicy, Pool, Step};

/// Parallelizes `while (term) { body; x = a·x + b }` where the dispatcher
/// `x` is the affine recurrence `rec`: terms `x(0..upper)` are evaluated by
/// parallel prefix, then the remainder runs as a DOALL with the terminator
/// test (`term(i, x_i)`) inlined; the smallest quitting iteration is `LI`.
///
/// `upper` is the strip/upper bound on precomputed terms — the paper notes
/// that with an RV terminator the first loop may compute superfluous terms,
/// and recommends strip-mining to bound that; callers can wrap this
/// function per strip.
pub fn prefix_while<TF, BF>(
    pool: &Pool,
    rec: AffineRecurrence,
    upper: usize,
    term: TF,
    body: BF,
) -> InductionOutcome
where
    TF: Fn(usize, f64) -> bool + Sync,
    BF: Fn(usize, f64) + Sync,
{
    // terms[i] is the dispatcher value of iteration i: x(0) = x0 for i = 0.
    let mut terms = Vec::with_capacity(upper);
    if upper > 0 {
        terms.push(rec.x0);
        terms.extend(rec.terms_parallel(pool, upper - 1));
    }
    let executed = AtomicU64::new(0);
    let out = doall_dynamic(pool, upper, ChunkPolicy::One, &NoopRecorder, |i, _| {
        let x = terms[i];
        if term(i, x) {
            Step::Quit
        } else {
            body(i, x);
            executed.fetch_add(1, Ordering::Relaxed);
            Step::Continue
        }
    });
    InductionOutcome {
        last_valid: out.quit,
        executed: executed.load(Ordering::Relaxed),
        max_started: out.max_started,
        panic: out.panic,
    }
}

/// Sequential reference for [`prefix_while`]: returns `(last_valid,
/// executed, dispatcher values consumed)`.
pub fn prefix_while_sequential<TF, BF>(
    rec: AffineRecurrence,
    upper: usize,
    term: TF,
    mut body: BF,
) -> (Option<usize>, u64)
where
    TF: Fn(usize, f64) -> bool,
    BF: FnMut(usize, f64),
{
    let mut x = rec.x0;
    for i in 0..upper {
        if term(i, x) {
            return (Some(i), i as u64);
        }
        body(i, x);
        x = rec.a * x + rec.b;
    }
    (None, upper as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::atomic::AtomicCell;

    fn rec() -> AffineRecurrence {
        // slowly growing: x(i+1) = 1.01·x(i) + 0.5, x0 = 1
        AffineRecurrence {
            a: 1.01,
            b: 0.5,
            x0: 1.0,
        }
    }

    #[test]
    fn matches_sequential_exit_point() {
        // RI terminator: a threshold on the (monotone) dispatcher value
        let pool = Pool::new(4);
        let threshold = 50.0;
        let (seq_li, _) = prefix_while_sequential(rec(), 10_000, |_, x| x >= threshold, |_, _| {});
        let par = prefix_while(&pool, rec(), 10_000, |_, x| x >= threshold, |_, _| {});
        assert_eq!(par.last_valid, seq_li);
        assert!(seq_li.is_some(), "test must actually exit");
    }

    #[test]
    fn bodies_receive_correct_dispatcher_values() {
        let pool = Pool::new(4);
        let n = 500;
        let got: Vec<AtomicCell<f64>> = (0..n).map(|_| AtomicCell::new(f64::NAN)).collect();
        prefix_while(&pool, rec(), n, |_, _| false, |i, x| got[i].store(x));
        let seq = {
            let mut v = vec![rec().x0];
            v.extend(rec().terms_sequential(n - 1));
            v
        };
        for i in 0..n {
            let g = got[i].load();
            assert!(
                (g - seq[i]).abs() < 1e-9 * seq[i].abs().max(1.0),
                "iter {i}: {g} vs {}",
                seq[i]
            );
        }
    }

    #[test]
    fn executes_exactly_the_valid_iterations() {
        let pool = Pool::new(4);
        let par = prefix_while(&pool, rec(), 10_000, |i, _| i >= 250, |_, _| {});
        assert_eq!(par.last_valid, Some(250));
        assert_eq!(par.executed, 250);
    }

    #[test]
    fn empty_range() {
        let pool = Pool::new(2);
        let par = prefix_while(&pool, rec(), 0, |_, _| false, |_, _| {});
        assert_eq!(par.executed, 0);
        assert_eq!(par.last_valid, None);
    }

    #[test]
    fn no_exit_runs_full_range() {
        let pool = Pool::new(4);
        let par = prefix_while(&pool, rec(), 300, |_, _| false, |_, _| {});
        assert_eq!(par.executed, 300);
        assert_eq!(par.last_valid, None);
    }
}
