//! The parallel WHILE constructs the paper proposes for manual
//! parallelization: **WHILE-DOALL**, **WHILE-DOACROSS** and
//! **WHILE-DOANY** — "WHILE loop counterparts for the existing constructs
//! for parallel execution of DO loops".
//!
//! Also home to the Section 4 **run-twice** scheme: time-stamping can be
//! avoided completely by running the parallel loop twice — once to find
//! the iteration count, then as a plain DOALL over the now-known range.

use crate::induction::InductionOutcome;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use wlp_obs::NoopRecorder;
use wlp_runtime::{doacross, doall_dynamic, ChunkPolicy, Pool, Step};

/// WHILE-DOALL: a WHILE loop with an induction dispatcher and independent
/// iterations, run as a DOALL with the terminator inlined and QUIT
/// semantics. (An alias with the paper's construct name; identical to
/// [`crate::induction::induction2`].)
pub fn while_doall<TF, BF>(pool: &Pool, upper: usize, term: TF, body: BF) -> InductionOutcome
where
    TF: Fn(usize) -> bool + Sync,
    BF: Fn(usize, usize) + Sync,
{
    crate::induction::induction2(pool, upper, &NoopRecorder, term, body)
}

/// WHILE-DOACROSS: a WHILE loop whose remainder carries cross-iteration
/// dependences, pipelined over `stages` with the terminator evaluated as
/// stage 0. Iterations past the first terminating one are not started
/// once it is known (their stage-0 wavefront is cancelled). Returns the
/// first terminating iteration.
pub fn while_doacross<TF, BF>(
    pool: &Pool,
    upper: usize,
    stages: usize,
    term: TF,
    body: BF,
) -> Option<usize>
where
    TF: Fn(usize) -> bool + Sync,
    BF: Fn(usize, usize) + Sync,
{
    let quit = AtomicUsize::new(usize::MAX);
    let out = doacross(pool, upper, stages + 1, 1, &NoopRecorder, |i, s| {
        // Stage 0 (the terminator) runs in strict iteration order along the
        // wavefront, so by the time iteration i tests, every earlier exit
        // is already registered — the quit bound below is exact, and
        // test-then-work semantics need no undo.
        if s == 0 {
            if i < quit.load(Ordering::Acquire) && term(i) {
                quit.fetch_min(i, Ordering::AcqRel);
            }
        } else if i < quit.load(Ordering::Acquire) {
            body(i, s - 1);
        }
    });
    // this construct's return type cannot carry a contained fault, so a
    // worker panic resumes on the caller — not silently swallowed
    if let Some(wp) = out.panic {
        wp.resume();
    }
    let q = quit.load(Ordering::Acquire);
    (q != usize::MAX).then_some(q)
}

/// WHILE-DOANY: searches `0..upper` for *any* iteration whose body yields
/// `Some`; the loop is order-insensitive, so the first completing success
/// wins, needs no undo, and overshoot is harmless (the MCSPARSE pivot
/// search). Returns the winning value and its iteration.
///
/// ```
/// use wlp_core::constructs::while_doany;
/// use wlp_runtime::Pool;
///
/// let hit = while_doany(&Pool::new(4), 10_000, |i| (i % 37 == 5).then_some(i));
/// let (i, v) = hit.unwrap();
/// assert_eq!(i % 37, 5);
/// assert_eq!(i, v);
/// ```
pub fn while_doany<T, F>(pool: &Pool, upper: usize, body: F) -> Option<(usize, T)>
where
    T: Send,
    F: Fn(usize) -> Option<T> + Sync,
{
    let found: parking_lot::Mutex<Option<(usize, T)>> = parking_lot::Mutex::new(None);
    let out = doall_dynamic(
        pool,
        upper,
        ChunkPolicy::One,
        &NoopRecorder,
        |i, _| match body(i) {
            Some(v) => {
                let mut f = found.lock();
                if f.is_none() {
                    *f = Some((i, v));
                }
                Step::Quit
            }
            None => Step::Continue,
        },
    );
    if let Some(wp) = out.panic {
        wp.resume();
    }
    found.into_inner()
}

/// The Section 4 run-twice scheme for RI terminators: "time-stamping can
/// be avoided completely if one is willing to execute the parallel version
/// of the WHILE loop twice. First, the loop is run in parallel to
/// determine the number of iterations … Then, since the number of
/// iterations is known, the second time the loop can simply be run as a
/// DOALL."
///
/// Pass 1 evaluates only the terminator (cheap for RI conditions); pass 2
/// executes exactly the valid bodies with no stamps, no backups, no undo.
/// Returns the outcome; `executed` counts pass-2 bodies.
pub fn run_twice_while<TF, BF>(pool: &Pool, upper: usize, term: TF, body: BF) -> InductionOutcome
where
    TF: Fn(usize) -> bool + Sync,
    BF: Fn(usize, usize) + Sync,
{
    // pass 1: find LI with a terminator-only DOALL (QUIT bounds the scan)
    let pass1 = doall_dynamic(pool, upper, ChunkPolicy::One, &NoopRecorder, |i, _| {
        if term(i) {
            Step::Quit
        } else {
            Step::Continue
        }
    });
    let end = pass1.quit.unwrap_or(upper);

    // pass 2: a plain DOALL over the known range — no speculation state
    let executed = AtomicU64::new(0);
    let pass2 = doall_dynamic(pool, end, ChunkPolicy::One, &NoopRecorder, |i, vpn| {
        body(i, vpn);
        executed.fetch_add(1, Ordering::Relaxed);
        Step::Continue
    });
    InductionOutcome {
        last_valid: pass1.quit,
        executed: executed.load(Ordering::Relaxed),
        max_started: pass2.max_started,
        panic: pass1.panic.or(pass2.panic),
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // indexing by iteration number is the semantics under test
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn pool() -> Pool {
        Pool::new(4)
    }

    #[test]
    fn while_doall_behaves_like_induction2() {
        let out = while_doall(&pool(), 10_000, |i| i >= 42, |_, _| {});
        assert_eq!(out.last_valid, Some(42));
        assert_eq!(out.executed, 42);
    }

    #[test]
    fn while_doany_finds_a_satisfying_iterate() {
        let hit = while_doany(&pool(), 100_000, |i| (i % 977 == 421).then_some(i * 2));
        let (i, v) = hit.expect("a satisfying iterate exists");
        assert_eq!(i % 977, 421);
        assert_eq!(v, i * 2);
    }

    #[test]
    fn while_doany_without_successes_returns_none() {
        assert_eq!(while_doany(&pool(), 1000, |_| None::<u8>), None);
    }

    #[test]
    fn while_doacross_computes_a_recurrence_with_exit() {
        // x[i] = x[i-1] + 1 with exit when i == 50
        let n = 200usize;
        let xs: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let exit = while_doacross(
            &pool(),
            n,
            1,
            |i| i == 50,
            |i, _| {
                let prev = if i == 0 {
                    0
                } else {
                    xs[i - 1].load(Ordering::Acquire)
                };
                xs[i].store(prev + 1, Ordering::Release);
            },
        );
        assert_eq!(exit, Some(50));
        for i in 0..50 {
            assert_eq!(xs[i].load(Ordering::Relaxed), i as u32 + 1, "iteration {i}");
        }
        for i in 51..n {
            assert_eq!(
                xs[i].load(Ordering::Relaxed),
                0,
                "iteration {i} must not run"
            );
        }
    }

    #[test]
    fn while_doacross_without_exit_runs_everything() {
        let n = 64usize;
        let count = AtomicU32::new(0);
        let exit = while_doacross(
            &pool(),
            n,
            2,
            |_| false,
            |_, _| {
                count.fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(exit, None);
        assert_eq!(count.load(Ordering::Relaxed), (n * 2) as u32);
    }

    #[test]
    fn run_twice_executes_exactly_the_valid_bodies() {
        let hits: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        let out = run_twice_while(
            &pool(),
            1000,
            |i| i >= 314,
            |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            },
        );
        assert_eq!(out.last_valid, Some(314));
        assert_eq!(out.executed, 314);
        for (i, h) in hits.iter().enumerate() {
            let expect = u32::from(i < 314);
            assert_eq!(h.load(Ordering::Relaxed), expect, "iteration {i}");
        }
    }

    #[test]
    fn run_twice_without_exit() {
        let out = run_twice_while(&pool(), 500, |_| false, |_, _| {});
        assert_eq!(out.last_valid, None);
        assert_eq!(out.executed, 500);
    }
}
