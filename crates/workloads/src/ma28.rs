//! MA28 `MA30AD` loops 270 and 320: cooperative Markowitz pivot search
//! with sequential consistency (Figures 12–14).
//!
//! MA28 is a *sequential* solver, so its parallelization must return
//! exactly the pivot the sequential code would pick. The paper's recipe:
//! privatize the per-processor best pivots, time-stamp them with their
//! candidate position, and after the loop perform a **time-stamp-ordered
//! minimum reduction** — smallest Markowitz cost, ties broken by the
//! earliest candidate. Loop 270 searches candidate *rows* (fewest active
//! entries first), loop 320 candidate *columns*; both exit early when a
//! cost-0 pivot (a singleton) appears, making them DO loops with
//! conditional exits. Taxonomy: induction dispatcher, RV terminator,
//! backups + time-stamps.

use crate::mcsparse::{best_in_col, column_rows};
use std::sync::atomic::{AtomicU64, Ordering};
use wlp_core::induction::InductionOutcome;
use wlp_runtime::{doall_dynamic, ChunkPolicy, NoopRecorder, Pool, Step};
use wlp_sim::spec::TerminatorKind;
use wlp_sim::{ExecConfig, LoopSpec, Overheads};
use wlp_sparse::{best_in_row, EliminationWork, Pivot};

/// A pivot tagged with the candidate position that produced it — the
/// "time-stamp" of the reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StampedPivot {
    /// Candidate index in search order.
    pub stamp: usize,
    /// The pivot found there.
    pub pivot: Pivot,
}

fn better(a: &StampedPivot, b: &StampedPivot) -> bool {
    // smaller cost wins; ties go to the earlier candidate (sequential
    // consistency)
    (a.pivot.cost, a.stamp) < (b.pivot.cost, b.stamp)
}

/// Candidate rows in MA30AD order (fewest active entries first).
pub fn candidate_rows(work: &EliminationWork) -> Vec<usize> {
    wlp_sparse::markowitz::candidate_rows(work)
}

/// Candidate columns in MA30AD order (fewest entries first).
pub fn candidate_cols(work: &EliminationWork) -> Vec<usize> {
    let mut cols: Vec<usize> = (0..work.n()).filter(|&j| work.is_col_active(j)).collect();
    cols.sort_by_key(|&j| (work.col_count(j), j));
    cols
}

/// Generic sequential search with the cost-0 conditional exit: the WHILE
/// loop the paper parallelizes. Returns the chosen pivot and the number
/// of candidates examined.
pub fn search_sequential(
    candidates: &[usize],
    eval: impl Fn(usize) -> Option<Pivot>,
) -> (Option<StampedPivot>, usize) {
    let mut best: Option<StampedPivot> = None;
    for (k, &cand) in candidates.iter().enumerate() {
        if let Some(p) = eval(cand) {
            let sp = StampedPivot { stamp: k, pivot: p };
            if best.as_ref().is_none_or(|b| better(&sp, b)) {
                best = Some(sp);
            }
            if p.cost == 0 {
                return (best, k + 1); // conditional exit
            }
        }
    }
    let n = candidates.len();
    (best, n)
}

/// Generic parallel search: Induction-2 DOALL over the candidates with
/// per-processor privatized bests and the time-stamp-ordered minimum
/// reduction. Exactly reproduces the sequential answer (see module docs
/// for why overshoot cannot change the winner).
pub fn search_parallel(
    pool: &Pool,
    candidates: &[usize],
    eval: impl Fn(usize) -> Option<Pivot> + Sync,
) -> (Option<StampedPivot>, InductionOutcome) {
    let p = pool.size();
    let locals: Vec<parking_lot::Mutex<Option<StampedPivot>>> =
        (0..p).map(|_| parking_lot::Mutex::new(None)).collect();
    let executed = AtomicU64::new(0);

    let out = doall_dynamic(
        pool,
        candidates.len(),
        ChunkPolicy::One,
        &NoopRecorder,
        |k, vpn| {
            executed.fetch_add(1, Ordering::Relaxed);
            if let Some(piv) = eval(candidates[k]) {
                let sp = StampedPivot {
                    stamp: k,
                    pivot: piv,
                };
                let mut local = locals[vpn].lock();
                if local.as_ref().is_none_or(|b| better(&sp, b)) {
                    *local = Some(sp);
                }
                if piv.cost == 0 {
                    return Step::Quit;
                }
            }
            Step::Continue
        },
    );

    // time-stamp-ordered minimum reduction over the privatized pivots
    let best = locals.into_iter().filter_map(|m| m.into_inner()).fold(
        None,
        |acc: Option<StampedPivot>, sp| match acc {
            Some(b) if better(&b, &sp) => Some(b),
            _ => Some(sp),
        },
    );

    (
        best,
        InductionOutcome {
            last_valid: out.quit,
            executed: executed.load(Ordering::Relaxed),
            max_started: out.max_started,
            panic: out.panic,
        },
    )
}

/// MA28's pre-phase: eliminate singleton rows (cost-0 pivots) outright, so
/// loops 270/320 run on a workspace where a real search is needed. Returns
/// the number of singletons eliminated.
pub fn pre_eliminate_singletons(work: &mut EliminationWork, u: f64) -> usize {
    let mut eliminated = 0;
    loop {
        let next = work
            .active_rows()
            .find(|&r| work.row_count(r) == 1)
            .and_then(|r| best_in_row(work, r, u));
        match next {
            Some(p) if p.cost == 0 => {
                work.eliminate(p.row, p.col);
                eliminated += 1;
            }
            _ => return eliminated,
        }
    }
}

/// The MA30AD scan-length rule: rows are searched in increasing-count
/// order, and the scan stops once the best cost found so far cannot be
/// beaten by the next count class (`best ≤ (nz − 1)²` where `nz` is the
/// next candidate's count). Returns how many candidates the sequential
/// loop examines — the iteration space the parallelization gets to
/// overlap, and the "available parallelism" that differs per input.
pub fn class_bound_scan_length(
    candidates: &[usize],
    count_of: impl Fn(usize) -> u32,
    eval: impl Fn(usize) -> Option<Pivot>,
) -> usize {
    let mut best: Option<u64> = None;
    for (k, &cand) in candidates.iter().enumerate() {
        if let Some(b) = best {
            let nz = count_of(cand).max(1) as u64;
            if b <= (nz - 1) * (nz - 1) {
                return k;
            }
        }
        if let Some(p) = eval(cand) {
            best = Some(best.map_or(p.cost, |b| b.min(p.cost)));
            if p.cost == 0 {
                return k + 1;
            }
        }
    }
    candidates.len()
}

/// Loop 270 (row search), sequential reference.
pub fn loop270_sequential(work: &EliminationWork, u: f64) -> (Option<StampedPivot>, usize) {
    let rows = candidate_rows(work);
    search_sequential(&rows, |r| best_in_row(work, r, u))
}

/// Loop 270 (row search), parallel.
pub fn loop270_parallel(
    pool: &Pool,
    work: &EliminationWork,
    u: f64,
) -> (Option<StampedPivot>, InductionOutcome) {
    let rows = candidate_rows(work);
    search_parallel(pool, &rows, |r| best_in_row(work, r, u))
}

/// Loop 320 (column search), sequential reference.
pub fn loop320_sequential(work: &EliminationWork, u: f64) -> (Option<StampedPivot>, usize) {
    let cols = candidate_cols(work);
    let colmap = column_rows(work);
    search_sequential(&cols, |j| best_in_col(work, &colmap, j, u))
}

/// Loop 320 (column search), parallel.
pub fn loop320_parallel(
    pool: &Pool,
    work: &EliminationWork,
    u: f64,
) -> (Option<StampedPivot>, InductionOutcome) {
    let cols = candidate_cols(work);
    let colmap = column_rows(work);
    search_parallel(pool, &cols, |j| best_in_col(work, &colmap, j, u))
}

/// Simulator view of a pivot-search loop: candidate-evaluation bodies
/// sized by each candidate's entry count, RV cost-0 exit at `exit_at`
/// (from the sequential reference), backups + time-stamps per Table 2.
pub fn sim_spec(
    candidate_lens: Vec<u64>,
    exit_at: Option<usize>,
) -> (LoopSpec, Overheads, ExecConfig) {
    let n = candidate_lens.len();
    let mut spec = LoopSpec::uniform(n, 0)
        .with_work(move |i| 10 + 7 * candidate_lens[i])
        .with_accesses(|_| 1, |_| 3);
    if let Some(e) = exit_at {
        spec = spec.with_exit(e, TerminatorKind::RemainderVariant);
    }
    // the backed-up state is the privatized pivot accumulators (a handful
    // of scalars per processor), not the matrix — MA28's "backups and
    // time-stamps" row is cheap in memory but still on the critical path
    (spec, Overheads::default(), ExecConfig::with_undo(64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlp_sparse::gen::{gemat_like, stencil7};

    fn stencil_work() -> EliminationWork {
        EliminationWork::from_csr(&stencil7(7, 7, 3, 9))
    }

    fn gemat_work() -> EliminationWork {
        EliminationWork::from_csr(&gemat_like(400, 2600, 4))
    }

    #[test]
    fn loop270_parallel_is_sequentially_consistent() {
        for work in [stencil_work(), gemat_work()] {
            let (seq, _) = loop270_sequential(&work, 0.1);
            let pool = Pool::new(4);
            let (par, _) = loop270_parallel(&pool, &work, 0.1);
            assert_eq!(seq, par, "parallel must return the sequential pivot");
            assert!(seq.is_some());
        }
    }

    #[test]
    fn loop320_parallel_is_sequentially_consistent() {
        for work in [stencil_work(), gemat_work()] {
            let (seq, _) = loop320_sequential(&work, 0.1);
            let pool = Pool::new(4);
            let (par, _) = loop320_parallel(&pool, &work, 0.1);
            assert_eq!(seq, par);
            assert!(seq.is_some());
        }
    }

    #[test]
    fn consistency_holds_across_elimination_steps() {
        let mut work = stencil_work();
        let pool = Pool::new(4);
        for step in 0..15 {
            let (seq, _) = loop270_sequential(&work, 0.1);
            let (par, _) = loop270_parallel(&pool, &work, 0.1);
            assert_eq!(seq, par, "step {step}");
            let p = seq.unwrap().pivot;
            work.eliminate(p.row, p.col);
        }
    }

    #[test]
    fn gemat_rows_have_singletons_causing_early_exit() {
        // GEMAT-class matrices have rows of count 1-2, so the cost-0 exit
        // usually fires early — the conditional exit that makes this a
        // WHILE loop
        let work = gemat_work();
        let (seq, examined) = loop270_sequential(&work, 0.01);
        assert!(seq.is_some());
        if seq.unwrap().pivot.cost == 0 {
            assert!(examined < work.n(), "exit must curb the scan");
        }
    }

    #[test]
    fn parallel_overshoot_does_not_change_the_winner() {
        // run with many pools; the winner must be identical every time
        let work = gemat_work();
        let (reference, _) = loop270_sequential(&work, 0.1);
        for p in [1, 2, 3, 8] {
            let pool = Pool::new(p);
            let (par, _) = loop270_parallel(&pool, &work, 0.1);
            assert_eq!(par, reference, "p = {p}");
        }
    }

    #[test]
    fn candidate_orders_are_by_count() {
        let work = stencil_work();
        let rows = candidate_rows(&work);
        for w in rows.windows(2) {
            assert!(
                (work.row_count(w[0]), w[0]) <= (work.row_count(w[1]), w[1]),
                "rows must be sorted by (count, index)"
            );
        }
        let cols = candidate_cols(&work);
        for w in cols.windows(2) {
            assert!((work.col_count(w[0]), w[0]) <= (work.col_count(w[1]), w[1]));
        }
    }

    #[test]
    fn empty_candidates() {
        let (best, examined) = search_sequential(&[], |_| None);
        assert!(best.is_none());
        assert_eq!(examined, 0);
        let pool = Pool::new(2);
        let (best, out) = search_parallel(&pool, &[], |_| None);
        assert!(best.is_none());
        assert_eq!(out.executed, 0);
    }
}
