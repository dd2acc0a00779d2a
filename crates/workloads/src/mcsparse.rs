//! MCSPARSE `DFACT` loop 500: non-deterministic pivot search — the
//! WHILE-DOANY construct (Figures 8–11).
//!
//! MCSPARSE is insensitive to the order in which rows and columns are
//! searched for a pivot. The original code parallelized only the row
//! search (a DOANY) and left the column traversal sequential; the paper
//! fuses the two into a single WHILE-DOANY searching the whole matrix.
//! Because *any* satisfying iterate is acceptable, the RV terminator
//! needs **no backups and no time-stamps** despite overshooting — the
//! Table 2 row with speedups 7.0/6.8/4.8/5.7 across the four inputs.

use parking_lot::Mutex;
use wlp_runtime::{doall_dynamic, ChunkPolicy, NoopRecorder, Pool, Step};
use wlp_sim::{LoopSpec, Overheads};
use wlp_sparse::{best_in_row, EliminationWork, Pivot};

/// A fused row/column candidate: even indices search a row, odd indices a
/// column (the WHILE-DOANY interleave of the two original loops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Candidate {
    /// Search row `r` for its best admissible entry.
    Row(usize),
    /// Search column `j` for its best admissible entry.
    Col(usize),
}

/// The fused candidate sequence for an `n × n` workspace.
pub fn candidates(n: usize) -> impl Iterator<Item = Candidate> {
    (0..2 * n).map(|k| {
        if k % 2 == 0 {
            Candidate::Row(k / 2)
        } else {
            Candidate::Col(k / 2)
        }
    })
}

/// Column → active rows holding it (built once per search step).
pub fn column_rows(work: &EliminationWork) -> Vec<Vec<usize>> {
    let mut map = vec![Vec::new(); work.n()];
    for r in work.active_rows() {
        for &(c, _) in work.row(r) {
            if work.is_col_active(c as usize) {
                map[c as usize].push(r);
            }
        }
    }
    map
}

/// Best admissible entry of column `j` (threshold relative to each row).
pub fn best_in_col(
    work: &EliminationWork,
    colmap: &[Vec<usize>],
    j: usize,
    u: f64,
) -> Option<Pivot> {
    if !work.is_col_active(j) {
        return None;
    }
    let mut best: Option<Pivot> = None;
    for &r in &colmap[j] {
        let Some(v) = work.get(r, j) else { continue };
        if v.abs() < u * work.row_abs_max(r) {
            continue;
        }
        let cost = work.markowitz_cost(r, j);
        if best.is_none_or(|b| cost < b.cost) {
            best = Some(Pivot {
                row: r,
                col: j,
                cost,
                value: v,
            });
        }
    }
    best
}

/// Evaluates candidate `k`: its best admissible pivot, if any.
pub fn evaluate_candidate(
    work: &EliminationWork,
    colmap: &[Vec<usize>],
    cand: Candidate,
    u: f64,
) -> Option<Pivot> {
    match cand {
        Candidate::Row(r) => best_in_row(work, r, u),
        Candidate::Col(j) => best_in_col(work, colmap, j, u),
    }
}

/// Acceptance: a pivot whose Markowitz cost is within `cost_bound`.
pub fn acceptable(p: &Pivot, cost_bound: u64) -> bool {
    p.cost <= cost_bound
}

/// Sequential DFACT search: scan the fused candidates in order, return the
/// first acceptable pivot (and how many candidates were examined).
pub fn dfact_sequential(work: &EliminationWork, u: f64, cost_bound: u64) -> (Option<Pivot>, usize) {
    let colmap = column_rows(work);
    for (k, cand) in candidates(work.n()).enumerate() {
        if let Some(p) = evaluate_candidate(work, &colmap, cand, u) {
            if acceptable(&p, cost_bound) {
                return (Some(p), k + 1);
            }
        }
    }
    (None, 2 * work.n())
}

/// Parallel WHILE-DOANY search: dynamic self-scheduled candidates, first
/// acceptable pivot quits the loop; overshot searches are simply
/// discarded (no undo — the defining DOANY property). Returns the pivot
/// found (any acceptable one) and the candidates examined.
pub fn dfact_doany(
    pool: &Pool,
    work: &EliminationWork,
    u: f64,
    cost_bound: u64,
) -> (Option<Pivot>, u64) {
    let colmap = column_rows(work);
    let cands: Vec<Candidate> = candidates(work.n()).collect();
    let found: Mutex<Option<Pivot>> = Mutex::new(None);
    let out = doall_dynamic(
        pool,
        cands.len(),
        ChunkPolicy::One,
        &NoopRecorder,
        |k, _| {
            if let Some(p) = evaluate_candidate(work, &colmap, cands[k], u) {
                if acceptable(&p, cost_bound) {
                    let mut f = found.lock();
                    if f.is_none() {
                        *f = Some(p);
                    }
                    return Step::Quit;
                }
            }
            Step::Continue
        },
    );
    (found.into_inner(), out.executed)
}

/// All acceptable candidate indices — drives [`wlp_sim::sim_doany`] so the
/// figures reflect the *real* success density of each input matrix.
pub fn success_positions(work: &EliminationWork, u: f64, cost_bound: u64) -> Vec<usize> {
    let colmap = column_rows(work);
    candidates(work.n())
        .enumerate()
        .filter_map(|(k, cand)| {
            evaluate_candidate(work, &colmap, cand, u)
                .filter(|p| acceptable(p, cost_bound))
                .map(|_| k)
        })
        .collect()
}

/// Simulator view of the fused search: candidate-evaluation bodies whose
/// cost tracks the row/column lengths of `work`.
pub fn sim_spec(work: &EliminationWork) -> (LoopSpec, Overheads) {
    let colmap = column_rows(work);
    let lens: Vec<u64> = candidates(work.n())
        .map(|cand| match cand {
            Candidate::Row(r) => work.row(r).len() as u64,
            Candidate::Col(j) => colmap[j].len() as u64,
        })
        .collect();
    let spec = LoopSpec::uniform(lens.len(), 0)
        .with_work(move |i| 8 + 6 * lens[i])
        .with_accesses(|_| 0, |_| 2);
    (spec, Overheads::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlp_sparse::gen::stencil7;

    fn work() -> EliminationWork {
        EliminationWork::from_csr(&stencil7(8, 8, 3, 5))
    }

    #[test]
    fn sequential_finds_an_acceptable_pivot() {
        let w = work();
        let (p, examined) = dfact_sequential(&w, 0.1, 16);
        let p = p.expect("stencil has admissible pivots");
        assert!(acceptable(&p, 16));
        assert!(examined >= 1);
    }

    #[test]
    fn doany_finds_some_acceptable_pivot() {
        let w = work();
        let pool = Pool::new(4);
        let (p, _) = dfact_doany(&pool, &w, 0.1, 16);
        let p = p.expect("parallel search must find a pivot too");
        assert!(
            acceptable(&p, 16),
            "any acceptable pivot is a correct answer"
        );
        // the found pivot must be a real admissible entry
        assert!(w.get(p.row, p.col).is_some());
        assert_eq!(w.markowitz_cost(p.row, p.col), p.cost);
    }

    #[test]
    fn impossible_bound_finds_nothing() {
        let w = work();
        let (ps, examined) = dfact_sequential(&w, 1.1, 0);
        // u > 1 rejects every entry (nothing beats the row max strictly)
        assert!(ps.is_none());
        assert_eq!(examined, 2 * w.n());
        let pool = Pool::new(4);
        let (pp, executed) = dfact_doany(&pool, &w, 1.1, 0);
        assert!(pp.is_none());
        assert_eq!(executed, 2 * w.n() as u64);
    }

    #[test]
    fn success_positions_match_sequential_first_hit() {
        let w = work();
        let succ = success_positions(&w, 0.1, 16);
        let (p, examined) = dfact_sequential(&w, 0.1, 16);
        assert!(p.is_some());
        assert_eq!(succ.first().copied(), Some(examined - 1));
    }

    #[test]
    fn column_search_agrees_with_row_search_on_symmetric_pattern() {
        // the stencil is structurally symmetric: column j's entries mirror
        // row j's, so the candidate sets are consistent
        let w = work();
        let colmap = column_rows(&w);
        for j in [0usize, 17, 100] {
            let by_col = best_in_col(&w, &colmap, j, 0.0);
            assert!(by_col.is_some(), "col {j} must have entries");
            assert_eq!(by_col.unwrap().col, j);
        }
    }

    #[test]
    fn sim_spec_work_tracks_structure() {
        let w = work();
        let (spec, _) = sim_spec(&w);
        assert_eq!(spec.upper, 2 * w.n());
        // an interior row has 7 entries → 8 + 42 = 50 cycles
        assert!(spec.t_rem() > 0);
    }
}
