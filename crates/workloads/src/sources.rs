//! WHILE-source forms of representative loops, certified end to end.
//!
//! Each constant is a loop the front-end can parse; [`certify`] runs the
//! static analysis over it and [`certified_config`] translates the
//! resulting [`SafetyCertificate`] into the simulator's [`ExecConfig`] —
//! the point where a static proof actually removes run-time machinery:
//!
//! * certified-DOALL + remainder-invariant exit → no backups, no stamps,
//!   no PD shadow (the loop runs as a plain DOALL);
//! * certified-DOALL + remainder-variant exit → overshoot undo only,
//!   the PD test is dropped;
//! * speculate-bounded → full PD machinery, but the undo budget is the
//!   certified bound (uncertain writes only), not the naive every-write
//!   one.

use wlp_analyze::{analyze, Analysis, CertVerdict, SafetyCertificate};
use wlp_core::taxonomy::TerminatorClass;
use wlp_ir::frontend::parse_loop;
use wlp_sim::ExecConfig;

/// Figure 5(b): the even/odd element swap through a temporary. The
/// temporary's carried dependences make the baseline plan sequential;
/// privatization certifies the loop as a DOALL.
pub const SWAP: &str = "integer i = 1\n\
integer tmp = 0\n\
while (i < n) {\n\
    tmp = A[2 * i]\n\
    A[2 * i] = A[2 * i - 1]\n\
    A[2 * i - 1] = tmp\n\
    i = i + 1\n\
}";

/// Mixed-certainty gather/scatter: the dense `B[i]` write is statically
/// certified (and `B` privatizes), only the indirect `A[idx[i]]` update
/// needs shadowing — the certificate halves the undo budget.
pub const GATHER_SCATTER: &str = "integer i = 0\n\
while (i < n) {\n\
    B[i] = 2 * w[i]\n\
    A[idx[i]] = A[idx[i]] + B[i]\n\
    i = i + 1\n\
}";

/// A counting reduction riding along a dense DOALL: `s` is an associative
/// accumulator read nowhere else, so the whole loop still certifies.
pub const COUNTED_FILL: &str = "integer i = 0\n\
integer s = 0\n\
while (i < n) {\n\
    s = s + 3\n\
    A[i] = w[i]\n\
    i = i + 1\n\
}";

/// TRACK-shaped error exit: independent iterations with a data-dependent
/// `exit if` — certified DOALL, but the remainder-variant terminator keeps
/// the overshoot-undo machinery.
pub const GUARDED_UPDATE: &str = "integer i = 0\n\
while (i < n) {\n\
    A[i] = g(A[i])\n\
    exit if (A[i] > limit)\n\
    i = i + 1\n\
}";

/// Figure 5(c): a first-order array recurrence — certified sequential,
/// speculation would abort deterministically.
pub const PARTIAL_SUMS: &str = "integer i = 1\n\
while (i < n) {\n\
    A[i] = A[i] + A[i - 1]\n\
    i = i + 1\n\
}";

/// A producer/consumer wavefront: the `B` recurrence is provably
/// sequential, but the `C` statement only reads `B[i-1]` — fission cuts
/// the loop into a sequential stage feeding a DOALL stage across one
/// distance-1 DOACROSS edge.
pub const WAVEFRONT: &str = "integer i = 1\n\
while (i < n) {\n\
    B[i] = B[i - 1] + w[i]\n\
    C[i] = B[i - 1] + 3\n\
    i = i + 1\n\
}";

/// MCSPARSE-shaped recurrence pair: two independent first-order
/// recurrences (`A`, `B`) plus a consumer of `A[i-1]` — the fission plan
/// fuses the recurrences into one sequential block and recovers the
/// consumer as a parallel sibling behind a DOACROSS edge.
pub const MCSPARSE_PAIR: &str = "integer i = 1\n\
while (i < n) {\n\
    A[i] = A[i - 1] + w[i]\n\
    B[i] = B[i - 1] * 2\n\
    C[i] = A[i - 1] + w[i]\n\
    i = i + 1\n\
}";

/// The named corpus the `wlp-serve` replay harness, smoke tests, and CI
/// draw from: every source constant in this module under a stable name.
pub fn corpus() -> Vec<(&'static str, &'static str)> {
    vec![
        ("swap", SWAP),
        ("gather_scatter", GATHER_SCATTER),
        ("counted_fill", COUNTED_FILL),
        ("guarded_update", GUARDED_UPDATE),
        ("partial_sums", PARTIAL_SUMS),
        ("wavefront", WAVEFRONT),
        ("mcsparse_pair", MCSPARSE_PAIR),
    ]
}

/// The `(arrays, scalars)` initial state a serve request supplies:
/// named integer arrays and named scalars.
pub type MachineInputs = (Vec<(String, Vec<i64>)>, Vec<(String, i64)>);

/// Canonical machine inputs for one corpus program at problem size `n`:
/// the `(arrays, scalars)` a serve request must supply for the loop to
/// run to completion. Deterministic in `(name, n)` so replayed traffic
/// is reproducible.
///
/// # Panics
/// On an unknown corpus name — callers enumerate [`corpus`].
pub fn machine_inputs(name: &str, n: usize) -> MachineInputs {
    let ni = n as i64;
    let fill = |len: usize, f: fn(usize) -> i64| (0..len).map(f).collect::<Vec<i64>>();
    match name {
        "swap" => (
            vec![("A".into(), fill(2 * n + 1, |i| (i as i64 * 3) % 17))],
            vec![("n".into(), ni)],
        ),
        "gather_scatter" => {
            let len = n.max(1);
            // a permutation keeps the indirect updates conflict-free, so
            // the speculative path commits
            let idx = (0..len).map(|i| ((i * 7 + 3) % len) as i64).collect();
            (
                vec![
                    ("A".into(), fill(len, |i| i as i64 % 11)),
                    ("B".into(), vec![0; len]),
                    ("w".into(), fill(len, |i| i as i64 % 7)),
                    ("idx".into(), idx),
                ],
                vec![("n".into(), ni)],
            )
        }
        "counted_fill" => (
            vec![
                ("A".into(), vec![0; n.max(1)]),
                ("w".into(), fill(n.max(1), |i| i as i64 % 13)),
            ],
            vec![("n".into(), ni)],
        ),
        "guarded_update" => (
            vec![("A".into(), fill(n.max(1), |i| i as i64 % 5))],
            vec![("n".into(), ni), ("limit".into(), 9)],
        ),
        "partial_sums" => (
            vec![("A".into(), vec![1; n.max(1)])],
            vec![("n".into(), ni)],
        ),
        "wavefront" => (
            vec![
                ("B".into(), vec![0; n.max(1)]),
                ("C".into(), vec![0; n.max(1)]),
                ("w".into(), fill(n.max(1), |i| i as i64 % 7)),
            ],
            vec![("n".into(), ni)],
        ),
        "mcsparse_pair" => (
            vec![
                ("A".into(), vec![0; n.max(1)]),
                ("B".into(), vec![1; n.max(1)]),
                ("C".into(), vec![0; n.max(1)]),
                ("w".into(), fill(n.max(1), |i| i as i64 % 7)),
            ],
            vec![("n".into(), ni)],
        ),
        other => panic!("unknown corpus program `{other}`"),
    }
}
///
/// # Panics
/// On parse errors — the sources are compile-time constants, so failure
/// to parse is a bug in this crate, not an input condition.
pub fn certify(src: &str) -> Analysis {
    analyze(&parse_loop(src).expect("workload source parses"))
}

/// The execution machinery a certificate prescribes for an `iters`-long
/// run, as a simulator [`ExecConfig`].
pub fn certified_config(cert: &SafetyCertificate, iters: u64) -> ExecConfig {
    match cert.verdict {
        // one lane, no speculation state to configure
        CertVerdict::CertifiedSequential => ExecConfig::default(),
        CertVerdict::CertifiedDoall => {
            if cert.terminator == TerminatorClass::RemainderVariant {
                // independent iterations but a data-dependent exit:
                // overshot iterations must be undone, nothing is shadowed
                ExecConfig::with_undo(cert.naive_write_budget(iters))
            } else {
                ExecConfig::default()
            }
        }
        CertVerdict::SpeculateBounded => ExecConfig::with_pd(cert.naive_write_budget(iters))
            .with_write_budget(cert.write_budget(iters).max(1)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wlp_ir::plan::StrategyKind;
    use wlp_runtime::GovernorPolicy;

    #[test]
    fn swap_is_replanned_from_sequential_to_doall() {
        let a = certify(SWAP);
        // before: the carried dependences through `tmp` force a
        // sequential plan; after: privatization certifies a DOALL
        assert_eq!(a.baseline.strategy, StrategyKind::Sequential);
        assert_eq!(a.refined.strategy, StrategyKind::InductionDoall);
        assert_eq!(a.certificate.verdict, CertVerdict::CertifiedDoall);

        let cfg = certified_config(&a.certificate, 1024);
        assert!(!cfg.pd_shadow && !cfg.stamp_writes && !cfg.undo_overshoot);
        assert_eq!(cfg.backup_elems, 0);
        assert_eq!(cfg.budget_writes, None);
    }

    #[test]
    fn gather_scatter_budget_is_halved() {
        let a = certify(GATHER_SCATTER);
        assert_eq!(a.certificate.verdict, CertVerdict::SpeculateBounded);
        assert_eq!(a.certificate.writes_per_iter, 2);
        assert_eq!(a.certificate.uncertain_writes_per_iter, 1);

        // before: every write shadowed; after: only the indirect update
        let n = 512;
        assert_eq!(a.certificate.naive_write_budget(n), 2 * n);
        assert_eq!(a.certificate.write_budget(n), n);

        let cfg = certified_config(&a.certificate, n);
        assert!(cfg.pd_shadow && cfg.stamp_writes);
        assert_eq!(cfg.budget_writes, Some(n));

        // the same bound flows into the governor's policy…
        let policy = a.certificate.apply_to_policy(GovernorPolicy::default(), n);
        assert_eq!(policy.budget_writes, Some(n));

        // …and into the speculative array: a real run of the indirect
        // update (one uncertain write per iteration, through a
        // permutation) commits within the certified budget
        let n_us = n as usize;
        let arr = a.certificate.speculative_array(vec![0i64; n_us], n);
        let out = wlp_core::speculative_while(
            &wlp_runtime::Pool::new(2),
            n_us,
            wlp_runtime::ChunkPolicy::One,
            &arr,
            &wlp_runtime::NoopRecorder,
            |_i, _acc| false,
            |i, acc| {
                let idx = (i * 7 + 3) % n_us;
                let v = acc.read(idx);
                acc.write(idx, v + 1);
            },
        );
        assert!(out.committed_parallel, "{out:?}");
        assert!(!arr.budget_exceeded());
        assert_eq!(arr.stamped_writes(), n);
    }

    #[test]
    fn counted_fill_reduction_rides_a_certified_doall() {
        let a = certify(COUNTED_FILL);
        assert!(a
            .recurrences
            .iter()
            .any(|r| r.role == wlp_analyze::RecurrenceRole::Reduction
                || r.role == wlp_analyze::RecurrenceRole::Dispatcher));
        assert_eq!(a.certificate.verdict, CertVerdict::CertifiedDoall);
        assert!(!a.certificate.needs_pd());
    }

    #[test]
    fn guarded_update_keeps_undo_but_drops_the_pd_test() {
        let a = certify(GUARDED_UPDATE);
        assert_eq!(a.certificate.verdict, CertVerdict::CertifiedDoall);
        assert_eq!(a.terminator, TerminatorClass::RemainderVariant);

        let cfg = certified_config(&a.certificate, 64);
        assert!(cfg.stamp_writes && cfg.undo_overshoot);
        assert!(!cfg.pd_shadow, "certified loops drop the run-time test");
    }

    #[test]
    fn wavefront_fissions_into_a_doacross_pipeline() {
        let a = certify(WAVEFRONT);
        // the whole loop is confined by the B recurrence…
        assert_eq!(a.certificate.verdict, CertVerdict::CertifiedSequential);
        // …but the fission plan recovers the consumer as a DOALL sibling
        assert!(a.fission.is_fissioned());
        assert_eq!(a.fission.blocks.len(), 2);
        assert_eq!(a.fission.parallel_blocks(), 1);
        assert_eq!(a.fission.edges.len(), 1);
        assert_eq!(a.fission.min_sync_distance(), Some(1));
    }

    #[test]
    fn mcsparse_pair_certifies_two_blocks_with_a_doacross_edge() {
        let a = certify(MCSPARSE_PAIR);
        assert_eq!(a.certificate.verdict, CertVerdict::CertifiedSequential);
        assert!(a.fission.is_fissioned());
        assert!(a.fission.blocks.len() >= 2, "{:?}", a.fission);
        assert!(a.fission.parallel_blocks() >= 1);
        assert!(!a.fission.edges.is_empty(), "needs a DOACROSS edge");
        // mixed verdict: W-SEQ01 downgrades to a warning, so wlp-lint
        // exits 0 on this source
        assert!(a.diagnostics.iter().any(|d| d.code == "W-SEQ02"));
        assert!(a.diagnostics.iter().all(|d| d.code != "W-SEQ01"));
    }

    #[test]
    fn partial_sums_is_certified_sequential() {
        let a = certify(PARTIAL_SUMS);
        assert_eq!(a.certificate.verdict, CertVerdict::CertifiedSequential);
        let cfg = certified_config(&a.certificate, 64);
        assert_eq!(cfg, ExecConfig::default());
    }
}
