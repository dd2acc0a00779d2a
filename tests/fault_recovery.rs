//! End-to-end fault-recovery acceptance tests: the paper's Section 5
//! exception rule, exercised through the `wlp-fault` harness.
//!
//! For every parallel construct (DOALL, DOACROSS, strip-mined, windowed)
//! and the speculative driver, an injected worker panic must (a) be
//! contained — no process abort, (b) restore the checkpoint, (c) fall back
//! to sequential re-execution producing exactly the sequential final
//! state, and (d) surface in the recorded trace as an exception abort. A
//! corrupted (cyclic) linked list must yield a structured
//! `DispatcherDiverged` within the step budget instead of hanging.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use wlp::core::general::{general1, general2, general3, general3_recovering, GeneralConfig};
use wlp::core::speculate::{speculative_while, SpeculativeArray};
use wlp::core::{run_with_recovery, ParallelAttempt, VersionedArray};
use wlp::fault::{corrupt_list_cycle, FaultPlan, PANIC_MESSAGE_PREFIX};
use wlp::list::ListArena;
use wlp::obs::{BufferRecorder, NoopRecorder, ProfileReport};
use wlp::runtime::{doacross, doall_dynamic, doall_windowed, strip_mined, ChunkPolicy, Pool, Step};

const N: usize = 256;

fn expected(n: usize) -> Vec<i64> {
    (0..n as i64).map(|i| i * 3 + 1).collect()
}

/// Sequential fallback shared by every construct's recovery closure.
fn sequential_fill(arr: &VersionedArray<i64>) -> u64 {
    for i in 0..arr.len() {
        arr.write_direct(i, i as i64 * 3 + 1);
    }
    arr.len() as u64
}

/// Drives one construct through `run_with_recovery` with a fault planned
/// at iteration `k`, then checks the Section 5 contract end to end: fault
/// fired, recovery ran, final state is the sequential one, and the trace
/// shows exactly one exception abort.
fn check_recovery(
    name: &str,
    k: usize,
    parallel: impl FnOnce(&FaultPlan, &VersionedArray<i64>, &Pool) -> ParallelAttempt,
) {
    let arr = VersionedArray::new(vec![-7i64; N]);
    let plan = FaultPlan::panic_at(k);
    let pool = Pool::new(4);
    let rec = BufferRecorder::new(4);
    let out = run_with_recovery(
        &arr,
        &rec,
        || parallel(&plan, &arr, &pool),
        || sequential_fill(&arr),
    );
    assert!(plan.fired(), "{name}: fault must fire");
    assert!(out.recovered, "{name}: recovery must run");
    let wp = out.panic.as_ref().expect("panic recorded");
    assert!(
        wp.message.contains(PANIC_MESSAGE_PREFIX),
        "{name}: {}",
        wp.message
    );
    assert_eq!(
        arr.snapshot(),
        expected(N),
        "{name}: final state sequential"
    );
    let report = ProfileReport::from_trace(&rec.finish());
    assert_eq!(report.spec_aborts, 1, "{name}");
    assert_eq!(report.aborts_exception, 1, "{name}");
}

#[test]
fn doall_panic_restores_and_reexecutes() {
    check_recovery("doall", 100, |plan, arr, pool| {
        doall_dynamic(pool, N, ChunkPolicy::One, &NoopRecorder, |i, vpn| {
            let _ = plan.inject(i, vpn);
            arr.write(i, i as i64 * 3 + 1, i);
            Step::Continue
        })
        .into()
    });
}

#[test]
fn strip_panic_restores_and_reexecutes() {
    check_recovery("strip", 130, |plan, arr, pool| {
        strip_mined(pool, N, 32, ChunkPolicy::One, &NoopRecorder, |i, vpn| {
            let _ = plan.inject(i, vpn);
            arr.write(i, i as i64 * 3 + 1, i);
            Step::Continue
        })
        .into()
    });
}

#[test]
fn window_panic_restores_and_reexecutes() {
    check_recovery("window", 70, |plan, arr, pool| {
        doall_windowed(pool, N, 16, &NoopRecorder, |i, vpn| {
            let _ = plan.inject(i, vpn);
            arr.write(i, i as i64 * 3 + 1, i);
            Step::Continue
        })
        .0
        .into()
    });
}

#[test]
fn doacross_panic_restores_and_reexecutes() {
    check_recovery("doacross", 200, |plan, arr, pool| {
        doacross(pool, N, 2, 1, &NoopRecorder, |i, s| {
            if s == 1 {
                let _ = plan.inject(i, 0);
            } else {
                arr.write(i, i as i64 * 3 + 1, i);
            }
        })
        .into()
    });
}

#[test]
fn cyclic_list_diverges_within_budget_in_every_general_method() {
    let n = 240usize;
    let mut list = ListArena::from_values(0..n as u32);
    corrupt_list_cycle(&mut list, 17).expect("list long enough");
    let pool = Pool::new(4);
    let budget = (n as u64 + 1) * 4; // acceptance bound: f(len) steps total
    let runs: [&dyn Fn() -> wlp::core::general::GeneralOutcome; 3] = [
        &|| {
            general1(
                &pool,
                &list,
                GeneralConfig::default(),
                &NoopRecorder,
                |_, _| Step::Continue,
            )
        },
        &|| {
            general2(&pool, &list, GeneralConfig::default(), |_, _| {
                Step::Continue
            })
        },
        &|| {
            general3(
                &pool,
                &list,
                GeneralConfig::default(),
                &NoopRecorder,
                |_, _| Step::Continue,
            )
        },
    ];
    for (m, run) in runs.iter().enumerate() {
        let out = run();
        let d = out
            .diverged
            .unwrap_or_else(|| panic!("method {}: cycle must be detected", m + 1));
        assert!(
            d.steps <= budget,
            "method {}: {} steps exceeds budget {budget}",
            m + 1,
            d.steps
        );
        assert!(out.panic.is_none(), "divergence is not a panic");
    }
}

#[test]
fn speculative_driver_contains_panic_and_falls_back() {
    let n = 128usize;
    let arr = SpeculativeArray::new(vec![1i64; n]);
    let plan = FaultPlan::panic_at(60);
    let rec = BufferRecorder::new(4);
    let out = speculative_while(
        &Pool::new(4),
        n,
        ChunkPolicy::One,
        &arr,
        &rec,
        |_, _| false,
        |i, a| {
            let _ = plan.inject(i, 0);
            let v = a.read(i);
            a.write(i, v * 2);
        },
    );
    assert!(plan.fired());
    assert!(out.exception, "panic must register as an exception");
    assert!(!out.committed_parallel);
    assert!(out.reexecuted_sequentially);
    assert_eq!(arr.snapshot(), vec![2i64; n], "sequential fallback state");
    let report = ProfileReport::from_trace(&rec.finish());
    assert_eq!(report.aborts_exception, 1);
    assert_eq!(report.aborts_dependence, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Recovery equivalence, DOALL: a panic at arbitrary (k, vpn-mask)
    /// yields exactly the sequential final state.
    #[test]
    fn doall_recovery_equivalence(k in 0usize..N) {
        let arr = VersionedArray::new(vec![-7i64; N]);
        let plan = FaultPlan::panic_at(k);
        let pool = Pool::new(4);
        let out = run_with_recovery(&arr, &NoopRecorder, || {
            doall_dynamic(&pool, N, ChunkPolicy::One, &NoopRecorder, |i, vpn| {
                let _ = plan.inject(i, vpn);
                arr.write(i, i as i64 * 3 + 1, i);
                Step::Continue
            })
            .into()
        }, || sequential_fill(&arr));
        prop_assert!(out.recovered);
        prop_assert_eq!(arr.snapshot(), expected(N));
    }

    /// Recovery equivalence, strip-mined DOALL.
    #[test]
    fn strip_recovery_equivalence(k in 0usize..N, strip in 1usize..96) {
        let arr = VersionedArray::new(vec![-7i64; N]);
        let plan = FaultPlan::panic_at(k);
        let pool = Pool::new(4);
        let out = run_with_recovery(&arr, &NoopRecorder, || {
            strip_mined(&pool, N, strip, ChunkPolicy::One, &NoopRecorder, |i, vpn| {
                let _ = plan.inject(i, vpn);
                arr.write(i, i as i64 * 3 + 1, i);
                Step::Continue
            })
            .into()
        }, || sequential_fill(&arr));
        prop_assert!(out.recovered);
        prop_assert_eq!(arr.snapshot(), expected(N));
    }

    /// Recovery equivalence, windowed DOALL.
    #[test]
    fn window_recovery_equivalence(k in 0usize..N, window in 1usize..64) {
        let arr = VersionedArray::new(vec![-7i64; N]);
        let plan = FaultPlan::panic_at(k);
        let pool = Pool::new(4);
        let out = run_with_recovery(&arr, &NoopRecorder, || {
            doall_windowed(&pool, N, window, &NoopRecorder, |i, vpn| {
                let _ = plan.inject(i, vpn);
                arr.write(i, i as i64 * 3 + 1, i);
                Step::Continue
            })
            .0
            .into()
        }, || sequential_fill(&arr));
        prop_assert!(out.recovered);
        prop_assert_eq!(arr.snapshot(), expected(N));
    }

    /// Recovery equivalence, DOACROSS (fault in an arbitrary stage).
    #[test]
    fn doacross_recovery_equivalence(k in 0usize..N, stage in 0usize..3) {
        let arr = VersionedArray::new(vec![-7i64; N]);
        let plan = FaultPlan::panic_at(k);
        let pool = Pool::new(4);
        let out = run_with_recovery(&arr, &NoopRecorder, || {
            doacross(&pool, N, 3, 1, &NoopRecorder, |i, s| {
                if s == stage {
                    let _ = plan.inject(i, 0);
                }
                if s == 0 {
                    arr.write(i, i as i64 * 3 + 1, i);
                }
            })
            .into()
        }, || sequential_fill(&arr));
        prop_assert!(out.recovered);
        prop_assert_eq!(arr.snapshot(), expected(N));
    }

    /// Recovery equivalence, General-3 over a linked list: the recovering
    /// wrapper's sequential re-walk produces the sequential final state
    /// whatever iteration the fault hits.
    #[test]
    fn general3_recovery_equivalence(k in 0usize..200, seed in 0u64..64) {
        let n = 200usize;
        let list = ListArena::from_values_shuffled(0..n as u32, seed);
        let plan = FaultPlan::panic_at(k);
        let slots: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let out = general3_recovering(&Pool::new(4), &list, GeneralConfig::default(), &NoopRecorder, |i, node| {
            let _ = plan.inject(i, 0);
            // idempotent body: each logical position owns one slot
            slots[list[node] as usize].store(i as u64 + 1, Ordering::Relaxed);
            Step::Continue
        });
        prop_assert!(out.recovered);
        prop_assert!(out.diverged.is_none());
        prop_assert_eq!(out.iterations, n);
        // every slot written exactly once with its logical position + 1
        let order = list.logical_order();
        for (pos, id) in order.iter().enumerate() {
            let v = list[*id] as usize;
            prop_assert_eq!(slots[v].load(Ordering::Relaxed), pos as u64 + 1);
        }
    }
}
