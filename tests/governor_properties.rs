//! Property and acceptance tests for the adaptive governor.
//!
//! Three contracts, end to end through the facade crate:
//!
//! * **Equivalence** — a governed WHILE loop produces the
//!   pure-sequential final state on every rung of the demotion ladder,
//!   under every seeded fault kind (panic, stall, write-hog) and at any
//!   fault site, round after round.
//! * **No livelock** — the [`Governor`] state machine settles under any
//!   outcome sequence: its transition count is bounded by the backoff
//!   cap, and sustained failure always reaches a rung it never leaves.
//! * **Acceptance** — a stalled worker inside a deadline-armed
//!   speculative loop times out, recovers to the sequential-equivalent
//!   result, surfaces a `TimeoutAbort` in the trace, and leaves the
//!   resident pool reusable.

use proptest::prelude::*;
use std::time::Duration;
use wlp::core::{governed_while, speculative_while, SpeculativeArray};
use wlp::fault::{FaultAction, FaultPlan};
use wlp::obs::{AbortReason, BufferRecorder, Event, ProfileReport, StrategyChoice};
use wlp::runtime::{ChunkPolicy, Deadline, Governor, GovernorPolicy, NoopRecorder, Pool};

/// Sequential truth of the governed test loop: `body` writes
/// `i * 7 + 3` below the exit, everything at or above it keeps the
/// initial value.
fn sequential_truth(n: usize, exit: usize) -> Vec<i64> {
    (0..n)
        .map(|i| if i < exit { i as i64 * 7 + 3 } else { 0 })
        .collect()
}

/// One deterministic pseudo-random step (splitmix64).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn reason_from_bits(bits: u64) -> AbortReason {
    match bits & 3 {
        0 => AbortReason::Dependence,
        1 => AbortReason::Exception,
        2 => AbortReason::Timeout,
        _ => AbortReason::Budget,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) Result equivalence: whatever rung the governor lands on and
    /// whatever seeded fault fires on the way down, every round of the
    /// governed loop ends in the pure-sequential final state.
    #[test]
    fn governed_results_match_pure_sequential_under_any_fault(
        n in 8usize..96,
        exit_pick in 0usize..97,
        workers in 1usize..5,
        mode_pick in 0usize..4,
        site_pick in 0usize..96,
        rounds in 2usize..5,
    ) {
        let exit = exit_pick % (n + 1);
        let site = site_pick % n;
        // One-shot plan: the first matching round eats the fault, later
        // rounds (and every sequential re-execution) run clean.
        let plan = match mode_pick {
            0 => FaultPlan::none(),
            1 => FaultPlan::panic_at(site),
            2 => FaultPlan::stall_at(site, Duration::from_millis(6)),
            _ => FaultPlan::hog_at(site, 512),
        };
        let mut policy = GovernorPolicy {
            window: 2,
            demote_threshold: 1,
            initial_backoff: 1,
            max_backoff: 4,
            ..GovernorPolicy::default()
        };
        // Deadline and budget armed except in panic mode: a stall trips
        // the watchdog, a hog trips the budget, and a spurious trip on a
        // loaded machine is harmless (the contract under test is that
        // the result stays sequential-equivalent regardless). In panic
        // mode the ladder must not outrun the one-shot plan: the
        // sequential rung intentionally runs without a catch, so the
        // only failure driver there is the contained panic itself.
        if mode_pick != 1 {
            policy = policy
                .with_deadline(Deadline::from_millis(2))
                .with_budget(3 * n as u64);
        }
        let mut gov = Governor::new(policy);
        let pool = Pool::new(workers);
        let truth = sequential_truth(n, exit);

        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let mut datas = Vec::new();
        for _ in 0..rounds {
            let (_, data) = governed_while(
                &pool,
                n,
                vec![0i64; n],
                &mut gov,
                &NoopRecorder,
                |i| i >= exit,
                |i, a| {
                    if let FaultAction::HogWrites(k) = plan.inject(i, 0) {
                        for _ in 0..k {
                            a.write(i, -1);
                        }
                    }
                    a.write(i, i as i64 * 7 + 3);
                },
            );
            datas.push(data);
        }
        std::panic::set_hook(hook);

        for (round, data) in datas.iter().enumerate() {
            prop_assert_eq!(
                data, &truth,
                "round {} diverged from the sequential truth (rung {:?})",
                round, gov.current()
            );
        }
        prop_assert!(gov.repromotions() <= gov.demotions());
    }

    /// (b) No livelock, adversarial form: under *any* outcome sequence
    /// the number of strategy transitions is bounded by the backoff cap
    /// — each demotion doubles the probe requirement, probing stops at
    /// the cap, and re-promotions can never outnumber demotions.
    #[test]
    fn transition_count_is_bounded_under_any_outcome_sequence(
        seed in any::<u64>(),
        window in 1usize..10,
        demote_threshold in 1usize..10,
        initial_backoff in 1u64..8,
        max_backoff in 1u64..128,
    ) {
        let policy = GovernorPolicy {
            window,
            demote_threshold,
            initial_backoff,
            max_backoff,
            ..GovernorPolicy::default()
        };
        let mut gov = Governor::new(policy);
        let mut state = seed;
        let mut transitions = 0u64;
        for _ in 0..20_000 {
            let bits = splitmix64(&mut state);
            let t = if bits & 1 == 1 {
                gov.record_failure(reason_from_bits(bits >> 1))
            } else {
                gov.record_success()
            };
            transitions += u64::from(t.is_some());
            prop_assert!(gov.repromotions() <= gov.demotions());
        }
        // demotions while probing <= log2(max_backoff) + 1, then at most
        // the ladder height more; repromotions <= demotions.
        let bound = 2 * (64 - max_backoff.leading_zeros() as u64 + 4);
        prop_assert!(
            transitions <= bound,
            "{} transitions exceeds the backoff-cap bound {}",
            transitions,
            bound
        );
    }

    /// (b) No livelock, absorbing form: after any warm-up history,
    /// sustained failure settles the governor on a rung it never leaves
    /// — and when the demote threshold is reachable at all, that rung is
    /// the sequential floor.
    #[test]
    fn sustained_failure_always_settles_on_a_final_rung(
        seed in any::<u64>(),
        window in 1usize..10,
        demote_threshold in 1usize..12,
        initial_backoff in 1u64..8,
        max_backoff in 1u64..64,
    ) {
        let policy = GovernorPolicy {
            window,
            demote_threshold,
            initial_backoff,
            max_backoff,
            ..GovernorPolicy::default()
        };
        let mut gov = Governor::new(policy);
        let mut state = seed;
        for _ in 0..2_000 {
            let bits = splitmix64(&mut state);
            if bits & 1 == 1 {
                gov.record_failure(reason_from_bits(bits >> 1));
            } else {
                gov.record_success();
            }
        }
        let batch = 4 * (window * demote_threshold + 16);
        for _ in 0..batch {
            gov.record_failure(AbortReason::Dependence);
        }
        let settled = gov.current();
        if demote_threshold <= window {
            prop_assert_eq!(settled, StrategyChoice::Sequential);
        }
        for _ in 0..batch {
            prop_assert!(
                gov.record_failure(AbortReason::Timeout).is_none(),
                "governor moved off its settled rung under sustained failure"
            );
        }
        prop_assert_eq!(gov.current(), settled);
    }
}

/// (c) The acceptance scenario, deterministic: a worker wedged by a
/// 50 ms stall inside an 8 ms-deadline speculative loop. The watchdog
/// must fire, the loop must recover to the exact sequential state, the
/// trace must carry the `TimeoutAbort`, and the resident pool must keep
/// serving regions afterwards.
#[test]
fn stalled_worker_times_out_recovers_and_leaves_the_pool_reusable() {
    let (n, exit, stall_at) = (192usize, 150usize, 60usize);
    let plan = FaultPlan::stall_at(stall_at, Duration::from_millis(50));
    let pool = Pool::new(4);
    let armed = pool.with_deadline(Deadline::from_millis(8));
    let arr = SpeculativeArray::new(vec![0i64; n]);
    let rec = BufferRecorder::new(4);

    let out = speculative_while(
        &armed,
        n,
        ChunkPolicy::One,
        &arr,
        &rec,
        |i, _| i == exit,
        |i, a| {
            let _ = plan.inject(i, 0);
            a.write(i, i as i64 * 7 + 3);
        },
    );

    assert!(plan.fired(), "the stall must have been injected");
    assert_eq!(out.abort, Some(AbortReason::Timeout));
    assert!(!out.committed_parallel);
    assert!(out.reexecuted_sequentially);
    assert_eq!(arr.snapshot(), sequential_truth(n, exit));

    let trace = rec.finish();
    assert!(
        trace
            .samples
            .iter()
            .any(|s| matches!(s.event, Event::TimeoutAbort { .. })),
        "the trace must carry the watchdog's TimeoutAbort"
    );
    let report = ProfileReport::from_trace(&trace);
    report.check_conservation().expect("conservation must hold");
    assert!(report.timeouts >= 1);
    assert_eq!(report.aborts_timeout, 1);

    // The timed-out region must not wedge the resident pool: a fresh
    // speculative region on the *undeadlined* handle commits cleanly.
    let probe = SpeculativeArray::new(vec![0i64; 64]);
    let ok = speculative_while(
        &pool,
        64,
        ChunkPolicy::One,
        &probe,
        &wlp::obs::NoopRecorder,
        |i, _| i == 48,
        |i, a| a.write(i, i as i64),
    );
    assert!(ok.committed_parallel && ok.abort.is_none());
}
