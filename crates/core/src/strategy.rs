//! Strategies for applying the techniques (Section 8).
//!
//! * [`StatsStamping`] — statistics-enhanced stamping (Section 8.1): when a
//!   compiler-supplied estimate `n̂` of the trip count exists, values
//!   written by iterations below `x%·n̂` (where `x%` is the confidence in
//!   the estimate) are very unlikely to need undoing, so their time-stamps
//!   can be skipped.
//! * [`hedged_execute`] — the 1-processor/(p−1)-processor solution
//!   (Section 8.3): one processor runs the loop sequentially while the rest
//!   run it in parallel on separate output copies; whichever finishes first
//!   wins and cancels the other.
//! * [`governed_while`] — adaptive governance: one WHILE-loop instance
//!   executed on whatever rung of the strategy ladder the
//!   [`Governor`] currently recommends, with the policy's watchdog
//!   deadline and undo-log budget applied, and the attempt's outcome fed
//!   back so abort storms demote the ladder and success streaks earn
//!   re-promotion probes. It reports to the caller's recorder like every
//!   method that records (pass `NoopRecorder` to trace nothing).
//!
//! (Strip-mining and the sliding window — Sections 8.1/8.2 — are the
//! [`wlp_runtime::strip_mined`] and [`wlp_runtime::doall_windowed`]
//! schedulers, which the methods in this crate compose with.)

use crate::speculate::{
    run_twice_speculative, speculative_while, speculative_while_windowed, SpecAccess,
    SpeculativeArray,
};
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use wlp_obs::{AbortReason, Event, Recorder, StrategyChoice};
use wlp_runtime::{ChunkPolicy, Governor, Pool, Transition};

/// How a governed attempt went: which rung ran, whether the governor
/// moved, and the usual speculation outcome facts.
#[derive(Debug, Clone)]
pub struct GovernedOutcome {
    /// The ladder rung this attempt executed on.
    pub strategy: StrategyChoice,
    /// The demotion/re-promotion this attempt's outcome triggered, if any
    /// (already applied to the governor; the *next* attempt runs on
    /// `transition.to`).
    pub transition: Option<Transition>,
    /// The parallel result was kept (always `false` on the sequential
    /// rung — there is nothing speculative to keep).
    pub committed_parallel: bool,
    /// Why the parallel attempt was thrown away, if it was.
    pub abort: Option<AbortReason>,
    /// The first iteration satisfying the terminator, if reached.
    pub last_valid: Option<usize>,
    /// Bodies executed by the attempt that produced the final state.
    pub executed: u64,
}

/// Executes one instance of `while !term(i) { body(i, A) }` on the rung
/// the [`Governor`] currently recommends:
///
/// * [`StrategyChoice::Speculative`] — full speculation with the PD test
///   ([`speculative_while`], whose events go to `rec`);
/// * [`StrategyChoice::Windowed`] — the same, but through the Section 8.2
///   sliding window at the governor's [`degraded_window`] (half the
///   configured span), bounding in-flight state;
/// * [`StrategyChoice::Distribution`] — the Section 4 run-twice scheme
///   ([`run_twice_speculative`]): terminator pass first, then a
///   known-range DOALL that cannot overshoot;
/// * [`StrategyChoice::Sequential`] — plain sequential execution on the
///   caller's thread; never fails.
///
/// The policy's watchdog [`Deadline`] is armed on the pool handle and its
/// undo-log budget is applied to the speculative array, so a wedged lane
/// or a write storm aborts the attempt instead of hanging or OOMing. The
/// attempt's outcome is fed back into the governor; a resulting
/// [`Transition`] is emitted as [`Event::Demote`]/[`Event::Repromote`]
/// and returned in the outcome. Pass [`wlp_obs::NoopRecorder`] to trace
/// nothing.
///
/// The terminator is index-only (the paper's RI condition) — required by
/// the distribution rung, whose first pass evaluates it without the
/// array. Every rung produces the sequential-equivalent final state; the
/// returned vector is the array after the attempt (including any
/// sequential fallback).
///
/// [`degraded_window`]: Governor::degraded_window
/// [`Deadline`]: wlp_runtime::Deadline
pub fn governed_while<T, TF, BF, R>(
    pool: &Pool,
    upper: usize,
    init: Vec<T>,
    governor: &mut Governor,
    rec: &R,
    term: TF,
    body: BF,
) -> (GovernedOutcome, Vec<T>)
where
    T: Copy + Send + Sync,
    TF: Fn(usize) -> bool + Sync,
    BF: Fn(usize, &mut SpecAccess<'_, T>) + Sync,
    R: Recorder,
{
    let policy = *governor.policy();
    let gpool = match policy.deadline {
        Some(d) => pool.with_deadline(d),
        None => pool.clone(),
    };
    let arr = {
        let a = SpeculativeArray::new(init);
        match policy.budget_writes {
            Some(w) => a.with_budget(w),
            None => a,
        }
    };
    let rung = governor.current();
    let (abort, committed_parallel, last_valid, executed) = match rung {
        StrategyChoice::Speculative => {
            let out = speculative_while(
                &gpool,
                upper,
                ChunkPolicy::One,
                &arr,
                rec,
                |i, _| term(i),
                &body,
            );
            (
                out.abort,
                out.committed_parallel,
                out.last_valid,
                out.executed_parallel,
            )
        }
        StrategyChoice::Windowed => {
            let (out, _span) = speculative_while_windowed(
                &gpool,
                upper,
                governor.degraded_window(),
                &arr,
                |i, _| term(i),
                &body,
            );
            (
                out.abort,
                out.committed_parallel,
                out.last_valid,
                out.executed_parallel,
            )
        }
        StrategyChoice::Distribution => {
            let out = run_twice_speculative(&gpool, upper, &arr, &term, &body);
            (
                out.abort,
                out.committed_parallel,
                out.last_valid,
                out.executed_parallel,
            )
        }
        StrategyChoice::Sequential => {
            let mut last_valid = None;
            let mut executed = 0u64;
            for i in 0..upper {
                if term(i) {
                    last_valid = Some(i);
                    break;
                }
                let mut acc = arr.direct();
                body(i, &mut acc);
                executed += 1;
            }
            (None, false, last_valid, executed)
        }
    };

    let transition = match abort {
        Some(reason) => governor.record_failure(reason),
        None => governor.record_success(),
    };
    if R::ENABLED {
        if let Some(t) = transition {
            let ev = if t.is_demotion() {
                Event::Demote {
                    from: t.from,
                    to: t.to,
                }
            } else {
                Event::Repromote {
                    from: t.from,
                    to: t.to,
                }
            };
            rec.record(0, ev);
        }
    }
    let snapshot = arr.snapshot();
    (
        GovernedOutcome {
            strategy: rung,
            transition,
            committed_parallel,
            abort,
            last_valid,
            executed,
        },
        snapshot,
    )
}

/// The Section 8.1 stamping policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsStamping {
    /// Compiler/profile estimate of the trip count (`n̂`).
    pub estimated_iterations: f64,
    /// Confidence in the estimate, in `[0, 1]` (the paper's `x%`).
    pub confidence: f64,
}

impl StatsStamping {
    /// The first iteration whose writes must be time-stamped:
    /// `n′ = confidence · n̂` (iterations below it are presumed valid).
    pub fn start_stamping_at(&self) -> usize {
        assert!(
            (0.0..=1.0).contains(&self.confidence),
            "confidence must be in [0, 1]"
        );
        (self.confidence * self.estimated_iterations)
            .floor()
            .max(0.0) as usize
    }

    /// Whether iteration `i`'s writes need a time-stamp.
    pub fn should_stamp(&self, i: usize) -> bool {
        i >= self.start_stamping_at()
    }

    /// Expected fraction of stamped writes for a loop of `n` uniform-write
    /// iterations (the memory saving the policy buys).
    pub fn stamped_fraction(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let start = self.start_stamping_at().min(n);
        (n - start) as f64 / n as f64
    }
}

/// Who finished first in a hedged execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HedgeWinner {
    /// The sequential copy completed first.
    Sequential,
    /// The parallel copy completed first.
    Parallel,
}

/// Cooperative cancellation token polled by hedged executions.
#[derive(Debug, Default)]
pub struct CancelToken(AtomicBool);

impl CancelToken {
    /// Whether the other side already won.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }
}

/// Runs `seq` and `par` concurrently on separate threads, each against its
/// own output copy; the first to finish cancels the other (which must poll
/// its [`CancelToken`] to stop early). Returns the winner — the caller
/// keeps that side's output. Both closures always return before this
/// function does, so partial loser state can be discarded safely.
pub fn hedged_execute<SF, PF>(seq: SF, par: PF) -> HedgeWinner
where
    SF: FnOnce(&CancelToken) + Send,
    PF: FnOnce(&CancelToken) + Send,
{
    const NONE: u8 = 0;
    const SEQ: u8 = 1;
    const PAR: u8 = 2;
    let winner = AtomicU8::new(NONE);
    let seq_token = CancelToken::default();
    let par_token = CancelToken::default();

    std::thread::scope(|s| {
        let w = &winner;
        let st = &seq_token;
        let pt = &par_token;
        s.spawn(move || {
            par(pt);
            if w.compare_exchange(NONE, PAR, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                st.cancel();
            }
        });
        seq(st);
        if winner
            .compare_exchange(NONE, SEQ, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            par_token.cancel();
        }
    });

    match winner.load(Ordering::Acquire) {
        SEQ => HedgeWinner::Sequential,
        PAR => HedgeWinner::Parallel,
        _ => unreachable!("someone must win"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamping_threshold_scales_with_confidence() {
        let s = StatsStamping {
            estimated_iterations: 1000.0,
            confidence: 0.9,
        };
        assert_eq!(s.start_stamping_at(), 900);
        assert!(!s.should_stamp(899));
        assert!(s.should_stamp(900));
        assert!((s.stamped_fraction(1000) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zero_confidence_stamps_everything() {
        let s = StatsStamping {
            estimated_iterations: 1000.0,
            confidence: 0.0,
        };
        assert_eq!(s.start_stamping_at(), 0);
        assert!((s.stamped_fraction(500) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn loop_shorter_than_threshold_stamps_nothing() {
        let s = StatsStamping {
            estimated_iterations: 1000.0,
            confidence: 0.9,
        };
        assert_eq!(s.stamped_fraction(800), 0.0);
        assert_eq!(s.stamped_fraction(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "confidence")]
    fn confidence_out_of_range_panics() {
        let s = StatsStamping {
            estimated_iterations: 10.0,
            confidence: 1.5,
        };
        let _ = s.start_stamping_at();
    }

    #[test]
    fn hedge_fast_parallel_wins() {
        let winner = hedged_execute(
            |t| {
                // slow sequential, polls cancellation
                for _ in 0..1000 {
                    if t.is_cancelled() {
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            },
            |_| {
                // instant parallel
            },
        );
        assert_eq!(winner, HedgeWinner::Parallel);
    }

    #[test]
    fn hedge_fast_sequential_wins() {
        let winner = hedged_execute(
            |_| {},
            |t| {
                for _ in 0..1000 {
                    if t.is_cancelled() {
                        return;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            },
        );
        assert_eq!(winner, HedgeWinner::Sequential);
    }

    #[test]
    fn hedge_always_produces_a_winner() {
        for _ in 0..10 {
            let w = hedged_execute(|_| {}, |_| {});
            assert!(matches!(w, HedgeWinner::Sequential | HedgeWinner::Parallel));
        }
    }

    use wlp_runtime::GovernorPolicy;

    /// The sequential truth for the governed-test loop: `v[i] = i + 1`
    /// for iterations below the exit.
    fn governed_truth(n: usize, exit: usize) -> Vec<i64> {
        (0..n as i64)
            .map(|i| if (i as usize) < exit { i + 1 } else { 0 })
            .collect()
    }

    #[test]
    fn clean_governed_loop_commits_on_the_top_rung() {
        let pool = Pool::new(4);
        let mut gov = Governor::new(GovernorPolicy::default());
        let (out, snap) = governed_while(
            &pool,
            256,
            vec![0i64; 256],
            &mut gov,
            &wlp_obs::NoopRecorder,
            |i| i == 200,
            |i, a| a.write(i, i as i64 + 1),
        );
        assert_eq!(out.strategy, StrategyChoice::Speculative);
        assert!(out.committed_parallel);
        assert_eq!(out.abort, None);
        assert_eq!(out.last_valid, Some(200));
        assert_eq!(snap, governed_truth(256, 200));
        assert_eq!(gov.current(), StrategyChoice::Speculative);
    }

    #[test]
    fn budget_storm_walks_the_ladder_to_a_terminal_sequential_rung() {
        let pool = Pool::new(4);
        // every parallel rung stamps one write per iteration, so a budget
        // of 4 writes trips on every attempt; the sequential rung writes
        // directly and never charges the budget
        let policy = GovernorPolicy {
            demote_threshold: 2,
            initial_backoff: 2,
            max_backoff: 8,
            budget_writes: Some(4),
            ..GovernorPolicy::default()
        };
        let mut gov = Governor::new(policy);
        let mut rungs_seen = std::collections::BTreeSet::new();
        for _ in 0..120 {
            let (out, snap) = governed_while(
                &pool,
                64,
                vec![0i64; 64],
                &mut gov,
                &wlp_obs::NoopRecorder,
                |i| i == 40,
                |i, a| a.write(i, i as i64 + 1),
            );
            rungs_seen.insert(out.strategy.name());
            assert_eq!(
                snap,
                governed_truth(64, 40),
                "rung {:?} must stay sequential-equivalent",
                out.strategy
            );
            if out.strategy != StrategyChoice::Sequential {
                assert_eq!(out.abort, Some(AbortReason::Budget));
            }
        }
        assert_eq!(gov.current(), StrategyChoice::Sequential);
        assert!(
            gov.is_terminal(),
            "backoff cap must stop re-promotion probes"
        );
        assert!(gov.failures().budget > 0);
        assert!(gov.demotions() > gov.repromotions());
        for rung in ["speculative", "windowed", "distribution", "sequential"] {
            assert!(rungs_seen.contains(rung), "never ran on {rung}");
        }
    }

    #[test]
    fn governed_transitions_are_traced_as_demote_and_repromote_events() {
        let pool = Pool::new(2);
        let policy = GovernorPolicy {
            demote_threshold: 1,
            initial_backoff: 1,
            max_backoff: 64,
            budget_writes: Some(2),
            ..GovernorPolicy::default()
        };
        let mut gov = Governor::new(policy);
        let rec = wlp_obs::BufferRecorder::new(pool.size());
        for _ in 0..12 {
            let (_, snap) = governed_while(
                &pool,
                16,
                vec![0i64; 16],
                &mut gov,
                &rec,
                |i| i == 10,
                |i, a| a.write(i, i as i64 + 1),
            );
            assert_eq!(snap, governed_truth(16, 10));
        }
        let report = wlp_obs::ProfileReport::from_trace(&rec.finish());
        assert_eq!(report.demotions, gov.demotions());
        assert_eq!(report.repromotions, gov.repromotions());
        assert!(report.demotions >= 1, "budget storm must demote");
        assert!(
            report.repromotions >= 1,
            "sequential successes must earn a probe before the backoff cap"
        );
    }
}
