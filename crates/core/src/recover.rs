//! Fault recovery: the paper's Section 5 exception rule as a reusable
//! combinator.
//!
//! "If an exception occurs during the speculative parallel execution …
//! the loop is treated like an invalid parallel execution: the values of
//! the altered variables are restored and the loop is re-executed
//! sequentially." In this codebase a worker "exception" is a contained
//! panic ([`WorkerPanic`], caught at an iteration boundary by the
//! `wlp-runtime` constructs and broadcast via their `CancelFlag`), the
//! "altered variables" live in a [`VersionedArray`] checkpoint, and the
//! recovery is observable: a restore emits [`Event::UndoRestore`] and
//! [`Event::SpecAbort`] carrying the *actual cause* — a contained panic
//! ([`AbortReason::Exception`]), a watchdog deadline expiry
//! ([`AbortReason::Timeout`], additionally announced by
//! [`Event::TimeoutAbort`]), or a caller-supplied reason such as an
//! exhausted undo-log budget — so profile reports attribute fallbacks
//! correctly instead of lumping everything under "exception".

use crate::undo::VersionedArray;
use std::time::Instant;
use wlp_obs::{AbortReason, Event, Recorder};
use wlp_runtime::{
    payload_message, DoacrossOutcome, DoallOutcome, StripOutcome, WorkerPanic, WorkerTimeout,
};

/// Shared first-panic slot for constructs that catch per-iteration (the
/// pool-level catch only sees panics that escape iteration bodies, which
/// carry no iteration number).
#[derive(Debug, Default)]
pub(crate) struct FirstFault(parking_lot::Mutex<Option<WorkerPanic>>);

impl FirstFault {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record(&self, vpn: usize, iter: usize, payload: &(dyn std::any::Any + Send)) {
        let mut slot = self.0.lock();
        if slot.is_none() {
            *slot = Some(WorkerPanic {
                vpn,
                iter: Some(iter),
                message: payload_message(payload),
            });
        }
    }

    pub(crate) fn take(&self) -> Option<WorkerPanic> {
        self.0.lock().take()
    }
}

/// What a parallel attempt reports into [`run_with_recovery`]: the fault
/// (if any) and how many bodies the attempt ran (the volume a recovery
/// discards).
#[derive(Debug, Clone)]
pub struct ParallelAttempt {
    /// First contained worker panic, if any.
    pub panic: Option<WorkerPanic>,
    /// Watchdog verdict, if the attempt overran a region deadline.
    pub timeout: Option<WorkerTimeout>,
    /// Caller-attributed abort cause, when the layer above already knows
    /// *why* the attempt is invalid (e.g. [`AbortReason::Budget`] from an
    /// exhausted undo-log budget). Takes precedence over the inference
    /// from `timeout`/`panic`.
    pub abort: Option<AbortReason>,
    /// Bodies executed during the attempt.
    pub executed: u64,
    /// The attempt's QUIT bound, if one was set.
    pub quit: Option<usize>,
}

impl From<DoallOutcome> for ParallelAttempt {
    fn from(out: DoallOutcome) -> Self {
        ParallelAttempt {
            panic: out.panic,
            timeout: out.timeout,
            abort: None,
            executed: out.executed,
            quit: out.quit,
        }
    }
}

impl From<DoacrossOutcome> for ParallelAttempt {
    fn from(out: DoacrossOutcome) -> Self {
        ParallelAttempt {
            panic: out.panic,
            timeout: out.timeout,
            abort: None,
            executed: out.executed,
            quit: None,
        }
    }
}

impl From<StripOutcome> for ParallelAttempt {
    fn from(out: StripOutcome) -> Self {
        ParallelAttempt {
            executed: out.outcome.executed,
            quit: out.outcome.quit,
            panic: out.outcome.panic,
            timeout: out.outcome.timeout,
            abort: None,
        }
    }
}

impl ParallelAttempt {
    /// Why this attempt must be thrown away, if it must: the explicit
    /// caller attribution first, then a watchdog expiry, then a contained
    /// panic. `None` means the attempt is keepable.
    pub fn failure_reason(&self) -> Option<AbortReason> {
        self.abort.or(if self.timeout.is_some() {
            Some(AbortReason::Timeout)
        } else if self.panic.is_some() {
            Some(AbortReason::Exception)
        } else {
            None
        })
    }
}

/// How a recoverable execution ended.
#[derive(Debug, Clone)]
pub struct RecoveryOutcome {
    /// The parallel attempt was invalid, the checkpoint was restored and
    /// the sequential fallback produced the final state.
    pub recovered: bool,
    /// *Why* the sequential fallback ran (`None` when it didn't): panic,
    /// watchdog timeout, budget trip, or dependence — whatever the
    /// attempt reported.
    pub reason: Option<AbortReason>,
    /// The contained panic that triggered recovery, if any.
    pub panic: Option<WorkerPanic>,
    /// The watchdog verdict that triggered recovery, if any.
    pub timeout: Option<WorkerTimeout>,
    /// Elements restored from the checkpoint before re-execution.
    pub restored_elems: usize,
    /// The attempt's QUIT bound (parallel if clean, else whatever the
    /// sequential fallback reports through shared state).
    pub quit: Option<usize>,
    /// Bodies executed by the *kept* execution.
    pub executed: u64,
}

/// Runs `parallel` against the checkpointed array; if the attempt is
/// invalid — contained worker panic, watchdog deadline expiry, or an
/// explicit caller-attributed cause such as a budget trip — restores the
/// checkpoint, emits the `UndoRestore` + `SpecAbort` event pair carrying
/// the *actual* [`AbortReason`] (plus [`Event::TimeoutAbort`] for
/// expiries), and runs `sequential` — the Section 5 exception rule.
/// Clean (or merely cancelled) attempts are kept as-is.
///
/// `sequential` re-executes the loop from the restored checkpoint on the
/// caller's thread and returns the number of bodies it ran. A panic
/// *there* is a real exception and propagates.
pub fn run_with_recovery<T, R, P, S>(
    arr: &VersionedArray<T>,
    rec: &R,
    parallel: P,
    sequential: S,
) -> RecoveryOutcome
where
    T: Copy,
    R: Recorder,
    P: FnOnce() -> ParallelAttempt,
    S: FnOnce() -> u64,
{
    let attempt = parallel();
    let Some(reason) = attempt.failure_reason() else {
        return RecoveryOutcome {
            recovered: false,
            reason: None,
            panic: None,
            timeout: None,
            restored_elems: 0,
            quit: attempt.quit,
            executed: attempt.executed,
        };
    };

    // attribute events to the lane that caused the fallback
    let vpn = attempt
        .timeout
        .as_ref()
        .map(|t| t.vpn)
        .or(attempt.panic.as_ref().map(|p| p.vpn))
        .unwrap_or(0);
    if R::ENABLED {
        if let Some(to) = &attempt.timeout {
            rec.record(
                vpn,
                Event::TimeoutAbort {
                    vpn: to.vpn as u64,
                    elapsed: to.elapsed.as_nanos() as u64,
                },
            );
        }
    }
    let u0 = R::ENABLED.then(Instant::now);
    let restored = arr.restore_all();
    if R::ENABLED {
        let cost = u0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        rec.record(
            vpn,
            Event::UndoRestore {
                elems: restored as u64,
                cost,
            },
        );
        rec.record(
            vpn,
            Event::SpecAbort {
                reason,
                discarded: attempt.executed,
            },
        );
    }
    let executed = sequential();
    RecoveryOutcome {
        recovered: true,
        reason: Some(reason),
        panic: attempt.panic,
        timeout: attempt.timeout,
        restored_elems: restored,
        quit: None,
        executed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use wlp_obs::{BufferRecorder, NoopRecorder, ProfileReport};
    use wlp_runtime::{doall_dynamic, ChunkPolicy, Pool, Step};

    #[test]
    fn clean_attempt_is_kept_without_restore() {
        let arr = VersionedArray::new(vec![0i64; 16]);
        let out = run_with_recovery(
            &arr,
            &NoopRecorder,
            || {
                doall_dynamic(
                    &Pool::new(2),
                    16,
                    ChunkPolicy::One,
                    &NoopRecorder,
                    |i, _| {
                        arr.write(i, 1, i);
                        Step::Continue
                    },
                )
                .into()
            },
            || unreachable!("clean runs never fall back"),
        );
        assert!(!out.recovered);
        assert_eq!(out.executed, 16);
        assert_eq!(arr.snapshot(), vec![1; 16]);
    }

    #[test]
    fn panic_restores_checkpoint_and_reexecutes() {
        let arr = VersionedArray::new(vec![-1i64; 64]);
        let rec = BufferRecorder::new(4);
        let seq_ran = AtomicU64::new(0);
        let out = run_with_recovery(
            &arr,
            &rec,
            || {
                doall_dynamic(
                    &Pool::new(4),
                    64,
                    ChunkPolicy::One,
                    &NoopRecorder,
                    |i, _| {
                        if i == 20 {
                            panic!("injected");
                        }
                        arr.write(i, i as i64, i);
                        Step::Continue
                    },
                )
                .into()
            },
            || {
                for i in 0..64 {
                    arr.write_direct(i, i as i64);
                    seq_ran.fetch_add(1, Ordering::Relaxed);
                }
                seq_ran.load(Ordering::Relaxed)
            },
        );
        assert!(out.recovered);
        assert_eq!(out.panic.as_ref().unwrap().message, "injected");
        assert_eq!(out.executed, 64);
        assert_eq!(
            arr.snapshot(),
            (0..64i64).collect::<Vec<_>>(),
            "sequential fallback owns the final state"
        );
        let report = ProfileReport::from_trace(&rec.finish());
        assert_eq!(report.spec_aborts, 1, "the abort is visible in the trace");
    }
}
