//! DOACROSS: pipelined execution of loops with cross-iteration
//! dependences.
//!
//! When the dispatcher cannot be parallelized at all, the paper's fallback
//! (after Wu & Lewis) is to pipeline: iteration `i`'s stage `s` may start
//! only after iteration `i−1` has finished the same stage (and after
//! iteration `i`'s own earlier stages). Section 6 also schedules the
//! *sequential* loops produced by distribution "in a DOACROSS fashion"
//! against each other — the same mechanism with each distributed loop as a
//! stage.
//!
//! [`doacross`] dynamically assigns chunks of `grain` consecutive
//! iterations to workers and enforces the wavefront with per-chunk
//! posted-stage counters (grain 1 is the classical per-iteration
//! pipeline).
//!
//! Fault containment: a panicking stage body is caught, raises the shared
//! [`CancelFlag`](crate::pool::CancelFlag), and is reported through
//! [`DoacrossOutcome::panic`], attributed to its loop iteration by the
//! same per-lane cursor the DOALL drivers keep. The
//! hard part is the wavefront itself — a panicked iteration never posts,
//! so successors waiting on it would deadlock. Waiters therefore use a
//! short timed wait and re-check the cancel flag on every wakeup: the
//! clean path is still woken promptly by `post`'s `notify_all`, and the
//! fault path drains within one timeout tick.

use crate::doall::Lanes;
use crate::pool::{CancelFlag, Pool, WorkerPanic};
use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};
use wlp_obs::{Event, Recorder};

/// Result of a DOACROSS execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoacrossOutcome {
    /// Iterations whose every stage ran to completion.
    pub executed: u64,
    /// First stage-body panic contained during the pipeline, if any. When
    /// set, iterations past the faulting one may be missing stages;
    /// callers holding a checkpoint should restore it and re-execute
    /// sequentially.
    pub panic: Option<WorkerPanic>,
    /// Watchdog verdict, if the region overran its deadline (see
    /// [`Pool::with_deadline`](crate::pool::Pool::with_deadline)); like a
    /// panic, it invalidates the executed prefix.
    pub timeout: Option<crate::pool::WorkerTimeout>,
}

/// Cross-iteration synchronization state for a DOACROSS pipeline.
///
/// All posted-stage counters live behind a single mutex: a
/// `parking_lot::Condvar` may only ever be used with one mutex, so
/// per-chunk locks sharing one condvar would be unsound (and a
/// panicking waiter would deadlock the wavefront). The lock is held only
/// for counter reads/updates, so contention stays brief.
#[derive(Debug)]
struct Wavefront {
    /// `posted[c]` = number of stages chunk `c` has completed.
    posted: Mutex<Vec<usize>>,
    cv: Condvar,
    /// Smallest chunk whose body panicked (`usize::MAX` = none). Set
    /// *before* the cancel flag, so any waiter that observes the flag also
    /// observes the bound. Chunks `< fault_at` keep running to
    /// completion — the fault-path analogue of the QUIT contract —
    /// because they only ever wait on predecessors that are themselves
    /// below the bound.
    fault_at: AtomicUsize,
}

/// How long a wavefront waiter sleeps between cancel-flag re-checks. The
/// clean path never waits this long — `post` signals the condvar — so the
/// tick only bounds fault-drain latency.
const WAVEFRONT_TICK: Duration = Duration::from_millis(2);

impl Wavefront {
    fn new(n: usize) -> Self {
        Wavefront {
            posted: Mutex::new(vec![0; n]),
            cv: Condvar::new(),
            fault_at: AtomicUsize::new(usize::MAX),
        }
    }

    #[inline]
    fn fault_bound(&self) -> usize {
        self.fault_at.load(Ordering::Acquire)
    }

    fn record_fault(&self, i: usize) {
        self.fault_at.fetch_min(i, Ordering::AcqRel);
    }

    /// Cancelled without a body fault (the watchdog, or a panic outside
    /// a body): no completion guarantee holds, every lane gives up.
    #[inline]
    fn abandoned(&self, cancel: &CancelFlag) -> bool {
        cancel.is_cancelled() && self.fault_bound() == usize::MAX
    }

    /// Blocks until chunk `own − 1` has posted at least `stage + 1`
    /// stages. Returns `false` (give up) if `own` is at or past a fault
    /// bound — its predecessor may never post — or if the run was
    /// cancelled by a non-body fault. Out-of-range indices count as
    /// give-up rather than panicking while holding the lock.
    fn wait_for(&self, own: usize, stage: usize, cancel: &CancelFlag) -> bool {
        debug_assert!(own > 0);
        let mut posted = self.posted.lock();
        loop {
            match posted.get(own - 1) {
                Some(&done) if done > stage => return true,
                Some(_) => {}
                None => return false,
            }
            if own >= self.fault_bound() || self.abandoned(cancel) {
                return false;
            }
            // Timed wait: a panicked predecessor never posts, so a plain
            // wait could sleep forever. Re-check the exit conditions each
            // tick.
            self.cv.wait_for(&mut posted, WAVEFRONT_TICK);
        }
    }

    /// Marks chunk `i`'s `stage` complete. Tolerates (ignores) an
    /// out-of-range index instead of panicking while holding the lock.
    fn post(&self, i: usize, stage: usize) {
        let mut posted = self.posted.lock();
        if let Some(slot) = posted.get_mut(i) {
            debug_assert_eq!(*slot, stage, "stages post in order");
            *slot = stage + 1;
        }
        drop(posted);
        self.cv.notify_all();
    }
}

/// Executes `0..upper` iterations of `stages` pipeline stages each, with
/// the DOACROSS ordering: stage `s` of iteration `i` runs after stage `s`
/// of iteration `i−1` and after stage `s−1` of iteration `i`. `body(i, s)`
/// performs one stage.
///
/// The ordering guarantees make cross-iteration flow dependences safe as
/// long as each dependence source is in a stage `≤` its sink's stage.
///
/// `grain` groups iterations into chunks of `grain` consecutive ones
/// (0 counts as 1). Chunks are claimed dynamically, and the wavefront
/// synchronizes per *chunk* — stage `s` of chunk `c` waits on stage `s`
/// of chunk `c−1`, and runs stage `s` of every iteration in the chunk in
/// order. A coarser grain divides the sync posts (and their lock traffic)
/// by `grain`, at the price of `grain−1` iterations of lost pipeline
/// overlap at each stage boundary; the `Governor`'s grain ladder walks
/// this trade-off at run time
/// ([`Governor::current_grain`](crate::governor::Governor::current_grain)).
/// Chunked synchronization is strictly *stronger* than per-iteration
/// synchronization for forward cross-iteration dependences of any
/// distance ≥ 1, so any dependence safe at grain 1 stays safe at every
/// grain. Memory ordering: `body`'s writes are published to the waiting
/// stage through the wavefront's mutex (release on post, acquire on
/// wait) — stage bodies need no fences of their own.
///
/// A panicking stage body is contained and reported through the outcome,
/// attributed to its loop iteration; the wavefront drains instead of
/// deadlocking. A watchdog timeout names the iteration the overdue lane
/// was running. Either way the executed prefix is invalid and callers
/// should restore their checkpoint.
///
/// Each claimed iteration, wavefront stall (recorded as a `LockWait`) and
/// completed iteration is reported to `rec`; a chunk's busy time is
/// shared evenly among its iterations. With [`wlp_obs::NoopRecorder`]
/// every probe compiles away.
///
/// # Panics
/// Panics if `stages == 0`.
pub fn doacross<R, F>(
    pool: &Pool,
    upper: usize,
    stages: usize,
    grain: usize,
    rec: &R,
    body: F,
) -> DoacrossOutcome
where
    R: Recorder,
    F: Fn(usize, usize) + Sync,
{
    assert!(stages > 0, "need at least one stage");
    let g = grain.max(1);
    let chunks = upper.div_ceil(g);
    let wave = Wavefront::new(chunks);
    let claim = AtomicUsize::new(0);
    let executed = AtomicU64::new(0);
    let lanes = Lanes::new(pool.size());
    let cancel = &lanes.cancel;

    let pool_out = pool.run_with(cancel, |vpn| {
        let mut local_exec = 0u64;
        loop {
            if wave.abandoned(cancel) {
                break;
            }
            let c = claim.fetch_add(1, Ordering::Relaxed);
            if c >= chunks || c >= wave.fault_bound() {
                break;
            }
            let (lo, hi) = (c * g, (c * g + g).min(upper));
            if R::ENABLED {
                for i in lo..hi {
                    let iter = i as u64;
                    rec.record(vpn, Event::IterClaimed { iter, cost: 0 });
                }
            }
            let t0 = R::ENABLED.then(Instant::now);
            let mut waited = 0u64;
            let mut completed = true;
            for s in 0..stages {
                if c > 0 {
                    let w0 = R::ENABLED.then(Instant::now);
                    let ok = wave.wait_for(c, s, cancel);
                    if let Some(w) = w0 {
                        waited += w.elapsed().as_nanos() as u64;
                    }
                    if !ok {
                        completed = false;
                        break;
                    }
                }
                // `false`: abandoned mid-chunk, leaving the lane's cursor
                // on the iteration that overran
                let stage = catch_unwind(AssertUnwindSafe(|| {
                    for i in lo..hi {
                        if wave.abandoned(cancel) {
                            return false;
                        }
                        lanes.begin(vpn, i);
                        body(i, s);
                    }
                    true
                }));
                match stage {
                    Ok(true) => wave.post(c, s),
                    Ok(false) => {
                        completed = false;
                        break;
                    }
                    Err(p) => {
                        // bound first, so a waiter that sees the cancel
                        // also sees which chunks may still complete
                        wave.record_fault(c);
                        lanes.fail(vpn, p.as_ref());
                        completed = false;
                        break;
                    }
                }
            }
            if !completed {
                break;
            }
            local_exec += (hi - lo) as u64;
            if R::ENABLED {
                if waited > 0 {
                    rec.record(vpn, Event::LockWait { dur: waited });
                }
                let total = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                let busy = total.saturating_sub(waited);
                let n = (hi - lo) as u64;
                for (k, i) in (lo..hi).enumerate() {
                    // the first iteration carries the division remainder
                    let cost = busy / n + if k == 0 { busy % n } else { 0 };
                    let iter = i as u64;
                    rec.record(vpn, Event::IterExecuted { iter, cost });
                }
            }
        }
        if R::ENABLED {
            rec.record(vpn, Event::Barrier { cost: 0 });
        }
        executed.fetch_add(local_exec, Ordering::Relaxed);
    });

    let (panic, timeout) = lanes.finish(pool_out);
    DoacrossOutcome {
        executed: executed.load(Ordering::Relaxed),
        panic,
        timeout,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use wlp_obs::NoopRecorder;

    #[test]
    fn grained_pipeline_computes_the_same_recurrence_at_every_grain() {
        // x[i] = x[i-1] + i at grains 1, 3, 8, 64 (64 > n/chunks edge) —
        // chunked sync is strictly stronger, so every grain must agree
        let n = 300usize;
        let pool = Pool::new(4);
        for grain in [1usize, 3, 8, 64] {
            let xs: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
            let out = doacross(&pool, n, 1, grain, &NoopRecorder, |i, _| {
                let prev = if i == 0 {
                    0
                } else {
                    xs[i - 1].load(Ordering::Acquire)
                };
                xs[i].store(prev + i as u64, Ordering::Release);
            });
            assert_eq!(out.executed, n as u64, "grain {grain}");
            assert_eq!(out.panic, None, "grain {grain}");
            let mut expect = 0u64;
            for (i, x) in xs.iter().enumerate() {
                expect += i as u64;
                assert_eq!(x.load(Ordering::Relaxed), expect, "grain {grain} iter {i}");
            }
        }
    }

    #[test]
    fn grain_zero_is_clamped_to_one() {
        let pool = Pool::new(2);
        let hits = AtomicU64::new(0);
        let out = doacross(&pool, 10, 1, 0, &NoopRecorder, |_, _| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(out.executed, 10);
        assert_eq!(hits.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn recurrence_computes_correctly_through_the_pipeline() {
        // x[i] = x[i-1] + i: a genuine cross-iteration flow dependence,
        // safe under DOACROSS ordering
        let n = 2000usize;
        let xs: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let pool = Pool::new(4);
        let out = doacross(&pool, n, 1, 1, &NoopRecorder, |i, _| {
            let prev = if i == 0 {
                0
            } else {
                xs[i - 1].load(Ordering::Acquire)
            };
            xs[i].store(prev + i as u64, Ordering::Release);
        });
        assert_eq!(out.executed, n as u64);
        assert_eq!(out.panic, None);
        let mut expect = 0u64;
        for (i, x) in xs.iter().enumerate() {
            expect += i as u64;
            assert_eq!(x.load(Ordering::Relaxed), expect, "iteration {i}");
        }
    }

    #[test]
    fn two_stage_pipeline_overlaps_but_preserves_order() {
        // stage 0 is a recurrence; stage 1 consumes stage 0 of the same
        // iteration — classic software pipeline
        let n = 500usize;
        let a: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let b: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let pool = Pool::new(4);
        doacross(&pool, n, 2, 1, &NoopRecorder, |i, s| match s {
            0 => {
                let prev = if i == 0 {
                    1
                } else {
                    a[i - 1].load(Ordering::Acquire)
                };
                a[i].store(prev.wrapping_mul(3) % 1_000_003, Ordering::Release);
            }
            _ => {
                b[i].store(a[i].load(Ordering::Acquire) * 2, Ordering::Release);
            }
        });
        let mut x = 1u64;
        for i in 0..n {
            x = x.wrapping_mul(3) % 1_000_003;
            assert_eq!(a[i].load(Ordering::Relaxed), x);
            assert_eq!(b[i].load(Ordering::Relaxed), 2 * x);
        }
    }

    #[test]
    fn single_worker_degenerates_to_sequential() {
        let pool = Pool::new(1);
        let order = Mutex::new(Vec::new());
        doacross(&pool, 10, 2, 1, &NoopRecorder, |i, s| {
            order.lock().push((i, s))
        });
        let order = order.into_inner();
        assert_eq!(order.len(), 20);
        // (i, s) comes after (i, s-1)
        for i in 0..10 {
            let p0 = order.iter().position(|&x| x == (i, 0)).unwrap();
            let p1 = order.iter().position(|&x| x == (i, 1)).unwrap();
            assert!(p0 < p1);
        }
    }

    #[test]
    fn empty_range_is_a_noop() {
        let pool = Pool::new(4);
        let out = doacross(&pool, 0, 3, 1, &NoopRecorder, |_, _| {
            panic!("no iterations")
        });
        assert_eq!(out.executed, 0);
        assert_eq!(out.panic, None);
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn zero_stages_panics() {
        let pool = Pool::new(2);
        doacross(&pool, 5, 0, 1, &NoopRecorder, |_, _| {});
    }

    #[test]
    fn stage_panic_does_not_deadlock_the_wavefront() {
        // Iteration 50 panics in stage 0 and never posts; iterations 51..
        // wait on it. Without cancellation-aware waits this hangs forever.
        let n = 500usize;
        let pool = Pool::new(4);
        let ran = AtomicU64::new(0);
        let out = doacross(&pool, n, 2, 1, &NoopRecorder, |i, s| {
            if i == 50 && s == 0 {
                panic!("injected stage fault");
            }
            ran.fetch_add(1, Ordering::Relaxed);
        });
        let wp = out.panic.expect("fault must be reported");
        assert_eq!(wp.iter, Some(50));
        assert_eq!(wp.message, "injected stage fault");
        // the wavefront prefix below the fault is intact
        assert!(out.executed >= 50, "iterations 0..50 all complete");
        assert!(out.executed < n as u64, "issue stops after the fault");
    }

    #[test]
    fn pipeline_prefix_below_a_fault_is_complete() {
        // Everything ordered before the faulting iteration must have run:
        // the DOACROSS analogue of the QUIT contract.
        let n = 200usize;
        let xs: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        let pool = Pool::new(4);
        let out = doacross(&pool, n, 1, 1, &NoopRecorder, |i, _| {
            if i == 120 {
                panic!("fault at 120");
            }
            let prev = if i == 0 {
                0
            } else {
                xs[i - 1].load(Ordering::Acquire)
            };
            xs[i].store(prev + 1, Ordering::Release);
        });
        assert!(out.panic.is_some());
        for (i, x) in xs.iter().take(120).enumerate() {
            assert_eq!(x.load(Ordering::Relaxed), i as u64 + 1, "iteration {i}");
        }
    }

    #[test]
    fn grained_panic_names_the_loop_iteration_not_the_chunk() {
        let pool = Pool::new(4);
        let out = doacross(&pool, 1000, 2, 8, &NoopRecorder, |i, s| {
            if i == 37 && s == 1 {
                panic!("fault at 37");
            }
        });
        let wp = out.panic.expect("fault must be reported");
        assert_eq!(wp.iter, Some(37), "chunk 4 holds iterations 32..40");
        assert_eq!(wp.message, "fault at 37");
        // chunks 0..4 (iterations 0..32) sit below the fault and complete
        assert!(out.executed >= 32 && out.executed < 1000);
    }

    #[test]
    fn stalled_stage_past_the_deadline_names_its_iteration() {
        use crate::pool::Deadline;
        for grain in [1usize, 4] {
            let pool = Pool::new(4).with_deadline(Deadline::from_millis(25));
            let out = doacross(&pool, 10_000, 2, grain, &NoopRecorder, |i, s| {
                if i == 5 && s == 0 {
                    std::thread::sleep(Duration::from_millis(200));
                }
            });
            let to = out.timeout.expect("watchdog verdict must be surfaced");
            assert_eq!(to.iter, Some(5), "grain {grain}: the stalled iteration");
            assert_eq!(out.panic, None, "grain {grain}");
            assert!(out.executed < 10_000, "grain {grain}");
        }
    }
}
