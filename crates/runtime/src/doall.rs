//! DOALL loops with a software `QUIT` protocol.
//!
//! The paper's Induction-2 method relies on the Alliant `QUIT` operation:
//! "Once a QUIT command is issued by an iteration, all iterations with loop
//! counters less than that of the issuing iteration will be initiated and
//! completed, but no iterations with larger loop counters will be begun. If
//! multiple QUIT operations are issued, then the iteration with the smallest
//! loop counter executing a QUIT will control the exit of the loop."
//!
//! [`doall_dynamic`] reproduces those semantics in software: a shared atomic
//! claim counter issues iterations *in order* (the Alliant's ordered-issue
//! property), and a shared atomic minimum records the smallest quitting
//! iteration. Iterations already past the claim check may still complete
//! after a QUIT — that is precisely the *overshoot* the paper's undo
//! machinery (Section 4) deals with, so it is deliberately not prevented.
//! Its [`ChunkPolicy`] sets how many consecutive iterations one `fetch_add`
//! grants (one, fixed-size or guided/shrinking chunks), amortizing the
//! claim overhead the cost model charges per dispatch. Every granted
//! iteration still tests the QUIT bound before its body, so only the span
//! (and thus `max_started`) grows with the chunk size.
//!
//! [`doall_static_cyclic`] issues iteration `i` on worker `i mod p` (the
//! paper's General-2-style static assignment) and [`doall_worksteal`]
//! pre-distributes chunks into per-worker deques. The paper notes that
//! static assignment can have a much larger *span* of concurrently
//! executing iterations, and therefore more iterations to undo under an RV
//! terminator; the outcome's `max_started` field lets callers observe
//! exactly that.
//!
//! Every driver here, and the windowed one in [`crate::window`], runs on
//! one private region harness: the QUIT bound, the cancel flag, the first
//! contained panic, a per-lane cursor naming the iteration each lane last
//! began, and the [`DoallOutcome`] assembly. A driver supplies only its
//! issue order.
//!
//! Fault containment: a panicking body is caught at its lane's boundary,
//! raises the shared [`CancelFlag`] (the fault-path analogue of `QUIT` —
//! peers stop claiming at their next boundary), and is reported through
//! [`DoallOutcome::panic`], attributed to the iteration the lane's cursor
//! names, so the strategies above can restore their checkpoint and fall
//! back to sequential re-execution. A watchdog timeout is attributed the
//! same way.

use crate::chunk::ChunkPolicy;
use crate::deque::{Steal, StealDeque};
use crate::pool::{payload_message, CancelFlag, Pool, PoolOutcome, WorkerPanic, WorkerTimeout};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;
use wlp_obs::{CachePadded, Event, NoopRecorder, Recorder};

/// What the loop body tells the scheduler after an iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Keep issuing iterations.
    Continue,
    /// This iteration met the termination condition: stop issuing iterations
    /// with larger loop counters (the Alliant `QUIT`).
    Quit,
}

/// Result of a DOALL execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DoallOutcome {
    /// Smallest iteration that issued a `QUIT`, if any. Under the paper's
    /// conventions this is the *last valid iteration* `LI` when the body
    /// tests the WHILE terminator before doing work.
    pub quit: Option<usize>,
    /// Number of body invocations that ran to completion (includes
    /// overshot iterations; excludes a body that panicked mid-flight).
    pub executed: u64,
    /// One past the highest iteration index that was begun; `max_started -
    /// quit` bounds the work the undo phase must inspect.
    pub max_started: usize,
    /// First body panic contained during the loop, if any. When set, the
    /// executed prefix is not trustworthy: callers holding a checkpoint
    /// should restore it and re-execute sequentially (the paper's
    /// Section 5 exception rule).
    pub panic: Option<WorkerPanic>,
    /// Watchdog verdict, if the region overran its [`Deadline`]
    /// (see [`Pool::with_deadline`]). Like a panic, a timeout means the
    /// executed prefix is not trustworthy — the overdue lane was cancelled
    /// mid-iteration — so checkpoint holders should restore and fall back
    /// to sequential re-execution.
    ///
    /// [`Deadline`]: crate::pool::Deadline
    /// [`Pool::with_deadline`]: crate::pool::Pool::with_deadline
    pub timeout: Option<WorkerTimeout>,
}

/// The fault side of a region, shared by every construct in this crate:
/// the cancel flag, the first contained panic, and one cursor per lane
/// holding the loop iteration the lane last began. The pool cannot know
/// loop counters, so a panic or a watchdog timeout is attributed to the
/// iteration its lane's cursor names.
#[derive(Debug)]
pub(crate) struct Lanes {
    pub(crate) cancel: CancelFlag,
    fault: Mutex<Option<WorkerPanic>>,
    // Padded: each lane writes its cursor once per iteration, and only
    // the watchdog and the fault path read it.
    cursor: Vec<CachePadded<AtomicUsize>>,
}

impl Lanes {
    pub(crate) fn new(p: usize) -> Self {
        Lanes {
            cancel: CancelFlag::new(),
            fault: Mutex::new(None),
            cursor: (0..p)
                .map(|_| CachePadded::new(AtomicUsize::new(usize::MAX)))
                .collect(),
        }
    }

    /// Records that lane `vpn` begins iteration `i`.
    #[inline]
    pub(crate) fn begin(&self, vpn: usize, i: usize) {
        self.cursor[vpn].store(i, Ordering::Relaxed);
    }

    fn at(&self, vpn: usize) -> Option<usize> {
        let i = self.cursor.get(vpn)?.load(Ordering::Relaxed);
        (i != usize::MAX).then_some(i)
    }

    /// Contains a panic on lane `vpn`: cancels the region and keeps the
    /// panic if it is the first, attributed to the lane's cursor.
    pub(crate) fn fail(&self, vpn: usize, payload: &(dyn std::any::Any + Send)) {
        self.cancel.cancel();
        let mut slot = self.fault.lock();
        if slot.is_none() {
            *slot = Some(WorkerPanic {
                vpn,
                iter: self.at(vpn),
                message: payload_message(payload),
            });
        }
    }

    /// Splits a drained pool outcome into the first contained panic and
    /// the watchdog verdict, with the overdue lane's iteration patched in.
    pub(crate) fn finish(
        &self,
        pool_out: PoolOutcome,
    ) -> (Option<WorkerPanic>, Option<WorkerTimeout>) {
        let timeout = pool_out.timeout().cloned().map(|mut t| {
            t.iter = self.at(t.vpn).or(t.iter);
            t
        });
        let panic = self
            .fault
            .lock()
            .take()
            .or_else(|| pool_out.into_first_panic());
        (panic, timeout)
    }
}

/// The shared state of one DOALL region: [`Lanes`] plus the QUIT bound and
/// the executed/max_started accumulators. Every word gets its own cache
/// line: the quit bound is polled per iteration and the accumulators are
/// flushed once per lane, and none of them may share a line with a
/// driver's claim counter, or its `fetch_add` traffic invalidates the
/// poll (measured as the `Td` dispatch term of the cost model).
struct Region<'r, R> {
    lanes: Lanes,
    quit: CachePadded<AtomicUsize>,
    executed: CachePadded<AtomicU64>,
    max_started: CachePadded<AtomicUsize>,
    rec: &'r R,
}

/// One lane's handle on a running DOALL region: what a driver's issue
/// loop polls (cancellation, the QUIT bound) and how it runs an iteration.
pub(crate) struct Lane<'a, 'r, R> {
    region: &'a Region<'r, R>,
    vpn: usize,
    executed: u64,
    max_started: usize,
}

impl<R: Recorder> Lane<'_, '_, R> {
    #[inline]
    pub(crate) fn vpn(&self) -> usize {
        self.vpn
    }

    /// The region's cancel flag (raised by a contained panic or the
    /// watchdog).
    #[inline]
    pub(crate) fn cancel(&self) -> &CancelFlag {
        &self.region.lanes.cancel
    }

    #[inline]
    pub(crate) fn cancelled(&self) -> bool {
        self.region.lanes.cancel.is_cancelled()
    }

    /// The smallest quitting iteration so far (`usize::MAX` = none): no
    /// iteration above it may begin.
    #[inline]
    pub(crate) fn bound(&self) -> usize {
        self.region.quit.load(Ordering::Acquire)
    }

    #[inline]
    pub(crate) fn record(&self, event: Event) {
        if R::ENABLED {
            self.region.rec.record(self.vpn, event);
        }
    }

    /// Runs iteration `i`: moves the lane's cursor to it, calls the body,
    /// and lowers the QUIT bound if the body quits. With an enabled
    /// recorder it reports the claim, the body's time and the QUIT.
    #[inline]
    pub(crate) fn run<F>(&mut self, i: usize, body: &F) -> Step
    where
        F: Fn(usize, usize) -> Step,
    {
        let iter = i as u64;
        self.record(Event::IterClaimed { iter, cost: 0 });
        self.max_started = self.max_started.max(i + 1);
        self.region.lanes.begin(self.vpn, i);
        let t0 = R::ENABLED.then(Instant::now);
        let step = body(i, self.vpn);
        self.executed += 1;
        if R::ENABLED {
            let cost = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
            self.record(Event::IterExecuted { iter, cost });
        }
        if let Step::Quit = step {
            self.region.quit.fetch_min(i, Ordering::AcqRel);
            self.record(Event::Quit { iter });
        }
        step
    }
}

/// Runs one DOALL region: `issue` is called once per lane and decides
/// which iterations the lane runs, in what order, through [`Lane::run`].
/// One `catch_unwind` per lane, not per body call: the unwind guard is
/// hoisted out of the issue loop so the hot path has no per-iteration
/// landing-pad setup.
pub(crate) fn doall_region<R, I>(pool: &Pool, rec: &R, issue: I) -> DoallOutcome
where
    R: Recorder,
    I: Fn(&mut Lane<'_, '_, R>) + Sync,
{
    let region = Region {
        lanes: Lanes::new(pool.size()),
        quit: CachePadded::new(AtomicUsize::new(usize::MAX)),
        executed: CachePadded::new(AtomicU64::new(0)),
        max_started: CachePadded::new(AtomicUsize::new(0)),
        rec,
    };
    let pool_out = pool.run_with(&region.lanes.cancel, |vpn| {
        let mut lane = Lane {
            region: &region,
            vpn,
            executed: 0,
            max_started: 0,
        };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| issue(&mut lane))) {
            region.lanes.fail(vpn, payload.as_ref());
        }
        // each worker leaves the loop through the closing join
        lane.record(Event::Barrier { cost: 0 });
        region.executed.fetch_add(lane.executed, Ordering::Relaxed);
        region
            .max_started
            .fetch_max(lane.max_started, Ordering::Relaxed);
    });
    let (panic, timeout) = region.lanes.finish(pool_out);
    let quit = region.quit.load(Ordering::Acquire);
    DoallOutcome {
        quit: (quit != usize::MAX).then_some(quit),
        executed: region.executed.load(Ordering::Relaxed),
        max_started: region.max_started.load(Ordering::Relaxed),
        panic,
        timeout,
    }
}

/// Dynamic self-scheduled DOALL over `0..upper` with ordered issue.
///
/// Workers claim iterations from a shared counter, so iteration *begin*
/// order equals iteration index order (the Alliant ordered-issue property).
/// `body(i, vpn)` returns [`Step::Quit`] to request loop exit.
///
/// Each `fetch_add` on the claim counter grants a run of consecutive
/// iterations sized by `policy`. Chunks are granted in index order;
/// within a chunk, iterations run in order and each one re-tests the QUIT
/// bound before its body, so the Alliant contract — no iteration with a
/// counter larger than the smallest quitting iteration begins once the
/// quit is visible — holds for every policy. What changes is the *span*: a
/// worker deep in a large chunk can be executing an iteration far above a
/// sibling's, so `max_started` (and RV-terminator overshoot to undo) grows
/// with the chunk size. [`ChunkPolicy::One`] is the classical scheduler.
///
/// Each claim, chunk grant of more than one iteration
/// ([`Event::ChunkClaimed`]), body execution, QUIT broadcast and
/// end-of-loop join is reported to `rec`. Probes are guarded by
/// `R::ENABLED`, an associated constant, so with [`NoopRecorder`] the loop
/// monomorphizes to the uninstrumented one: no clock reads, no branches,
/// no recording.
pub fn doall_dynamic<R, F>(
    pool: &Pool,
    upper: usize,
    policy: ChunkPolicy,
    rec: &R,
    body: F,
) -> DoallOutcome
where
    R: Recorder,
    F: Fn(usize, usize) -> Step + Sync,
{
    let claim = CachePadded::new(AtomicUsize::new(0));
    let p = pool.size();
    doall_region(pool, rec, |lane| 'claiming: loop {
        if lane.cancelled() {
            break;
        }
        // Advisory read of the unclaimed remainder — only the grant
        // *size* depends on it, so a stale value is harmless.
        let seen = claim.load(Ordering::Relaxed).min(upper);
        let want = policy.grant(upper - seen, p);
        let lo = claim.fetch_add(want, Ordering::Relaxed);
        if lo >= upper || lo > lane.bound() {
            break;
        }
        let hi = (lo + want).min(upper);
        if R::ENABLED && hi - lo > 1 {
            lane.record(Event::ChunkClaimed {
                lo: lo as u64,
                len: (hi - lo) as u64,
                cost: 0,
            });
        }
        for i in lo..hi {
            if lane.cancelled() || i > lane.bound() {
                break 'claiming;
            }
            lane.run(i, &body);
        }
    })
}

/// Static cyclic DOALL: worker `vpn` executes iterations `vpn, vpn+p, …`.
///
/// This is the issue pattern of the paper's General-2 method. The QUIT bound
/// is still honoured (iterations larger than the smallest quitting iteration
/// are not begun once the quit is visible), but because issue order is not
/// global, the span of started iterations can exceed the dynamic scheduler's.
pub fn doall_static_cyclic<F>(pool: &Pool, upper: usize, body: F) -> DoallOutcome
where
    F: Fn(usize, usize) -> Step + Sync,
{
    let p = pool.size();
    doall_region(pool, &NoopRecorder, |lane| {
        let mut i = lane.vpn();
        while i < upper && i <= lane.bound() && !lane.cancelled() {
            lane.run(i, &body);
            i += p;
        }
    })
}

/// Work-stealing DOALL: chunks of `chunk` consecutive iterations are
/// pre-distributed into one Chase–Lev [`StealDeque`] per worker; each
/// worker drains its own deque with relaxed owner pops and steals from
/// peers (one CAS per steal) only when dry. There is **no shared claim
/// counter at all** — under claim-dense workloads (tiny bodies at high
/// `p`) this removes the last contended RMW from the issue path.
///
/// Semantics versus [`doall_dynamic`]:
///
/// * The QUIT bound is honoured identically — every granted iteration
///   re-tests the bound before its body, all iterations ≤ the smallest
///   quitting iteration run exactly once, and none above it begins once
///   the quit is visible.
/// * Issue order is **not** globally ascending (chunks run in
///   owner-LIFO/steal-FIFO order), like the static schedulers and unlike
///   the dynamic ones. Do not drive *privatized* speculation with this
///   scheduler: the privatization overshoot exemption in `wlp-core`
///   leans on the claim counter's ordered issue.
/// * `max_started` can therefore exceed the dynamic scheduler's span —
///   the static-vs-dynamic trade-off of the paper, §4.
pub fn doall_worksteal<F>(pool: &Pool, upper: usize, chunk: usize, body: F) -> DoallOutcome
where
    F: Fn(usize, usize) -> Step + Sync,
{
    let p = pool.size();
    let chunk = chunk.max(1);
    let nchunks = upper.div_ceil(chunk);
    let share = nchunks.div_ceil(p).max(1);
    // Pre-seed: worker v owns the contiguous chunk block
    // [v*share, (v+1)*share). Seeding happens on the caller's thread,
    // which is sound because the pool's region publication edge orders
    // these pushes before any worker's first steal/pop.
    let deques: Vec<StealDeque> = (0..p).map(|_| StealDeque::new(share)).collect();
    for c in 0..nchunks {
        let pushed = deques[c / share].push(c);
        debug_assert!(pushed, "each deque holds at most `share` chunks");
    }

    doall_region(pool, &NoopRecorder, |lane| {
        let vpn = lane.vpn();
        'running: loop {
            if lane.cancelled() {
                break;
            }
            // Own deque first (relaxed fast path), then one sweep
            // over the peers. A Retry anywhere means contention, not
            // exhaustion — sweep again rather than exiting early.
            let c = match deques[vpn].pop() {
                Some(c) => c,
                None => {
                    let mut found = None;
                    let mut contended = false;
                    for off in 1..p {
                        match deques[(vpn + off) % p].steal() {
                            Steal::Success(c) => {
                                found = Some(c);
                                break;
                            }
                            Steal::Retry => contended = true,
                            Steal::Empty => {}
                        }
                    }
                    match found {
                        Some(c) => c,
                        None if contended => {
                            std::hint::spin_loop();
                            continue;
                        }
                        None => break,
                    }
                }
            };
            let lo = c * chunk;
            let hi = (lo + chunk).min(upper);
            for i in lo..hi {
                if lane.cancelled() {
                    break 'running;
                }
                if i > lane.bound() {
                    // The rest of this chunk is above the bound, but
                    // chunks with smaller indices may still be
                    // queued elsewhere — keep claiming.
                    continue 'running;
                }
                lane.run(i, &body);
            }
        }
    })
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // indexing by iteration number is the semantics under test
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    type Body<'a> = &'a (dyn Fn(usize, usize) -> Step + Sync);
    type Driver = Box<dyn Fn(&Pool, usize, Body<'_>) -> DoallOutcome>;

    /// Every DOALL driver in this crate, each as one more input to the
    /// shared checks: the dynamic one under every policy, cyclic,
    /// work-stealing, windowed and strip-mined.
    fn drivers() -> Vec<(String, Driver)> {
        use crate::strip::strip_mined;
        use crate::window::doall_windowed;
        let mut all: Vec<(String, Driver)> = Vec::new();
        for policy in [
            ChunkPolicy::One,
            ChunkPolicy::Fixed(16),
            ChunkPolicy::Guided { min: 4 },
        ] {
            all.push((
                format!("dynamic/{}", policy.label()),
                Box::new(move |p, u, b| doall_dynamic(p, u, policy, &NoopRecorder, b)),
            ));
        }
        all.push((
            "cyclic".into(),
            Box::new(|p, u, b| doall_static_cyclic(p, u, b)),
        ));
        // One chunk per lane: each lane then begins its iterations in
        // ascending order, as the deadline check below needs (with small
        // chunks a lane starts from the far end of its block).
        all.push((
            "worksteal".into(),
            Box::new(|p, u, b| doall_worksteal(p, u, u.div_ceil(p.size()), b)),
        ));
        all.push((
            "windowed".into(),
            Box::new(|p, u, b| doall_windowed(p, u, 16, &NoopRecorder, b).0),
        ));
        all.push((
            "strip-mined".into(),
            Box::new(|p, u, b| strip_mined(p, u, 64, ChunkPolicy::One, &NoopRecorder, b).outcome),
        ));
        all
    }

    fn mark_all(name: &str, doall: impl Fn(&Pool, usize, Body<'_>) -> DoallOutcome) {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU32> = (0..100).map(|_| AtomicU32::new(0)).collect();
        let out = doall(&pool, 100, &|i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            Step::Continue
        });
        assert_eq!(out.quit, None, "{name}");
        assert_eq!(out.executed, 100, "{name}");
        assert_eq!(out.max_started, 100, "{name}");
        assert_eq!(out.panic, None, "{name}");
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
            "{name}"
        );
    }

    #[test]
    fn dynamic_covers_all_iterations_exactly_once() {
        mark_all("dynamic", |p, u, b| {
            doall_dynamic(p, u, ChunkPolicy::One, &NoopRecorder, b)
        });
    }

    #[test]
    fn cyclic_covers_all_iterations_exactly_once() {
        mark_all("cyclic", |p, u, b| doall_static_cyclic(p, u, b));
    }

    #[test]
    fn quit_reports_smallest_quitting_iteration() {
        let pool = Pool::new(4);
        let out = doall_dynamic(&pool, 10_000, ChunkPolicy::One, &NoopRecorder, |i, _| {
            if i >= 50 {
                Step::Quit
            } else {
                Step::Continue
            }
        });
        assert_eq!(out.quit, Some(50));
    }

    #[test]
    fn quit_executes_every_iteration_below_the_quit_point() {
        // The QUIT contract: all iterations < quit must have run.
        let pool = Pool::new(8);
        let hits: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        let out = doall_dynamic(&pool, 1000, ChunkPolicy::One, &NoopRecorder, |i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            if i == 200 {
                Step::Quit
            } else {
                Step::Continue
            }
        });
        assert_eq!(out.quit, Some(200));
        for i in 0..=200 {
            assert_eq!(hits[i].load(Ordering::Relaxed), 1, "iteration {i} must run");
        }
        // no iteration runs twice, overshoot is bounded by what was claimed
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1));
        assert!(out.executed >= 201);
    }

    #[test]
    fn cyclic_quit_bound_holds() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU32> = (0..1000).map(|_| AtomicU32::new(0)).collect();
        let out = doall_static_cyclic(&pool, 1000, |i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            if i >= 100 {
                Step::Quit
            } else {
                Step::Continue
            }
        });
        // smallest quitting iteration is in 100..104 (each worker quits at
        // its first i >= 100); all iterations below it must have run
        let q = out.quit.unwrap();
        assert!((100..100 + 4).contains(&q));
        for i in 0..=q {
            assert_eq!(hits[i].load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn cyclic_assignment_is_mod_p() {
        let pool = Pool::new(3);
        let owner: Vec<AtomicUsize> = (0..30).map(|_| AtomicUsize::new(usize::MAX)).collect();
        doall_static_cyclic(&pool, 30, |i, vpn| {
            owner[i].store(vpn, Ordering::Relaxed);
            Step::Continue
        });
        for i in 0..30 {
            assert_eq!(owner[i].load(Ordering::Relaxed), i % 3);
        }
    }

    #[test]
    fn empty_range_runs_nothing() {
        let pool = Pool::new(4);
        let out = doall_dynamic(&pool, 0, ChunkPolicy::One, &NoopRecorder, |_, _| Step::Quit);
        assert_eq!(out.executed, 0);
        assert_eq!(out.quit, None);
        assert_eq!(out.max_started, 0);
    }

    #[test]
    fn multiple_quits_pick_minimum() {
        let pool = Pool::new(8);
        let out = doall_dynamic(&pool, 10_000, ChunkPolicy::One, &NoopRecorder, |i, _| {
            // every iteration in 70.. quits; 70 must win
            if i >= 70 {
                Step::Quit
            } else {
                Step::Continue
            }
        });
        assert_eq!(out.quit, Some(70));
    }

    #[test]
    fn recorded_doall_reports_claims_bodies_and_quit() {
        let pool = Pool::new(4);
        let rec = wlp_obs::BufferRecorder::new(4);
        let out = doall_dynamic(&pool, 1000, ChunkPolicy::One, &rec, |i, _| {
            if i == 100 {
                Step::Quit
            } else {
                Step::Continue
            }
        });
        let trace = rec.finish();
        let count = |f: &dyn Fn(&Event) -> bool| {
            trace.samples.iter().filter(|s| f(&s.event)).count() as u64
        };
        assert_eq!(
            count(&|e| matches!(e, Event::IterClaimed { .. })),
            out.executed
        );
        assert_eq!(
            count(&|e| matches!(e, Event::IterExecuted { .. })),
            out.executed
        );
        assert_eq!(count(&|e| matches!(e, Event::Quit { iter: 100 })), 1);
        assert_eq!(count(&|e| matches!(e, Event::Barrier { .. })), 4);
        assert!(trace.makespan > 0);
    }

    #[test]
    fn works_on_single_worker_pool() {
        let pool = Pool::new(1);
        let out = doall_dynamic(&pool, 100, ChunkPolicy::One, &NoopRecorder, |i, _| {
            if i == 10 {
                Step::Quit
            } else {
                Step::Continue
            }
        });
        assert_eq!(out.quit, Some(10));
        // sequential execution: exactly iterations 0..=10 ran
        assert_eq!(out.executed, 11);
        assert_eq!(out.max_started, 11);
    }

    fn assert_panic_contained(name: &str, doall: impl Fn(&Pool, usize, Body<'_>) -> DoallOutcome) {
        let pool = Pool::new(4);
        let out = doall(&pool, 1000, &|i, _| {
            if i == 37 {
                panic!("injected at 37");
            }
            Step::Continue
        });
        let wp = out.panic.expect("panic must be reported");
        assert_eq!(wp.iter, Some(37), "{name}");
        assert_eq!(wp.message, "injected at 37", "{name}");
        // the faulting body is not counted as executed
        assert!(out.executed < 1000, "{name}");
    }

    /// The QUIT contract: every iteration at or below the smallest
    /// quitting one runs exactly once, none runs twice.
    fn assert_quit_contract(name: &str, doall: impl Fn(&Pool, usize, Body<'_>) -> DoallOutcome) {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU32> = (0..2000).map(|_| AtomicU32::new(0)).collect();
        let out = doall(&pool, 2000, &|i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            if i >= 300 {
                Step::Quit
            } else {
                Step::Continue
            }
        });
        let q = out.quit.expect("loop must quit");
        assert!(q >= 300, "{name}: quit below the terminator");
        for i in 0..=q {
            assert_eq!(
                hits[i].load(Ordering::Relaxed),
                1,
                "{name}: iteration {i} at or below the quit must run exactly once"
            );
        }
        assert!(
            hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1),
            "{name}"
        );
        assert!(out.max_started > q, "{name}");
    }

    /// A deadline overrun names the overdue iteration. Every other
    /// iteration sleeps briefly, so peers are still issuing when the
    /// watchdog fires and drain at once when it cancels, on any number of
    /// cores.
    fn assert_deadline_names_the_overdue_iteration(
        name: &str,
        doall: impl Fn(&Pool, usize, Body<'_>) -> DoallOutcome,
    ) {
        use crate::pool::Deadline;
        use std::time::Duration;
        let pool = Pool::new(4).with_deadline(Deadline::from_millis(25));
        let out = doall(&pool, 1_000_000, &|i, _| {
            let stall = if i == 5 { 200_000 } else { 20 };
            std::thread::sleep(Duration::from_micros(stall));
            Step::Continue
        });
        let to = out.timeout.expect("watchdog verdict must be surfaced");
        assert_eq!(to.iter, Some(5), "{name}: overdue lane's loop counter");
        assert!(to.elapsed >= Duration::from_millis(25), "{name}");
        assert_eq!(out.panic, None, "{name}");
        assert!(
            out.executed < 1_000_000,
            "{name}: cancellation must stop issue well before the range is exhausted"
        );
    }

    #[test]
    fn every_driver_covers_all_iterations_exactly_once() {
        for (name, d) in drivers() {
            mark_all(&name, &d);
        }
    }

    #[test]
    fn every_driver_keeps_the_quit_contract() {
        for (name, d) in drivers() {
            assert_quit_contract(&name, &d);
        }
    }

    #[test]
    fn every_driver_contains_and_attributes_a_body_panic() {
        for (name, d) in drivers() {
            assert_panic_contained(&name, &d);
        }
    }

    #[test]
    fn every_driver_names_the_iteration_that_overran_the_deadline() {
        for (name, d) in drivers() {
            assert_deadline_names_the_overdue_iteration(&name, &d);
        }
    }

    #[test]
    fn dynamic_contains_body_panic() {
        assert_panic_contained("dynamic", |p, u, b| {
            doall_dynamic(p, u, ChunkPolicy::One, &NoopRecorder, b)
        });
    }

    #[test]
    fn cyclic_contains_body_panic() {
        assert_panic_contained("cyclic", |p, u, b| doall_static_cyclic(p, u, b));
    }

    #[test]
    fn chunked_covers_all_iterations_exactly_once() {
        for policy in [
            ChunkPolicy::One,
            ChunkPolicy::Fixed(16),
            ChunkPolicy::Guided { min: 4 },
        ] {
            mark_all("chunked", |p, u, b| {
                doall_dynamic(p, u, policy, &NoopRecorder, b)
            });
        }
    }

    #[test]
    fn chunked_quit_contract_holds_for_every_policy() {
        for policy in [
            ChunkPolicy::Fixed(32),
            ChunkPolicy::Guided { min: 2 },
            ChunkPolicy::Fixed(1),
        ] {
            let pool = Pool::new(4);
            let hits: Vec<AtomicU32> = (0..2000).map(|_| AtomicU32::new(0)).collect();
            let out = doall_dynamic(&pool, 2000, policy, &NoopRecorder, |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                if i >= 300 {
                    Step::Quit
                } else {
                    Step::Continue
                }
            });
            let q = out.quit.expect("loop must quit");
            assert!(q >= 300, "{policy:?}: quit below the terminator");
            for i in 0..=q {
                assert_eq!(
                    hits[i].load(Ordering::Relaxed),
                    1,
                    "{policy:?}: iteration {i} below the quit must run exactly once"
                );
            }
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1));
            assert!(out.max_started > q);
        }
    }

    #[test]
    fn chunked_contains_body_panic() {
        assert_panic_contained("chunked", |p, u, b| {
            doall_dynamic(p, u, ChunkPolicy::Fixed(8), &NoopRecorder, b)
        });
    }

    #[test]
    fn chunked_recorded_run_reports_chunk_grants() {
        let pool = Pool::new(4);
        let rec = wlp_obs::BufferRecorder::new(4);
        let out = doall_dynamic(&pool, 1000, ChunkPolicy::Fixed(50), &rec, |_, _| {
            Step::Continue
        });
        assert_eq!(out.executed, 1000);
        let trace = rec.finish();
        let grants: Vec<(u64, u64)> = trace
            .samples
            .iter()
            .filter_map(|s| match s.event {
                Event::ChunkClaimed { lo, len, .. } => Some((lo, len)),
                _ => None,
            })
            .collect();
        assert_eq!(grants.len(), 20, "1000 iterations in 50-wide grants");
        let mut seen: Vec<(u64, u64)> = grants.clone();
        seen.sort_unstable();
        assert!(
            seen.iter()
                .zip(seen.iter().skip(1))
                .all(|(a, b)| a.0 + a.1 == b.0),
            "grants tile the space: {seen:?}"
        );
        // per-iteration accounting is unchanged by chunking
        let claims = trace
            .samples
            .iter()
            .filter(|s| matches!(s.event, Event::IterClaimed { .. }))
            .count() as u64;
        assert_eq!(claims, out.executed);
    }

    #[test]
    fn one_policy_emits_no_chunk_events() {
        let pool = Pool::new(2);
        let rec = wlp_obs::BufferRecorder::new(2);
        doall_dynamic(&pool, 100, ChunkPolicy::One, &rec, |_, _| Step::Continue);
        let trace = rec.finish();
        assert!(
            !trace
                .samples
                .iter()
                .any(|s| matches!(s.event, Event::ChunkClaimed { .. })),
            "single-iteration grants are plain claims"
        );
    }

    #[test]
    fn worksteal_covers_all_iterations_exactly_once() {
        for (p, chunk) in [(1, 4), (4, 1), (4, 7), (8, 16)] {
            let pool = Pool::new(p);
            let hits: Vec<AtomicU32> = (0..500).map(|_| AtomicU32::new(0)).collect();
            let out = doall_worksteal(&pool, 500, chunk, |i, _| {
                hits[i].fetch_add(1, Ordering::Relaxed);
                Step::Continue
            });
            assert_eq!(out.quit, None, "p={p} chunk={chunk}");
            assert_eq!(out.executed, 500, "p={p} chunk={chunk}");
            assert_eq!(out.max_started, 500, "p={p} chunk={chunk}");
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn worksteal_quit_contract_holds() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU32> = (0..2000).map(|_| AtomicU32::new(0)).collect();
        let out = doall_worksteal(&pool, 2000, 8, |i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            if i >= 300 {
                Step::Quit
            } else {
                Step::Continue
            }
        });
        let q = out.quit.expect("loop must quit");
        assert!(q >= 300, "quit below the terminator");
        for i in 0..=q {
            assert_eq!(
                hits[i].load(Ordering::Relaxed),
                1,
                "iteration {i} at or below the quit must run exactly once"
            );
        }
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) <= 1));
    }

    #[test]
    fn worksteal_contains_body_panic() {
        assert_panic_contained("worksteal", |p, u, b| doall_worksteal(p, u, 8, b));
    }

    #[test]
    fn worksteal_empty_range_runs_nothing() {
        let pool = Pool::new(4);
        let out = doall_worksteal(&pool, 0, 16, |_, _| Step::Quit);
        assert_eq!(out.executed, 0);
        assert_eq!(out.quit, None);
        assert_eq!(out.max_started, 0);
    }

    #[test]
    fn deadline_overrun_surfaces_timeout_with_the_overdue_iteration() {
        use crate::pool::Deadline;
        let pool = Pool::new(4).with_deadline(Deadline::from_millis(25));
        let out = doall_dynamic(&pool, 1_000_000, ChunkPolicy::One, &NoopRecorder, |i, _| {
            if i == 5 {
                // A stall that never polls anything loop-visible: the
                // watchdog must cancel issue and blame this iteration.
                std::thread::sleep(std::time::Duration::from_millis(200));
            }
            Step::Continue
        });
        let to = out.timeout.expect("watchdog verdict must be surfaced");
        assert_eq!(to.iter, Some(5), "overdue lane's loop counter patched in");
        assert!(to.elapsed >= std::time::Duration::from_millis(25));
        assert_eq!(out.panic, None);
        assert!(
            out.executed < 1_000_000,
            "cancellation must stop issue well before the range is exhausted"
        );
    }

    #[test]
    fn deadline_kept_leaves_outcome_clean() {
        use crate::pool::Deadline;
        let pool = Pool::new(4).with_deadline(Deadline::from_millis(5_000));
        let out = doall_dynamic(&pool, 1_000, ChunkPolicy::One, &NoopRecorder, |_, _| {
            Step::Continue
        });
        assert_eq!(out.timeout, None);
        assert_eq!(out.executed, 1_000);
    }

    #[test]
    fn panic_cancels_in_flight_issue() {
        // After a panic, peers stop claiming at the next boundary: far
        // fewer than `upper` iterations run.
        let pool = Pool::new(4);
        let ran = AtomicU64::new(0);
        let out = doall_dynamic(&pool, 1_000_000, ChunkPolicy::One, &NoopRecorder, |i, _| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 10 {
                panic!("stop the presses");
            }
            Step::Continue
        });
        assert!(out.panic.is_some());
        assert!(
            ran.load(Ordering::Relaxed) < 1_000_000,
            "cancellation must stop issue well before the range is exhausted"
        );
    }
}
