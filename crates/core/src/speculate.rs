//! Speculative parallel execution with run-time dependence testing
//! (Section 5).
//!
//! When the access pattern of a shared array cannot be analyzed statically,
//! the WHILE loop is *speculatively* executed as a DOALL; every access is
//! routed through a [`SpeculativeArray`], which checkpoints the data
//! (Section 4), time-stamps writes, and marks the PD-test shadow arrays.
//! After the loop:
//!
//! 1. exceptions (panics) during the parallel run ⇒ restore and re-execute
//!    sequentially — the paper's "treat them like an invalid parallel
//!    execution";
//! 2. the PD analysis (with marks of overshot iterations ignored via their
//!    time-stamps) decides whether cross-iteration dependences occurred:
//!    failure ⇒ restore and re-execute sequentially;
//! 3. success ⇒ undo the writes of overshot iterations and keep the
//!    parallel result.
//!
//! [`speculative_while_privatized`] additionally gives each processor a
//! private (copy-in) view of the array, records a time-stamped write trail,
//! and copies out last values on success — the mechanism for arrays whose
//! memory-related dependences privatization removes.
//!
//! [`speculative_while`], [`speculative_while_windowed`],
//! [`speculative_while_group`] and [`speculative_while_privatized`] share
//! one private attempt path: the per-iteration guard (budget check,
//! terminator, body, a panic turned into a QUIT) and the settling of the
//! finished attempt (an abort classified as timeout, then exception, then
//! budget, then dependence; restore or undo; the [`SpecOutcome`]). They
//! differ only in scheduler, access handle, and what follows a failed
//! attempt.

use crate::undo::VersionedArray;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;
use wlp_obs::{AbortReason, CachePadded, Event, NoopRecorder, Recorder};
use wlp_pd::{copy_out_last_values, IterMarker, IterMarkers, PdVerdict, Shadow, TrailSet};
use wlp_runtime::{doall_dynamic, doall_windowed, ChunkPolicy, DoallOutcome, Pool, Step};

/// An undo-log budget for one speculative attempt: a cap on the number of
/// stamped (restorable) writes. Exceeding it aborts the speculation with
/// [`AbortReason::Budget`] — the bounded-resources answer to a runaway
/// writer that would otherwise grow trails and overlays without limit
/// (the memory-budget concern of Section 8.2, applied to the undo log).
#[derive(Debug)]
struct SpecBudget {
    limit: u64,
    stamped: AtomicU64,
}

impl SpecBudget {
    /// Adds `n` stamped writes to the charge counter in one RMW. A
    /// single-array access handle buffers its charges locally and
    /// flushes on drop, so the shared counter is touched once per
    /// *iteration*, not once per *write*; a group handle charges each
    /// write of a budgeted array as it happens, keeping the per-iteration
    /// handle free of per-array state — the budget check itself stays a
    /// relaxed load.
    #[inline]
    fn charge_many(&self, n: u64) {
        self.stamped.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    fn exceeded(&self) -> bool {
        self.stamped.load(Ordering::Relaxed) > self.limit
    }
}

/// A shared array under speculation: checkpointed data, write stamps and
/// PD shadow marks, all maintained per access.
#[derive(Debug)]
pub struct SpeculativeArray<T: Copy> {
    versioned: VersionedArray<T>,
    shadow: Shadow,
    budget: Option<SpecBudget>,
}

impl<T: Copy + Send + Sync> SpeculativeArray<T> {
    /// Checkpoints `init` and sets up unmarked shadows.
    pub fn new(init: Vec<T>) -> Self {
        let shadow = Shadow::new(init.len());
        SpeculativeArray {
            versioned: VersionedArray::new(init),
            shadow,
            budget: None,
        }
    }

    /// Caps the stamped (restorable) writes any one speculative attempt
    /// may make on this array. When the cap is exceeded the attempt
    /// aborts with [`AbortReason::Budget`] and falls back to sequential
    /// execution instead of growing speculation state without bound.
    pub fn with_budget(mut self, writes: u64) -> Self {
        self.budget = Some(SpecBudget {
            limit: writes,
            stamped: AtomicU64::new(0),
        });
        self
    }

    /// Whether the undo-log budget (if any) has been exceeded.
    #[inline]
    pub fn budget_exceeded(&self) -> bool {
        self.budget.as_ref().is_some_and(|b| b.exceeded())
    }

    /// Stamped writes charged against the budget so far (0 without one).
    pub fn stamped_writes(&self) -> u64 {
        self.budget
            .as_ref()
            .map_or(0, |b| b.stamped.load(Ordering::Relaxed))
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.versioned.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.versioned.is_empty()
    }

    /// The per-iteration access handle used inside speculative bodies.
    fn access(&self, iter: usize) -> SpecAccess<'_, T> {
        SpecAccess {
            arr: self,
            marker: Some(self.shadow.iteration(iter)),
            iter,
            pending_charges: 0,
        }
    }

    /// A pass-through handle for sequential (re-)execution: no marking, no
    /// stamps.
    pub(crate) fn direct(&self) -> SpecAccess<'_, T> {
        SpecAccess {
            arr: self,
            marker: None,
            iter: 0,
            pending_charges: 0,
        }
    }

    /// Copies the live values out.
    pub fn snapshot(&self) -> Vec<T> {
        self.versioned.snapshot()
    }

    /// Accepts the current values and clears speculation state (including
    /// the budget's charge counter), readying the array for another loop.
    pub fn commit(&mut self) {
        self.versioned.commit();
        self.shadow.reset();
        if let Some(b) = &self.budget {
            b.stamped.store(0, Ordering::Relaxed);
        }
    }
}

/// Per-iteration view of a [`SpeculativeArray`]: reads and writes are
/// recorded when speculating, and pass through untouched during sequential
/// re-execution.
///
/// Budget charges are buffered on the handle and flushed to the shared
/// counter when it drops (one `fetch_add` per iteration). The budget trip
/// is checked at iteration claim time, so per-iteration charge
/// granularity is exactly the granularity the abort path observes.
#[derive(Debug)]
pub struct SpecAccess<'a, T: Copy> {
    arr: &'a SpeculativeArray<T>,
    marker: Option<IterMarker<'a>>,
    iter: usize,
    pending_charges: u64,
}

impl<T: Copy + Send + Sync> SpecAccess<'_, T> {
    /// Reads element `e`.
    pub fn read(&mut self, e: usize) -> T {
        if let Some(m) = &mut self.marker {
            m.mark_read(e);
        }
        self.arr.versioned.read(e)
    }

    /// Writes `v` to element `e`.
    pub fn write(&mut self, e: usize, v: T) {
        match &mut self.marker {
            Some(m) => {
                m.mark_write(e);
                self.pending_charges += 1;
                self.arr.versioned.write(e, v, self.iter);
            }
            None => self.arr.versioned.write_direct(e, v),
        }
    }

    /// The iteration this handle belongs to.
    pub fn iteration(&self) -> usize {
        self.iter
    }
}

impl<T: Copy> Drop for SpecAccess<'_, T> {
    fn drop(&mut self) {
        if self.pending_charges != 0 {
            if let Some(b) = &self.arr.budget {
                b.charge_many(self.pending_charges);
            }
        }
    }
}

/// What a speculative execution did.
#[derive(Debug, Clone)]
pub struct SpecOutcome {
    /// PD verdict of the parallel attempt (`None` if an exception aborted
    /// it before analysis).
    pub verdict: Option<PdVerdict>,
    /// The parallel result was kept.
    pub committed_parallel: bool,
    /// The loop was re-executed sequentially (failed test or exception).
    pub reexecuted_sequentially: bool,
    /// A body panicked during the parallel attempt.
    pub exception: bool,
    /// *Why* the parallel attempt was thrown away, when it was:
    /// a cross-iteration dependence, a contained panic, a watchdog
    /// deadline expiry, or an exhausted undo-log budget. `None` when the
    /// parallel result was kept.
    pub abort: Option<AbortReason>,
    /// The last valid iteration (the first satisfying the terminator).
    pub last_valid: Option<usize>,
    /// Bodies executed during the parallel attempt.
    pub executed_parallel: u64,
    /// Elements restored while undoing overshot iterations.
    pub undone: usize,
}

/// The per-iteration guard and the bookkeeping every speculative attempt
/// shares, whatever its scheduler and access handle: the exception flag,
/// per-worker executed counters, the undo-log budget probe and the
/// recorder.
struct Attempt<'r, R, B> {
    rec: &'r R,
    over_budget: B,
    exception: AtomicBool,
    // one counter per worker: a shared one would bounce between cores
    // on every iteration
    executed: Vec<CachePadded<AtomicU64>>,
}

impl<'r, R: Recorder, B: Fn() -> bool> Attempt<'r, R, B> {
    /// An attempt on `pool`; `over_budget` reports whether any of its
    /// arrays has exhausted its undo-log budget.
    fn new(pool: &Pool, rec: &'r R, over_budget: B) -> Self {
        Attempt {
            rec,
            over_budget,
            exception: AtomicBool::new(false),
            executed: (0..pool.size())
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
        }
    }

    /// Runs iteration `i` as one DOALL step: stops issue once the budget
    /// is spent, evaluates the terminator and then the body on the handle
    /// `access` builds, and turns a panic into a QUIT that aborts the
    /// attempt. Reports the claim, the terminator hit or the body's time,
    /// and the QUIT to the recorder.
    #[inline]
    fn step<A, MK, TF, BF>(&self, i: usize, vpn: usize, access: MK, term: &TF, body: &BF) -> Step
    where
        MK: FnOnce() -> A,
        TF: Fn(usize, &mut A) -> bool,
        BF: Fn(usize, &mut A),
    {
        if (self.over_budget)() {
            // Stop issuing; settling rolls everything back. No events:
            // this is not a terminator hit.
            return Step::Quit;
        }
        let iter = i as u64;
        if R::ENABLED {
            self.rec.record(vpn, Event::IterClaimed { iter, cost: 0 });
        }
        let mut acc = access();
        let t0 = R::ENABLED.then(Instant::now);
        let step = catch_unwind(AssertUnwindSafe(|| {
            if term(i, &mut acc) {
                Step::Quit
            } else {
                body(i, &mut acc);
                self.executed[vpn].fetch_add(1, Ordering::Relaxed);
                Step::Continue
            }
        }));
        let cost = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        match step {
            Ok(Step::Quit) => {
                if R::ENABLED {
                    self.rec.record(vpn, Event::TermTest { iter, cost });
                    self.rec.record(vpn, Event::Quit { iter });
                }
                Step::Quit
            }
            Ok(Step::Continue) => {
                if R::ENABLED {
                    self.rec.record(vpn, Event::IterExecuted { iter, cost });
                }
                Step::Continue
            }
            Err(_) => {
                self.exception.store(true, Ordering::Release);
                if R::ENABLED {
                    self.rec.record(vpn, Event::Quit { iter });
                }
                Step::Quit
            }
        }
    }

    /// Settles a finished attempt whose DOALL reported `out`. The arrays
    /// `marked` selects are the ones under the PD test, and the attempt is
    /// kept only when every one of them passes. An abort is attributed to
    /// a watchdog timeout, then an exception, then an exhausted budget,
    /// then a dependence, in that order (a timed-out region may also carry
    /// panics from its drain; the timeout caused them to surface). A
    /// failed attempt restores the tested arrays to their checkpoint; a
    /// kept one undoes the writes of iterations past the exit.
    ///
    /// With `privatized`, validity is the privatization criterion and the
    /// attempt wrote only private overlays: nothing is restored or undone,
    /// and copying out a kept attempt's values is the caller's.
    /// Re-execution of a failed attempt is always the caller's.
    fn settle<T>(
        &self,
        pool: &Pool,
        out: &DoallOutcome,
        arrays: &[SpeculativeArray<T>],
        marked: &[bool],
        privatized: bool,
    ) -> SpecOutcome
    where
        T: Copy + Send + Sync,
    {
        let rec = self.rec;
        let tested = || {
            arrays
                .iter()
                .zip(marked)
                .filter(|(_, &m)| m)
                .map(|(a, _)| a)
        };
        // the runtime-level catch is the backstop: a panic that escapes the
        // per-body catch (e.g. inside a probe) still aborts the speculation
        let exception = self.exception.load(Ordering::Acquire) || out.panic.is_some();
        let executed = self
            .executed
            .iter()
            .map(|e| e.load(Ordering::Relaxed))
            .sum();
        let last_valid = out.quit;
        let early_abort = if let Some(to) = &out.timeout {
            if R::ENABLED {
                rec.record(
                    to.vpn,
                    Event::TimeoutAbort {
                        vpn: to.vpn as u64,
                        elapsed: to.elapsed.as_nanos() as u64,
                    },
                );
            }
            Some(AbortReason::Timeout)
        } else if exception {
            Some(AbortReason::Exception)
        } else if (self.over_budget)() {
            Some(AbortReason::Budget)
        } else {
            None
        };
        let verdict = early_abort.is_none().then(|| {
            let mut merged = PdVerdict {
                doall: true,
                privatized_doall: true,
                conflicts: Vec::new(),
            };
            for a in tested() {
                let v = a.shadow.analyze_rec(pool, last_valid, 16, rec);
                merged.doall &= v.doall;
                merged.privatized_doall &= v.privatized_doall;
                merged.conflicts.extend(v.conflicts);
            }
            merged
        });
        let valid = verdict.as_ref().is_some_and(|v| {
            if privatized {
                v.privatized_doall
            } else {
                v.doall
            }
        });
        let mut outcome = SpecOutcome {
            verdict,
            committed_parallel: valid,
            reexecuted_sequentially: false,
            exception,
            abort: None,
            last_valid,
            executed_parallel: executed,
            undone: 0,
        };

        let u0 = R::ENABLED.then(Instant::now);
        let since = |t: Option<Instant>| t.map_or(0, |t| t.elapsed().as_nanos() as u64);
        if !valid {
            let reason = early_abort.unwrap_or(AbortReason::Dependence);
            if !privatized {
                for a in tested() {
                    a.versioned.restore_all();
                }
                if R::ENABLED {
                    let elems = tested().map(|a| a.len() as u64).sum();
                    let cost = since(u0);
                    rec.record(0, Event::UndoRestore { elems, cost });
                }
            }
            if R::ENABLED {
                let discarded = executed;
                rec.record(0, Event::SpecAbort { reason, discarded });
            }
            outcome.abort = Some(reason);
            return outcome;
        }

        if !privatized {
            if let Some(li) = last_valid {
                outcome.undone = tested().map(|a| a.versioned.undo_past(li)).sum();
            }
            if R::ENABLED && outcome.undone > 0 {
                let elems = outcome.undone as u64;
                let cost = since(u0);
                rec.record(0, Event::UndoRestore { elems, cost });
            }
        }
        if R::ENABLED {
            // every iteration below the exit executed a body, so the kept
            // share is exactly `last_valid` (or everything, with no exit)
            let committed = last_valid.map_or(executed, |li| (li as u64).min(executed));
            let undone = executed - committed;
            rec.record(0, Event::SpecCommit { committed, undone });
        }
        outcome
    }
}

/// Speculatively executes `while !term(i, A) { body(i, A) }` as a DOALL
/// over `0..upper`, testing at run time that the iterations were
/// independent. On test failure or exception, the array is restored and
/// the loop re-executed sequentially — the paper's complete recipe.
///
/// `policy` sets how many iterations one claim of the underlying
/// [`doall_dynamic`] grants, trading shared-counter traffic for a wider
/// in-flight span. Under an RV terminator the extra span means more
/// overshoot to undo on commit — the chunk size is the knob the paper's
/// `T_a` analysis prices.
///
/// The checkpoint volume (`Backup`), each claim, terminator-only
/// evaluation, executed body and QUIT, the PD analysis (`PdAnalyze`, via
/// [`Shadow::analyze_rec`](wlp_pd::Shadow::analyze_rec)), every restore
/// (`UndoRestore`) and the final `SpecCommit`/`SpecAbort` verdict are
/// reported to `rec`. Sequential re-execution after an abort is *not*
/// recorded as busy time: it happens on the calling thread and shows up
/// as idle in the profile, exactly like the paper's serial fallback.
/// With [`NoopRecorder`] every probe compiles away.
///
/// A panic during sequential (re-)execution is a *real* exception and
/// propagates.
///
/// ```
/// use wlp_core::speculate::{speculative_while, SpeculativeArray};
/// use wlp_obs::NoopRecorder;
/// use wlp_runtime::{ChunkPolicy, Pool};
///
/// // A[idx[i]] *= 2 through a run-time subscript array: unanalyzable
/// // statically, provably independent at run time (idx is a permutation)
/// let idx = [3usize, 1, 4, 0, 2];
/// let arr = SpeculativeArray::new(vec![1i64; 5]);
/// let out = speculative_while(&Pool::new(2), 5, ChunkPolicy::One, &arr, &NoopRecorder,
///     |_i, _a| false,
///     |i, a| { let v = a.read(idx[i]); a.write(idx[i], v * 2); });
/// assert!(out.committed_parallel);
/// assert_eq!(arr.snapshot(), vec![2; 5]);
/// ```
pub fn speculative_while<T, TF, BF, R>(
    pool: &Pool,
    upper: usize,
    policy: ChunkPolicy,
    arr: &SpeculativeArray<T>,
    rec: &R,
    term: TF,
    body: BF,
) -> SpecOutcome
where
    T: Copy + Send + Sync,
    TF: Fn(usize, &mut SpecAccess<'_, T>) -> bool + Sync,
    BF: Fn(usize, &mut SpecAccess<'_, T>) + Sync,
    R: Recorder,
{
    if R::ENABLED {
        // the checkpoint copy happened when the array was built; charge
        // its volume here so the report sees the backup side of Tb
        let elems = arr.len() as u64;
        rec.record(0, Event::Backup { elems, cost: 0 });
    }
    let attempt = Attempt::new(pool, rec, || arr.budget_exceeded());
    let out = doall_dynamic(pool, upper, policy, &NoopRecorder, |i, vpn| {
        attempt.step(i, vpn, || arr.access(i), &term, &body)
    });
    let mut outcome = attempt.settle(pool, &out, std::slice::from_ref(arr), &[true], false);
    if !outcome.committed_parallel {
        outcome.last_valid = run_sequential(upper, arr, &term, &body);
        outcome.reexecuted_sequentially = true;
    }
    outcome
}

/// [`speculative_while`] under the Section 8.2 sliding window: the span of
/// in-flight iterations never exceeds `window`, so at most `window ×`
/// (writes per iteration) time-stamps are live and RV overshoot is bounded
/// by the window — the resource-controlled variant of speculation. Returns
/// the outcome and the maximum span observed.
pub fn speculative_while_windowed<T, TF, BF>(
    pool: &Pool,
    upper: usize,
    window: usize,
    arr: &SpeculativeArray<T>,
    term: TF,
    body: BF,
) -> (SpecOutcome, usize)
where
    T: Copy + Send + Sync,
    TF: Fn(usize, &mut SpecAccess<'_, T>) -> bool + Sync,
    BF: Fn(usize, &mut SpecAccess<'_, T>) + Sync,
{
    let attempt = Attempt::new(pool, &NoopRecorder, || arr.budget_exceeded());
    let (out, span) = doall_windowed(pool, upper, window, &NoopRecorder, |i, vpn| {
        attempt.step(i, vpn, || arr.access(i), &term, &body)
    });
    let mut outcome = attempt.settle(pool, &out, std::slice::from_ref(arr), &[true], false);
    if !outcome.committed_parallel {
        outcome.last_valid = run_sequential(upper, arr, &term, &body);
        outcome.reexecuted_sequentially = true;
    }
    (outcome, span)
}

/// Per-iteration view of *several* arrays at once. Real loops usually
/// reference more than one statically-unanalyzable array; the PD test
/// "is applied to each shared variable referenced during the loop whose
/// accesses cannot be analyzed at compile-time" — each marked array gets
/// its own shadow, and the loop is valid only if every one passes.
/// Arrays the caller left unmarked are read and written in place, with
/// neither shadow marks nor time-stamps.
#[derive(Debug)]
pub struct GroupAccess<'a, T: Copy> {
    arrays: &'a [SpeculativeArray<T>],
    markers: IterMarkers<'a>,
    iter: usize,
}

impl<T: Copy + Send + Sync> GroupAccess<'_, T> {
    /// Reads element `e` of array `a`.
    #[inline]
    pub fn read(&mut self, a: usize, e: usize) -> T {
        if let Some(m) = self.markers.get(a) {
            m.mark_read(e);
        }
        self.arrays[a].versioned.read(e)
    }

    /// Writes `v` to element `e` of array `a`.
    #[inline]
    pub fn write(&mut self, a: usize, e: usize, v: T) {
        let arr = &self.arrays[a];
        match self.markers.get(a) {
            Some(m) => {
                m.mark_write(e);
                if let Some(b) = &arr.budget {
                    b.charge_many(1);
                }
                arr.versioned.write(e, v, self.iter);
            }
            None => arr.versioned.write_direct(e, v),
        }
    }

    /// The iteration this handle belongs to.
    pub fn iteration(&self) -> usize {
        self.iter
    }
}

/// Speculative execution over a *group* of arrays: like
/// [`speculative_while`], but each array is handled on its own terms and
/// the parallel result is kept only when every marked array validates.
///
/// * `policy` sets how many iterations one claim grants (see
///   [`doall_dynamic`]).
/// * `marked[a]` puts array `a` under the PD test: its accesses are
///   shadow-marked and its writes time-stamped, so overshoot past an
///   exit is undone and a failed attempt is rolled back. An unmarked
///   array is one static analysis proved free of cross-iteration
///   conflicts; it is accessed in place, unshadowed and unstamped — so
///   it must only be left unmarked when `term` cannot quit (a known trip
///   count), and a failed attempt leaves its writes behind.
///
/// This is the attempt only. On a failed test, an exception, a timeout
/// or an exhausted budget, every marked array is restored to its
/// checkpoint and the outcome reports the abort; re-execution is the
/// caller's, which also owns the inputs the unmarked arrays started from.
pub fn speculative_while_group<T, TF, BF>(
    pool: &Pool,
    upper: usize,
    policy: ChunkPolicy,
    arrays: &[SpeculativeArray<T>],
    marked: &[bool],
    term: TF,
    body: BF,
) -> SpecOutcome
where
    T: Copy + Send + Sync,
    TF: Fn(usize, &mut GroupAccess<'_, T>) -> bool + Sync,
    BF: Fn(usize, &mut GroupAccess<'_, T>) + Sync,
{
    assert_eq!(marked.len(), arrays.len(), "one marking flag per array");
    let attempt = Attempt::new(pool, &NoopRecorder, || {
        arrays.iter().any(|a| a.budget_exceeded())
    });
    let out = doall_dynamic(pool, upper, policy, &NoopRecorder, |i, vpn| {
        let access = || {
            let shadows = arrays
                .iter()
                .zip(marked)
                .map(|(a, &m)| m.then_some(&a.shadow));
            GroupAccess {
                arrays,
                markers: IterMarkers::new(shadows, i),
                iter: i,
            }
        };
        attempt.step(i, vpn, access, &term, &body)
    });
    attempt.settle(pool, &out, arrays, marked, false)
}

/// The Section 5 two-pass scheme: "First, the loop is run in parallel to
/// determine the number of iterations … and once the number of iterations
/// is known the resulting DO loop can be speculatively parallelized using
/// the PD test" — avoiding time-stamped shadow marks entirely, because a
/// known-range DO loop cannot overshoot.
///
/// Pass 1 evaluates the terminator only (it must be cheap/independent —
/// an RI condition); pass 2 speculates over the exact valid range with
/// the ordinary PD test. Dependence failures still fall back to
/// sequential re-execution.
pub fn run_twice_speculative<T, TF, BF>(
    pool: &Pool,
    upper: usize,
    arr: &SpeculativeArray<T>,
    term: TF,
    body: BF,
) -> SpecOutcome
where
    T: Copy + Send + Sync,
    TF: Fn(usize) -> bool + Sync,
    BF: Fn(usize, &mut SpecAccess<'_, T>) + Sync,
{
    // pass 1: terminator-only DOALL with QUIT — finds the trip count
    let pass1 = doall_dynamic(pool, upper, ChunkPolicy::One, &NoopRecorder, |i, _| {
        if term(i) {
            Step::Quit
        } else {
            Step::Continue
        }
    });
    // a panic in the terminator-only pass happens outside speculation (no
    // writes to protect) — it is a real exception and resumes
    if let Some(wp) = pass1.panic {
        wp.resume();
    }
    if pass1.timeout.is_some() {
        // the trip count was never determined: nothing speculative to
        // salvage, run the whole loop sequentially
        let mut lv = None;
        for i in 0..upper {
            if term(i) {
                lv = Some(i);
                break;
            }
            let mut acc = arr.direct();
            body(i, &mut acc);
        }
        return SpecOutcome {
            verdict: None,
            committed_parallel: false,
            reexecuted_sequentially: true,
            exception: false,
            abort: Some(AbortReason::Timeout),
            last_valid: lv,
            executed_parallel: 0,
            undone: 0,
        };
    }
    let end = pass1.quit.unwrap_or(upper);

    // pass 2: a known-range speculative DOALL (no overshoot possible)
    let mut out = speculative_while(
        pool,
        end,
        ChunkPolicy::One,
        arr,
        &NoopRecorder,
        |_, _| false,
        body,
    );
    out.last_valid = pass1.quit;
    out
}

/// Outcome of a strip-mined speculative execution.
#[derive(Debug, Clone)]
pub struct StripSpecOutcome {
    /// Per strip: `true` if the strip's parallel execution was kept,
    /// `false` if it was re-executed sequentially.
    pub strips_committed: Vec<bool>,
    /// The first iteration satisfying the terminator, if reached.
    pub last_valid: Option<usize>,
    /// Bodies executed across all parallel attempts (including discarded
    /// and overshot ones).
    pub executed_parallel: u64,
}

/// Strip-mined speculation (Section 5's recommendation when the
/// termination condition depends on variables with unknown dependences —
/// guarding against mis-determined exits and runaway loops, and bounding
/// the state a failed test discards):
///
/// each strip of `strip` iterations runs speculatively; after the strip,
/// the PD test is applied *to that strip's accesses*. A failing strip is
/// rolled back and re-executed sequentially; a passing strip is committed
/// (becoming the checkpoint for the next). Execution stops after the
/// strip containing the exit.
///
/// # Panics
/// Panics if `strip == 0`.
pub fn speculative_while_strips<T, TF, BF>(
    pool: &Pool,
    upper: usize,
    strip: usize,
    arr: &mut SpeculativeArray<T>,
    term: TF,
    body: BF,
) -> StripSpecOutcome
where
    T: Copy + Send + Sync,
    TF: Fn(usize, &mut SpecAccess<'_, T>) -> bool + Sync,
    BF: Fn(usize, &mut SpecAccess<'_, T>) + Sync,
{
    assert!(strip > 0, "strip size must be positive");
    let mut strips_committed = Vec::new();
    let mut executed_parallel = 0u64;
    let mut lo = 0usize;
    while lo < upper {
        let hi = (lo + strip).min(upper);
        let out = speculative_while(
            pool,
            hi - lo,
            ChunkPolicy::One,
            &*arr, // strip-local iteration numbering keeps stamps small
            &NoopRecorder,
            |local, a| term(lo + local, a),
            |local, a| body(lo + local, a),
        );
        executed_parallel += out.executed_parallel;
        strips_committed.push(out.committed_parallel);
        let strip_exit = out.last_valid;
        // commit the strip (sequential re-execution already wrote direct)
        arr.commit();
        if let Some(local) = strip_exit {
            return StripSpecOutcome {
                strips_committed,
                last_valid: Some(lo + local),
                executed_parallel,
            };
        }
        lo = hi;
    }
    StripSpecOutcome {
        strips_committed,
        last_valid: None,
        executed_parallel,
    }
}

fn run_sequential<T, TF, BF>(
    upper: usize,
    arr: &SpeculativeArray<T>,
    term: &TF,
    body: &BF,
) -> Option<usize>
where
    T: Copy + Send + Sync,
    TF: Fn(usize, &mut SpecAccess<'_, T>) -> bool + Sync,
    BF: Fn(usize, &mut SpecAccess<'_, T>) + Sync,
{
    for i in 0..upper {
        let mut acc = arr.direct();
        if term(i, &mut acc) {
            return Some(i);
        }
        body(i, &mut acc);
    }
    None
}

/// A per-iteration view of a *privatized* speculative array: writes go to
/// a processor-private overlay (recorded in a time-stamped trail), reads
/// prefer the overlay and fall back to the original values (copy-in).
#[derive(Debug)]
pub struct PrivAccess<'a, T: Copy> {
    original: &'a VersionedArray<T>,
    overlay: parking_lot::MutexGuard<'a, HashMap<usize, T>>,
    marker: IterMarker<'a>,
    trail: &'a TrailSet<T>,
    budget: Option<&'a SpecBudget>,
    vpn: usize,
    iter: usize,
    pending_charges: u64,
}

impl<T: Copy + Send + Sync> PrivAccess<'_, T> {
    /// Reads element `e` (private value if this processor wrote one).
    pub fn read(&mut self, e: usize) -> T {
        self.marker.mark_read(e);
        match self.overlay.get(&e) {
            Some(&v) => v,
            None => self.original.read(e),
        }
    }

    /// Writes `v` to this processor's private copy of element `e`.
    pub fn write(&mut self, e: usize, v: T) {
        self.marker.mark_write(e);
        // overlays and trails grow per write — exactly the state the
        // undo-log budget is meant to bound; charges are buffered and
        // flushed in one RMW when the handle drops at iteration end
        self.pending_charges += 1;
        self.overlay.insert(e, v);
        self.trail.record(self.vpn, self.iter, e, v);
    }
}

impl<T: Copy> Drop for PrivAccess<'_, T> {
    fn drop(&mut self) {
        if self.pending_charges != 0 {
            if let Some(b) = self.budget {
                b.charge_many(self.pending_charges);
            }
        }
    }
}

/// Speculative execution with **privatization**: each processor works on a
/// private overlay of the array (copy-in from the original), a
/// time-stamped write trail records every private write, and — if the PD
/// test confirms the privatization was valid — the last value per element
/// (with stamp ≤ the last valid iteration) is copied out to the shared
/// array. On failure the shared array is untouched (the original version
/// *is* the backup, as the paper notes) and the loop re-runs sequentially.
///
/// Soundness of the overshoot exemption (see `wlp_pd::shadow`): overlays
/// persist per worker across iterations, but [`doall_dynamic`] with
/// [`ChunkPolicy::One`] hands each worker monotonically increasing
/// iteration indices, so a *valid* iteration can never observe an
/// *overshot* same-worker overlay write — overshot work always comes after
/// all of a worker's valid work. Any valid-to-valid overlay leak is an
/// exposed read of another iteration's write and fails the privatization
/// criterion, forcing the sequential fallback.
pub fn speculative_while_privatized<T, TF, BF>(
    pool: &Pool,
    upper: usize,
    arr: &SpeculativeArray<T>,
    term: TF,
    body: BF,
) -> SpecOutcome
where
    T: Copy + Send + Sync,
    TF: Fn(usize, &mut PrivAccess<'_, T>) -> bool + Sync,
    BF: Fn(usize, &mut PrivAccess<'_, T>) + Sync,
{
    let p = pool.size();
    let overlays: Vec<parking_lot::Mutex<HashMap<usize, T>>> = (0..p)
        .map(|_| parking_lot::Mutex::new(HashMap::new()))
        .collect();
    let trail: TrailSet<T> = TrailSet::new(p);
    let attempt = Attempt::new(pool, &NoopRecorder, || arr.budget_exceeded());
    let out = doall_dynamic(pool, upper, ChunkPolicy::One, &NoopRecorder, |i, vpn| {
        let access = || PrivAccess {
            original: &arr.versioned,
            overlay: overlays[vpn].lock(),
            marker: arr.shadow.iteration(i),
            trail: &trail,
            budget: arr.budget.as_ref(),
            vpn,
            iter: i,
            pending_charges: 0,
        };
        attempt.step(i, vpn, access, &term, &body)
    });
    let mut outcome = attempt.settle(pool, &out, std::slice::from_ref(arr), &[true], true);
    if !outcome.committed_parallel {
        // shared data was never touched — no restore needed, just re-run
        outcome.last_valid = run_sequential_privatized(upper, arr, &term, &body);
        outcome.reexecuted_sequentially = true;
        return outcome;
    }

    // copy-out: last value per element with stamp ≤ LI (or any stamp if the
    // loop ran its full range)
    let events = trail.into_events();
    let mut values = arr.versioned.snapshot();
    let li = outcome.last_valid.unwrap_or(usize::MAX - 1);
    // elements whose value came from the trail
    outcome.undone = copy_out_last_values(&events, li, &mut values);
    for (e, v) in values.into_iter().enumerate() {
        arr.versioned.write_direct(e, v);
    }
    outcome
}

fn run_sequential_privatized<T, TF, BF>(
    upper: usize,
    arr: &SpeculativeArray<T>,
    term: &TF,
    body: &BF,
) -> Option<usize>
where
    T: Copy + Send + Sync,
    TF: Fn(usize, &mut PrivAccess<'_, T>) -> bool + Sync,
    BF: Fn(usize, &mut PrivAccess<'_, T>) + Sync,
{
    // Sequential semantics: a single "processor" with a persistent overlay
    // applied in iteration order; writes land directly in the shared array.
    let trail: TrailSet<T> = TrailSet::new(1);
    let shadow_sink = Shadow::new(arr.len()); // marks discarded
    let overlay = parking_lot::Mutex::new(HashMap::new());
    let mut last = None;
    for i in 0..upper {
        let mut acc = PrivAccess {
            original: &arr.versioned,
            overlay: overlay.lock(),
            marker: shadow_sink.iteration(i),
            trail: &trail,
            budget: None, // sequential truth is never budget-limited
            vpn: 0,
            iter: i,
            pending_charges: 0,
        };
        if term(i, &mut acc) {
            last = Some(i);
            break;
        }
        body(i, &mut acc);
    }
    for (e, v) in overlay.into_inner() {
        arr.versioned.write_direct(e, v);
    }
    last
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // indexing by iteration number is the semantics under test
mod tests {
    use super::*;

    fn pool() -> Pool {
        Pool::new(4)
    }

    #[test]
    fn independent_loop_commits_parallel() {
        // A[i] = 2·A[i] with an exit — Figure 5(a) with a conditional exit
        let arr = SpeculativeArray::new((0..100i64).collect());
        let out = speculative_while(
            &pool(),
            1000,
            ChunkPolicy::One,
            &arr,
            &NoopRecorder,
            |i, _| i >= 100,
            |i, a| {
                let v = a.read(i);
                a.write(i, 2 * v);
            },
        );
        assert!(out.committed_parallel);
        assert!(!out.reexecuted_sequentially);
        assert_eq!(out.last_valid, Some(100));
        assert_eq!(
            arr.snapshot(),
            (0..100).map(|x| 2 * x).collect::<Vec<i64>>()
        );
    }

    #[test]
    fn flow_dependence_falls_back_to_sequential() {
        // A[i] = A[i] + A[i-1] — Figure 5(c), a true recurrence
        let n = 64usize;
        let arr = SpeculativeArray::new(vec![1i64; n]);
        let out = speculative_while(
            &pool(),
            n,
            ChunkPolicy::One,
            &arr,
            &NoopRecorder,
            |i, _| i >= n - 1,
            |i, a| {
                let prev = a.read(i); // reads own slot …
                let left = a.read(i + 1); // … and the next (cross-iteration)
                a.write(i + 1, prev + left);
            },
        );
        assert!(!out.committed_parallel);
        assert!(out.reexecuted_sequentially);
        assert!(
            !out.verdict.unwrap().doall,
            "PD test must reject the recurrence"
        );
        // sequential semantics: A[i] = 1 + i (prefix sums of ones)
        let snap = arr.snapshot();
        for (i, v) in snap.iter().enumerate().take(n - 1) {
            assert_eq!(*v, 1 + i as i64, "element {i}");
        }
    }

    #[test]
    fn overshot_writes_are_undone() {
        // RV-style exit discovered at iteration 50; overshot iterations
        // write to disjoint cells and must be rolled back
        let arr = SpeculativeArray::new(vec![0i64; 1000]);
        let out = speculative_while(
            &pool(),
            1000,
            ChunkPolicy::One,
            &arr,
            &NoopRecorder,
            |i, _| i == 50,
            |i, a| a.write(i, 1),
        );
        assert!(out.committed_parallel);
        assert_eq!(out.last_valid, Some(50));
        let snap = arr.snapshot();
        for i in 0..50 {
            assert_eq!(snap[i], 1, "valid iteration {i}");
        }
        for i in 51..1000 {
            assert_eq!(snap[i], 0, "overshot iteration {i} must be undone");
        }
    }

    #[test]
    fn exception_triggers_sequential_reexecution() {
        let panic_in_parallel = AtomicBool::new(true);
        let arr = SpeculativeArray::new(vec![0i64; 64]);
        let out = speculative_while(
            &pool(),
            64,
            ChunkPolicy::One,
            &arr,
            &NoopRecorder,
            |_, _| false,
            |i, a| {
                if i == 31 && panic_in_parallel.swap(false, Ordering::SeqCst) {
                    panic!("injected fault");
                }
                a.write(i, i as i64);
            },
        );
        assert!(out.exception);
        assert!(out.reexecuted_sequentially);
        let snap = arr.snapshot();
        for (i, v) in snap.iter().enumerate() {
            assert_eq!(*v, i as i64, "sequential re-execution must be complete");
        }
    }

    #[test]
    fn privatized_tmp_array_commits() {
        // Figure 5(b): every iteration writes tmp (element n) then reads it
        // — output dependences removed by privatization
        let n = 40usize;
        let mut init = vec![0i64; 2 * n + 1];
        for (i, v) in init.iter_mut().enumerate() {
            *v = i as i64;
        }
        let tmp = 2 * n;
        let arr = SpeculativeArray::new(init.clone());
        let out = speculative_while_privatized(
            &pool(),
            n,
            &arr,
            |i, _| i >= n,
            |i, a| {
                // swap A[2i] and A[2i+1] through tmp
                let x = a.read(2 * i);
                a.write(tmp, x);
                let y = a.read(2 * i + 1);
                a.write(2 * i, y);
                let t = a.read(tmp);
                a.write(2 * i + 1, t);
            },
        );
        assert!(out.committed_parallel, "verdict: {:?}", out.verdict);
        let snap = arr.snapshot();
        for i in 0..n {
            assert_eq!(snap[2 * i], init[2 * i + 1], "pair {i} swapped");
            assert_eq!(snap[2 * i + 1], init[2 * i], "pair {i} swapped");
        }
    }

    #[test]
    fn privatized_fallback_on_true_dependence() {
        // a genuine flow dependence that privatization cannot remove
        let n = 32usize;
        let arr = SpeculativeArray::new(vec![1i64; n + 1]);
        let out = speculative_while_privatized(
            &pool(),
            n,
            &arr,
            |i, _| i >= n,
            |i, a| {
                let left = a.read(i);
                a.write(i + 1, left + 1);
            },
        );
        assert!(!out.committed_parallel);
        assert!(out.reexecuted_sequentially);
        // sequential semantics: A[i] = i + 1
        let snap = arr.snapshot();
        for i in 0..=n {
            assert_eq!(snap[i], i as i64 + 1, "element {i}");
        }
    }

    #[test]
    fn privatized_copy_out_respects_last_valid() {
        // every iteration writes element 0 (privatized); exit at 10 ⇒ the
        // copy-out must take iteration 9's value, not a later one
        let arr = SpeculativeArray::new(vec![-1i64]);
        let out = speculative_while_privatized(
            &pool(),
            1000,
            &arr,
            |i, _| i == 10,
            |i, a| a.write(0, i as i64),
        );
        assert!(out.committed_parallel, "verdict: {:?}", out.verdict);
        assert_eq!(out.last_valid, Some(10));
        assert_eq!(arr.snapshot(), vec![9]);
    }

    #[test]
    fn strips_commit_independent_work_and_find_the_exit() {
        let mut arr = SpeculativeArray::new(vec![0i64; 1000]);
        let out = speculative_while_strips(
            &pool(),
            1000,
            64,
            &mut arr,
            |i, _| i == 400,
            |i, a| a.write(i, i as i64),
        );
        assert_eq!(out.last_valid, Some(400));
        assert!(
            out.strips_committed.iter().all(|&c| c),
            "all strips independent"
        );
        // strips 0..=6 ran (exit inside strip [384, 448)); nothing later
        assert_eq!(out.strips_committed.len(), 7);
        let snap = arr.snapshot();
        for i in 0..400 {
            assert_eq!(snap[i], i as i64);
        }
        for i in 401..1000 {
            assert_eq!(snap[i], 0, "iteration {i} must not survive");
        }
    }

    #[test]
    fn only_the_poisoned_strip_reexecutes() {
        // a flow dependence confined to iterations 70→71 (strip 1 of 64)
        let n = 256usize;
        let mut arr = SpeculativeArray::new(vec![1i64; n + 1]);
        let out = speculative_while_strips(
            &pool(),
            n,
            64,
            &mut arr,
            |_, _| false,
            |i, a| {
                if i == 70 {
                    a.write(n, 5);
                } else if i == 71 {
                    let v = a.read(n);
                    a.write(71, v);
                } else {
                    a.write(i, 2);
                }
            },
        );
        assert_eq!(out.last_valid, None);
        assert_eq!(out.strips_committed.len(), 4);
        assert!(!out.strips_committed[1], "strip with the dependence fails");
        assert!(out.strips_committed[0] && out.strips_committed[2] && out.strips_committed[3]);
        // sequential semantics inside the failed strip
        assert_eq!(arr.snapshot()[71], 5);
    }

    #[test]
    fn strips_match_unstripped_results() {
        let make = || SpeculativeArray::new((0..500i64).collect());
        let term = |i: usize, _: &mut SpecAccess<'_, i64>| i >= 333;
        let body = |i: usize, a: &mut SpecAccess<'_, i64>| {
            let v = a.read(i);
            a.write(i, v + 100);
        };
        let whole = make();
        speculative_while(
            &pool(),
            500,
            ChunkPolicy::One,
            &whole,
            &NoopRecorder,
            term,
            body,
        );
        let mut strips = make();
        speculative_while_strips(&pool(), 500, 50, &mut strips, term, body);
        assert_eq!(whole.snapshot(), strips.snapshot());
    }

    #[test]
    fn run_twice_speculative_avoids_overshoot_entirely() {
        let arr = SpeculativeArray::new(vec![0i64; 1000]);
        let out = run_twice_speculative(&pool(), 1000, &arr, |i| i == 250, |i, a| a.write(i, 1));
        assert!(out.committed_parallel);
        assert_eq!(out.last_valid, Some(250));
        assert_eq!(out.undone, 0, "a known-range DOALL cannot overshoot");
        let snap = arr.snapshot();
        assert_eq!(snap.iter().filter(|&&v| v == 1).count(), 250);
        assert_eq!(snap[250], 0);
    }

    #[test]
    fn run_twice_speculative_still_catches_dependences() {
        let n = 64usize;
        let arr = SpeculativeArray::new(vec![1i64; n + 1]);
        let out = run_twice_speculative(
            &pool(),
            n,
            &arr,
            |_| false,
            |i, a| {
                let left = a.read(i);
                a.write(i + 1, left + 1);
            },
        );
        assert!(!out.committed_parallel);
        assert!(out.reexecuted_sequentially);
        let snap = arr.snapshot();
        for i in 0..=n {
            assert_eq!(snap[i], i as i64 + 1);
        }
    }

    #[test]
    fn windowed_speculation_bounds_overshoot_and_span() {
        let arr = SpeculativeArray::new(vec![0i64; 2000]);
        let (out, span) = speculative_while_windowed(
            &pool(),
            2000,
            8,
            &arr,
            |i, _| i == 300,
            |i, a| a.write(i, 1),
        );
        assert!(out.committed_parallel, "{:?}", out.verdict);
        assert_eq!(out.last_valid, Some(300));
        assert!(span <= 8, "span {span}");
        assert!(
            out.undone <= 8,
            "undo bounded by the window: {}",
            out.undone
        );
        let snap = arr.snapshot();
        assert_eq!(snap.iter().filter(|&&v| v == 1).count(), 300);
    }

    #[test]
    fn windowed_speculation_matches_unwindowed_results() {
        let term = |i: usize, _: &mut SpecAccess<'_, i64>| i >= 700;
        let body = |i: usize, a: &mut SpecAccess<'_, i64>| {
            let v = a.read(i);
            a.write(i, v + 5);
        };
        let a1 = SpeculativeArray::new((0..1000i64).collect());
        speculative_while(
            &pool(),
            1000,
            ChunkPolicy::One,
            &a1,
            &NoopRecorder,
            term,
            body,
        );
        let a2 = SpeculativeArray::new((0..1000i64).collect());
        let (out, _) = speculative_while_windowed(&pool(), 1000, 16, &a2, term, body);
        assert!(out.committed_parallel);
        assert_eq!(a1.snapshot(), a2.snapshot());
    }

    #[test]
    fn group_speculation_validates_independent_arrays() {
        // two arrays: a data array and a count array, disjoint per iteration
        let arrays = [
            SpeculativeArray::new(vec![0i64; 100]),
            SpeculativeArray::new(vec![10i64; 100]),
        ];
        let out = speculative_while_group(
            &pool(),
            100,
            ChunkPolicy::One,
            &arrays,
            &[true, true],
            |_, _| false,
            |i, g| {
                let v = g.read(1, i);
                g.write(0, i, v + i as i64);
                g.write(1, i, v + 1);
            },
        );
        assert!(out.committed_parallel, "{:?}", out.verdict);
        assert_eq!(arrays[0].snapshot()[7], 17);
        assert_eq!(arrays[1].snapshot()[7], 11);
    }

    #[test]
    fn group_speculation_fails_if_any_array_conflicts() {
        // array 0 is independent; array 1 is a shared accumulator
        let arrays = [
            SpeculativeArray::new(vec![0i64; 50]),
            SpeculativeArray::new(vec![0i64; 1]),
        ];
        let out = speculative_while_group(
            &pool(),
            50,
            ChunkPolicy::Fixed(4),
            &arrays,
            &[true, true],
            |_, _| false,
            |i, g| {
                g.write(0, i, 1);
                let acc = g.read(1, 0);
                g.write(1, 0, acc + 1);
            },
        );
        assert!(!out.committed_parallel);
        assert_eq!(out.abort, Some(AbortReason::Dependence));
        // the attempt is rolled back; re-execution is the caller's
        assert!(!out.reexecuted_sequentially);
        assert_eq!(arrays[1].snapshot(), vec![0]);
        assert!(arrays[0].snapshot().iter().all(|&v| v == 0));
    }

    #[test]
    fn group_speculation_tests_only_marked_arrays() {
        // array 1 is a shared cell, but unmarked: the caller vouches for
        // it, so only array 0's (clean) accesses are tested
        let arrays = [
            SpeculativeArray::new(vec![0i64; 64]),
            SpeculativeArray::new(vec![0i64; 1]),
        ];
        let out = speculative_while_group(
            &pool(),
            64,
            ChunkPolicy::Guided { min: 4 },
            &arrays,
            &[true, false],
            |_, _| false,
            |i, g| {
                g.write(0, i, i as i64);
                g.write(1, 0, 7);
            },
        );
        assert!(out.committed_parallel, "{:?}", out.verdict);
        assert_eq!(arrays[0].snapshot()[63], 63);
        assert_eq!(arrays[1].snapshot(), vec![7]);
    }

    #[test]
    fn group_speculation_undoes_overshoot_across_arrays() {
        let arrays = [
            SpeculativeArray::new(vec![0i64; 500]),
            SpeculativeArray::new(vec![0i64; 500]),
        ];
        let out = speculative_while_group(
            &pool(),
            500,
            ChunkPolicy::One,
            &arrays,
            &[true, true],
            |i, _| i == 60,
            |i, g| {
                g.write(0, i, 1);
                g.write(1, i, 2);
            },
        );
        assert!(out.committed_parallel);
        assert_eq!(out.last_valid, Some(60));
        for arr in &arrays {
            let snap = arr.snapshot();
            assert!(snap[..60].iter().all(|&v| v != 0));
            assert!(snap[61..].iter().all(|&v| v == 0));
        }
    }

    #[test]
    fn recorded_speculation_reports_commit_and_abort() {
        use wlp_obs::{BufferRecorder, ProfileReport};

        // committing run with overshoot past the exit at 50
        let arr = SpeculativeArray::new(vec![0i64; 500]);
        let rec = BufferRecorder::new(4);
        let out = speculative_while(
            &pool(),
            500,
            ChunkPolicy::One,
            &arr,
            &rec,
            |i, _| i == 50,
            |i, a| a.write(i, 1),
        );
        assert!(out.committed_parallel);
        let report = ProfileReport::from_trace(&rec.finish());
        assert_eq!(report.spec_commits, 1);
        assert_eq!(report.spec_aborts, 0);
        assert_eq!(report.committed, 50);
        assert_eq!(report.backup_elems, 500);
        assert_eq!(report.undo_elems, out.undone as u64);
        assert!(report.pd_analyzed > 0, "analysis volume recorded");
        assert_eq!(report.spec_success_rate(), Some(1.0));
        report.check_conservation().expect("laws hold");

        // dependence failure aborts and discards everything
        let n = 64usize;
        let arr = SpeculativeArray::new(vec![1i64; n + 1]);
        let rec = BufferRecorder::new(4);
        let out = speculative_while(
            &pool(),
            n,
            ChunkPolicy::One,
            &arr,
            &rec,
            |i, _| i >= n,
            |i, a| {
                let left = a.read(i);
                a.write(i + 1, left + 1);
            },
        );
        assert!(out.reexecuted_sequentially);
        let report = ProfileReport::from_trace(&rec.finish());
        assert_eq!(report.spec_aborts, 1);
        assert_eq!(report.committed, 0);
        assert_eq!(report.undone, report.executed, "abort discards all bodies");
        assert_eq!(report.undo_elems, (n + 1) as u64, "full restore volume");
        report.check_conservation().expect("laws hold");
    }

    #[test]
    fn chunked_speculation_matches_one_at_a_time() {
        let term = |i: usize, _: &mut SpecAccess<'_, i64>| i >= 333;
        let body = |i: usize, a: &mut SpecAccess<'_, i64>| {
            let v = a.read(i);
            a.write(i, v + 100);
        };
        let base = SpeculativeArray::new((0..500i64).collect());
        let b = speculative_while(
            &pool(),
            500,
            ChunkPolicy::One,
            &base,
            &NoopRecorder,
            term,
            body,
        );
        assert!(b.committed_parallel);
        for policy in [ChunkPolicy::Fixed(16), ChunkPolicy::Guided { min: 2 }] {
            let arr = SpeculativeArray::new((0..500i64).collect());
            let out = speculative_while(&pool(), 500, policy, &arr, &NoopRecorder, term, body);
            assert!(out.committed_parallel, "{policy:?}");
            assert_eq!(out.last_valid, Some(333), "{policy:?}");
            assert_eq!(arr.snapshot(), base.snapshot(), "{policy:?}");
        }
    }

    #[test]
    fn chunked_speculation_still_catches_dependences() {
        let n = 64usize;
        let arr = SpeculativeArray::new(vec![1i64; n + 1]);
        let out = speculative_while(
            &pool(),
            n,
            ChunkPolicy::Fixed(8),
            &arr,
            &NoopRecorder,
            |_, _| false,
            |i, a| {
                let left = a.read(i);
                a.write(i + 1, left + 1);
            },
        );
        assert!(!out.committed_parallel);
        assert!(out.reexecuted_sequentially);
        let snap = arr.snapshot();
        for i in 0..=n {
            assert_eq!(snap[i], i as i64 + 1);
        }
    }

    #[test]
    fn budget_trip_degrades_to_sequential_with_correct_result() {
        // every iteration writes: a budget of 20 stamped writes trips long
        // before the 500-iteration range is exhausted
        let arr = SpeculativeArray::new(vec![0i64; 500]).with_budget(20);
        let out = speculative_while(
            &pool(),
            500,
            ChunkPolicy::One,
            &arr,
            &NoopRecorder,
            |i, _| i >= 500,
            |i, a| {
                let v = a.read(i);
                a.write(i, v + 1 + i as i64);
            },
        );
        assert_eq!(out.abort, Some(AbortReason::Budget));
        assert!(out.reexecuted_sequentially);
        assert!(!out.committed_parallel);
        let snap = arr.snapshot();
        for (i, v) in snap.iter().enumerate() {
            assert_eq!(*v, 1 + i as i64, "element {i}: sequential semantics");
        }
    }

    #[test]
    fn generous_budget_still_commits_parallel() {
        let arr = SpeculativeArray::new(vec![0i64; 100]).with_budget(1_000);
        let out = speculative_while(
            &pool(),
            100,
            ChunkPolicy::One,
            &arr,
            &NoopRecorder,
            |_, _| false,
            |i, a| a.write(i, 1),
        );
        assert!(out.committed_parallel);
        assert_eq!(out.abort, None);
        assert_eq!(arr.stamped_writes(), 100);
    }

    #[test]
    fn abort_reason_attributes_dependence_and_exception() {
        let n = 32usize;
        let arr = SpeculativeArray::new(vec![1i64; n + 1]);
        let out = speculative_while(
            &pool(),
            n,
            ChunkPolicy::One,
            &arr,
            &NoopRecorder,
            |_, _| false,
            |i, a| {
                let left = a.read(i);
                a.write(i + 1, left + 1);
            },
        );
        assert_eq!(out.abort, Some(AbortReason::Dependence));

        let first = AtomicBool::new(true);
        let arr = SpeculativeArray::new(vec![0i64; 32]);
        let out = speculative_while(
            &pool(),
            32,
            ChunkPolicy::One,
            &arr,
            &NoopRecorder,
            |_, _| false,
            |i, a| {
                if i == 7 && first.swap(false, Ordering::SeqCst) {
                    panic!("boom");
                }
                a.write(i, 1);
            },
        );
        assert_eq!(out.abort, Some(AbortReason::Exception));
    }

    #[test]
    fn deadline_expiry_aborts_with_timeout_and_correct_result() {
        use wlp_obs::{BufferRecorder, ProfileReport};
        use wlp_runtime::Deadline;

        let pool = Pool::new(4).with_deadline(Deadline::from_millis(25));
        let arr = SpeculativeArray::new(vec![0i64; 10_000]);
        let rec = BufferRecorder::new(4);
        let out = speculative_while(
            &pool,
            10_000,
            ChunkPolicy::One,
            &arr,
            &rec,
            |i, _| i >= 10_000,
            |i, a| {
                if i == 3 {
                    // a stalled writer: holds its lane far past the deadline
                    std::thread::sleep(std::time::Duration::from_millis(200));
                }
                a.write(i, 7);
            },
        );
        assert_eq!(out.abort, Some(AbortReason::Timeout));
        assert!(out.reexecuted_sequentially);
        assert!(arr.snapshot().iter().all(|&v| v == 7), "sequential truth");

        let report = ProfileReport::from_trace(&rec.finish());
        assert_eq!(report.timeouts, 1, "TimeoutAbort recorded");
        assert_eq!(report.aborts_timeout, 1, "SpecAbort attributed to timeout");
        report.check_conservation().expect("laws hold");

        // the same (resident) pool stays reusable after the timeout
        let arr2 = SpeculativeArray::new(vec![0i64; 64]);
        let out2 = speculative_while(
            &pool,
            64,
            ChunkPolicy::One,
            &arr2,
            &NoopRecorder,
            |_, _| false,
            |i, a| a.write(i, 1),
        );
        assert!(out2.committed_parallel);
        assert_eq!(out2.abort, None);
    }

    // `atomic_`-prefixed tests are pool-free (scoped std threads only) so
    // the CI Miri job can select them by name filter and check the relaxed
    // stamp/charge protocol under the weak-memory interpreter.

    #[test]
    fn atomic_spec_budget_charges_are_exact_under_contention() {
        let threads: usize = 4;
        let iters_per_thread: usize = if cfg!(miri) { 8 } else { 200 };
        let writes_per_iter: usize = 3;
        let arr =
            SpeculativeArray::new(vec![0u64; threads * iters_per_thread]).with_budget(u64::MAX - 1);
        std::thread::scope(|s| {
            for t in 0..threads {
                let arr = &arr;
                s.spawn(move || {
                    for k in 0..iters_per_thread {
                        let i = t * iters_per_thread + k;
                        let mut acc = arr.access(i);
                        for _ in 0..writes_per_iter {
                            acc.write(i, i as u64);
                        }
                        // drop flushes the buffered charges in one RMW
                    }
                });
            }
        });
        assert_eq!(
            arr.stamped_writes(),
            (threads * iters_per_thread * writes_per_iter) as u64,
            "no charge lost or duplicated by the batched flush"
        );
        assert!(!arr.budget_exceeded());
    }

    #[test]
    fn atomic_spec_array_relaxed_stamps_survive_concurrent_writers() {
        // Several threads write the same element on behalf of different
        // iterations: the kept stamp must be the smallest iteration, and
        // undoing past it must restore the checkpoint — the exact protocol
        // the relaxed fast path in `VersionedArray::write` relies on.
        let threads: usize = if cfg!(miri) { 3 } else { 8 };
        let arr = SpeculativeArray::new(vec![7i64; 4]);
        std::thread::scope(|s| {
            for t in 0..threads {
                let arr = &arr;
                s.spawn(move || {
                    let mut acc = arr.access(t + 1);
                    acc.write(0, (t + 1) as i64);
                });
            }
        });
        let mut acc = arr.access(0);
        acc.write(0, 100);
        drop(acc);
        assert_eq!(arr.versioned.stamp(0), Some(0), "earliest writer wins");
        // every writer overshot except iteration 0 → undo keeps its value
        assert_eq!(arr.versioned.undo_past(0), 0);
        assert_eq!(arr.snapshot()[0], 100);
    }

    #[test]
    fn spec_array_commit_enables_reuse() {
        let mut arr = SpeculativeArray::new(vec![0i64; 10]);
        let out1 = speculative_while(
            &pool(),
            10,
            ChunkPolicy::One,
            &arr,
            &NoopRecorder,
            |_, _| false,
            |i, a| a.write(i, 1),
        );
        assert!(out1.committed_parallel);
        arr.commit();
        let out2 = speculative_while(
            &pool(),
            10,
            ChunkPolicy::One,
            &arr,
            &NoopRecorder,
            |_, _| false,
            |i, a| {
                let v = a.read(i);
                a.write(i, v + 1);
            },
        );
        assert!(out2.committed_parallel);
        assert_eq!(arr.snapshot(), vec![2; 10]);
    }
}
