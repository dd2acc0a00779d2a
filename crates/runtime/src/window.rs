//! Resource-controlled self-scheduling (Section 8.2 of the paper).
//!
//! To bound the memory needed for write time-stamps without introducing the
//! rigid synchronization points of strip-mining, the paper proposes a
//! *sliding window* of size `w`: at any time, the difference between the
//! lowest iteration `l` that has not completely executed and the highest
//! iteration `h` that has begun is at most `w`. The time-stamp store is then
//! bounded by `w ×` (writes per iteration).
//!
//! The window size may be adjusted dynamically by the *application itself*
//! based on its own memory usage — the paper is explicit that this is
//! program-level self-monitoring, not an OS facility. [`WindowController`]
//! implements that policy: it maps a measured memory usage to a new window
//! size under a budget.

use crate::doall::{doall_region, DoallOutcome, Step};
use crate::pool::{CancelFlag, Pool};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::time::Instant;
use wlp_obs::{Event, Recorder};

#[derive(Debug)]
struct WinState {
    /// Next iteration to issue.
    next: usize,
    /// Lowest iteration not yet complete (`l` in the paper).
    low: usize,
    /// Completion flags for iterations `low..next` (ring buffer).
    done: VecDeque<bool>,
    /// Smallest quitting iteration (`usize::MAX` = none).
    quit: usize,
    /// Current window size `w`.
    window: usize,
    /// Largest span `h − l` ever observed (for tests / reporting).
    max_span: usize,
    /// Raised when the run is abandoned (worker panic): claims return
    /// `None` immediately instead of blocking on the window. Lives under
    /// the state mutex so the cancel/notify pair is race-free — a claimer
    /// cannot check the flag and then sleep across the cancellation.
    cancelled: bool,
}

/// A sliding-window iteration scheduler.
///
/// Workers [`claim`](WindowScheduler::claim) iterations and
/// [`complete`](WindowScheduler::complete) them; a claim blocks while the
/// span of in-flight iterations would exceed the window.
#[derive(Debug)]
pub struct WindowScheduler {
    upper: usize,
    state: Mutex<WinState>,
    cv: Condvar,
}

impl WindowScheduler {
    /// Creates a scheduler for iterations `0..upper` with window `window`.
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn new(upper: usize, window: usize) -> Self {
        assert!(window > 0, "window must be positive");
        WindowScheduler {
            upper,
            state: Mutex::new(WinState {
                next: 0,
                low: 0,
                done: VecDeque::new(),
                quit: usize::MAX,
                window,
                max_span: 0,
                cancelled: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Claims the next iteration, blocking while the window is full.
    /// Returns `None` when the iteration space or the quit bound is
    /// exhausted.
    pub fn claim(&self) -> Option<usize> {
        self.claim_inner(None)
    }

    /// [`claim`](WindowScheduler::claim) that also honours an external
    /// [`CancelFlag`]: a lane blocked on window admission wakes
    /// periodically to poll the flag, so a watchdog cancel (which only
    /// raises the flag — it cannot reach this condvar) still drains the
    /// region instead of stranding peers behind a stalled low watermark.
    pub fn claim_watched(&self, cancel: &CancelFlag) -> Option<usize> {
        self.claim_inner(Some(cancel))
    }

    fn claim_inner(&self, cancel: Option<&CancelFlag>) -> Option<usize> {
        let mut st = self.state.lock();
        loop {
            if let Some(c) = cancel {
                if c.is_cancelled() && !st.cancelled {
                    st.cancelled = true;
                    self.cv.notify_all();
                }
            }
            if st.cancelled || st.next >= self.upper || st.next > st.quit {
                // Wake any peers blocked on the window so they can also see
                // the end condition.
                self.cv.notify_all();
                return None;
            }
            if st.next - st.low < st.window {
                let i = st.next;
                st.next += 1;
                st.done.push_back(false);
                let span = st.next - st.low;
                st.max_span = st.max_span.max(span);
                return Some(i);
            }
            match cancel {
                None => self.cv.wait(&mut st),
                Some(_) => {
                    // Timed wait: bounded staleness for the cancel poll.
                    self.cv
                        .wait_for(&mut st, std::time::Duration::from_millis(1));
                }
            }
        }
    }

    /// Marks iteration `i` complete, advancing the low watermark past any
    /// prefix of completed iterations. Tolerates (ignores) an iteration
    /// the scheduler does not consider in flight — a stale completion
    /// after cancellation must not panic while holding the lock.
    pub fn complete(&self, i: usize) {
        let mut st = self.state.lock();
        let Some(idx) = i.checked_sub(st.low) else {
            return;
        };
        let Some(slot) = st.done.get_mut(idx) else {
            return;
        };
        *slot = true;
        let mut advanced = false;
        while st.done.front() == Some(&true) {
            st.done.pop_front();
            st.low += 1;
            advanced = true;
        }
        if advanced {
            self.cv.notify_all();
        }
    }

    /// Registers a QUIT at iteration `i` (smallest wins).
    pub fn quit_at(&self, i: usize) {
        let mut st = self.state.lock();
        if i < st.quit {
            st.quit = i;
            self.cv.notify_all();
        }
    }

    /// Replaces the window size (takes effect on subsequent claims).
    ///
    /// # Panics
    /// Panics if `window == 0`.
    pub fn set_window(&self, window: usize) {
        assert!(window > 0, "window must be positive");
        let mut st = self.state.lock();
        st.window = window;
        self.cv.notify_all();
    }

    /// Current window size.
    pub fn window(&self) -> usize {
        self.state.lock().window
    }

    /// Lowest incomplete iteration (`l`).
    pub fn low_watermark(&self) -> usize {
        self.state.lock().low
    }

    /// Largest in-flight span observed so far.
    pub fn max_span(&self) -> usize {
        self.state.lock().max_span
    }

    /// Smallest quitting iteration, if any.
    pub fn quit(&self) -> Option<usize> {
        let q = self.state.lock().quit;
        (q != usize::MAX).then_some(q)
    }

    /// Abandons the run: all current and future claims return `None`,
    /// and every worker blocked on window admission is woken. Used on the
    /// fault path — a panicked worker never completes its iteration, so
    /// the low watermark would otherwise stall peers forever.
    pub fn cancel(&self) {
        let mut st = self.state.lock();
        st.cancelled = true;
        self.cv.notify_all();
    }

    /// Whether the run was abandoned.
    pub fn is_cancelled(&self) -> bool {
        self.state.lock().cancelled
    }
}

/// The application-level window-size policy of Section 8.2.
///
/// Given the memory cost of keeping one iteration in flight (its write
/// time-stamps and backups) and a budget, the controller computes the
/// largest admissible window, clamped to `[min_window, max_window]`.
#[derive(Debug, Clone, Copy)]
pub struct WindowController {
    /// Bytes of time-stamp/backup state per in-flight iteration.
    pub bytes_per_iteration: usize,
    /// Total memory the application is willing to spend on that state.
    pub budget_bytes: usize,
    /// Never shrink the window below this (at least 1).
    pub min_window: usize,
    /// Never grow the window beyond this.
    pub max_window: usize,
}

impl WindowController {
    /// The window size the budget admits, given `other_usage_bytes` already
    /// consumed by the rest of the application.
    pub fn target_window(&self, other_usage_bytes: usize) -> usize {
        let available = self.budget_bytes.saturating_sub(other_usage_bytes);
        let w = available
            .checked_div(self.bytes_per_iteration)
            .unwrap_or(self.max_window);
        w.clamp(self.min_window.max(1), self.max_window.max(1))
    }

    /// Re-targets `sched`'s window for the given measured usage and returns
    /// the new window size.
    pub fn adjust(&self, sched: &WindowScheduler, other_usage_bytes: usize) -> usize {
        let w = self.target_window(other_usage_bytes);
        sched.set_window(w);
        w
    }
}

/// A windowed DOALL over `0..upper`: like
/// [`doall_dynamic`](crate::doall::doall_dynamic) but the span of in-flight
/// iterations never exceeds `window`. Returns the outcome plus the maximum
/// span actually observed.
///
/// Reports the initial window size, each claim (time blocked on window
/// admission becomes a `LockWait`), body execution, QUIT broadcast and
/// end-of-loop join to `rec`. With [`wlp_obs::NoopRecorder`] every probe
/// compiles away.
pub fn doall_windowed<R, F>(
    pool: &Pool,
    upper: usize,
    window: usize,
    rec: &R,
    body: F,
) -> (DoallOutcome, usize)
where
    R: Recorder,
    F: Fn(usize, usize) -> Step + Sync,
{
    /// A panicking body never completes its iteration, so the low
    /// watermark stalls: cancel the window on the way out, waking every
    /// peer blocked on admission.
    struct CancelOnUnwind<'a>(&'a WindowScheduler);
    impl Drop for CancelOnUnwind<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                self.0.cancel();
            }
        }
    }

    let sched = WindowScheduler::new(upper, window);
    let watched = pool.deadline().is_some();
    if R::ENABLED {
        rec.record(
            0,
            Event::WindowResize {
                window: window as u64,
            },
        );
    }
    let out = doall_region(pool, rec, |lane| {
        let _wake = CancelOnUnwind(&sched);
        loop {
            let t0 = R::ENABLED.then(Instant::now);
            let claimed = if watched {
                sched.claim_watched(lane.cancel())
            } else {
                sched.claim()
            };
            if R::ENABLED {
                let dur = t0.map_or(0, |t| t.elapsed().as_nanos() as u64);
                lane.record(Event::LockWait { dur });
            }
            let Some(i) = claimed else { break };
            if let Step::Quit = lane.run(i, &body) {
                sched.quit_at(i);
            }
            sched.complete(i);
        }
    });
    (out, sched.max_span())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};
    use wlp_obs::NoopRecorder;

    #[test]
    fn windowed_doall_covers_all_iterations() {
        let pool = Pool::new(4);
        let hits: Vec<AtomicU32> = (0..200).map(|_| AtomicU32::new(0)).collect();
        let (out, span) = doall_windowed(&pool, 200, 8, &NoopRecorder, |i, _| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            Step::Continue
        });
        assert_eq!(out.executed, 200);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert!(span <= 8, "span {span} exceeded window 8");
    }

    #[test]
    fn window_bound_is_never_violated() {
        let pool = Pool::new(8);
        let (_, span) = doall_windowed(&pool, 1000, 3, &NoopRecorder, |_, _| Step::Continue);
        assert!(span <= 3, "span {span}");
    }

    #[test]
    fn windowed_quit_stops_issuing() {
        let pool = Pool::new(4);
        let (out, _) = doall_windowed(&pool, 100_000, 16, &NoopRecorder, |i, _| {
            if i >= 40 {
                Step::Quit
            } else {
                Step::Continue
            }
        });
        assert_eq!(out.quit, Some(40));
        // overshoot bounded by the window
        assert!(out.max_started <= 40 + 16 + 1);
    }

    #[test]
    fn quit_inside_a_full_window_does_not_deadlock() {
        // Regression shape: all claims are blocked on the window when the
        // only runnable iteration quits; blocked claimers must wake and see
        // the end condition.
        let pool = Pool::new(4);
        let (out, _) = doall_windowed(&pool, 1000, 1, &NoopRecorder, |i, _| {
            if i == 5 {
                Step::Quit
            } else {
                Step::Continue
            }
        });
        assert_eq!(out.quit, Some(5));
        assert_eq!(out.executed, 6); // window 1 ⇒ perfectly ordered, no overshoot past 5
    }

    #[test]
    fn controller_respects_budget_and_clamps() {
        let c = WindowController {
            bytes_per_iteration: 100,
            budget_bytes: 1000,
            min_window: 2,
            max_window: 64,
        };
        assert_eq!(c.target_window(0), 10);
        assert_eq!(c.target_window(900), 2); // clamped up to min
        assert_eq!(c.target_window(5000), 2); // saturating
        let big = WindowController {
            bytes_per_iteration: 1,
            budget_bytes: 1_000_000,
            min_window: 1,
            max_window: 32,
        };
        assert_eq!(big.target_window(0), 32); // clamped down to max
    }

    #[test]
    fn controller_adjust_takes_effect() {
        let sched = WindowScheduler::new(100, 50);
        let c = WindowController {
            bytes_per_iteration: 10,
            budget_bytes: 100,
            min_window: 1,
            max_window: 50,
        };
        assert_eq!(c.adjust(&sched, 0), 10);
        assert_eq!(sched.window(), 10);
    }

    #[test]
    fn scheduler_low_watermark_advances_in_order() {
        let sched = WindowScheduler::new(10, 10);
        let a = sched.claim().unwrap();
        let b = sched.claim().unwrap();
        assert_eq!((a, b), (0, 1));
        sched.complete(b); // completing out of order does not advance low
        assert_eq!(sched.low_watermark(), 0);
        sched.complete(a);
        assert_eq!(sched.low_watermark(), 2);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let _ = WindowScheduler::new(10, 0);
    }

    #[test]
    fn panic_inside_a_full_window_does_not_deadlock() {
        // The faulted iteration never completes, so the low watermark
        // stalls; blocked claimers must be woken by the cancellation.
        let pool = Pool::new(4);
        let (out, _) = doall_windowed(&pool, 100_000, 2, &NoopRecorder, |i, _| {
            if i == 50 {
                panic!("window fault");
            }
            Step::Continue
        });
        let wp = out.panic.expect("fault must be reported");
        assert_eq!(wp.iter, Some(50));
        assert_eq!(wp.message, "window fault");
        assert!(out.executed < 100_000);
    }

    #[test]
    fn cancelled_scheduler_rejects_claims_and_reports() {
        let sched = WindowScheduler::new(10, 4);
        assert_eq!(sched.claim(), Some(0));
        sched.cancel();
        assert!(sched.is_cancelled());
        assert_eq!(sched.claim(), None);
        // stale completion after cancellation must not panic
        sched.complete(7);
        sched.complete(0);
    }
}
