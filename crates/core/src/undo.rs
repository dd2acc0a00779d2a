//! Undoing iterations that overshoot the termination condition (Section 4).
//!
//! "Perhaps the easiest method … is to checkpoint prior to executing the
//! DOALL, and to maintain a record of when (i.e., iteration number) a
//! memory location is written during the loop. … after the DOALL has
//! terminated and the last valid iteration is known, the work of iterations
//! that have overshot can be undone by restoring the values that were
//! overwritten during these iterations."
//!
//! [`VersionedArray`] is exactly that triple: the checkpoint copy, the live
//! data, and per-location write time-stamps — the paper's "three times the
//! actual memory" worst case. Writes from different iterations to
//! *different* locations proceed without contention; writes to the *same*
//! location are what the PD test exists to detect, and remain memory-safe
//! here (via `crossbeam`'s `AtomicCell`) so a failed speculation can be
//! rolled back cleanly.

use crossbeam::atomic::AtomicCell;
use std::sync::atomic::{AtomicU32, Ordering};

const UNWRITTEN: u32 = u32::MAX;

/// A checkpointed array with per-location write time-stamps.
///
/// ```
/// use wlp_core::undo::VersionedArray;
///
/// let a = VersionedArray::new(vec![0; 4]);
/// a.write(0, 10, 2);    // iteration 2 wrote element 0
/// a.write(1, 20, 7);    // iteration 7 wrote element 1 … but the loop
/// a.undo_past(5);       // exited at iteration 5: undo the overshoot
/// assert_eq!(a.snapshot(), vec![10, 0, 0, 0]);
/// ```
#[derive(Debug)]
pub struct VersionedArray<T: Copy> {
    data: Vec<AtomicCell<T>>,
    stamp: Vec<AtomicU32>,
    checkpoint: Vec<T>,
}

impl<T: Copy> VersionedArray<T> {
    /// Checkpoints `init` and exposes it as the live array.
    pub fn new(init: Vec<T>) -> Self {
        VersionedArray {
            data: init.iter().copied().map(AtomicCell::new).collect(),
            stamp: (0..init.len()).map(|_| AtomicU32::new(UNWRITTEN)).collect(),
            checkpoint: init,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Reads element `e`.
    #[inline]
    pub fn read(&self, e: usize) -> T {
        self.data[e].load()
    }

    /// Writes `v` to element `e` on behalf of iteration `iter`, recording
    /// the earliest writing iteration as the element's time-stamp. (In a
    /// valid independent loop each location is written during at most one
    /// iteration, so "earliest" is simply "the" writer.)
    ///
    /// The stamped-write hot path is two `Relaxed` operations: a load of
    /// the current stamp, then — only when this iteration is earlier — a
    /// `fetch_min` RMW. The skip branch is the common case in a valid
    /// loop, where each location has exactly one writer and later strips
    /// reuse the same stamp. `Relaxed` is sound because a stamp is plain
    /// data: nothing is published through it, and every reader of the
    /// stamps (`undo_past`, `restore_all`, the PD analysis) runs after
    /// the region join, which is the happens-before edge that flushes all
    /// in-flight RMWs.
    #[inline]
    pub fn write(&self, e: usize, v: T, iter: usize) {
        let it = u32::try_from(iter).expect("iteration fits in u32");
        assert!(it < UNWRITTEN, "iteration stamp space exhausted");
        self.data[e].store(v);
        if self.stamp[e].load(Ordering::Relaxed) > it {
            self.stamp[e].fetch_min(it, Ordering::Relaxed);
        }
    }

    /// Time-stamp of element `e`: the earliest iteration that wrote it, if
    /// any. (`Relaxed`: stamps are self-contained data, ordered by the
    /// region join — see [`write`](Self::write).)
    pub fn stamp(&self, e: usize) -> Option<usize> {
        let s = self.stamp[e].load(Ordering::Relaxed);
        (s != UNWRITTEN).then_some(s as usize)
    }

    /// Restores every element whose time-stamp is greater than
    /// `last_valid` to its checkpoint value, clearing those stamps.
    /// Returns the number of elements restored.
    pub fn undo_past(&self, last_valid: usize) -> usize {
        let li = u32::try_from(last_valid).unwrap_or(UNWRITTEN - 1);
        let mut restored = 0;
        for e in 0..self.data.len() {
            let s = self.stamp[e].load(Ordering::Relaxed);
            if s != UNWRITTEN && s > li {
                self.data[e].store(self.checkpoint[e]);
                self.stamp[e].store(UNWRITTEN, Ordering::Relaxed);
                restored += 1;
            }
        }
        restored
    }

    /// Restores *every* written element to its checkpoint (a failed
    /// speculation or an exception), clearing all stamps. Returns the
    /// number of elements restored.
    pub fn restore_all(&self) -> usize {
        let mut restored = 0;
        for e in 0..self.data.len() {
            if self.stamp[e].swap(UNWRITTEN, Ordering::Relaxed) != UNWRITTEN {
                self.data[e].store(self.checkpoint[e]);
                restored += 1;
            }
        }
        restored
    }

    /// Accepts the current live values as the new checkpoint and clears all
    /// stamps (a successful loop, ready for the next one).
    pub fn commit(&mut self) {
        for e in 0..self.data.len() {
            self.checkpoint[e] = self.data[e].load();
            *self.stamp[e].get_mut() = UNWRITTEN;
        }
    }

    /// Copies the live values out.
    pub fn snapshot(&self) -> Vec<T> {
        self.data.iter().map(|c| c.load()).collect()
    }

    /// Direct un-stamped write, for sequential re-execution after a failed
    /// speculation (no undo support needed — the re-execution is the
    /// semantics).
    #[inline]
    pub fn write_direct(&self, e: usize, v: T) {
        self.data[e].store(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_see_initial_values() {
        let a = VersionedArray::new(vec![1, 2, 3]);
        assert_eq!(a.read(1), 2);
        assert_eq!(a.len(), 3);
        assert_eq!(a.stamp(0), None);
    }

    #[test]
    fn undo_past_restores_only_overshot_writes() {
        let a = VersionedArray::new(vec![0; 5]);
        a.write(0, 10, 1);
        a.write(1, 20, 4);
        a.write(2, 30, 9); // overshot
        let restored = a.undo_past(5);
        assert_eq!(restored, 1);
        assert_eq!(a.snapshot(), vec![10, 20, 0, 0, 0]);
        assert_eq!(a.stamp(2), None, "undone stamps are cleared");
        assert_eq!(a.stamp(1), Some(4), "valid stamps survive");
    }

    #[test]
    fn restore_all_rolls_back_everything() {
        let a = VersionedArray::new(vec![7, 8]);
        a.write(0, 100, 0);
        a.write(1, 200, 3);
        assert_eq!(a.restore_all(), 2);
        assert_eq!(a.snapshot(), vec![7, 8]);
        assert_eq!(a.restore_all(), 0, "second restore finds nothing");
    }

    #[test]
    fn commit_adopts_new_baseline() {
        let mut a = VersionedArray::new(vec![0]);
        a.write(0, 42, 2);
        a.commit();
        a.write(0, 99, 0);
        a.restore_all();
        assert_eq!(a.read(0), 42, "restore goes to the committed value");
    }

    #[test]
    fn stamp_keeps_earliest_writer() {
        let a = VersionedArray::new(vec![0]);
        a.write(0, 1, 9);
        a.write(0, 2, 3); // an invalid loop wrote twice; min stamp = 3
        assert_eq!(a.stamp(0), Some(3));
    }

    #[test]
    fn concurrent_disjoint_writes() {
        let a = VersionedArray::new(vec![0u64; 1000]);
        let pool = wlp_runtime::Pool::new(4);
        wlp_runtime::doall_dynamic(
            &pool,
            1000,
            wlp_runtime::ChunkPolicy::One,
            &wlp_obs::NoopRecorder,
            |i, _| {
                a.write(i, i as u64 * 2, i);
                wlp_runtime::Step::Continue
            },
        );
        for e in (0..1000).step_by(97) {
            assert_eq!(a.read(e), e as u64 * 2);
            assert_eq!(a.stamp(e), Some(e));
        }
        assert_eq!(a.undo_past(499), 500);
        assert_eq!(a.read(700), 0);
        assert_eq!(a.read(400), 800);
    }

    #[test]
    fn write_direct_bypasses_stamps() {
        let a = VersionedArray::new(vec![0]);
        a.write_direct(0, 5);
        assert_eq!(a.stamp(0), None);
        assert_eq!(a.restore_all(), 0, "direct writes are not rolled back");
        assert_eq!(a.read(0), 5);
    }
}
