//! Stress and interleaving properties for the lock-free hot paths: the
//! Chase–Lev work-stealing deque (steal-vs-pop races, slot reuse across
//! ring wraparound) and the relaxed claim/stamp marking protocol, whose
//! concurrent executions must stay linearizable — i.e. indistinguishable
//! from some sequential marking order — which we check by comparing the
//! production `Shadow` verdict of a *parallel* marking run against the
//! brute-force sequential PD oracle on the identical access log.

use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use wlp::pd::{oracle_verdict, Access, Shadow};
use wlp::runtime::{doall_dynamic, ChunkPolicy, NoopRecorder, Pool, Steal, StealDeque, Step};

/// Every value pushed into a deque hammered by concurrent stealers is
/// taken exactly once, across an arbitrary owner script of pushes and
/// pops. Values are distinct, so multiset equality reduces to a sum and
/// a count.
fn run_deque_script(capacity: usize, stealers: usize, script: &[bool]) {
    let d = StealDeque::new(capacity);
    let done = AtomicBool::new(false);
    let stolen_count = AtomicUsize::new(0);
    let stolen_sum = AtomicUsize::new(0);
    let mut pushed_count = 0usize;
    let mut pushed_sum = 0usize;
    let mut taken_count = 0usize;
    let mut taken_sum = 0usize;

    std::thread::scope(|s| {
        for _ in 0..stealers {
            let (d, done, cnt, sum) = (&d, &done, &stolen_count, &stolen_sum);
            s.spawn(move || loop {
                match d.steal() {
                    Steal::Success(v) => {
                        cnt.fetch_add(1, Ordering::Relaxed);
                        sum.fetch_add(v, Ordering::Relaxed);
                    }
                    Steal::Retry => std::hint::spin_loop(),
                    Steal::Empty => {
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        std::hint::spin_loop();
                    }
                }
            });
        }
        let mut next = 1usize; // distinct nonzero payloads
        for &push in script {
            if push {
                if d.push(next) {
                    pushed_count += 1;
                    pushed_sum += next;
                    next += 1;
                }
            } else if let Some(v) = d.pop() {
                taken_count += 1;
                taken_sum += v;
            }
        }
        done.store(true, Ordering::Release);
    });
    // Stealers have exited; drain what's left single-threaded.
    while let Some(v) = d.pop() {
        taken_count += 1;
        taken_sum += v;
    }
    taken_count += stolen_count.load(Ordering::Relaxed);
    taken_sum += stolen_sum.load(Ordering::Relaxed);
    assert_eq!(taken_count, pushed_count, "an item was lost or duplicated");
    assert_eq!(taken_sum, pushed_sum, "an item was replaced by another");
}

/// Builds per-iteration access logs from flat proptest-generated data.
/// `raw[i]` encodes one access: element index and read/write/covered-read
/// selector.
fn build_log(n_iters: usize, m: usize, raw: &[(usize, u8)]) -> Vec<Vec<Access>> {
    let mut iters: Vec<Vec<Access>> = vec![Vec::new(); n_iters];
    for (k, &(e, kind)) in raw.iter().enumerate() {
        let i = k % n_iters;
        let e = e % m;
        match kind % 3 {
            0 => iters[i].push(Access::Read(e)),
            1 => iters[i].push(Access::Write(e)),
            _ => {
                // write-then-read: a covered read, the privatization shape
                iters[i].push(Access::Write(e));
                iters[i].push(Access::Read(e));
            }
        }
    }
    iters
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Owner pushes/pops racing 1–3 stealers on a small ring: exact
    /// conservation of items for arbitrary interleavings.
    #[test]
    fn deque_conserves_items_under_concurrent_stealing(
        capacity in 1usize..9,
        stealers in 1usize..4,
        script in prop::collection::vec(any::<bool>(), 1..400),
    ) {
        run_deque_script(capacity, stealers, &script);
    }

    /// A capacity-2 ring forced through hundreds of wrap cycles while a
    /// stealer races the owner for the last element: monotone indices
    /// make slot reuse safe (no ABA), so conservation must still hold.
    #[test]
    fn deque_wraparound_with_races_never_aliases_slots(
        rounds in 50usize..300,
    ) {
        // all-push script against a tiny ring: the owner alternates
        // push/pop while the stealer takes from the other end, cycling
        // the two slots over and over
        let script: Vec<bool> = (0..rounds * 2).map(|k| k % 3 != 2).collect();
        run_deque_script(2, 1, &script);
    }

    /// Linearizability of the relaxed claim/stamp marking: marking a
    /// random access log from 4 concurrent workers (relaxed CAS stamp
    /// insertion, inline write-sets, batched counters) must produce
    /// exactly the verdict the sequential brute-force oracle computes on
    /// the same log — for every overshoot cut.
    #[test]
    fn concurrent_marking_matches_the_sequential_oracle(
        n_iters in 1usize..24,
        m in 1usize..12,
        raw in prop::collection::vec((any::<usize>(), any::<u8>()), 0..120),
        cut in prop::option::of(0usize..24),
    ) {
        let iters = build_log(n_iters, m, &raw);
        let last_valid = cut.filter(|&c| c < n_iters);

        let sh = Shadow::new(m);
        let pool = Pool::new(4);
        let total: usize = iters.iter().map(|v| v.len()).sum();
        let out = doall_dynamic(&pool, n_iters, ChunkPolicy::One, &NoopRecorder, |i, _| {
            let mut marker = sh.iteration(i);
            for acc in &iters[i] {
                match *acc {
                    Access::Read(e) => marker.mark_read(e),
                    Access::Write(e) => marker.mark_write(e),
                }
            }
            Step::Continue
        });
        prop_assert!(out.panic.is_none() && out.timeout.is_none());

        let v = sh.analyze(&pool, last_valid, usize::MAX);
        let (doall, privatized) = oracle_verdict(&iters, last_valid);
        prop_assert_eq!(
            v.doall, doall,
            "shadow doall diverged from oracle (cut {:?})", last_valid
        );
        prop_assert_eq!(
            v.privatized_doall, privatized,
            "shadow privatized diverged from oracle (cut {:?})", last_valid
        );
        // access totals flushed by marker drops are exact
        prop_assert_eq!(sh.total_accesses(), total as u64);
    }
}

/// Deterministic high-volume duel: owner and one stealer contend for a
/// single in-flight element thousands of times. Complements the proptest
/// with a fixed, deep schedule targeted at the `pop`-last-element CAS.
#[test]
fn deque_last_element_duel_is_exact() {
    let rounds = 20_000usize;
    let d = StealDeque::new(2);
    let stolen = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    let mut popped = 0usize;
    std::thread::scope(|s| {
        let (dr, stolen_r, done_r) = (&d, &stolen, &done);
        s.spawn(move || loop {
            match dr.steal() {
                Steal::Success(_) => {
                    stolen_r.fetch_add(1, Ordering::Relaxed);
                }
                _ => {
                    if done_r.load(Ordering::Acquire) {
                        break;
                    }
                    std::hint::spin_loop();
                }
            }
        });
        for i in 0..rounds {
            while !d.push(i) {
                std::hint::spin_loop();
            }
            if d.pop().is_some() {
                popped += 1;
            }
        }
        done.store(true, Ordering::Release);
    });
    while d.pop().is_some() {
        popped += 1;
    }
    assert_eq!(popped + stolen.load(Ordering::Relaxed), rounds);
}

/// The oracle agreement holds under the *maximum-contention* shape too:
/// every iteration hammering the same element, marked from a full-width
/// pool — the densest stamp traffic the CAS loop can see.
#[test]
fn dense_single_element_marking_matches_oracle() {
    let n = 512usize;
    let iters: Vec<Vec<Access>> = (0..n)
        .map(|_| vec![Access::Read(0), Access::Write(0)])
        .collect();
    let sh = Shadow::new(1);
    let pool = Pool::new(4);
    let out = doall_dynamic(&pool, n, ChunkPolicy::One, &NoopRecorder, |i, _| {
        let mut marker = sh.iteration(i);
        marker.mark_read(0);
        marker.mark_write(0);
        Step::Continue
    });
    assert!(out.panic.is_none() && out.timeout.is_none());
    for cut in [None, Some(0), Some(1), Some(100), Some(511)] {
        let v = sh.analyze(&pool, cut, 4);
        let (doall, privatized) = oracle_verdict(&iters, cut);
        assert_eq!(v.doall, doall, "cut {cut:?}");
        assert_eq!(v.privatized_doall, privatized, "cut {cut:?}");
    }
}
