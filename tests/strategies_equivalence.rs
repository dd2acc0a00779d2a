//! Property: every parallelization strategy produces the sequential
//! WHILE loop's results — same exit iteration, same surviving side
//! effects — for arbitrary exit points, pool widths, and schedulers.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};
use wlp::core::constructs::{run_twice_while, while_doall};
use wlp::core::induction::{induction1, induction2, induction2_static};
use wlp::list::ListArena;
use wlp::runtime::{doall_windowed, strip_mined, ChunkPolicy, NoopRecorder, Pool, Step};

/// The sequential reference: which iterations run their bodies, and where
/// the loop exits, for `while !(i ∈ exits) { body(i) }` over `0..n`.
fn reference(n: usize, exits: &[usize]) -> (Vec<bool>, Option<usize>) {
    let exit = exits.iter().copied().filter(|&e| e < n).min();
    let end = exit.unwrap_or(n);
    let mut ran = vec![false; n];
    for r in ran.iter_mut().take(end) {
        *r = true;
    }
    (ran, exit)
}

fn body_hits(n: usize) -> Vec<AtomicU32> {
    (0..n).map(|_| AtomicU32::new(0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn induction_methods_agree_with_reference(
        n in 1usize..400,
        exits in prop::collection::vec(0usize..500, 0..4),
        workers in 1usize..5,
    ) {
        let (expect_ran, expect_exit) = reference(n, &exits);
        let pool = Pool::new(workers);
        let term = |i: usize| exits.contains(&i);

        // Induction-1: per-processor minima + reduction
        let hits = body_hits(n);
        let o1 = induction1(&pool, n, &NoopRecorder, term, |i, _| { hits[i].fetch_add(1, Ordering::Relaxed); });
        prop_assert_eq!(o1.last_valid, expect_exit, "induction1 exit");
        for i in 0..n {
            // Induction-1 may overshoot (bodies past LI on processors that
            // hadn't met the condition locally), but never misses a valid one
            if expect_ran[i] {
                prop_assert_eq!(hits[i].load(Ordering::Relaxed), 1, "induction1 missed {}", i);
            }
        }

        // Induction-2 (QUIT): bodies are exactly the valid iterations
        let hits = body_hits(n);
        let o2 = induction2(&pool, n, &NoopRecorder, term, |i, _| { hits[i].fetch_add(1, Ordering::Relaxed); });
        prop_assert_eq!(o2.last_valid, expect_exit, "induction2 exit");
        for i in 0..n {
            let h = hits[i].load(Ordering::Relaxed);
            if expect_ran[i] {
                prop_assert_eq!(h, 1, "induction2 iteration {}", i);
            } else if expect_exit == Some(i) {
                prop_assert_eq!(h, 0, "the exit iteration does no work");
            }
        }

        // static schedule: same semantics, possibly different quit witness
        let o3 = induction2_static(&pool, n, term, |_, _| {});
        match (o3.last_valid, expect_exit) {
            (Some(got), Some(want)) => {
                prop_assert!(got >= want && exits.contains(&got), "static quit {} vs {}", got, want)
            }
            (None, None) => {}
            other => prop_assert!(false, "static exit mismatch: {:?}", other),
        }

        // run-twice: no stamps, exact bodies
        let hits = body_hits(n);
        let o4 = run_twice_while(&pool, n, term, |i, _| { hits[i].fetch_add(1, Ordering::Relaxed); });
        prop_assert_eq!(o4.last_valid, expect_exit, "run_twice exit");
        for i in 0..n {
            prop_assert_eq!(hits[i].load(Ordering::Relaxed), u32::from(expect_ran[i]), "run_twice {}", i);
        }

        // the construct alias
        let o5 = while_doall(&pool, n, term, |_, _| {});
        prop_assert_eq!(o5.last_valid, expect_exit);
    }

    #[test]
    fn schedulers_honour_quit_and_coverage(
        n in 1usize..300,
        exit in 0usize..350,
        workers in 1usize..5,
        strip in 1usize..64,
        window in 1usize..32,
    ) {
        let pool = Pool::new(workers);
        let body = |i: usize, _vpn: usize| if i == exit { Step::Quit } else { Step::Continue };

        let s = strip_mined(&pool, n, strip, ChunkPolicy::One, &NoopRecorder, body);
        let w = doall_windowed(&pool, n, window, &NoopRecorder, body).0;
        let expect = (exit < n).then_some(exit);
        prop_assert_eq!(s.outcome.quit, expect, "strip-mined quit");
        prop_assert_eq!(w.quit, expect, "windowed quit");
        if exit < n {
            // overshoot bounds: strip size / window size respectively
            prop_assert!(s.outcome.max_started <= (exit / strip + 1) * strip);
            prop_assert!(w.executed <= (exit + window + 1) as u64);
        } else {
            prop_assert_eq!(s.outcome.executed, n as u64);
            prop_assert_eq!(w.executed, n as u64);
        }
    }

    #[test]
    fn general_until_methods_agree_on_lists(
        n in 1usize..200,
        exit in 0usize..250,
        workers in 1usize..5,
        seed in any::<u64>(),
    ) {
        use wlp::core::general::{general1, general2, general3, GeneralConfig};
        let list = ListArena::from_values_shuffled(0..n, seed);
        let pool = Pool::new(workers);
        let cfg = GeneralConfig::default();
        let term_body = |i: usize, _n: wlp::list::NodeId| {
            if i == exit { Step::Quit } else { Step::Continue }
        };
        let expect = (exit < n).then_some(exit);
        let g1 = general1(&pool, &list, cfg, &NoopRecorder, term_body);
        let g3 = general3(&pool, &list, cfg, &NoopRecorder, term_body);
        prop_assert_eq!(g1.quit, expect, "general1 quit");
        prop_assert_eq!(g3.quit, expect, "general3 quit");
        // static assignment: the quitting processor's own first i ≥ exit…
        // here the exit is a single iteration, so the witness is exact too
        let g2 = general2(&pool, &list, cfg, term_body);
        prop_assert_eq!(g2.quit, expect, "general2 quit");
    }
}
