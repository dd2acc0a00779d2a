//! The central correctness theorem of the paper's speculation framework,
//! as a property: **whatever the access pattern, and whether or not the PD
//! test passes, the final state equals the sequential execution's.**

use proptest::prelude::*;
use wlp::core::speculate::{speculative_while, SpeculativeArray};
use wlp::runtime::{ChunkPolicy, NoopRecorder, Pool};

/// A tiny interpreted loop body: each iteration performs up to 4 accesses
/// drawn from this alphabet, then possibly triggers the RV exit.
#[derive(Debug, Clone)]
enum Op {
    ReadAdd(usize),   // acc += A[e]
    Write(usize),     // A[e] = acc + iteration
    ReadWrite(usize), // A[e] = A[e] + 1
}

fn op_strategy(m: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..m).prop_map(Op::ReadAdd),
        (0..m).prop_map(Op::Write),
        (0..m).prop_map(Op::ReadWrite),
    ]
}

fn program_strategy(m: usize) -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(prop::collection::vec(op_strategy(m), 0..4), 1..24)
}

/// Sequential reference interpreter.
fn run_reference(m: usize, prog: &[Vec<Op>], exit_at: Option<usize>) -> (Vec<i64>, Option<usize>) {
    let mut a = vec![0i64; m];
    for (i, ops) in prog.iter().enumerate() {
        if exit_at == Some(i) {
            return (a, Some(i));
        }
        let mut acc = 0i64;
        for op in ops {
            match *op {
                Op::ReadAdd(e) => acc += a[e],
                Op::Write(e) => a[e] = acc + i as i64,
                Op::ReadWrite(e) => a[e] += 1,
            }
        }
    }
    (a, None)
}

/// The same program through the speculation driver.
fn run_speculative(
    m: usize,
    prog: &[Vec<Op>],
    exit_at: Option<usize>,
    workers: usize,
) -> (Vec<i64>, bool) {
    let arr = SpeculativeArray::new(vec![0i64; m]);
    let pool = Pool::new(workers);
    let out = speculative_while(
        &pool,
        prog.len(),
        ChunkPolicy::One,
        &arr,
        &NoopRecorder,
        |i, _| exit_at == Some(i),
        |i, a| {
            let mut acc = 0i64;
            for op in &prog[i] {
                match *op {
                    Op::ReadAdd(e) => acc += a.read(e),
                    Op::Write(e) => a.write(e, acc + i as i64),
                    Op::ReadWrite(e) => {
                        let v = a.read(e);
                        a.write(e, v + 1);
                    }
                }
            }
        },
    );
    (arr.snapshot(), out.committed_parallel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn speculation_always_matches_sequential(prog in program_strategy(6), workers in 1usize..5) {
        let (expect, _) = run_reference(6, &prog, None);
        let (got, _) = run_speculative(6, &prog, None, workers);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn speculation_with_exit_matches_sequential(
        prog in program_strategy(6),
        exit_frac in 0.0f64..1.0,
        workers in 1usize..5,
    ) {
        let exit = (exit_frac * prog.len() as f64) as usize;
        let (expect, _) = run_reference(6, &prog, Some(exit));
        let (got, _) = run_speculative(6, &prog, Some(exit), workers);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn disjoint_programs_commit_in_parallel(n in 1usize..40, workers in 2usize..5) {
        // every iteration touches only its own element: must validate
        let prog: Vec<Vec<Op>> = (0..n).map(|i| vec![Op::ReadWrite(i), Op::Write(i)]).collect();
        let (expect, _) = run_reference(n, &prog, None);
        let (got, committed) = run_speculative(n, &prog, None, workers);
        prop_assert_eq!(got, expect);
        prop_assert!(committed, "independent loop must pass the PD test");
    }

    #[test]
    fn injected_panics_never_corrupt_state(
        prog in program_strategy(6),
        panic_at_frac in 0.0f64..1.0,
        workers in 1usize..5,
    ) {
        // a fault injected into one parallel iteration: the framework must
        // restore and re-execute sequentially, landing on the exact
        // sequential state (the paper's exception rule)
        use std::sync::atomic::{AtomicBool, Ordering};
        if prog.is_empty() {
            return Ok(());
        }
        let panic_at = (panic_at_frac * prog.len() as f64) as usize;
        let (expect, _) = run_reference(6, &prog, None);

        let arr = SpeculativeArray::new(vec![0i64; 6]);
        let pool = Pool::new(workers);
        let armed = AtomicBool::new(true);
        let out = speculative_while(&pool, prog.len(), ChunkPolicy::One, &arr, &NoopRecorder, |_, _| false,
            |i, a| {
                if i == panic_at && armed.swap(false, Ordering::SeqCst) {
                    panic!("injected fault at {i}");
                }
                let mut acc = 0i64;
                for op in &prog[i] {
                    match *op {
                        Op::ReadAdd(e) => acc += a.read(e),
                        Op::Write(e) => a.write(e, acc + i as i64),
                        Op::ReadWrite(e) => {
                            let v = a.read(e);
                            a.write(e, v + 1);
                        }
                    }
                }
            },
        );
        prop_assert!(out.exception);
        prop_assert!(out.reexecuted_sequentially);
        prop_assert_eq!(arr.snapshot(), expect);
    }

    #[test]
    fn shared_cell_programs_fall_back(n in 3usize..30, workers in 2usize..5) {
        // every iteration increments element 0: flow deps everywhere
        let prog: Vec<Vec<Op>> = (0..n).map(|_| vec![Op::ReadWrite(0)]).collect();
        let (expect, _) = run_reference(2, &prog, None);
        let (got, committed) = run_speculative(2, &prog, None, workers);
        prop_assert_eq!(&got, &expect);
        prop_assert_eq!(got[0], n as i64);
        prop_assert!(!committed, "a shared counter is never a DOALL");
    }
}
