//! Executing on the certificate: for random loops, the executor plan
//! [`Analysis::exec_plan`] derives from the certificate — a plain DOALL
//! writing in place, the two-pass scheme with PD marks on uncertain
//! arrays only, or full speculation — must leave exactly the machine
//! `run_sequential` leaves: arrays, scalars, iterations, exit and error
//! text. The generated statements cover what a certificate can get
//! wrong about the interpreter: shared and per-iteration workspaces,
//! private scalars, counters updated before the subscripts that read
//! them, exits reading arrays the body writes, and indirect subscripts
//! that collide.
//!
//! [`Analysis::exec_plan`]: wlp_analyze::Analysis::exec_plan

use proptest::prelude::*;
use wlp_analyze::analyze_source;
use wlp_ir::interp::{compile, run_sequential, ExecOutcome, Machine};
use wlp_runtime::Pool;

/// Body statements, one per generator choice (`{s}` is the subscript
/// choice, rendered below).
const STATEMENTS: [&str; 8] = [
    "A[{s}] = A[{s}] + 3",
    "B[i] = A[{s}] * 2",
    "T[0] = A[{s}]",
    "W[i] = A[{s}] + 1\n    B[i] = W[i] * 3",
    "t = A[{s}]\n    B[i] = t + i",
    "s = s + 5",
    "A[i] = g(A[i])",
    "B[{s}] = B[{s}] + A[i]",
];

const SUBSCRIPTS: [&str; 5] = ["i", "2 * i + 1", "idx[i]", "i + 1", "n - i - 1"];

const EXITS: [&str; 3] = [
    "exit if (stop[i] == 1)",
    "exit if (A[i] > 60)",
    "exit if (A[i + 1] > 60)",
];

#[derive(Debug, Clone)]
struct Case {
    stmts: Vec<(usize, usize)>,
    exit: Option<usize>,
    counter_first: bool,
    n: usize,
    colliding: bool,
    short: bool,
}

fn case() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec((0..STATEMENTS.len(), 0..SUBSCRIPTS.len()), 1..4),
        prop::option::of(0..EXITS.len()),
        any::<bool>(),
        8usize..80,
        any::<bool>(),
        0u8..7,
    )
        .prop_map(|(stmts, exit, counter_first, n, colliding, short)| Case {
            stmts,
            exit,
            counter_first,
            n,
            colliding,
            short: short == 0,
        })
}

fn source(c: &Case) -> String {
    let mut body = Vec::new();
    if c.counter_first {
        body.push("i = i + 1".to_string());
    }
    if let Some(e) = c.exit {
        body.push(EXITS[e].to_string());
    }
    for &(stmt, sub) in &c.stmts {
        body.push(STATEMENTS[stmt].replace("{s}", SUBSCRIPTS[sub]));
    }
    if !c.counter_first {
        body.push("i = i + 1".to_string());
    }
    format!(
        "integer i = 0\ninteger s = 2\nwhile (i < n) {{\n    {}\n}}",
        body.join("\n    ")
    )
}

fn arrays(c: &Case) -> Vec<(String, Vec<i64>)> {
    // `short` arrays push some subscripts out of bounds
    let len = if c.short { c.n } else { 2 * c.n + 3 };
    let idx = (0..c.n as i64)
        .map(|i| {
            if c.colliding {
                i % 5
            } else {
                (i * 7 + 3) % c.n as i64
            }
        })
        .collect();
    let mut stop = vec![0; c.n + 1];
    stop[c.n * 2 / 3] = 1;
    vec![
        ("A".into(), (0..len as i64).map(|x| x % 50).collect()),
        ("B".into(), vec![0; len]),
        ("W".into(), vec![0; len]),
        ("T".into(), vec![0; 1]),
        ("idx".into(), idx),
        ("stop".into(), stop),
    ]
}

fn machine(c: &Case) -> Machine {
    let mut m = Machine::default();
    m.arrays.extend(arrays(c));
    m.scalars.insert("n".into(), c.n as i64);
    m.define_fn("g", |a: &[i64]| a[0].wrapping_mul(3) % 97);
    m
}

type Summary = Result<
    (
        Vec<(String, Vec<i64>)>,
        Vec<(String, i64)>,
        usize,
        Option<usize>,
    ),
    String,
>;

fn summary(result: Result<ExecOutcome, String>, m: &Machine) -> Summary {
    let out = result?;
    let mut arrays: Vec<_> = m.arrays.clone().into_iter().collect();
    arrays.sort();
    let mut scalars: Vec<_> = m.scalars.clone().into_iter().collect();
    scalars.sort();
    Ok((arrays, scalars, out.iterations, out.exited_at))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_certified_plan_equals_sequential_execution(c in case(), workers in 1usize..4) {
        let src = source(&c);
        let (program, analysis) = analyze_source(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));
        let compiled = compile(&program);
        let plan = analysis.exec_plan(&compiled);
        let max_iters = 3 * c.n;

        let mut seq = machine(&c);
        let want = run_sequential(&program, &mut seq, max_iters).map_err(|e| e.msg);
        let want = summary(want, &seq);

        let inputs = arrays(&c);
        let restore = |m: &mut Machine| m.arrays.extend(inputs.iter().cloned());
        let pool = Pool::new(workers);
        for _ in 0..2 {
            let mut par = machine(&c);
            let got = compiled
                .run(&plan, &mut par, &pool, max_iters, &restore)
                .map_err(|e| e.msg);
            prop_assert_eq!(summary(got, &par), want.clone(), "plan {:?}\n{}", plan, src);
        }
    }
}
