//! Property: for randomly generated loop programs, the interpreter's
//! parallel execution (the certificate-less plan: every array under the
//! PD test) produces a machine identical to the sequential
//! interpretation — whatever the subscript shapes, exit positions,
//! collision patterns, private scalars or counters.

use proptest::prelude::*;
use wlp_ir::frontend::parse_program;
use wlp_ir::interp::{run_parallel, run_sequential, Machine};
use wlp_runtime::Pool;

#[derive(Debug, Clone)]
enum Sub {
    Affine(i64, i64), // coeff·i + offset
    Indirect,         // idx[i]
}

#[derive(Debug, Clone)]
struct ProgParams {
    n: usize,
    stride: i64,
    stores: Vec<(Sub, i64)>, // target subscript, addend
    exit_at: Option<usize>,
    idx_collides: bool,
    /// `t = A[sub] + k` first in the body, read by the last store: a
    /// scalar written before it is read, private to each iteration.
    private: Option<(Sub, i64)>,
    /// `s = s + c`: a counter besides the induction variable, placed
    /// before the stores (which then read its post-update value).
    counter: Option<i64>,
}

fn sub_strategy() -> impl Strategy<Value = Sub> {
    prop_oneof![
        (1i64..3, 0i64..4).prop_map(|(c, o)| Sub::Affine(c, o)),
        Just(Sub::Indirect),
    ]
}

fn prog_strategy() -> impl Strategy<Value = ProgParams> {
    (
        (
            4usize..60,
            1i64..3,
            prop::collection::vec((sub_strategy(), -5i64..6), 1..4),
            prop::option::of(0usize..80),
            any::<bool>(),
        ),
        (
            prop::option::of((sub_strategy(), -3i64..4)),
            prop::option::of(-4i64..5),
        ),
    )
        .prop_map(
            |((n, stride, stores, exit_at, idx_collides), (private, counter))| ProgParams {
                n,
                stride,
                stores,
                exit_at,
                idx_collides,
                private,
                counter,
            },
        )
}

fn source_of(p: &ProgParams) -> String {
    let mut body = String::new();
    if p.exit_at.is_some() {
        body.push_str("    exit if (stop[i] == 1)\n");
    }
    let subscript = |sub: &Sub| match sub {
        Sub::Affine(c, o) => format!("{c}*i + {o}"),
        Sub::Indirect => "idx[i]".to_string(),
    };
    if let Some((sub, k)) = &p.private {
        body.push_str(&format!("    t = A[{}] + {k}\n", subscript(sub)));
    }
    if let Some(c) = p.counter {
        body.push_str(&format!("    s = s + {c}\n"));
    }
    let last = p.stores.len() - 1;
    for (j, (sub, add)) in p.stores.iter().enumerate() {
        let s = subscript(sub);
        let extra = match (j == last, &p.private, p.counter) {
            (true, Some(_), _) => " + t",
            (true, None, Some(_)) => " + s",
            _ => "",
        };
        body.push_str(&format!("    A[{s}] = A[{s}] + i + {add}{extra}\n"));
    }
    body.push_str(&format!("    i = i + {}\n", p.stride));
    let decls = if p.counter.is_some() {
        "integer i = 0\ninteger s = 5\n"
    } else {
        "integer i = 0\n"
    };
    format!("{decls}while (i < {}) {{\n{body}}}", p.n)
}

fn machine_of(p: &ProgParams) -> Machine {
    let mut m = Machine::default();
    // array big enough for every affine subscript: max coeff 2·n + 4, plus
    // the indirect range
    let asize = 3 * p.n + 16;
    m.arrays.insert("A".into(), (0..asize as i64).collect());
    let idx: Vec<i64> = (0..p.n)
        .map(|i| {
            if p.idx_collides {
                (i as i64 / 2) * 2 // pairs collide
            } else {
                ((i * 17) % p.n) as i64 // permutation for n coprime to 17…
            }
        })
        .collect();
    m.arrays.insert("idx".into(), idx);
    let mut stop = vec![0i64; p.n];
    if let Some(e) = p.exit_at {
        if e < p.n {
            stop[e] = 1;
        }
    }
    m.arrays.insert("stop".into(), stop);
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn parallel_interpretation_equals_sequential(params in prog_strategy(), workers in 1usize..5) {
        let src = source_of(&params);
        let prog = parse_program(&src).unwrap_or_else(|e| panic!("{src}\n{e}"));

        let mut seq = machine_of(&params);
        let so = run_sequential(&prog, &mut seq, params.n + 10).unwrap();

        let mut par = machine_of(&params);
        let pool = Pool::new(workers);
        let po = run_parallel(&prog, &mut par, &pool, params.n + 10).unwrap();

        prop_assert_eq!(&par.arrays, &seq.arrays, "src:\n{}", src);
        prop_assert_eq!(&par.scalars, &seq.scalars, "src:\n{}", src);
        prop_assert_eq!(so.iterations, po.iterations);
        prop_assert_eq!(so.exited_at, po.exited_at);
    }

    #[test]
    fn colliding_indirections_always_fall_back_correctly(
        n in 4usize..40,
        workers in 2usize..5,
    ) {
        // guaranteed write-write+flow collisions through idx
        let src = format!(
            "integer i = 0\nwhile (i < {n}) {{ A[idx[i]] = A[idx[i]] + 1; i = i + 1 }}"
        );
        let prog = parse_program(&src).unwrap();
        let build = || {
            let mut m = Machine::default();
            m.arrays.insert("A".into(), vec![0; 8]);
            m.arrays.insert("idx".into(), vec![3; n]);
            m
        };
        let mut seq = build();
        run_sequential(&prog, &mut seq, n + 1).unwrap();
        let mut par = build();
        let out = run_parallel(&prog, &mut par, &Pool::new(workers), n).unwrap();
        prop_assert!(!out.ran_parallel);
        prop_assert_eq!(par.arrays["A"][3], n as i64);
        prop_assert_eq!(&par.arrays, &seq.arrays);
    }
}
