//! Certificate-driven execution through the service: every corpus loop,
//! the correctness traps of executing on the certificate, and the
//! governor's accounting — each checked against `run_sequential`.

use serde::{json, Value};
use std::sync::Arc;
use wlp_ir::frontend::parse_program;
use wlp_ir::interp::{run_parallel, run_sequential, ExecOutcome, Machine};
use wlp_runtime::Pool;
use wlp_serve::cache::CertCache;
use wlp_serve::{register_builtins, ServeConfig, Service};
use wlp_workloads::sources::machine_inputs;

type Inputs = (Vec<(String, Vec<i64>)>, Vec<(String, i64)>);

fn service() -> Service {
    Service::new(ServeConfig {
        workers: 2,
        lane_width: 2,
        default_max_iters: 20_000,
        ..ServeConfig::default()
    })
}

fn run_line(tenant: &str, src: &str, (arrays, scalars): &Inputs) -> String {
    let arrays: Vec<String> = arrays
        .iter()
        .map(|(k, v)| {
            let items: Vec<String> = v.iter().map(i64::to_string).collect();
            format!("{}:[{}]", json::to_string(k), items.join(","))
        })
        .collect();
    let scalars: Vec<String> = scalars
        .iter()
        .map(|(k, v)| format!("{}:{v}", json::to_string(k)))
        .collect();
    format!(
        r#"{{"op":"run","tenant":{},"program":{},"arrays":{{{}}},"scalars":{{{}}},"reply":"full"}}"#,
        json::to_string(tenant),
        json::to_string(src),
        arrays.join(","),
        scalars.join(","),
    )
}

fn machine_of((arrays, scalars): &Inputs) -> Machine {
    let mut m = Machine::default();
    m.arrays.extend(arrays.iter().cloned());
    m.scalars.extend(scalars.iter().cloned());
    register_builtins(&mut m);
    m
}

/// What a reply must carry: sorted arrays, sorted scalars, iterations
/// and exit — or the error text.
#[derive(Debug, PartialEq, Eq)]
enum Expect {
    Done {
        arrays: Vec<(String, Vec<i64>)>,
        scalars: Vec<(String, i64)>,
        iterations: u64,
        exited_at: Option<u64>,
    },
    Error(String),
}

fn expect_of(result: Result<ExecOutcome, String>, m: &Machine) -> Expect {
    match result {
        Ok(out) => {
            let mut arrays: Vec<(String, Vec<i64>)> = m
                .arrays
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            arrays.sort();
            let mut scalars: Vec<(String, i64)> =
                m.scalars.iter().map(|(k, v)| (k.clone(), *v)).collect();
            scalars.sort();
            Expect::Done {
                arrays,
                scalars,
                iterations: out.iterations as u64,
                exited_at: out.exited_at.map(|e| e as u64),
            }
        }
        Err(msg) => Expect::Error(msg),
    }
}

fn sequential(src: &str, inputs: &Inputs) -> Expect {
    let program = parse_program(src).expect("parses");
    let mut m = machine_of(inputs);
    let result = run_sequential(&program, &mut m, 20_000).map_err(|e| e.msg);
    expect_of(result, &m)
}

/// The reply as an [`Expect`], plus its `ran_parallel` flag.
fn reply(resp: &str) -> (Expect, bool) {
    let v = json::parse(resp).expect("reply parses");
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        let detail = v
            .get("error")
            .and_then(|e| e.get("detail"))
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("error without detail: {resp}"));
        return (Expect::Error(detail.to_string()), false);
    }
    let object = |k: &str| v.get(k).and_then(Value::as_object).expect(k).to_vec();
    let mut arrays: Vec<(String, Vec<i64>)> = object("arrays")
        .into_iter()
        .map(|(k, a)| {
            let items = a.as_array().expect("array").iter();
            (k, items.map(|x| x.as_i64().expect("i64")).collect())
        })
        .collect();
    arrays.sort();
    let mut scalars: Vec<(String, i64)> = object("scalars")
        .into_iter()
        .map(|(k, s)| (k, s.as_i64().expect("i64")))
        .collect();
    scalars.sort();
    let expect = Expect::Done {
        arrays,
        scalars,
        iterations: v
            .get("iterations")
            .and_then(Value::as_u64)
            .expect("iterations"),
        exited_at: v.get("exited_at").and_then(Value::as_u64),
    };
    let ran_parallel = v.get("ran_parallel").and_then(Value::as_bool) == Some(true);
    (expect, ran_parallel)
}

fn field<'a>(resp: &'a str, key: &str) -> Option<&'a str> {
    let at = resp.find(&format!("\"{key}\":\""))? + key.len() + 4;
    resp[at..].split('"').next()
}

const N: usize = 4096;

/// The corpus inputs at `n`, except that `guarded_update` exits late (in
/// its last quarter) so the speculation has real work and overshoot.
fn corpus_inputs(name: &str, n: usize) -> Inputs {
    let (mut arrays, mut scalars) = machine_inputs(name, n);
    if name == "guarded_update" {
        arrays[0].1[n - n / 5] = 5_000;
        scalars.retain(|(k, _)| k != "limit");
        scalars.push(("limit".into(), 1_000));
    }
    (arrays, scalars)
}

fn corpus_file(name: &str) -> String {
    let path = format!(
        "{}/../../examples/loops/{name}.wlp",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

#[test]
fn every_corpus_loop_matches_run_sequential_and_the_doalls_run_parallel() {
    let svc = service();
    let parallel = ["swap", "gather_scatter", "counted_fill", "guarded_update"];
    for name in [
        "swap",
        "gather_scatter",
        "counted_fill",
        "guarded_update",
        "partial_sums",
        "wavefront",
        "mcsparse_pair",
    ] {
        let src = corpus_file(name);
        let inputs = corpus_inputs(name, N);
        let want = sequential(&src, &inputs);
        for round in 0..2 {
            let resp = svc.handle_line(&run_line("corpus", &src, &inputs));
            let (got, ran_parallel) = reply(&resp);
            assert_eq!(
                got, want,
                "{name} round {round} diverged from run_sequential"
            );
            if parallel.contains(&name) {
                assert!(ran_parallel, "{name} fell back to sequential: {resp:.300}");
            }
        }
    }
}

#[test]
fn a_cache_hit_reuses_the_compiled_loop() {
    let cache = CertCache::new(4);
    let src = corpus_file("swap");
    let (first, _) = cache.lookup(&src).expect("parses");
    let (second, _) = cache.lookup(&src).expect("parses");
    assert!(Arc::ptr_eq(&first.compiled, &second.compiled));
}

/// Trap (a): the exit reads `A[i + 1]`, which the next iteration writes.
/// The certificate is `speculate_bounded` with no uncertain array, yet
/// the PD test must still run: in order, iteration `i` tests the input
/// value 95 and never exits, but wherever iteration `i + 1` runs first
/// (at every boundary between two workers' iterations) it raises
/// `A[i + 1]` to 102 and iteration `i` would exit.
#[test]
fn an_exit_reading_the_next_iterations_write_is_still_tested() {
    let src = "integer i = 0\nwhile (i < n) {\n    exit if (A[i + 1] > limit)\n    \
               A[i] = g(A[i])\n    i = i + 1\n}";
    let svc = service();
    let certify = svc.handle_line(&format!(
        r#"{{"op":"certify","tenant":"t","program":{}}}"#,
        json::to_string(src)
    ));
    assert_eq!(
        field(&certify, "verdict"),
        Some("speculate_bounded"),
        "{certify}"
    );
    assert!(certify.contains("\"uncertain_arrays\":[]"), "{certify}");
    // long enough that both workers run at once
    let n = 16_000;
    let inputs: Inputs = (
        vec![("A".into(), vec![95; n + 1])],
        vec![("n".into(), n as i64), ("limit".into(), 100)],
    );
    let want = sequential(src, &inputs);
    for _ in 0..8 {
        let (got, _) = reply(&svc.handle_line(&run_line("t", src, &inputs)));
        assert_eq!(got, want);
    }
}

/// Trap (b): `B` is certified and written in place; when the colliding
/// `idx` fails the PD test on `A`, `B`'s writes must be undone before
/// the sequential re-run, or `B[i] + 1` counts twice.
#[test]
fn a_failed_pd_test_restores_the_arrays_written_in_place() {
    let src = "integer i = 0\nwhile (i < n) {\n    B[i] = B[i] + 1\n    \
               A[idx[i]] = A[idx[i]] + w[i]\n    i = i + 1\n}";
    let n = 512;
    let inputs: Inputs = (
        vec![
            ("A".into(), vec![0; n]),
            ("B".into(), (0..n as i64).collect()),
            ("w".into(), (0..n as i64).map(|i| i % 9).collect()),
            ("idx".into(), (0..n as i64).map(|i| i % 16).collect()),
        ],
        vec![("n".into(), n as i64)],
    );
    let want = sequential(src, &inputs);
    let svc = service();
    for _ in 0..4 {
        let (got, ran_parallel) = reply(&svc.handle_line(&run_line("t", src, &inputs)));
        assert_eq!(got, want);
        assert!(!ran_parallel, "colliding subscripts must fail the PD test");
    }
}

/// Trap (c): an out-of-bounds subscript inside a certified DOALL reports
/// the error `run_sequential` reports — the first in iteration order —
/// whichever worker hits one first.
#[test]
fn an_error_inside_a_certified_doall_is_the_sequential_error() {
    let src = "integer i = 0\nwhile (i < n) {\n    A[i] = 2 * A[i]\n    i = i + 1\n}";
    let svc = service();
    let certify = svc.handle_line(&format!(
        r#"{{"op":"certify","tenant":"t","program":{}}}"#,
        json::to_string(src)
    ));
    assert_eq!(
        field(&certify, "verdict"),
        Some("certified_doall"),
        "{certify}"
    );
    // A is 100 short: iterations 3000.. are all out of bounds
    let inputs: Inputs = (vec![("A".into(), vec![1; 3000])], vec![("n".into(), 4096)]);
    let want = sequential(src, &inputs);
    assert_eq!(want, Expect::Error("`A[3000]` out of bounds".into()));
    for _ in 0..8 {
        assert_eq!(
            reply(&svc.handle_line(&run_line("t", src, &inputs))).0,
            want
        );
    }
}

/// One arithmetic semantics: constant folding, closed forms and
/// evaluation all wrap, so an overflowing declaration means the same
/// thing on every path — and no path panics in a debug build.
#[test]
fn overflowing_constants_wrap_on_every_path() {
    let src = "integer i = 9223372036854775807 + 1\nwhile (i < k) {\n    A[i - k] = i\n    \
               i = i + 1\n}";
    // i starts at i64::MIN; k = MIN + 8 runs eight iterations
    let inputs: Inputs = (
        vec![("A".into(), vec![0; 8])],
        vec![("k".into(), i64::MIN + 8)],
    );
    let src_run = src.replace("A[i - k]", "A[i - k + 8]");
    let want = sequential(&src_run, &inputs);
    let Expect::Done { iterations, .. } = &want else {
        panic!("{want:?}")
    };
    assert_eq!(*iterations, 8);

    let program = parse_program(&src_run).expect("parses");
    let mut m = machine_of(&inputs);
    let out = run_parallel(&program, &mut m, &Pool::new(2), 20_000).map_err(|e| e.msg);
    assert_eq!(expect_of(out, &m), want);

    let (got, _) = reply(&service().handle_line(&run_line("t", &src_run, &inputs)));
    assert_eq!(got, want);
    // the original subscript is out of bounds on every path alike
    let want = sequential(src, &inputs);
    assert!(matches!(want, Expect::Error(_)), "{want:?}");
    assert_eq!(
        reply(&service().handle_line(&run_line("t", src, &inputs))).0,
        want
    );
}

/// Governor accounting: a loop that never attempts parallel execution
/// (no parallel form) and a loop whose PD test keeps failing must not
/// demote the same tenant's certified DOALL.
#[test]
fn other_loops_never_demote_a_certified_doall() {
    let svc = service();
    // `p = max(p, p + 1)` is a general recurrence: speculate_bounded, but
    // with no parallel form the run never attempts parallel execution
    let chase = "integer p = 0\nwhile (p < 8) {\n    A[p] = A[p] + 1\n    p = max(p, p + 1)\n}";
    let chase_inputs: Inputs = (vec![("A".into(), vec![0; 8])], vec![]);
    let colliding =
        "integer i = 0\nwhile (i < n) {\n    A[idx[i]] = A[idx[i]] + 1\n    i = i + 1\n}";
    let colliding_inputs: Inputs = (
        vec![("A".into(), vec![0; 4]), ("idx".into(), vec![1; 64])],
        vec![("n".into(), 64)],
    );
    for _ in 0..12 {
        let resp = svc.handle_line(&run_line("mixed", chase, &chase_inputs));
        assert_eq!(field(&resp, "verdict"), Some("speculate_bounded"), "{resp}");
        assert!(resp.contains("\"ran_parallel\":false"), "{resp}");
        let resp = svc.handle_line(&run_line("mixed", colliding, &colliding_inputs));
        assert!(resp.contains("\"ran_parallel\":false"), "{resp}");
    }
    let doall = corpus_file("counted_fill");
    let resp = svc.handle_line(&run_line(
        "mixed",
        &doall,
        &corpus_inputs("counted_fill", 256),
    ));
    assert_eq!(
        field(&resp, "verdict"),
        Some("certified_doall"),
        "{resp:.300}"
    );
    assert!(resp.contains("\"ran_parallel\":true"), "{resp:.300}");
    // stats explain it: the speculative ladder fell, the DOALL one did not
    let stats = svc.handle_line(r#"{"op":"stats"}"#);
    assert_eq!(field(&stats, "rung"), Some("sequential"), "{stats}");
    assert_eq!(field(&stats, "doall_rung"), Some("speculative"), "{stats}");
}
