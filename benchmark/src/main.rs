//! Seeded end-to-end and per-layer benchmark of the wlp service and the
//! paper's kernels. See `README.md` in this directory.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload doall-hot --seed 1 --seconds 35 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The process exits 1 when any
//! output differs from its reference.

mod drive;
mod gen;
mod kernels;
mod metrics;
mod oracle;
mod replay;
mod trace;

use drive::{
    canonical_verdicts, drive, median_f, peak_rss_mb, quantile, segmented, setup_service, warm_up,
    Phase, Sample, Status, Target,
};
use gen::{ServiceLoad, Template, Workload};
use kernels::{Inputs, Kernels};
use metrics::{Outcome, Values};
use replay::{Replay, LAYERS};
use serde::Value;
use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::{self_times, write_chrome, Recorder, Span};
use wlp_ir::interp::{run_parallel, run_sequential, Machine};
use wlp_serve::cache::CertCache;

/// Parts the timed phase of an untraced run is cut into, with one more
/// set-up after each. `setup_s` is the median of these and the set-up
/// that serves the phase, so it samples the machine across the whole run
/// (see `README.md`).
const SETUP_PARTS: usize = 20;
/// Warm-up cycles of `paper-kernels` inside each set-up: one pass over
/// its one distinct request, as the service warm-up passes over each
/// distinct request once.
const KERNEL_WARM_CYCLES: usize = 1;
/// Distinct-source lookups on a fresh cache a traced run times (at least).
const MISS_PROBES: usize = 64;
/// Most spans written to the Chrome trace file.
const TRACE_FILE_SPANS: usize = 60_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: wlp-benchmark --workload <doall-hot|recurrence-mixed|small-churn|paper-kernels> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::from_name(&v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let result = match args.workload {
        Workload::PaperKernels => run_kernels(&args),
        _ => run_service(&args),
    };
    match result {
        Ok(out) => {
            println!(
                "# workload={} seed={} seconds={} trace={} nproc={}",
                args.workload.name(),
                args.seed,
                args.seconds,
                u8::from(args.trace),
                std::thread::available_parallelism().map_or(0, |n| n.get())
            );
            for note in &out.notes {
                println!("# {note}");
            }
            println!("{}", out.result_line(args.trace));
            if !out.correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Whether cycle `j` of a traced `paper-kernels` run is traced: a fixed
/// pseudo-random half.
fn traced(j: usize) -> bool {
    gen::Rng::new(j as u64).next_u64() & 1 == 1
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

/// The end-to-end metrics every workload reports from its timed phase.
fn end_to_end(values: &mut Values, notes: &mut Vec<String>, phase: &Phase, setups: &[f64]) {
    let lat = phase.latencies();
    values.set("throughput_rps", phase.throughput());
    values.set("latency_p50_us", us(quantile(&lat, 0.50)));
    values.set("latency_p90_us", us(quantile(&lat, 0.90)));
    values.set(
        "success_frac",
        1.0 - phase.failed() as f64 / phase.attempted().max(1) as f64,
    );
    values.set("setup_s", median_f(setups));
    values.set("peak_rss_mb", peak_rss_mb());
    notes.push(format!(
        "latency samples={}: p50={:.1}us p90={:.1}us p99={:.1}us max={:.1}us",
        lat.len(),
        us(quantile(&lat, 0.50)),
        us(quantile(&lat, 0.90)),
        us(quantile(&lat, 0.99)),
        us(quantile(&lat, 1.0)),
    ));
    let late: Vec<u64> = phase.samples.iter().map(|s| s.late_ns).collect();
    notes.push(format!(
        "generator late p50={:.1}us p99={:.1}us",
        us(quantile(&late, 0.5)),
        us(quantile(&late, 0.99))
    ));
    notes.push(format!(
        "failed_frac={:.6} ({} of {}, {} retriable); set-ups {:?}",
        phase.failed() as f64 / phase.attempted().max(1) as f64,
        phase.failed(),
        phase.attempted(),
        phase.retriable(),
        setups
    ));
}

fn mismatch_outcome(phase: &Phase, notes: &mut Vec<String>) -> bool {
    for m in &phase.mismatches {
        notes.push(format!("MISMATCH {m}"));
    }
    phase.mismatches.is_empty()
}

fn run_service(args: &Args) -> Result<Outcome, String> {
    let load = ServiceLoad::generate(args.workload, args.seed);
    let verdicts = canonical_verdicts();
    let dur = Duration::from_secs_f64(args.seconds);
    let mut notes = vec![format!(
        "service: workers=2 lane_width=2; {} distinct requests, {:?}",
        load.cases.len(),
        load.arrival
    )];
    if args.trace {
        return trace_service(args, &load, &verdicts, notes);
    }
    let (svc, took) = setup_service(&load, &verdicts)?;
    let mut setups = vec![took.as_secs_f64()];
    let phase = segmented(
        dur,
        SETUP_PARTS,
        |first, d| drive(&svc, &load, first, d),
        || {
            setups.push(setup_service(&load, &verdicts)?.1.as_secs_f64());
            Ok(())
        },
    )?;
    notes.push(format!("cache_hit_ratio={:.4}", svc.cache_hit_ratio()));
    let mut values = Values::default();
    end_to_end(&mut values, &mut notes, &phase, &setups);
    let correct = mismatch_outcome(&phase, &mut notes);
    Ok(Outcome {
        correct,
        attempted: phase.attempted(),
        failed: phase.failed(),
        values,
        notes,
    })
}

/// A traced service run: the service, the untraced replay and the traced
/// replay take interleaved requests, so all three see the same machine
/// conditions.
fn trace_service(
    args: &Args,
    load: &ServiceLoad,
    verdicts: &HashMap<Template, String>,
    mut notes: Vec<String>,
) -> Result<Outcome, String> {
    let (svc, _) = setup_service(load, verdicts)?;
    let round = load.round;
    let group = move |j: usize| group_of(j / round);
    let replay = Replay::new(Box::new(move |j| group(j) == Group::Traced));
    warm_up(&replay, load, verdicts)?;
    replay.log().take();
    let (hits0, misses0) = (svc.cache_hits(), svc.cache_misses());
    let both = Interleaved {
        svc: &svc,
        replay: &replay,
        group: &group,
    };
    let dur = Duration::from_secs_f64(args.seconds);
    let phase = drive(&both, load, 0, dur.mul_f64(0.85));
    let (hits, misses) = (svc.cache_hits() - hits0, svc.cache_misses() - misses0);
    drop(svc);
    let served = phase.subset(|j| group(j) == Group::Service);
    let untraced = phase.subset(|j| group(j) == Group::Untraced);
    let traced = phase.subset(|j| group(j) == Group::Traced);
    let request_spans = replay.log().take();
    calibrate(&replay, load);
    let calib_spans = replay.log().take();
    let mut values = Values::default();

    let selfs = self_times(&request_spans);
    let mut layer: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    let mut lookup_hit = Vec::new();
    let (mut parse_bytes, mut parse_ns) = (0u64, 0u64);
    // the replay's own time per request: what no layer span covers
    let mut glue = Vec::new();
    // per request: the sum of its layer spans' self times
    let mut per_request: BTreeMap<usize, u64> = BTreeMap::new();
    for (i, (s, &self_ns)) in request_spans.iter().zip(&selfs).enumerate() {
        if s.name == "request" && s.parent.is_none() {
            glue.push(self_ns);
            per_request.entry(i).or_default();
            continue;
        }
        let Some(root) = s.parent.filter(|&p| request_spans[p].name == "request") else {
            continue;
        };
        *per_request.entry(root).or_default() += self_ns;
        layer.entry(s.name).or_default().push(self_ns);
        match (s.name, s.tag) {
            ("cache.lookup", "hit") => lookup_hit.push(self_ns),
            ("proto.parse", _) => {
                parse_bytes += s.count;
                parse_ns += s.dur_ns();
            }
            _ => {}
        }
    }
    let p50 = |v: &[u64]| quantile(v, 0.5);
    let layer_p50 = |name: &str| layer.get(name).map_or(0.0, |v| p50(v));
    values.set("proto.parse_us", us(layer_p50("proto.parse")));
    values.set(
        "proto.parse_mb_per_s",
        parse_bytes as f64 / parse_ns.max(1) as f64 * 1e3,
    );
    values.set(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    values.set("cache.lookup_hit_us", us(p50(&lookup_hit)));
    let waits = layer.get("sched.acquire").cloned().unwrap_or_default();
    values.set("sched.lane_wait_us_p50", us(quantile(&waits, 0.5)));
    values.set("sched.lane_wait_us_p99", us(quantile(&waits, 0.99)));
    values.set("serve.assemble_us", us(layer_p50("serve.assemble")));
    values.set("serve.encode_us", us(layer_p50("serve.encode")));
    values.set("interp.exec_us", us(layer_p50("interp.exec")));
    // the service's work beyond the untraced replay, plus the replay's own
    // time outside the layer spans; no traced layer time enters it
    let extra_ns = service_minus_replay(load, &served, &untraced);
    let self_ns = extra_ns + p50(&glue);
    values.set("serve.self_us", us(self_ns));
    values.set(
        "serve.rejected_frac",
        served.retriable() as f64 / served.attempted().max(1) as f64,
    );
    let ok = (served.attempted() - served.failed()).max(1) as f64;
    values.set(
        "governor.parallel_attempt_frac",
        served.parallel_attempts() as f64 / ok,
    );
    values.set("governor.demotions", replay.demotions() as f64);
    values.set(
        "interp.commit_ratio",
        served.parallel_commits() as f64 / served.parallel_attempts().max(1) as f64,
    );
    let (traced_p50, untraced_p50) = (p50(&traced.latencies()), p50(&untraced.latencies()));
    let overhead = traced_p50 / untraced_p50.max(1.0) - 1.0;
    values.set("trace.overhead_frac", overhead);
    values.set("latency_p99_us", us(quantile(&served.latencies(), 0.99)));
    let late: Vec<u64> = served.samples.iter().map(|s| s.late_ns).collect();
    values.set("gen.late_p99_us", us(quantile(&late, 0.99)));
    calibration_values(&mut values, &calib_spans);

    notes.push(format!(
        "requests: {} service (p50={:.1}us), {} untraced replay (p50={:.1}us), {} traced replay (p50={:.1}us); service minus replay per template {:.1}us",
        served.attempted(),
        us(p50(&served.latencies())),
        untraced.attempted(),
        us(untraced_p50),
        traced.attempted(),
        us(traced_p50),
        us(extra_ns),
    ));
    notes.push(format!(
        "per-layer self-time p50s: {} request-glue={:.1}",
        LAYERS
            .iter()
            .map(|l| format!("{l}={:.1}", us(layer_p50(l))))
            .collect::<Vec<_>>()
            .join(" "),
        us(p50(&glue))
    ));
    // the traced layer time per request plus serve.self_us against the
    // untraced service latency of the same run
    let layers_ns = p50(&per_request.into_values().collect::<Vec<_>>());
    let served_p50 = p50(&served.latencies());
    let off = (layers_ns + self_ns) / served_p50.max(1.0) - 1.0;
    notes.push(format!(
        "decomposition: per-request layer time p50 {:.1}us + serve.self_us {:.1}us = {:.1}us vs untraced latency p50 {:.1}us: off by {:+.2}%, {} trace.overhead_frac {:.2}%",
        us(layers_ns),
        us(self_ns),
        us(layers_ns + self_ns),
        us(served_p50),
        off * 100.0,
        if off.abs() <= overhead.abs() { "within" } else { "OUTSIDE" },
        overhead * 100.0,
    ));
    let mut spans = request_spans;
    spans.extend(calib_spans);
    notes.push(write_trace(args, &spans));
    let correct = mismatch_outcome(&phase, &mut notes);
    Ok(Outcome {
        correct,
        attempted: phase.attempted(),
        failed: phase.failed(),
        values,
        notes,
    })
}

/// How much longer the service's `handle_line` takes than the untraced
/// replay, in ns: the difference of their median times per template,
/// weighted by the template's share of the service's requests. Each
/// median then sits inside one template's latencies, not between two.
fn service_minus_replay(load: &ServiceLoad, served: &Phase, replay: &Phase) -> f64 {
    let by_template = |ph: &Phase| {
        let mut m: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
        for s in &ph.samples {
            let t = load.case_of(s.j).template.name();
            m.entry(t).or_default().push(s.lat_ns - s.late_ns);
        }
        m
    };
    let (svc, rep) = (by_template(served), by_template(replay));
    let total = served.samples.len().max(1) as f64;
    svc.iter()
        .filter_map(|(t, a)| {
            let b = rep.get(t)?;
            Some((quantile(a, 0.5) - quantile(b, 0.5)) * a.len() as f64 / total)
        })
        .sum()
}

/// Which target answers request `j` of a traced service run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Group {
    Service,
    Untraced,
    Traced,
}

/// The group of request round `r`: a fixed pseudo-random third of the
/// rounds each, so every group sees the same mix of templates.
fn group_of(r: usize) -> Group {
    match gen::Rng::new(r as u64).next_u64() % 3 {
        0 => Group::Service,
        1 => Group::Untraced,
        _ => Group::Traced,
    }
}

/// Sends each request to the service or to the replay by its [`Group`].
struct Interleaved<'a> {
    svc: &'a wlp_serve::Service,
    replay: &'a Replay,
    group: &'a (dyn Fn(usize) -> Group + Sync),
}

impl Target for Interleaved<'_> {
    fn handle(&self, line: &str, j: usize, sender: usize) -> String {
        match (self.group)(j) {
            Group::Service => self.svc.handle_line(line),
            _ => self.replay.handle(line, j, sender),
        }
    }
}

/// The calibration pass of a traced service run, as root-level spans in
/// the replay's log: every distinct source of the workload looked up in
/// a fresh cache (a miss) and analyzed, and each template present run
/// through `run_parallel`, `run_sequential` and the native kernel on the
/// same inputs.
fn calibrate(replay: &Replay, load: &ServiceLoad) {
    let mut rec = Recorder::new(Some(replay.log()), u64::MAX, 0);
    let mut sources: Vec<&str> = load.cases.iter().map(|c| c.source.as_str()).collect();
    sources.sort_unstable();
    sources.dedup();
    for _ in 0..MISS_PROBES.div_ceil(sources.len()) {
        let cache = CertCache::new(drive::serve_config().cache_capacity);
        for source in &sources {
            rec.time("calibrate.lookup_miss", None, || {
                std::hint::black_box(cache.lookup(source)).is_ok()
            });
            rec.time("calibrate.analyze", None, || {
                std::hint::black_box(wlp_analyze::analyze_source(source)).is_ok()
            });
        }
    }
    let lane = replay.scheduler().acquire();
    for t in Template::ALL {
        let Some(case) = load.cases.iter().find(|c| c.template == t) else {
            continue;
        };
        let (program, _) =
            wlp_analyze::analyze_source(&case.source).expect("generated sources parse");
        let machine = || {
            let mut m = Machine::default();
            m.arrays.extend(case.arrays.iter().cloned());
            m.scalars.extend(case.scalars.iter().cloned());
            wlp_serve::register_builtins(&mut m);
            m
        };
        let reps = (65_536 / case.n).clamp(16, 512);
        for _ in 0..reps {
            let mut m = machine();
            let idx = rec.open("calibrate.run_parallel", None);
            let out = run_parallel(&program, &mut m, &lane, case.max_iters);
            rec.close(idx, t.name(), out.map_or(0, |o| o.iterations as u64));
            let mut m = machine();
            let idx = rec.open("calibrate.run_sequential", None);
            let out = run_sequential(&program, &mut m, case.max_iters);
            rec.close(idx, t.name(), out.map_or(0, |o| o.iterations as u64));
            let mut arrays: oracle::Arrays = case.arrays.iter().cloned().collect();
            let idx = rec.open("calibrate.native", None);
            let it = oracle::execute(t, case.constant, &mut arrays, &case.scalars);
            rec.close(idx, t.name(), it);
        }
    }
}

fn calibration_values(values: &mut Values, spans: &[Span]) {
    let per_iter = |name: &str, t: &str| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == name && s.tag == t && s.count > 0)
            .map(|s| s.dur_ns() as f64 / s.count as f64)
            .collect();
        median_f(&v)
    };
    values.set(
        "cache.lookup_miss_us",
        us(span_p50(spans, "calibrate.lookup_miss")),
    );
    values.set(
        "analyze.source_us",
        us(span_p50(spans, "calibrate.analyze")),
    );
    for t in Template::ALL {
        let par = per_iter("calibrate.run_parallel", t.name());
        let seq = per_iter("calibrate.run_sequential", t.name());
        let native = per_iter("calibrate.native", t.name());
        values.set(&format!("interp.par_ns_per_iter.{}", t.name()), par);
        values.set(&format!("interp.seq_ns_per_iter.{}", t.name()), seq);
        values.set(
            &format!("interp.native_ratio.{}", t.name()),
            if native > 0.0 { seq / native } else { 0.0 },
        );
    }
}

/// Median duration (ns) of the spans named `name`; 0 when there are none.
fn span_p50(spans: &[Span], name: &str) -> f64 {
    let v: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect();
    quantile(&v, 0.5)
}

fn write_trace(args: &Args, spans: &[Span]) -> String {
    let path = PathBuf::from(format!(
        ".bench_out/{}-seed{}.trace.json",
        args.workload.name(),
        args.seed
    ));
    let meta = vec![
        (
            "workload".to_string(),
            Value::Str(args.workload.name().to_string()),
        ),
        ("seed".to_string(), Value::UInt(args.seed)),
        ("spans_total".to_string(), Value::UInt(spans.len() as u64)),
    ];
    match write_chrome(&path, spans, TRACE_FILE_SPANS, meta) {
        Ok(()) => format!(
            "chrome trace: {} ({} of {} spans)",
            path.display(),
            spans.len().min(TRACE_FILE_SPANS),
            spans.len()
        ),
        Err(e) => format!("chrome trace not written: {e}"),
    }
}

fn run_kernels(args: &Args) -> Result<Outcome, String> {
    let inputs = Inputs::generate(args.seed);
    let dur = Duration::from_secs_f64(args.seconds);
    let mut notes = vec![format!(
        "paper-kernels: pool width {}; spice n={} track n={} fission n={}",
        kernels::WIDTH,
        kernels::SPICE_N,
        kernels::TRACK_N,
        kernels::FISSION_N
    )];
    let mut values = Values::default();
    let mut setups = Vec::new();
    let mut set_up = || -> Result<Kernels, String> {
        let t0 = Instant::now();
        let k = Kernels::setup(&inputs, KERNEL_WARM_CYCLES)?;
        setups.push(t0.elapsed().as_secs_f64());
        Ok(k)
    };
    let mut k = set_up()?;

    // a traced run keeps a fifth of its time for the profiled passes, and
    // sets up only once
    let log = trace::SpanLog::default();
    let (measure, parts) = if args.trace {
        (dur.mul_f64(0.8), 1)
    } else {
        (dur, SETUP_PARTS)
    };
    let mut counts = Vec::new();
    let part = |first: usize, d: Duration| {
        let mut phase = Phase::default();
        let t0 = Instant::now();
        let mut j = first;
        while t0.elapsed() < d {
            let on = args.trace && traced(j);
            let mut rec = Recorder::new(on.then_some(&log), j as u64, 0);
            let (took, result) = k.cycle(&inputs, &mut rec);
            if on {
                k.references(&inputs, &mut rec);
            }
            let status = match result {
                Ok(c) => {
                    counts.push(c);
                    Status::Ok {
                        attempted_parallel: true,
                        committed: true,
                    }
                }
                Err(_) => Status::Mismatch,
            };
            let sample = Sample {
                j,
                lat_ns: took.as_nanos() as u64,
                late_ns: 0,
                at_ns: t0.elapsed().as_nanos() as u64,
                status,
            };
            phase.record(sample, result.err());
            j += 1;
        }
        phase.wall = t0.elapsed();
        phase
    };
    let phase = segmented(measure, parts, part, || {
        if !args.trace {
            set_up()?;
        }
        Ok(())
    })?;

    if args.trace {
        let spans = log.take();
        kernel_values(&mut values, &spans, &counts, &k, &inputs);
        values.set("latency_p99_us", us(quantile(&phase.latencies(), 0.99)));
        let traced_lat = phase.subset(traced).latencies();
        let untraced_lat = phase.subset(|j| !traced(j)).latencies();
        values.set(
            "trace.overhead_frac",
            quantile(&traced_lat, 0.5) / quantile(&untraced_lat, 0.5).max(1.0) - 1.0,
        );
        notes.push(format!(
            "cycles: {} traced / {} untraced",
            traced_lat.len(),
            untraced_lat.len()
        ));
        notes.push(write_trace(args, &spans));
    } else {
        end_to_end(&mut values, &mut notes, &phase, &setups);
    }
    let correct = mismatch_outcome(&phase, &mut notes);
    Ok(Outcome {
        correct,
        attempted: phase.attempted(),
        failed: phase.failed(),
        values,
        notes,
    })
}

/// The kernel layers' metrics from traced cycles (with references) and
/// their counts, plus the runtime profile of SPICE LOAD.
fn kernel_values(
    values: &mut Values,
    spans: &[Span],
    counts: &[kernels::CycleCounts],
    k: &Kernels,
    inputs: &Inputs,
) {
    for kernel in ["spice", "track", "fission"] {
        let par = span_p50(spans, &format!("{kernel}.par"));
        let seq = span_p50(spans, &format!("{kernel}.seq"));
        values.set(&format!("{kernel}.par_us"), us(par));
        values.set(&format!("{kernel}.seq_us"), us(seq));
        values.set(&format!("speedup.{kernel}"), seq / par.max(1.0));
    }
    let med = |f: fn(&kernels::CycleCounts) -> u64| {
        median_f(&counts.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
    };
    values.set("list.hops", med(|c| c.list_hops));
    values.set("pd.executed_parallel", med(|c| c.pd_executed_parallel));
    values.set("core.undone", med(|c| c.core_undone));
    let (mut grants, mut claims, mut busy) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..16 {
        let report = k.spice_profile(inputs);
        grants.push(report.chunk_grants as f64);
        claims.push(report.claimed as f64);
        busy.push(report.utilization());
    }
    values.set("runtime.chunk_grants", median_f(&grants));
    values.set("runtime.claims", median_f(&claims));
    values.set("runtime.busy_share", median_f(&busy));
}
