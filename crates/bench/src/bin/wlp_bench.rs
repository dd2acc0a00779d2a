//! Wall-clock benchmark harness for the *threaded* runtime.
//!
//! Unlike `figures` (which replays the paper's exhibits on the
//! deterministic simulator), this binary times real executions of the
//! runtime constructs and workloads on the host machine, across pool
//! sizes, scheduling policies and pool modes, and writes the results to
//! `BENCH_runtime.json` for CI to archive and gate on.
//!
//! ```text
//! cargo run -p wlp-bench --release --bin wlp-bench                 # full run
//! cargo run -p wlp-bench --release --bin wlp-bench -- --smoke     # CI-sized
//! cargo run -p wlp-bench --release --bin wlp-bench -- --smoke --gate
//! cargo run -p wlp-bench --release --bin wlp-bench -- --out /tmp/b.json
//! ```
//!
//! Exhibit families:
//!
//! * `compute` — a uniform-body DOALL over a synthetic flop kernel, per
//!   pool size and [`ChunkPolicy`], against the sequential loop.
//! * `spice` — the SPICE LOAD workload (linked-list dispatcher,
//!   General-3), against its sequential reference; reported but not
//!   gated — its bodies are tiny ("the body in Loop 40 does little
//!   work"), so the exhibit measures dispatcher overhead, which machine
//!   size swings by an order of magnitude.
//! * `track` — the TRACK speculative workload (checkpoint + PD test +
//!   undo), against its sequential reference; reported but not gated,
//!   since the speculation machinery's overhead is the quantity under
//!   study, not a regression.
//! * `dispatch` — many small regions back to back, resident pool vs
//!   spawn-per-region: the dispatch-overhead exhibit. The resident pool
//!   must win at small iteration counts; `--gate` enforces it.
//! * `watchdog` — the same DOALL on a deadline-armed pool vs the plain
//!   resident pool: the cost of the per-region watchdog monitor. The
//!   deadline is generous (never trips), so the delta is pure
//!   monitoring overhead; `--gate` bounds it at 5%.
//! * `contention` — tiny bodies at full pool width, the pure claim-path
//!   exhibit: one-at-a-time and chunked self-scheduling, the
//!   work-stealing DOALL, and a stamp-dense speculative loop whose cost
//!   is dominated by shadow marking and undo stamping. Reported but not
//!   gated: these cells *are* the dispatcher/marking overhead under
//!   study, and their absolute cost is what `--trajectory` tracks
//!   across commits.
//!
//! With `--gate`, the run fails (exit 1) if any gated parallel exhibit at
//! the largest pool size is more than 1.5× slower than its sequential
//! baseline, if a compute `one`-policy cell at `p ≥ 2` falls below 0.9×
//! of sequential on a multi-CPU machine, if the resident pool loses to
//! spawn-per-region, or if the deadline-armed pool is more than 5%
//! slower than the ungoverned one.
//!
//! With `--trajectory PATH`, one JSON line per run — git sha, date,
//! machine, and every exhibit's median — is *appended* to `PATH`
//! (`BENCH_trajectory.jsonl` by convention), building a bench history
//! across commits that CI archives as an artifact.
//!
//! The artifact also carries a `governor` block: counters from a
//! deterministic budget-storm ladder walk (demotions, re-promotion
//! probes, per-reason failures, terminal rung), so CI archives the
//! governor's behaviour alongside the wall-clock rows.

use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;
use wlp_core::{governed_while, speculative_while, SpeculativeArray};
use wlp_runtime::{
    doall_dynamic, doall_worksteal, ChunkPolicy, Deadline, Governor, GovernorPolicy, NoopRecorder,
    Pool, Step,
};
use wlp_workloads::{spice, track};

/// Slowdown bound for `--gate`: a parallel construct at the largest pool
/// size may be at most this much slower than its sequential baseline.
const GATE_SLOWDOWN: f64 = 1.5;

/// Watchdog bound for `--gate`: a deadline-armed pool may be at most
/// this much slower than the ungoverned resident pool on the same work.
const WATCHDOG_GATE: f64 = 1.05;

/// Claim-path bound for `--gate`: on a multi-CPU machine, a compute
/// `one`-policy cell at `p >= 2` must retain at least this fraction of
/// sequential throughput — one-at-a-time self-scheduling may not turn a
/// compute loop into a slowdown. Skipped when the machine has a single
/// CPU, where every parallel cell oversubscribes by construction.
const ONE_POLICY_GATE: f64 = 0.9;

#[derive(Serialize, Clone)]
struct Machine {
    os: String,
    arch: String,
    cpus: usize,
}

#[derive(Serialize)]
struct RunConfig {
    smoke: bool,
    repeats: usize,
    warmup: usize,
}

#[derive(Serialize)]
struct Exhibit {
    /// Unique id: `family/mode/policy/p{p}`.
    name: String,
    family: String,
    /// `seq`, `resident` or `spawn`.
    mode: String,
    /// Chunk policy label (`-` where not applicable).
    policy: String,
    p: usize,
    /// Problem size (iterations; for `dispatch`, iterations per region).
    n: usize,
    repeats: usize,
    median_ns: u64,
    q1_ns: u64,
    q3_ns: u64,
    iqr_ns: u64,
    /// Name of the exhibit this one is measured against, if any.
    baseline: Option<String>,
    /// `baseline_median / median` (> 1 means faster than the baseline).
    speedup_vs_baseline: Option<f64>,
    /// Whether `--gate` applies its slowdown bound to this exhibit.
    gated: bool,
}

/// Counters from a deterministic governed ladder walk, archived with
/// the wall-clock rows so CI can track governor behaviour over time.
#[derive(Serialize)]
struct GovernorCounters {
    /// Governed rounds executed.
    rounds: usize,
    /// Rung the governor settled on.
    final_rung: &'static str,
    /// Whether re-promotion probing had stopped (backoff exhausted).
    terminal: bool,
    demotions: u64,
    repromotions: u64,
    failures_dependence: u64,
    failures_exception: u64,
    failures_timeout: u64,
    failures_budget: u64,
    /// Every round's result matched the sequential truth.
    consistent: bool,
}

#[derive(Serialize)]
struct BenchFile {
    schema: String,
    machine: Machine,
    config: RunConfig,
    governor: GovernorCounters,
    exhibits: Vec<Exhibit>,
}

/// The headline exhibit every run must record: the sequential compute
/// baseline every other compute cell is normalized against. A trajectory
/// line without it cannot anchor cross-commit comparisons.
const HEADLINE_EXHIBIT: &str = "compute/seq/-/p1";

/// Appends one trajectory line to `path` via the shared
/// [`wlp_bench::trajectory`] scoreboard (the same file `serve-replay`
/// and `serve-chaos` fold their headline numbers into).
fn append_trajectory(path: &str, file: &BenchFile) -> std::io::Result<()> {
    use wlp_bench::trajectory::{TrajectoryExhibit, TrajectoryRecord};
    let exhibits = file
        .exhibits
        .iter()
        .map(|e| TrajectoryExhibit {
            name: e.name.clone(),
            median_ns: e.median_ns,
            value: None,
            speedup_vs_baseline: e.speedup_vs_baseline,
        })
        .collect();
    TrajectoryRecord::now("wlp-bench", file.config.smoke, exhibits).append_to(path)
}

/// Post-append self-check: the last line of `path` must parse back
/// through [`TrajectoryRecord::parse`] as this run's record and carry
/// the headline exhibit with a real timing. Returns the error text
/// instead of a record so the caller can fail the gate with it.
fn verify_trajectory(path: &str) -> Result<(), String> {
    use wlp_bench::trajectory::TrajectoryRecord;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let last = text
        .lines()
        .last()
        .ok_or_else(|| format!("{path}: no trajectory lines after append"))?;
    let rec = TrajectoryRecord::parse(last).map_err(|e| format!("{path}: last line: {e}"))?;
    if rec.source != "wlp-bench" {
        return Err(format!(
            "{path}: last line has source `{}`, expected `wlp-bench`",
            rec.source
        ));
    }
    let headline = rec
        .exhibits
        .iter()
        .find(|e| e.name == HEADLINE_EXHIBIT)
        .ok_or_else(|| format!("{path}: record carries no `{HEADLINE_EXHIBIT}` exhibit"))?;
    if headline.median_ns == 0 {
        return Err(format!(
            "{path}: headline exhibit `{HEADLINE_EXHIBIT}` recorded a zero median"
        ));
    }
    Ok(())
}

struct Stats {
    median_ns: u64,
    q1_ns: u64,
    q3_ns: u64,
}

/// Times `f` `warmup + repeats` times; returns nearest-rank quartiles
/// over the timed repeats.
fn measure(warmup: usize, repeats: usize, mut f: impl FnMut()) -> Stats {
    for _ in 0..warmup {
        f();
    }
    let mut ns: Vec<u64> = (0..repeats)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    ns.sort_unstable();
    let at = |q: f64| ns[((ns.len() as f64 * q) as usize).min(ns.len() - 1)];
    let median = if ns.len() % 2 == 1 {
        ns[ns.len() / 2]
    } else {
        (ns[ns.len() / 2 - 1] + ns[ns.len() / 2]) / 2
    };
    Stats {
        median_ns: median,
        q1_ns: at(0.25),
        q3_ns: at(0.75),
    }
}

/// The synthetic compute kernel: enough flops that a claim is cheap
/// relative to the body, little enough that dispatch is still visible.
fn flops(i: usize) -> f64 {
    let mut v = i as f64 + 1.0;
    for _ in 0..40 {
        v = v * 1.000001 + 0.3;
    }
    v
}

struct Sizes {
    compute_n: usize,
    spice_n: usize,
    track_n: usize,
    track_exit: usize,
    dispatch_n: usize,
    dispatch_regions: usize,
    contention_n: usize,
}

impl Sizes {
    fn full() -> Self {
        Sizes {
            compute_n: 200_000,
            spice_n: 50_000,
            track_n: 20_000,
            track_exit: 15_000,
            dispatch_n: 256,
            dispatch_regions: 200,
            contention_n: 100_000,
        }
    }

    fn smoke() -> Self {
        Sizes {
            compute_n: 40_000,
            spice_n: 10_000,
            track_n: 4_000,
            track_exit: 3_000,
            dispatch_n: 256,
            dispatch_regions: 50,
            contention_n: 20_000,
        }
    }
}

struct Harness {
    warmup: usize,
    repeats: usize,
    exhibits: Vec<Exhibit>,
}

impl Harness {
    #[allow(clippy::too_many_arguments)] // flat exhibit descriptor, mirrors the JSON row
    fn run(
        &mut self,
        family: &str,
        mode: &str,
        policy: &str,
        p: usize,
        n: usize,
        baseline: Option<&str>,
        gated: bool,
        f: impl FnMut(),
    ) {
        let name = format!("{family}/{mode}/{policy}/p{p}");
        let s = measure(self.warmup, self.repeats, f);
        let speedup = baseline
            .and_then(|b| self.exhibits.iter().find(|e| e.name == b))
            .map(|b| b.median_ns as f64 / s.median_ns.max(1) as f64);
        println!(
            "  {name:<40} median {:>12} ns  iqr {:>10} ns{}",
            s.median_ns,
            s.q3_ns - s.q1_ns,
            speedup.map_or(String::new(), |x| format!("  speedup {x:.2}x")),
        );
        self.exhibits.push(Exhibit {
            name,
            family: family.to_string(),
            mode: mode.to_string(),
            policy: policy.to_string(),
            p,
            n,
            repeats: self.repeats,
            median_ns: s.median_ns,
            q1_ns: s.q1_ns,
            q3_ns: s.q3_ns,
            iqr_ns: s.q3_ns - s.q1_ns,
            baseline: baseline.map(str::to_string),
            speedup_vs_baseline: speedup,
            gated,
        });
    }
}

fn pool_sizes() -> Vec<usize> {
    vec![1, 2, 4]
}

fn policies() -> Vec<ChunkPolicy> {
    vec![
        ChunkPolicy::One,
        ChunkPolicy::Fixed(32),
        ChunkPolicy::Guided { min: 4 },
    ]
}

fn run_all(h: &mut Harness, sizes: &Sizes) {
    // -- compute: sequential baseline, then every (p, policy) cell --------
    println!("compute (n = {}):", sizes.compute_n);
    let n = sizes.compute_n;
    h.run("compute", "seq", "-", 1, n, None, false, || {
        let mut acc = 0.0f64;
        for i in 0..n {
            acc += flops(i);
        }
        black_box(acc);
    });
    for &p in &pool_sizes() {
        let pool = Pool::new(p);
        for policy in policies() {
            h.run(
                "compute",
                "resident",
                &policy.label(),
                p,
                n,
                Some("compute/seq/-/p1"),
                p > 1,
                || {
                    doall_dynamic(&pool, n, policy, &NoopRecorder, |i, _| {
                        black_box(flops(i));
                        Step::Continue
                    });
                },
            );
        }
    }

    // -- spice: linked-list LOAD via General-3 ----------------------------
    println!("spice (n = {}):", sizes.spice_n);
    let list = spice::build_device_list(sizes.spice_n, 42);
    let dt = 1e-3;
    h.run("spice", "seq", "-", 1, sizes.spice_n, None, false, || {
        black_box(spice::load_sequential(&list, dt));
    });
    for &p in &pool_sizes() {
        let pool = Pool::new(p);
        h.run(
            "spice",
            "resident",
            "-",
            p,
            sizes.spice_n,
            Some("spice/seq/-/p1"),
            false, // overhead exhibit: tiny bodies measure the dispatcher
            || {
                black_box(spice::load_parallel(
                    &pool,
                    &list,
                    dt,
                    spice::Method::General3,
                ));
            },
        );
    }

    // -- track: speculative DOALL with checkpoint + PD test + undo --------
    println!(
        "track (n = {}, exit at {}):",
        sizes.track_n, sizes.track_exit
    );
    let inst = track::TrackInstance::new(sizes.track_n, sizes.track_exit, 7);
    h.run("track", "seq", "-", 1, sizes.track_n, None, false, || {
        black_box(inst.run_sequential());
    });
    for &p in &pool_sizes() {
        let pool = Pool::new(p);
        h.run(
            "track",
            "resident",
            "-",
            p,
            sizes.track_n,
            Some("track/seq/-/p1"),
            false, // speculation overhead is the quantity under study
            || {
                black_box(inst.run_parallel(&pool));
            },
        );
    }

    // -- dispatch: many tiny regions, resident vs spawn-per-region --------
    println!(
        "dispatch ({} regions of {} iterations):",
        sizes.dispatch_regions, sizes.dispatch_n
    );
    let (n, regions) = (sizes.dispatch_n, sizes.dispatch_regions);
    for &p in &pool_sizes() {
        if p == 1 {
            continue; // both modes run inline at p = 1
        }
        let spawning = Pool::new_spawning(p);
        h.run("dispatch", "spawn", "-", p, n, None, false, || {
            for _ in 0..regions {
                doall_dynamic(&spawning, n, ChunkPolicy::One, &NoopRecorder, |i, _| {
                    black_box(i);
                    Step::Continue
                });
            }
        });
        let resident = Pool::new(p);
        h.run(
            "dispatch",
            "resident",
            "-",
            p,
            n,
            Some(&format!("dispatch/spawn/-/p{p}")),
            false, // gated separately: resident must beat spawn
            || {
                for _ in 0..regions {
                    doall_dynamic(&resident, n, ChunkPolicy::One, &NoopRecorder, |i, _| {
                        black_box(i);
                        Step::Continue
                    });
                }
            },
        );
    }

    // -- watchdog: deadline-armed pool vs ungoverned resident pool --------
    println!("watchdog (n = {}):", sizes.compute_n);
    let n = sizes.compute_n;
    for &p in &pool_sizes() {
        if p == 1 {
            continue; // inline regions have no lanes to watch
        }
        let plain = Pool::new(p);
        h.run("watchdog", "resident", "-", p, n, None, false, || {
            doall_dynamic(
                &plain,
                n,
                ChunkPolicy::Guided { min: 4 },
                &NoopRecorder,
                |i, _| {
                    black_box(flops(i));
                    Step::Continue
                },
            );
        });
        // A deadline far beyond the region's runtime: the watchdog arms,
        // waits and disarms every region without ever firing, so the
        // delta against the plain pool is pure monitoring overhead.
        let armed = plain.with_deadline(Deadline::from_millis(60_000));
        h.run(
            "watchdog",
            "deadline",
            "-",
            p,
            n,
            Some(&format!("watchdog/resident/-/p{p}")),
            false, // gated separately: within WATCHDOG_GATE of the baseline
            || {
                doall_dynamic(
                    &armed,
                    n,
                    ChunkPolicy::Guided { min: 4 },
                    &NoopRecorder,
                    |i, _| {
                        black_box(flops(i));
                        Step::Continue
                    },
                );
            },
        );
    }

    // -- contention: tiny bodies at full width — the claim-path exhibit --
    // The body is a single black_box, so every cell measures the cost of
    // *getting* an iteration, not running it: the shared-cursor claim
    // (`one`), the amortized claim (`fixed32`), the per-worker deque with
    // stealing (`worksteal`), and the shadow-marking + undo-stamping
    // fast path (`spec`). Full pool width maximizes claim collisions.
    let p = pool_sizes().into_iter().max().unwrap_or(1).max(4);
    let n = sizes.contention_n;
    println!("contention (n = {n}, p = {p}):");
    h.run("contention", "seq", "-", 1, n, None, false, || {
        let mut acc = 0usize;
        for i in 0..n {
            acc = acc.wrapping_add(black_box(i));
        }
        black_box(acc);
    });
    let pool = Pool::new(p);
    for policy in [ChunkPolicy::One, ChunkPolicy::Fixed(32)] {
        h.run(
            "contention",
            "resident",
            &policy.label(),
            p,
            n,
            Some("contention/seq/-/p1"),
            false, // pure dispatcher overhead: tracked, not gated
            || {
                doall_dynamic(&pool, n, policy, &NoopRecorder, |i, _| {
                    black_box(i);
                    Step::Continue
                });
            },
        );
    }
    h.run(
        "contention",
        "worksteal",
        "fixed32",
        p,
        n,
        Some("contention/seq/-/p1"),
        false,
        || {
            doall_worksteal(&pool, n, 32, |i, _| {
                black_box(i);
                Step::Continue
            });
        },
    );
    // Stamp-dense speculation: every iteration reads and writes its own
    // element, so the run commits in parallel while every single body
    // exercises the relaxed shadow CAS, the undo fetch_min fast path and
    // the batched charge flush — the lock-free marking protocol end to
    // end, with nothing else to hide behind.
    let mut arr = SpeculativeArray::new(vec![0u64; n]);
    h.run(
        "contention",
        "spec",
        "one",
        p,
        n,
        Some("contention/seq/-/p1"),
        false,
        || {
            let out = speculative_while(
                &pool,
                n,
                ChunkPolicy::One,
                &arr,
                &NoopRecorder,
                |_, _| false,
                |i, a| {
                    let v = a.read(i);
                    a.write(i, v.wrapping_add(1));
                },
            );
            black_box(out.committed_parallel);
            arr.commit();
        },
    );
}

/// Runs a deterministic budget-storm ladder walk: a tiny write budget
/// fails every parallel rung, so the governor demotes speculative →
/// windowed → distribution → sequential with doubling backoff between
/// re-promotion probes, and the counters land in the artifact.
fn governed_storm() -> GovernorCounters {
    let pool = Pool::new(4);
    let policy = GovernorPolicy {
        demote_threshold: 2,
        initial_backoff: 2,
        max_backoff: 8,
        budget_writes: Some(4),
        ..GovernorPolicy::default()
    };
    let mut gov = Governor::new(policy);
    let (upper, exit) = (64usize, 40usize);
    let truth: Vec<i64> = (0..upper)
        .map(|i| if i < exit { i as i64 + 1 } else { 0 })
        .collect();
    let rounds = 120;
    let mut consistent = true;
    for _ in 0..rounds {
        let (_, data) = governed_while(
            &pool,
            upper,
            vec![0i64; upper],
            &mut gov,
            &NoopRecorder,
            |i| i >= exit,
            |i, a| a.write(i, i as i64 + 1),
        );
        consistent &= data == truth;
    }
    let f = gov.failures();
    GovernorCounters {
        rounds,
        final_rung: gov.current().name(),
        terminal: gov.is_terminal(),
        demotions: gov.demotions(),
        repromotions: gov.repromotions(),
        failures_dependence: f.dependence,
        failures_exception: f.exception,
        failures_timeout: f.timeout,
        failures_budget: f.budget,
        consistent,
    }
}

/// `--gate`: every gated exhibit at the largest pool size must be within
/// [`GATE_SLOWDOWN`] of its baseline, compute `one`-policy cells at
/// `p >= 2` must hold [`ONE_POLICY_GATE`] of sequential, and every
/// resident dispatch exhibit must beat its spawn counterpart. Gated
/// cells wider than the machine (`p > cpus`) are skipped, and the
/// `one`-policy bound is skipped entirely on single-CPU machines:
/// oversubscription contention is not a regression in the construct.
fn gate(exhibits: &[Exhibit], cpus: usize) -> Vec<String> {
    let max_p = pool_sizes().into_iter().max().unwrap_or(1);
    let mut failures = Vec::new();
    for e in exhibits {
        if e.gated && e.p == max_p && e.p <= cpus {
            if let Some(s) = e.speedup_vs_baseline {
                if s < 1.0 / GATE_SLOWDOWN {
                    failures.push(format!(
                        "{}: {:.2}x vs {} (allowed: no worse than {:.2}x slower)",
                        e.name,
                        s,
                        e.baseline.as_deref().unwrap_or("?"),
                        GATE_SLOWDOWN
                    ));
                }
            }
        }
        if cpus > 1 && e.family == "compute" && e.policy == "one" && e.p >= 2 && e.p <= cpus {
            if let Some(s) = e.speedup_vs_baseline {
                if s < ONE_POLICY_GATE {
                    failures.push(format!(
                        "{}: {s:.2}x vs {} (one-at-a-time claims must hold {ONE_POLICY_GATE}x \
                         of sequential on a {cpus}-cpu machine)",
                        e.name,
                        e.baseline.as_deref().unwrap_or("?"),
                    ));
                }
            }
        }
        if e.family == "dispatch" && e.mode == "resident" {
            if let Some(s) = e.speedup_vs_baseline {
                if s <= 1.0 {
                    failures.push(format!(
                        "{}: resident pool must beat spawn-per-region, got {s:.2}x",
                        e.name
                    ));
                }
            }
        }
        if e.family == "watchdog" && e.mode == "deadline" && e.p == max_p && e.p <= cpus {
            if let Some(s) = e.speedup_vs_baseline {
                if s < 1.0 / WATCHDOG_GATE {
                    failures.push(format!(
                        "{}: watchdog overhead {:.1}% over {} (allowed: {:.0}%)",
                        e.name,
                        (1.0 / s - 1.0) * 100.0,
                        e.baseline.as_deref().unwrap_or("?"),
                        (WATCHDOG_GATE - 1.0) * 100.0,
                    ));
                }
            }
        }
    }
    failures
}

fn main() {
    let mut smoke = false;
    let mut apply_gate = false;
    let mut out = String::from("BENCH_runtime.json");
    let mut trajectory: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => smoke = true,
            "--gate" => apply_gate = true,
            "--out" => out = args.next().expect("--out needs a path"),
            "--trajectory" => trajectory = Some(args.next().expect("--trajectory needs a path")),
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!("usage: wlp-bench [--smoke] [--gate] [--out PATH] [--trajectory PATH]");
                std::process::exit(2);
            }
        }
    }

    let sizes = if smoke { Sizes::smoke() } else { Sizes::full() };
    let (warmup, repeats) = if smoke { (1, 5) } else { (2, 9) };
    let mut h = Harness {
        warmup,
        repeats,
        exhibits: Vec::new(),
    };
    run_all(&mut h, &sizes);

    let governor = governed_storm();
    println!(
        "governor storm: final rung {} (terminal: {}), {} demotions / {} repromotions, \
         {} budget trips, consistent: {}",
        governor.final_rung,
        governor.terminal,
        governor.demotions,
        governor.repromotions,
        governor.failures_budget,
        governor.consistent,
    );

    let file = BenchFile {
        schema: "wlp-bench-runtime/v2".to_string(),
        machine: Machine {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            cpus: std::thread::available_parallelism().map_or(1, |c| c.get()),
        },
        config: RunConfig {
            smoke,
            repeats,
            warmup,
        },
        governor,
        exhibits: h.exhibits,
    };
    std::fs::write(&out, serde::json::to_string(&file)).expect("write bench file");
    println!("wrote {out}");

    if let Some(path) = &trajectory {
        append_trajectory(path, &file).expect("append trajectory record");
        if let Err(e) = verify_trajectory(path) {
            eprintln!("trajectory verification FAILED: {e}");
            std::process::exit(1);
        }
        println!("appended trajectory record to {path} (headline `{HEADLINE_EXHIBIT}` verified)");
    }

    if apply_gate {
        let failures = gate(&file.exhibits, file.machine.cpus);
        if failures.is_empty() {
            println!("gate: every parallel construct within {GATE_SLOWDOWN}x of sequential; resident pool beats spawn");
        } else {
            eprintln!("gate FAILED:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }
}
