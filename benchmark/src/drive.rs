//! Load generation (closed and open loop), reply checking and the order
//! statistics the metrics are built from.

use crate::gen::{Arrival, Case, ServiceLoad, Template};
use serde::json;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use wlp_serve::{ServeConfig, Service};

/// The service configuration every machine runs: two workers in one lane
/// of width two.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: 2,
        lane_width: 2,
        ..ServeConfig::default()
    }
}

/// Anything that answers request lines: the service itself, or the
/// layer-by-layer replay.
pub trait Target: Sync {
    /// Answers request `j`, sent from sender thread `sender`.
    fn handle(&self, line: &str, j: usize, sender: usize) -> String;
}

impl Target for Service {
    fn handle(&self, line: &str, _j: usize, _sender: usize) -> String {
        self.handle_line(line)
    }
}

/// The fields of a correct `run` reply the metrics use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    pub verdict: String,
    pub rung: String,
    pub ran_parallel: bool,
}

impl Reply {
    /// Whether the service tried the parallel executor for this request.
    pub fn attempted_parallel(&self) -> bool {
        self.verdict != "certified_sequential" && self.rung != "sequential"
    }
}

/// Why a reply does not count as a success.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// An error carrying `retry_after_ms`: admission pushback or timeout.
    Retriable(String),
    /// A wrong answer or a non-retriable error: the run is incorrect.
    Mismatch(String),
}

/// Checks `resp` against the oracle's expectation for `case`.
pub fn check_reply(resp: &str, case: &Case) -> Result<Reply, Failure> {
    let bad = |what: String| {
        Failure::Mismatch(format!(
            "{} k={}: {what}",
            case.template.name(),
            case.constant
        ))
    };
    let v = json::parse(resp).map_err(|e| bad(format!("unparsable reply: {e}")))?;
    if v.get("ok").and_then(|x| x.as_bool()) != Some(true) {
        let error = v.get("error");
        let code = error
            .and_then(|e| e.get("code"))
            .and_then(|c| c.as_str())
            .unwrap_or("?")
            .to_string();
        return Err(if error.and_then(|e| e.get("retry_after_ms")).is_some() {
            Failure::Retriable(code)
        } else {
            bad(format!("error reply {resp}"))
        });
    }
    let iterations = v.get("iterations").and_then(|x| x.as_u64());
    if iterations != Some(case.expect.iterations) {
        return Err(bad(format!(
            "iterations {iterations:?}, oracle {}",
            case.expect.iterations
        )));
    }
    let digests = v.get("digests").and_then(|d| d.as_object()).unwrap_or(&[]);
    let got: Vec<(String, u64)> = digests
        .iter()
        .map(|(k, d)| (k.clone(), d.as_u64().unwrap_or(0)))
        .collect();
    if got != case.expect.digests {
        return Err(bad(format!(
            "digests {got:?}, oracle {:?}",
            case.expect.digests
        )));
    }
    let field = |k: &str| v.get(k).and_then(|x| x.as_str()).unwrap_or("").to_string();
    Ok(Reply {
        verdict: field("verdict"),
        rung: field("rung"),
        ran_parallel: v.get("ran_parallel").and_then(|x| x.as_bool()) == Some(true),
    })
}

/// The certificate verdict of each template's corpus form, derived by the
/// analyzer (the verdict every generated variant must keep).
pub fn canonical_verdicts() -> HashMap<Template, String> {
    Template::ALL
        .into_iter()
        .map(|t| {
            let (_, analysis) = wlp_analyze::analyze_source(&t.source(t.canonical_constant()))
                .expect("corpus templates parse");
            (t, analysis.certificate.verdict.name().to_string())
        })
        .collect()
}

/// The warm-up pass: every distinct request once, each reply checked
/// against the oracle and its verdict against the template's.
pub fn warm_up(
    target: &dyn Target,
    load: &ServiceLoad,
    verdicts: &HashMap<Template, String>,
) -> Result<(), String> {
    for (j, case) in load.cases.iter().enumerate() {
        let reply = check_reply(&target.handle(&case.line, j, 0), case)
            .map_err(|f| format!("warm-up: {f:?}"))?;
        if reply.verdict != verdicts[&case.template] {
            return Err(format!(
                "warm-up: {} k={} has verdict {}, template has {}",
                case.template.name(),
                case.constant,
                reply.verdict,
                verdicts[&case.template]
            ));
        }
    }
    Ok(())
}

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Request index.
    pub j: usize,
    /// Latency in ns, from the due time in the open loop.
    pub lat_ns: u64,
    /// How late the generator sent it, in ns (open loop only).
    pub late_ns: u64,
    /// Completion time since the phase started, in ns.
    pub at_ns: u64,
    pub status: Status,
}

/// How a request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Correct answer; whether the parallel executor was tried and
    /// whether it committed.
    Ok {
        attempted_parallel: bool,
        committed: bool,
    },
    /// Rejected with a retry hint (admission pushback, timeout).
    Retriable,
    /// Wrong answer or a non-retriable error.
    Mismatch,
}

/// How long before a request is due an open-loop sender stops sleeping.
const SPIN_AHEAD: Duration = Duration::from_micros(200);
/// Most one-second windows a phase is cut into for its throughput.
const MAX_WINDOWS: usize = 32;

/// What one driven phase observed.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    pub samples: Vec<Sample>,
    /// The first few mismatch descriptions.
    pub mismatches: Vec<String>,
    pub wall: Duration,
}

impl Phase {
    fn count(&self, f: impl Fn(&Status) -> bool) -> u64 {
        self.samples.iter().filter(|s| f(&s.status)).count() as u64
    }

    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.count(|o| !matches!(o, Status::Ok { .. }))
    }

    pub fn retriable(&self) -> u64 {
        self.count(|o| *o == Status::Retriable)
    }

    pub fn parallel_attempts(&self) -> u64 {
        self.count(|o| {
            matches!(
                o,
                Status::Ok {
                    attempted_parallel: true,
                    ..
                }
            )
        })
    }

    pub fn parallel_commits(&self) -> u64 {
        self.count(|o| {
            matches!(
                o,
                Status::Ok {
                    attempted_parallel: true,
                    committed: true
                }
            )
        })
    }

    /// Records one request, keeping the first few mismatch descriptions.
    pub fn record(&mut self, sample: Sample, mismatch: Option<String>) {
        self.samples.push(sample);
        if let Some(m) = mismatch {
            if self.mismatches.len() < 8 {
                self.mismatches.push(m);
            }
        }
    }

    fn note(&mut self, mut sample: Sample, result: Result<Reply, Failure>) {
        let mut mismatch = None;
        sample.status = match result {
            Ok(r) => Status::Ok {
                attempted_parallel: r.attempted_parallel(),
                committed: r.ran_parallel,
            },
            Err(Failure::Retriable(_)) => Status::Retriable,
            Err(Failure::Mismatch(m)) => {
                mismatch = Some(m);
                Status::Mismatch
            }
        };
        self.record(sample, mismatch);
    }

    fn merge(&mut self, other: Phase) {
        self.samples.extend(other.samples);
        self.mismatches.extend(other.mismatches);
    }

    /// The requests `keep` selects, over the same wall time.
    pub fn subset(&self, keep: impl Fn(usize) -> bool) -> Phase {
        Phase {
            samples: self.samples.iter().filter(|s| keep(s.j)).copied().collect(),
            mismatches: Vec::new(),
            wall: self.wall,
        }
    }

    /// The samples cut into `count` equal windows of completion time.
    fn windows(&self, count: usize) -> Vec<Vec<Sample>> {
        let span = self.wall.as_nanos().max(1) as u64;
        let mut out = vec![Vec::new(); count];
        for s in &self.samples {
            let w = (s.at_ns.saturating_mul(count as u64) / span).min(count as u64 - 1);
            out[w as usize].push(*s);
        }
        out
    }

    /// Successful requests per second: the median over one-second windows
    /// of completion time (the whole phase when it is shorter than three
    /// seconds), so a burst of stolen CPU in one window moves it little.
    pub fn throughput(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        let count = (secs as usize).min(MAX_WINDOWS);
        if count < 3 {
            return (self.attempted() - self.failed()) as f64 / secs.max(1e-9);
        }
        let per: Vec<f64> = self
            .windows(count)
            .iter()
            .map(|w| {
                w.iter()
                    .filter(|s| matches!(s.status, Status::Ok { .. }))
                    .count() as f64
                    / (secs / count as f64)
            })
            .collect();
        median_f(&per)
    }

    pub fn latencies(&self) -> Vec<u64> {
        self.samples.iter().map(|s| s.lat_ns).collect()
    }
}

/// Runs a timed phase of `dur` as `parts` equal parts and calls `between`
/// after each. `part(first, d)` runs one part of length `d`, starting at
/// request `first`. The time `between` takes is left out of the phase.
pub fn segmented(
    dur: Duration,
    parts: usize,
    mut part: impl FnMut(usize, Duration) -> Phase,
    mut between: impl FnMut() -> Result<(), String>,
) -> Result<Phase, String> {
    let mut phase = Phase::default();
    let mut first = 0;
    for _ in 0..parts {
        let mut p = part(first, dur / parts as u32);
        let offset = phase.wall.as_nanos() as u64;
        for s in &mut p.samples {
            s.at_ns += offset;
        }
        first += p.samples.len();
        phase.wall += p.wall;
        phase.merge(p);
        between()?;
    }
    Ok(phase)
}

/// Drives `load` against `target` for `dur`, starting at request `first`.
pub fn drive(target: &dyn Target, load: &ServiceLoad, first: usize, dur: Duration) -> Phase {
    match load.arrival {
        Arrival::Closed => closed_loop(target, load, first, dur),
        Arrival::Open { rate, senders } => open_loop(target, load, first, dur, rate, senders),
    }
}

fn closed_loop(target: &dyn Target, load: &ServiceLoad, first: usize, dur: Duration) -> Phase {
    let mut phase = Phase::default();
    let t0 = Instant::now();
    let mut j = first;
    while t0.elapsed() < dur {
        let case = load.case_of(j);
        let sent = Instant::now();
        let resp = target.handle(&case.line, j, 0);
        let sample = Sample {
            j,
            lat_ns: sent.elapsed().as_nanos() as u64,
            late_ns: 0,
            at_ns: t0.elapsed().as_nanos() as u64,
            status: Status::Mismatch,
        };
        phase.note(sample, check_reply(&resp, case));
        j += 1;
    }
    phase.wall = t0.elapsed();
    phase
}

fn open_loop(
    target: &dyn Target,
    load: &ServiceLoad,
    first: usize,
    dur: Duration,
    rate: f64,
    senders: usize,
) -> Phase {
    let count = (dur.as_secs_f64() * rate).ceil() as usize;
    let period = Duration::from_secs_f64(1.0 / rate);
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut phase = std::thread::scope(|s| {
        let handles: Vec<_> = (0..senders)
            .map(|sender| {
                s.spawn(move || {
                    let mut mine = Phase::default();
                    for k in (sender..count).step_by(senders) {
                        let due = t0 + period * k as u32;
                        // a sleep overshoots by tens of microseconds; sleep
                        // short of the due time and yield the rest
                        let now = Instant::now();
                        if due > now + SPIN_AHEAD {
                            std::thread::sleep(due - now - SPIN_AHEAD);
                        }
                        while Instant::now() < due {
                            std::thread::yield_now();
                        }
                        let sent = Instant::now();
                        let j = first + k;
                        let case = load.case_of(j);
                        let resp = target.handle(&case.line, j, sender);
                        let sample = Sample {
                            j,
                            lat_ns: due.elapsed().as_nanos() as u64,
                            late_ns: sent.saturating_duration_since(due).as_nanos() as u64,
                            at_ns: t0.elapsed().as_nanos() as u64,
                            status: Status::Mismatch,
                        };
                        mine.note(sample, check_reply(&resp, case));
                    }
                    mine
                })
            })
            .collect();
        let mut all = Phase::default();
        for h in handles {
            all.merge(h.join().expect("sender thread panicked"));
        }
        all
    });
    phase.wall = t0.elapsed();
    phase
}

/// Builds a service and warms it up; returns it with the set-up time.
pub fn setup_service(
    load: &ServiceLoad,
    verdicts: &HashMap<Template, String>,
) -> Result<(Service, Duration), String> {
    let t0 = Instant::now();
    let svc = Service::new(serve_config());
    warm_up(&svc, load, verdicts)?;
    Ok((svc, t0.elapsed()))
}

/// The `q`-quantile (`0..=1`) of `v` by nearest rank; 0 when empty.
pub fn quantile(v: &[u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_unstable();
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1] as f64
}

/// Median of `v`; 0 when empty.
pub fn median_f(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
