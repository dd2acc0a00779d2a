//! The traced replay: the service's request path re-assembled from the
//! public entry points of each layer, in the order `Service::run` calls
//! them, with a span around every call.
//!
//! 1. `proto::parse_request`
//! 2. `CertCache::lookup` (same capacity as the service's cache)
//! 3. `RegionScheduler::acquire_until`
//! 4. `Machine` assembly plus `register_builtins`
//! 5. `run_parallel` or `run_sequential`, chosen from the certificate
//!    verdict and a per-tenant `Governor` fed `ran_parallel`
//! 6. reply encoding
//!
//! Admission counters, credits and the circuit breaker are left out: on
//! these workloads they never reject, and their cost is part of
//! `serve.self_us`, the share of `handle_line` no layer span covers.

use crate::drive::{serve_config, Target};
use crate::gen::Template;
use crate::trace::{Recorder, SpanLog};
use parking_lot::Mutex;
use serde::{json, Value};
use std::collections::HashMap;
use wlp_analyze::CertVerdict;
use wlp_ir::interp::{run_parallel, run_sequential, Machine};
use wlp_obs::{AbortReason, StrategyChoice};
use wlp_runtime::{Governor, RegionScheduler, SchedulerConfig};
use wlp_serve::cache::{CacheOutcome, CertCache};
use wlp_serve::proto::{self, codes, ProtoError, Request};
use wlp_serve::{fnv1a64, register_builtins, PROTOCOL_VERSION};

/// Span names of the request path's layers, in call order.
pub const LAYERS: [&str; 6] = [
    "proto.parse",
    "cache.lookup",
    "sched.acquire",
    "serve.assemble",
    "interp.exec",
    "serve.encode",
];

pub struct Replay {
    scheduler: RegionScheduler,
    cache: CertCache,
    governors: Mutex<HashMap<String, Governor>>,
    log: SpanLog,
    /// Whether request `j` is traced.
    traced: Box<dyn Fn(usize) -> bool + Sync>,
}

impl Replay {
    pub fn new(traced: Box<dyn Fn(usize) -> bool + Sync>) -> Replay {
        let cfg = serve_config();
        Replay {
            scheduler: RegionScheduler::new(SchedulerConfig {
                total_workers: cfg.workers,
                lane_width: cfg.lane_width,
            }),
            cache: CertCache::new(cfg.cache_capacity),
            governors: Mutex::new(HashMap::new()),
            log: SpanLog::default(),
            traced,
        }
    }

    pub fn log(&self) -> &SpanLog {
        &self.log
    }

    pub fn scheduler(&self) -> &RegionScheduler {
        &self.scheduler
    }

    /// Governor demotions summed over every tenant.
    pub fn demotions(&self) -> u64 {
        self.governors
            .lock()
            .values()
            .map(Governor::demotions)
            .sum()
    }

    fn run(&self, line: &str, rec: &mut Recorder) -> String {
        let root = rec.open("request", None);
        let parsed = rec.time("proto.parse", Some(root), || proto::parse_request(line));
        rec.tag_last("", line.len() as u64);
        let run = match parsed {
            Ok(Request::Run(run)) => run,
            Ok(_) => {
                return proto::error_line(&bad_request("only run requests are replayed"), None)
            }
            Err(err) => return proto::error_line(&err, None),
        };
        let template = run
            .id
            .as_deref()
            .and_then(Template::from_name)
            .map_or("", Template::name);

        let looked = rec.time("cache.lookup", Some(root), || {
            self.cache.lookup(&run.source)
        });
        let (entry, outcome) = match looked {
            Ok(pair) => pair,
            Err(e) => {
                return proto::error_line(
                    &ProtoError {
                        code: codes::PARSE_ERROR,
                        detail: e.render(&run.source),
                        id: run.id,
                    },
                    None,
                )
            }
        };
        let hit = outcome == CacheOutcome::Hit;
        rec.tag_last(if hit { "hit" } else { "miss" }, 0);
        let verdict = entry.analysis.certificate.verdict;
        let max_iters = run.max_iters.unwrap_or(serve_config().default_max_iters);
        let rung = self
            .governors
            .lock()
            .entry(run.tenant.clone())
            .or_insert_with(|| Governor::new(serve_config().governor))
            .current();
        let attempt_parallel =
            verdict != CertVerdict::CertifiedSequential && rung != StrategyChoice::Sequential;

        let lane = rec
            .time("sched.acquire", Some(root), || {
                self.scheduler.acquire_until(None, None)
            })
            .expect("an unbounded acquire always gets a lane");
        let mut machine = rec.time("serve.assemble", Some(root), || {
            let mut machine = Machine::default();
            for (name, data) in &run.arrays {
                machine.arrays.insert(name.clone(), data.clone());
            }
            for (name, v) in &run.scalars {
                machine.scalars.insert(name.clone(), *v);
            }
            register_builtins(&mut machine);
            machine
        });
        let exec = rec.open("interp.exec", Some(root));
        let result = if attempt_parallel {
            run_parallel(&entry.program, &mut machine, &lane, max_iters)
        } else {
            run_sequential(&entry.program, &mut machine, max_iters)
        };
        let iterations = result.as_ref().map_or(0, |o| o.iterations as u64);
        rec.close(exec, template, iterations);
        drop(lane);
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                if attempt_parallel {
                    self.record(&run.tenant, |g| {
                        g.record_failure(AbortReason::Exception);
                    });
                }
                return proto::error_line(
                    &ProtoError {
                        code: codes::EXEC_ERROR,
                        detail: e.msg,
                        id: run.id,
                    },
                    None,
                );
            }
        };
        if attempt_parallel {
            self.record(&run.tenant, |g| {
                if out.ran_parallel {
                    g.record_success();
                } else {
                    g.record_failure(AbortReason::Dependence);
                }
            });
        }

        let reply = rec.time("serve.encode", Some(root), || {
            let mut names: Vec<&String> = machine.arrays.keys().collect();
            names.sort();
            let digests: Vec<(String, Value)> = names
                .iter()
                .map(|name| {
                    let data = &machine.arrays[*name];
                    let mut bytes = Vec::with_capacity(data.len() * 8);
                    for x in data {
                        bytes.extend_from_slice(&x.to_le_bytes());
                    }
                    ((*name).clone(), Value::UInt(fnv1a64(&bytes)))
                })
                .collect();
            let mut fields = vec![
                ("v".to_string(), Value::UInt(PROTOCOL_VERSION)),
                ("ok".to_string(), Value::Bool(true)),
            ];
            if let Some(id) = &run.id {
                fields.push(("id".to_string(), Value::Str(id.clone())));
            }
            fields.extend([
                ("op".to_string(), Value::Str("run".into())),
                ("tenant".to_string(), Value::Str(run.tenant.clone())),
                (
                    "cache".to_string(),
                    Value::Str(if hit { "hit" } else { "miss" }.into()),
                ),
                ("program_key".to_string(), Value::UInt(entry.key)),
                ("verdict".to_string(), Value::Str(verdict.name().into())),
                ("rung".to_string(), Value::Str(rung_name(rung).into())),
                ("iterations".to_string(), Value::UInt(out.iterations as u64)),
                (
                    "exited_at".to_string(),
                    out.exited_at.map_or(Value::Null, |i| Value::UInt(i as u64)),
                ),
                ("ran_parallel".to_string(), Value::Bool(out.ran_parallel)),
                ("digests".to_string(), Value::Object(digests)),
            ]);
            json::to_string(&Value::Object(fields))
        });
        rec.close(root, template, 0);
        reply
    }

    fn record(&self, tenant: &str, f: impl FnOnce(&mut Governor)) {
        if let Some(g) = self.governors.lock().get_mut(tenant) {
            f(g);
        }
    }
}

impl Target for Replay {
    fn handle(&self, line: &str, j: usize, sender: usize) -> String {
        let log = (self.traced)(j).then_some(&self.log);
        let mut rec = Recorder::new(log, j as u64, sender as u32);
        self.run(line, &mut rec)
    }
}

fn bad_request(detail: &str) -> ProtoError {
    ProtoError {
        code: codes::BAD_REQUEST,
        detail: detail.to_string(),
        id: None,
    }
}

fn rung_name(s: StrategyChoice) -> &'static str {
    match s {
        StrategyChoice::Speculative => "speculative",
        StrategyChoice::Windowed => "windowed",
        StrategyChoice::Distribution => "distribution",
        StrategyChoice::Sequential => "sequential",
    }
}
