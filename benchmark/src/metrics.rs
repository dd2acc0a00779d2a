//! The metric catalogue and the result line.
//!
//! Every run prints all metrics of its mode by name and unit: the
//! end-to-end set with `--trace 0`, the per-layer set with `--trace 1`.
//! A layer a workload does not reach reports 0.

use crate::gen::Template;
use serde::{json, Value};

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_rps", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("success_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics that are not per template: `(name, unit)`.
const LAYER_FIXED: [(&str, &str); 34] = [
    ("proto.parse_us", "us"),
    ("proto.parse_mb_per_s", "MB/s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_hit_us", "us"),
    ("cache.lookup_miss_us", "us"),
    ("analyze.source_us", "us"),
    ("sched.lane_wait_us_p50", "us"),
    ("sched.lane_wait_us_p99", "us"),
    ("serve.assemble_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.self_us", "us"),
    ("serve.rejected_frac", "ratio"),
    ("governor.parallel_attempt_frac", "ratio"),
    ("governor.demotions", "count"),
    ("interp.exec_us", "us"),
    ("interp.commit_ratio", "ratio"),
    ("spice.par_us", "us"),
    ("spice.seq_us", "us"),
    ("track.par_us", "us"),
    ("track.seq_us", "us"),
    ("fission.par_us", "us"),
    ("fission.seq_us", "us"),
    ("speedup.spice", "x"),
    ("speedup.track", "x"),
    ("speedup.fission", "x"),
    ("list.hops", "count"),
    ("pd.executed_parallel", "count"),
    ("core.undone", "count"),
    ("runtime.chunk_grants", "count"),
    ("runtime.claims", "count"),
    ("runtime.busy_share", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("gen.late_p99_us", "us"),
    ("latency_p99_us", "us"),
];

/// Every per-layer metric: `(name, unit)`, the per-template interpreter
/// metrics included.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for t in Template::ALL {
        all.push((format!("interp.par_ns_per_iter.{}", t.name()), "ns"));
        all.push((format!("interp.seq_ns_per_iter.{}", t.name()), "ns"));
        all.push((format!("interp.native_ratio.{}", t.name()), "ratio"));
    }
    all
}

/// The values one run measured, by metric name.
#[derive(Debug, Default)]
pub struct Values(Vec<(String, f64)>);

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.push((name.to_string(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }
}

/// The result a run prints as its last line.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: Values,
    /// Human-readable lines printed before the result (`# ` prefixed).
    pub notes: Vec<String>,
}

impl Outcome {
    /// The result line: every metric of the mode, in catalogue order,
    /// 0 for a layer the workload did not reach.
    pub fn result_line(&self, trace: bool) -> String {
        let names: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n.to_string(), u))
                .collect()
        };
        let metrics: Vec<(String, Value)> = names
            .into_iter()
            .map(|(name, unit)| {
                let v = self.values.get(&name).unwrap_or(0.0);
                let v = if v.is_finite() { v } else { 0.0 };
                (
                    name,
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(v)),
                        ("unit".to_string(), Value::Str(unit.to_string())),
                    ]),
                )
            })
            .collect();
        json::to_string(&Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue and `BENCHMARK.json` name the same metrics with the
    /// same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(|x| x.as_str())
                            .expect("name and unit")
                            .to_string()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.into(), u.into()))
            .collect();
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.into()))
            .collect();
        assert_eq!(listed("end_to_end"), e2e);
        assert_eq!(listed("per_layer"), layer);
    }
}
