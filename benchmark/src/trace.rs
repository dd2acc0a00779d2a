//! Spans recorded around calls into each layer, kept in memory and
//! written once, at exit, as Chrome-trace JSON (opens in Perfetto or
//! `chrome://tracing`).
//!
//! A span has a name, a start and an end, the span that caused it and the
//! id of the request it belongs to. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use parking_lot::Mutex;
use serde::{json, Value};
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Qualifier: template name, `hit`/`miss`, …
    pub tag: &'static str,
    /// Work the call did, in the span's own unit (iterations, bytes).
    pub count: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same [`SpanLog`].
    pub parent: Option<usize>,
    pub req: u64,
    pub tid: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The spans of one request, recorded without locking; merged into the
/// shared [`SpanLog`] when the request ends. A disabled recorder reads no
/// clock and keeps nothing.
pub struct Recorder<'a> {
    log: Option<&'a SpanLog>,
    req: u64,
    tid: u32,
    spans: Vec<Span>,
}

impl<'a> Recorder<'a> {
    pub fn new(log: Option<&'a SpanLog>, req: u64, tid: u32) -> Self {
        Recorder {
            log,
            req,
            tid,
            spans: Vec::new(),
        }
    }

    /// Opens a span; close it with [`close`](Self::close). Returns its
    /// local index (`usize::MAX` when disabled).
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let Some(log) = self.log else {
            return usize::MAX;
        };
        let now = log.now_ns();
        self.spans.push(Span {
            name,
            tag: "",
            count: 0,
            start_ns: now,
            end_ns: now,
            parent,
            req: self.req,
            tid: self.tid,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, idx: usize, tag: &'static str, count: u64) {
        if let Some(log) = self.log {
            let now = log.now_ns();
            let s = &mut self.spans[idx];
            s.end_ns = now;
            s.tag = tag;
            s.count = count;
        }
    }

    /// Times `f` as a child of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let idx = self.open(name, parent);
        let out = f();
        self.close(idx, "", 0);
        out
    }

    /// Re-tags the most recently closed span.
    pub fn tag_last(&mut self, tag: &'static str, count: u64) {
        if let Some(s) = self.spans.last_mut() {
            s.tag = tag;
            s.count = count;
        }
    }
}

impl Drop for Recorder<'_> {
    fn drop(&mut self) {
        if let Some(log) = self.log {
            log.append(std::mem::take(&mut self.spans));
        }
    }
}

/// Every span of a run, in memory until [`write_chrome`](Self::write_chrome).
pub struct SpanLog {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl SpanLog {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Appends one request's spans, rebasing their local parent indices.
    fn append(&self, mut local: Vec<Span>) {
        let mut spans = self.spans.lock();
        let base = spans.len();
        for s in &mut local {
            s.parent = s.parent.map(|p| p + base);
        }
        spans.extend(local);
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock())
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .map(|&k| {
                    (
                        spans[k].start_ns.max(s.start_ns),
                        spans[k].end_ns.min(s.end_ns),
                    )
                })
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Writes `spans` (at most `cap` of them, the earliest) as Chrome-trace
/// JSON with each span's self time in its `args`.
pub fn write_chrome(
    path: &std::path::Path,
    spans: &[Span],
    cap: usize,
    meta: Vec<(String, Value)>,
) -> std::io::Result<()> {
    let spans = &spans[..spans.len().min(cap)];
    let selfs = self_times(spans);
    let us = |ns: u64| Value::Float(ns as f64 / 1e3);
    let events: Vec<Value> = spans
        .iter()
        .zip(&selfs)
        .map(|(s, &self_ns)| {
            let mut args = vec![
                ("req".to_string(), Value::UInt(s.req)),
                ("self_us".to_string(), us(self_ns)),
            ];
            if !s.tag.is_empty() {
                args.push(("tag".to_string(), Value::Str(s.tag.to_string())));
            }
            if s.count > 0 {
                args.push(("count".to_string(), Value::UInt(s.count)));
            }
            if let Some(p) = s.parent {
                args.push(("parent".to_string(), Value::Str(spans[p].name.to_string())));
            }
            Value::Object(vec![
                ("name".to_string(), Value::Str(s.name.to_string())),
                ("cat".to_string(), Value::Str("wlp".to_string())),
                ("ph".to_string(), Value::Str("X".to_string())),
                ("ts".to_string(), us(s.start_ns)),
                ("dur".to_string(), us(s.dur_ns())),
                ("pid".to_string(), Value::UInt(1)),
                ("tid".to_string(), Value::UInt(u64::from(s.tid))),
                ("args".to_string(), Value::Object(args)),
            ])
        })
        .collect();
    let doc = Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(events)),
        ("displayTimeUnit".to_string(), Value::Str("ns".to_string())),
        ("otherData".to_string(), Value::Object(meta)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json::to_string(&doc))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "x",
            tag: "",
            count: 0,
            start_ns,
            end_ns,
            parent,
            req: 0,
            tid: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 40, Some(0)),  // overlaps the first child
            span(90, 120, Some(0)), // clipped to the parent
            span(12, 15, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 30 - 10, 20 - 3, 20, 30, 3]);
    }

    #[test]
    fn recorder_rebases_parents_and_disabled_keeps_nothing() {
        let log = SpanLog::default();
        for req in 0..2 {
            let mut rec = Recorder::new(Some(&log), req, 0);
            let root = rec.open("root", None);
            rec.time("child", Some(root), || ());
            rec.close(root, "", 0);
        }
        Recorder::new(None, 9, 0).time("ignored", None, || ());
        let spans = log.take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[3].req, 1);
    }
}
