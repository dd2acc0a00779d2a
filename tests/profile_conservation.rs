//! Conservation laws of the observability layer, across both execution
//! domains.
//!
//! Every `ProfileReport` must satisfy, regardless of strategy and domain:
//!
//! * per processor, `busy + lock_wait + idle == makespan`;
//! * `committed + undone == executed`.
//!
//! Checked here for Induction-1, General-3 and the speculative driver on
//! the threaded runtime (nanosecond traces) and on the deterministic
//! simulator (cycle traces).

use std::sync::atomic::{AtomicU64, Ordering};
use wlp::core::general::{general3, GeneralConfig};
use wlp::core::induction::induction1;
use wlp::core::speculate::{speculative_while, SpeculativeArray};
use wlp::list::ListArena;
use wlp::obs::{BufferRecorder, ProfileReport, Trace};
use wlp::runtime::{ChunkPolicy, Pool, Step};
use wlp::sim::spec::TerminatorKind;
use wlp::sim::{
    sim_general3_traced, sim_induction_doall_traced, ExecConfig, LoopSpec, Overheads, Schedule,
};

const P: usize = 4;

fn checked(trace: &Trace) -> ProfileReport {
    let r = ProfileReport::from_trace(trace);
    r.check_conservation()
        .unwrap_or_else(|e| panic!("conservation violated: {e}"));
    r
}

#[test]
fn threaded_induction1_conserves() {
    let pool = Pool::new(P);
    let work: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
    let rec = BufferRecorder::new(P);
    let out = induction1(
        &pool,
        1000,
        &rec,
        |i| i >= 600,
        |i, _| {
            work[i].fetch_add(1, Ordering::Relaxed);
        },
    );
    let r = checked(&rec.finish());
    assert_eq!(out.last_valid, Some(600));
    assert_eq!(r.executed, out.executed);
    assert_eq!(
        r.committed, r.executed,
        "no speculation: everything is kept"
    );
    assert_eq!(r.claimed, 1000, "Induction-1 claims the full range");
}

#[test]
fn threaded_general3_conserves() {
    let pool = Pool::new(P);
    let list = ListArena::from_values_shuffled(0u64..800, 11);
    let rec = BufferRecorder::new(P);
    let out = general3(&pool, &list, GeneralConfig::default(), &rec, |i, _| {
        if i >= 500 {
            Step::Quit
        } else {
            Step::Continue
        }
    });
    let r = checked(&rec.finish());
    assert_eq!(r.executed, out.iterations as u64);
    assert!(r.quits >= 1, "the QUIT broadcast is recorded");
    assert!(r.hops >= 499, "catch-up traffic is recorded: {}", r.hops);
}

#[test]
fn threaded_speculation_conserves_on_commit_and_abort() {
    let pool = Pool::new(P);

    // commit with overshoot: exit at 80 of 600
    let arr = SpeculativeArray::new(vec![0i64; 600]);
    let rec = BufferRecorder::new(P);
    speculative_while(
        &pool,
        600,
        ChunkPolicy::One,
        &arr,
        &rec,
        |i, _| i == 80,
        |i, a| a.write(i, 1),
    );
    let r = checked(&rec.finish());
    assert_eq!(r.spec_commits, 1);
    assert_eq!(r.committed, 80);
    assert_eq!(
        r.undone,
        r.executed - 80,
        "overshoot is the discarded share"
    );

    // abort on a genuine flow dependence: everything is discarded
    let n = 64usize;
    let arr = SpeculativeArray::new(vec![1i64; n + 1]);
    let rec = BufferRecorder::new(P);
    speculative_while(
        &pool,
        n,
        ChunkPolicy::One,
        &arr,
        &rec,
        |i, _| i >= n,
        |i, a| {
            let left = a.read(i);
            a.write(i + 1, left + 1);
        },
    );
    let r = checked(&rec.finish());
    assert_eq!(r.spec_aborts, 1);
    assert_eq!(r.committed, 0);
    assert_eq!(r.undone, r.executed);
    assert_eq!(r.spec_success_rate(), Some(0.0));
}

#[test]
fn simulated_induction1_conserves() {
    let spec = LoopSpec::uniform(1000, 30).with_exit(600, TerminatorKind::RemainderVariant);
    let cfg = ExecConfig::with_undo(1000);
    let (report, trace) =
        sim_induction_doall_traced(P, &spec, &Overheads::default(), &cfg, Schedule::Dynamic);
    let r = checked(&trace);
    assert_eq!(
        r.makespan, report.makespan,
        "trace and report share one clock"
    );
    assert_eq!(r.executed, report.executed);
    assert_eq!(r.committed + r.undone, r.executed);
    assert!(r.backup_elems > 0, "the checkpoint volume is charged");
}

#[test]
fn simulated_general3_conserves() {
    let spec = LoopSpec::uniform(2000, 25);
    let (report, trace) = sim_general3_traced(P, &spec, &Overheads::default(), &ExecConfig::bare());
    let r = checked(&trace);
    assert_eq!(r.makespan, report.makespan);
    assert_eq!(r.executed, 2000);
    for (proc, pp) in r.procs.iter().enumerate() {
        assert_eq!(
            pp.busy, report.busy[proc],
            "event costs account for every busy cycle"
        );
    }
}

#[test]
fn simulated_speculation_conserves() {
    // full speculation machinery: backups, stamps, PD shadow + analysis
    let spec = LoopSpec::uniform(1500, 40).with_exit(900, TerminatorKind::RemainderVariant);
    let cfg = ExecConfig::with_pd(1500);
    let (report, trace) =
        sim_induction_doall_traced(P, &spec, &Overheads::default(), &cfg, Schedule::Dynamic);
    let r = checked(&trace);
    assert_eq!(r.spec_commits, 1, "the PD-validated run commits");
    assert_eq!(r.committed + r.undone, r.executed);
    assert_eq!(r.executed, report.executed);
    assert!(r.pd_analyzed > 0, "analysis volume is charged (Ta)");
    assert_eq!(r.spec_success_rate(), Some(1.0));
}
