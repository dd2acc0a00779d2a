//! The `paper-kernels` workload: the paper's three executors driven
//! directly on a resident `Pool` of width 2, each checked against its
//! sequential reference.
//!
//! * SPICE LOAD — `spice::load_parallel` (General-3 over a `wlp-list`
//!   linked list);
//! * TRACK — `TrackInstance::run_parallel` (speculative DOALL, PD test,
//!   undo of the iterations past the error exit);
//! * wavefront fission — `fission_plan` plus `run_certified_blocks`
//!   (a DOACROSS pipeline whose grain the governor tunes).
//!
//! One "request" of this workload is one cycle of the three kernels.

use crate::gen::{Rng, Template};
use crate::trace::Recorder;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::{Duration, Instant};
use wlp_analyze::{fission_plan, run_certified_blocks, FissionPlan};
use wlp_core::speculate::SpecOutcome;
use wlp_fault::FaultPlan;
use wlp_ir::frontend::{lower, parse_program};
use wlp_list::ListArena;
use wlp_obs::{BufferRecorder, ProfileReport};
use wlp_runtime::{Governor, GovernorPolicy, Pool};
use wlp_workloads::spice::{self, Capacitor, Stamp};
use wlp_workloads::track::TrackInstance;

/// SPICE devices per LOAD pass.
pub const SPICE_N: usize = 16384;
/// TRACK iterations (the error exit fires in the last quarter).
pub const TRACK_N: usize = 16384;
/// Wavefront iterations.
pub const FISSION_N: usize = 16384;
/// Pool width, the same as a service lane.
pub const WIDTH: usize = 2;
const DT: f64 = 1e-9;

/// Seeded kernel inputs and their sequential reference outputs.
pub struct Inputs {
    list: ListArena<Capacitor>,
    spice_ref: Vec<Stamp>,
    track: TrackInstance,
    track_ref: (Vec<f64>, Option<usize>),
    w: Vec<i64>,
    fission_ref: (Vec<i64>, Vec<i64>),
}

impl Inputs {
    pub fn generate(seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        let list = spice::build_device_list(SPICE_N, rng.next_u64());
        let exit_at = TRACK_N - 1 - rng.below(TRACK_N as u64 / 4) as usize;
        let track = TrackInstance::new(TRACK_N, exit_at, rng.next_u64());
        let w: Vec<i64> = (0..FISSION_N).map(|_| rng.below(100) as i64).collect();
        Inputs {
            spice_ref: spice::load_sequential(&list, DT),
            track_ref: track.run_sequential(),
            fission_ref: wavefront_sequential(&w),
            list,
            track,
            w,
        }
    }
}

/// The wavefront's variant constant: `C[i] = B[i - 1] + K`.
fn wavefront_k() -> i64 {
    Template::Wavefront.canonical_constant()
}

/// Native sequential wavefront: the reference the fission pipeline must
/// reproduce.
pub fn wavefront_sequential(w: &[i64]) -> (Vec<i64>, Vec<i64>) {
    let n = w.len();
    let (mut b, mut c) = (vec![0i64; n], vec![0i64; n]);
    for i in 1..n {
        b[i] = b[i - 1].wrapping_add(w[i]);
        c[i] = b[i - 1].wrapping_add(wavefront_k());
    }
    (b, c)
}

/// Counts one cycle reports for the per-layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleCounts {
    pub list_hops: u64,
    pub pd_executed_parallel: u64,
    pub core_undone: u64,
}

/// The resident kernel executor: pool, fission plan and grain governor.
pub struct Kernels {
    pool: Pool,
    plan: FissionPlan,
    governor: Governor,
}

impl Kernels {
    /// Spawns the pool, certifies the wavefront's fission plan and runs
    /// `warm` checked cycles.
    pub fn setup(inputs: &Inputs, warm: usize) -> Result<Kernels, String> {
        let program = parse_program(&Template::Wavefront.source(wavefront_k()))
            .map_err(|e| format!("{e:?}"))?;
        let body = lower(&program).map_err(|e| format!("{e:?}"))?;
        let plan = fission_plan(&body);
        if plan.stages() != 2 {
            return Err(format!(
                "wavefront fission has {} stages, expected 2",
                plan.stages()
            ));
        }
        let mut k = Kernels {
            pool: Pool::new(WIDTH),
            plan,
            governor: Governor::new(GovernorPolicy::default().with_grain(1, 64)),
        };
        for _ in 0..warm {
            k.cycle(inputs, &mut Recorder::new(None, 0, 0)).1?;
        }
        Ok(k)
    }

    /// One cycle: the three parallel kernels, timed as spans under one
    /// `cycle` root, then each output compared with its reference.
    /// Returns the kernels' wall time (the comparisons excluded).
    pub fn cycle(
        &mut self,
        inputs: &Inputs,
        rec: &mut Recorder,
    ) -> (Duration, Result<CycleCounts, String>) {
        let t0 = Instant::now();
        let root = rec.open("cycle", None);
        let (stamps, general) = rec.time("spice.par", Some(root), || {
            spice::load_parallel(&self.pool, &inputs.list, DT, spice::Method::General3)
        });
        let (state, spec) = rec.time("track.par", Some(root), || {
            inputs.track.run_parallel(&self.pool)
        });
        let (b, c) = rec.time("fission.par", Some(root), || {
            self.wavefront_parallel(&inputs.w)
        });
        rec.close(root, "", 0);
        let took = t0.elapsed();
        (
            took,
            check(inputs, &stamps, &state, &spec, (b, c), general.hops),
        )
    }

    /// Times each kernel's sequential reference as a root-level span.
    pub fn references(&self, inputs: &Inputs, rec: &mut Recorder) {
        rec.time("spice.seq", None, || {
            std::hint::black_box(spice::load_sequential(&inputs.list, DT))
        });
        rec.time("track.seq", None, || {
            std::hint::black_box(inputs.track.run_sequential())
        });
        rec.time("fission.seq", None, || {
            std::hint::black_box(wavefront_sequential(&inputs.w))
        });
    }

    /// Runs SPICE LOAD under a buffering recorder and returns its
    /// profile (chunk grants, busy time).
    pub fn spice_profile(&self, inputs: &Inputs) -> ProfileReport {
        let rec = BufferRecorder::new(WIDTH);
        let (stamps, _) =
            spice::load_parallel_recovering(&self.pool, &inputs.list, DT, &FaultPlan::none(), &rec);
        std::hint::black_box(stamps);
        ProfileReport::from_trace(&rec.finish())
    }

    fn wavefront_parallel(&mut self, w: &[i64]) -> (Vec<i64>, Vec<i64>) {
        let n = w.len();
        let b: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(0)).collect();
        let c: Vec<AtomicI64> = (0..n).map(|_| AtomicI64::new(0)).collect();
        let k = wavefront_k();
        // source iterations are 1..n; the pipeline counts from 0
        run_certified_blocks(
            &self.pool,
            &self.plan,
            n.saturating_sub(1),
            &mut self.governor,
            |it, block| {
                let i = it + 1;
                let prev = b[i - 1].load(Ordering::Relaxed);
                match block {
                    0 => b[i].store(prev.wrapping_add(w[i]), Ordering::Relaxed),
                    _ => c[i].store(prev.wrapping_add(k), Ordering::Relaxed),
                }
            },
        );
        (
            b.into_iter().map(AtomicI64::into_inner).collect(),
            c.into_iter().map(AtomicI64::into_inner).collect(),
        )
    }
}

fn check(
    inputs: &Inputs,
    stamps: &[Stamp],
    state: &[f64],
    spec: &SpecOutcome,
    bc: (Vec<i64>, Vec<i64>),
    hops: u64,
) -> Result<CycleCounts, String> {
    if stamps != inputs.spice_ref {
        return Err("spice: General-3 stamps differ from load_sequential".into());
    }
    if (state, spec.last_valid) != (&inputs.track_ref.0[..], inputs.track_ref.1) {
        return Err(format!(
            "track: parallel state/exit {:?} differ from run_sequential {:?}",
            spec.last_valid, inputs.track_ref.1
        ));
    }
    if bc != inputs.fission_ref {
        return Err("fission: DOACROSS wavefront differs from the sequential loop".into());
    }
    Ok(CycleCounts {
        list_hops: hops,
        pd_executed_parallel: spec.executed_parallel,
        core_undone: spec.undone as u64,
    })
}
