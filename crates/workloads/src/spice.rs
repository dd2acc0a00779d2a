//! SPICE `LOAD` loop 40: loading capacitor device models (Figure 6).
//!
//! The loop traverses a linked list of capacitor models, evaluating each
//! device and accumulating its companion-model contributions into
//! per-device slots. The dispatcher is a general recurrence (the list
//! pointer), the terminator is remainder-invariant (`tmp ≠ null`), and the
//! iterations are independent — Table 2's "no backups or time-stamps"
//! row. The paper measured General-1 at 2.9× and General-3 at 4.9× on 8
//! processors; ~40% of SPICE's sequential time sits in loops of this
//! shape (LOAD and the BJT/MOSFET model loops share it).

use crossbeam::atomic::AtomicCell;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wlp_core::general::{
    general1, general2, general3, general3_recovering, GeneralConfig, GeneralOutcome,
};
use wlp_fault::FaultPlan;
use wlp_list::ListArena;
use wlp_obs::{NoopRecorder, Recorder};
use wlp_runtime::{Pool, Step};
use wlp_sim::{LoopSpec, Overheads};

/// A capacitor device model (a slice of what SPICE keeps per device).
#[derive(Debug, Clone, Copy)]
pub struct Capacitor {
    /// Device index (stable identity for output slots).
    pub id: usize,
    /// Capacitance (farads).
    pub capacitance: f64,
    /// Voltage across the device at the previous timepoint.
    pub v_prev: f64,
    /// Charge state at the previous timepoint.
    pub q_prev: f64,
}

/// Companion-model contributions produced by evaluating one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stamp {
    /// Equivalent conductance `g_eq = C/Δt`.
    pub geq: f64,
    /// Equivalent current `i_eq = g_eq·v − dq/dt`.
    pub ieq: f64,
}

/// Evaluates one capacitor with backward-Euler integration — the `WORK`
/// of the loop body. A small fixed iteration count stands in for the
/// per-device model arithmetic SPICE performs.
pub fn evaluate(dev: &Capacitor, dt: f64) -> Stamp {
    let geq = dev.capacitance / dt;
    let q_new = dev.capacitance * dev.v_prev;
    let mut ieq = geq * dev.v_prev - (q_new - dev.q_prev) / dt;
    // model refinement sweeps (charge conservation / limiting), giving the
    // body enough arithmetic to be worth parallelizing
    for _ in 0..8 {
        ieq = 0.5 * (ieq + (geq * dev.v_prev - (q_new - dev.q_prev) / dt));
    }
    Stamp { geq, ieq }
}

/// Builds a device list of `n` capacitors with a shuffled memory layout
/// (heap-allocated list nodes are not contiguous in a real SPICE run).
pub fn build_device_list(n: usize, seed: u64) -> ListArena<Capacitor> {
    let mut rng = StdRng::seed_from_u64(seed);
    ListArena::from_values_shuffled(
        (0..n).map(|id| Capacitor {
            id,
            capacitance: rng.gen_range(1e-12..1e-9),
            v_prev: rng.gen_range(-5.0..5.0),
            q_prev: rng.gen_range(-1e-9..1e-9),
        }),
        seed,
    )
}

/// Sequential reference: the untransformed WHILE loop.
pub fn load_sequential(list: &ListArena<Capacitor>, dt: f64) -> Vec<Stamp> {
    let mut out = vec![Stamp { geq: 0.0, ieq: 0.0 }; list.len()];
    for (_, dev) in list.iter() {
        out[dev.id] = evaluate(dev, dt);
    }
    out
}

/// Which parallelization to use for [`load_parallel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// General-1 (locks).
    General1,
    /// General-2 (static).
    General2,
    /// General-3 (dynamic, no locks).
    General3,
}

/// Parallel LOAD via the chosen General method. Iterations write disjoint
/// slots, so plain atomic cells carry the output.
pub fn load_parallel(
    pool: &Pool,
    list: &ListArena<Capacitor>,
    dt: f64,
    method: Method,
) -> (Vec<Stamp>, GeneralOutcome) {
    let out: Vec<AtomicCell<Stamp>> = (0..list.len())
        .map(|_| AtomicCell::new(Stamp { geq: 0.0, ieq: 0.0 }))
        .collect();
    let body = |_i: usize, node: wlp_list::NodeId| {
        let dev = &list[node];
        out[dev.id].store(evaluate(dev, dt));
        Step::Continue
    };
    let cfg = GeneralConfig::default();
    let outcome = match method {
        Method::General1 => general1(pool, list, cfg, &NoopRecorder, body),
        Method::General2 => general2(pool, list, cfg, body),
        Method::General3 => general3(pool, list, cfg, &NoopRecorder, body),
    };
    (out.into_iter().map(|c| c.load()).collect(), outcome)
}

/// Parallel LOAD under fault injection: General-3 wrapped in the paper's
/// Section 5 exception rule. `plan` injects its fault into the loop body
/// (the injection point reports vpn 0, so use vpn-unconstrained plans); a
/// contained worker panic triggers a guarded sequential re-execution —
/// sound here because each body writes only its own device's output slot —
/// and the abort is recorded on `rec` as an exception [`wlp_obs::Event::SpecAbort`].
/// The returned stamps therefore match the sequential reference even when
/// the fault fires.
pub fn load_parallel_recovering<R: Recorder>(
    pool: &Pool,
    list: &ListArena<Capacitor>,
    dt: f64,
    plan: &FaultPlan,
    rec: &R,
) -> (Vec<Stamp>, GeneralOutcome) {
    let out: Vec<AtomicCell<Stamp>> = (0..list.len())
        .map(|_| AtomicCell::new(Stamp { geq: 0.0, ieq: 0.0 }))
        .collect();
    let outcome = general3_recovering(pool, list, GeneralConfig::default(), rec, |i, node| {
        let _ = plan.inject(i, 0);
        let dev = &list[node];
        out[dev.id].store(evaluate(dev, dt));
        Step::Continue
    });
    (out.into_iter().map(|c| c.load()).collect(), outcome)
}

/// The simulator view of this loop: `n` devices, uniform model-evaluation
/// bodies, RI (null) terminator, one write + a few reads per iteration.
///
/// The paper notes "the body in Loop 40 does little work", which is what
/// makes General-1's critical section the bottleneck: the lock hold
/// (acquire + `next()` + null test) is sized at roughly half the body, so
/// General-1's throughput caps near `(work + hold)/hold ≈ 2.8` — the 2.9×
/// saturation of Figure 6 — while the lock-free methods keep scaling.
pub fn sim_spec(n: usize) -> (LoopSpec, Overheads) {
    let spec = LoopSpec::uniform(n, 40).with_accesses(|_| 2, |_| 4);
    let oh = Overheads {
        t_lock: 11,
        ..Overheads::default()
    };
    (spec, oh)
}

/// A bipolar-junction transistor model (the `BJT` subroutine's per-device
/// state). Its evaluation is much heavier than a capacitor's — companion
/// models require exponentials and a Newton–Raphson refinement.
#[derive(Debug, Clone, Copy)]
pub struct Bjt {
    /// Device index.
    pub id: usize,
    /// Saturation current.
    pub is_sat: f64,
    /// Forward beta.
    pub beta_f: f64,
    /// Base–emitter voltage at the previous iterate.
    pub v_be: f64,
}

/// A MOSFET model (the `MOSFET` subroutine's per-device state).
#[derive(Debug, Clone, Copy)]
pub struct Mosfet {
    /// Device index.
    pub id: usize,
    /// Threshold voltage.
    pub vt0: f64,
    /// Transconductance parameter × W/L.
    pub kp: f64,
    /// Gate–source voltage at the previous iterate.
    pub v_gs: f64,
    /// Drain–source voltage at the previous iterate.
    pub v_ds: f64,
}

/// Any device the LOAD loop can encounter — "the structure of Loop 40 is
/// identical to those for the evaluation of transistor models (subroutines
/// BJT and MOSFET), \[so\] the same parallelization techniques can also be
/// used on these loops".
#[derive(Debug, Clone, Copy)]
pub enum Device {
    /// A linear capacitor.
    Capacitor(Capacitor),
    /// A bipolar transistor.
    Bjt(Bjt),
    /// A MOS transistor.
    Mosfet(Mosfet),
}

impl Device {
    /// Stable output-slot index.
    pub fn id(&self) -> usize {
        match self {
            Device::Capacitor(d) => d.id,
            Device::Bjt(d) => d.id,
            Device::Mosfet(d) => d.id,
        }
    }
}

/// Evaluates a BJT with a short Newton–Raphson limiting loop (the heavy
/// body of the transistor-model subroutines).
pub fn evaluate_bjt(dev: &Bjt) -> Stamp {
    const VT: f64 = 0.02585; // thermal voltage
    let mut v = dev.v_be;
    // junction-voltage limiting: a few N-R iterates on i(v) = Is(e^{v/Vt}−1)
    for _ in 0..4 {
        let i = dev.is_sat * ((v / VT).exp() - 1.0);
        let g = (dev.is_sat / VT) * (v / VT).exp();
        v -= (i - dev.beta_f * 1e-6) / g.max(1e-12);
        v = v.clamp(-5.0, 0.9);
    }
    let geq = (dev.is_sat / VT) * (v / VT).exp();
    let ieq = dev.is_sat * ((v / VT).exp() - 1.0) - geq * v;
    Stamp { geq, ieq }
}

/// Evaluates a MOSFET with the level-1 square-law model.
pub fn evaluate_mosfet(dev: &Mosfet) -> Stamp {
    let vov = dev.v_gs - dev.vt0;
    let (i_d, gm) = if vov <= 0.0 {
        (0.0, 0.0)
    } else if dev.v_ds < vov {
        // triode
        let i = dev.kp * (vov * dev.v_ds - 0.5 * dev.v_ds * dev.v_ds);
        (i, dev.kp * dev.v_ds)
    } else {
        // saturation
        (0.5 * dev.kp * vov * vov, dev.kp * vov)
    };
    Stamp {
        geq: gm.max(1e-12),
        ieq: i_d - gm * dev.v_gs,
    }
}

/// Evaluates any device.
pub fn evaluate_device(dev: &Device, dt: f64) -> Stamp {
    match dev {
        Device::Capacitor(d) => evaluate(d, dt),
        Device::Bjt(d) => evaluate_bjt(d),
        Device::Mosfet(d) => evaluate_mosfet(d),
    }
}

/// Builds a mixed netlist: roughly 50% capacitors, 25% BJTs, 25% MOSFETs,
/// shuffled in memory like any heap-allocated device list.
pub fn build_netlist(n: usize, seed: u64) -> ListArena<Device> {
    let mut rng = StdRng::seed_from_u64(seed);
    ListArena::from_values_shuffled(
        (0..n).map(|id| match id % 4 {
            0 | 1 => Device::Capacitor(Capacitor {
                id,
                capacitance: rng.gen_range(1e-12..1e-9),
                v_prev: rng.gen_range(-5.0..5.0),
                q_prev: rng.gen_range(-1e-9..1e-9),
            }),
            2 => Device::Bjt(Bjt {
                id,
                is_sat: rng.gen_range(1e-16..1e-14),
                beta_f: rng.gen_range(50.0..300.0),
                v_be: rng.gen_range(0.4..0.8),
            }),
            _ => Device::Mosfet(Mosfet {
                id,
                vt0: rng.gen_range(0.3..0.9),
                kp: rng.gen_range(1e-5..5e-4),
                v_gs: rng.gen_range(0.0..3.0),
                v_ds: rng.gen_range(0.0..3.0),
            }),
        }),
        seed,
    )
}

/// Sequential reference over a mixed netlist.
pub fn load_netlist_sequential(list: &ListArena<Device>, dt: f64) -> Vec<Stamp> {
    let mut out = vec![Stamp { geq: 0.0, ieq: 0.0 }; list.len()];
    for (_, dev) in list.iter() {
        out[dev.id()] = evaluate_device(dev, dt);
    }
    out
}

/// Parallel LOAD over a mixed netlist via the chosen General method —
/// heterogeneous bodies are where General-3's dynamic balancing earns its
/// keep over General-2's static assignment.
pub fn load_netlist_parallel(
    pool: &Pool,
    list: &ListArena<Device>,
    dt: f64,
    method: Method,
) -> (Vec<Stamp>, GeneralOutcome) {
    let out: Vec<AtomicCell<Stamp>> = (0..list.len())
        .map(|_| AtomicCell::new(Stamp { geq: 0.0, ieq: 0.0 }))
        .collect();
    let body = |_i: usize, node: wlp_list::NodeId| {
        let dev = &list[node];
        out[dev.id()].store(evaluate_device(dev, dt));
        Step::Continue
    };
    let cfg = GeneralConfig::default();
    let outcome = match method {
        Method::General1 => general1(pool, list, cfg, &NoopRecorder, body),
        Method::General2 => general2(pool, list, cfg, body),
        Method::General3 => general3(pool, list, cfg, &NoopRecorder, body),
    };
    (out.into_iter().map(|c| c.load()).collect(), outcome)
}

/// Simulator view of the *mixed* netlist: per-iteration work follows the
/// device class (capacitors are light, BJTs heavy, MOSFETs in between),
/// using the same 2:1:1 interleave as [`build_netlist`]. Heterogeneous
/// bodies are what separate the static and dynamic General methods.
pub fn sim_spec_mixed(n: usize) -> (LoopSpec, Overheads) {
    let spec = LoopSpec::uniform(n, 0)
        .with_work(|i| match i % 4 {
            0 | 1 => 35, // capacitor
            2 => 140,    // BJT: exponentials + N-R limiting
            _ => 70,     // MOSFET
        })
        .with_accesses(|_| 2, |_| 4);
    let oh = Overheads {
        t_lock: 11,
        ..Overheads::default()
    };
    (spec, oh)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn all_methods_match_sequential() {
        let list = build_device_list(500, 42);
        let seq = load_sequential(&list, 1e-6);
        let pool = Pool::new(4);
        for method in [Method::General1, Method::General2, Method::General3] {
            let (par, outcome) = load_parallel(&pool, &list, 1e-6, method);
            assert_eq!(outcome.iterations, 500, "{method:?}");
            assert_eq!(outcome.quit, None, "RI terminator never quits early");
            for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
                assert!(
                    close(s.geq, p.geq) && close(s.ieq, p.ieq),
                    "{method:?} device {i}"
                );
            }
        }
    }

    #[test]
    fn evaluation_is_deterministic() {
        let dev = Capacitor {
            id: 0,
            capacitance: 1e-10,
            v_prev: 2.0,
            q_prev: 1e-10,
        };
        assert_eq!(evaluate(&dev, 1e-6), evaluate(&dev, 1e-6));
    }

    #[test]
    fn device_list_is_seed_stable() {
        let a = build_device_list(100, 7);
        let b = build_device_list(100, 7);
        for ((_, x), (_, y)) in a.iter().zip(b.iter()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.capacitance, y.capacitance);
        }
    }

    #[test]
    fn hop_accounting_differs_between_methods() {
        let list = build_device_list(200, 1);
        let pool = Pool::new(4);
        let (_, g1) = load_parallel(&pool, &list, 1e-6, Method::General1);
        let (_, g2) = load_parallel(&pool, &list, 1e-6, Method::General2);
        assert_eq!(g1.hops, 200, "General-1 walks the list once");
        assert!(g2.hops > g1.hops, "General-2 walks it per processor");
    }

    #[test]
    fn mixed_netlist_methods_match_sequential() {
        let list = build_netlist(600, 9);
        let seq = load_netlist_sequential(&list, 1e-6);
        let pool = Pool::new(4);
        for method in [Method::General1, Method::General2, Method::General3] {
            let (par, outcome) = load_netlist_parallel(&pool, &list, 1e-6, method);
            assert_eq!(outcome.iterations, 600, "{method:?}");
            for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
                assert!(
                    close(s.geq, p.geq) && close(s.ieq, p.ieq),
                    "{method:?} device {i}"
                );
            }
        }
    }

    #[test]
    fn device_mix_has_all_three_kinds() {
        let list = build_netlist(100, 3);
        let (mut caps, mut bjts, mut fets) = (0, 0, 0);
        for (_, d) in list.iter() {
            match d {
                Device::Capacitor(_) => caps += 1,
                Device::Bjt(_) => bjts += 1,
                Device::Mosfet(_) => fets += 1,
            }
        }
        assert_eq!((caps, bjts, fets), (50, 25, 25));
    }

    #[test]
    fn bjt_limiting_converges_to_finite_stamp() {
        let d = Bjt {
            id: 0,
            is_sat: 1e-15,
            beta_f: 100.0,
            v_be: 0.7,
        };
        let s = evaluate_bjt(&d);
        assert!(s.geq.is_finite() && s.geq > 0.0);
        assert!(s.ieq.is_finite());
    }

    #[test]
    fn mosfet_regions_are_covered() {
        // cutoff
        let s = evaluate_mosfet(&Mosfet {
            id: 0,
            vt0: 1.0,
            kp: 1e-4,
            v_gs: 0.5,
            v_ds: 1.0,
        });
        assert_eq!(s.ieq, 0.0);
        // triode: v_ds < v_ov
        let s = evaluate_mosfet(&Mosfet {
            id: 0,
            vt0: 0.5,
            kp: 1e-4,
            v_gs: 2.0,
            v_ds: 0.5,
        });
        assert!(s.geq > 0.0);
        // saturation: v_ds ≥ v_ov
        let s = evaluate_mosfet(&Mosfet {
            id: 0,
            vt0: 0.5,
            kp: 1e-4,
            v_gs: 1.0,
            v_ds: 2.0,
        });
        assert!(s.geq > 0.0);
    }

    #[test]
    fn injected_panic_recovers_to_the_sequential_answer() {
        use wlp_obs::{BufferRecorder, ProfileReport};
        let list = build_device_list(400, 11);
        let seq = load_sequential(&list, 1e-6);
        let pool = Pool::new(4);
        let plan = FaultPlan::panic_at(200);
        let rec = BufferRecorder::new(4);
        let (par, outcome) = load_parallel_recovering(&pool, &list, 1e-6, &plan, &rec);
        assert!(plan.fired(), "the fault must actually fire");
        assert!(outcome.recovered, "recovery path must run");
        assert!(outcome.panic.is_some());
        assert_eq!(outcome.iterations, 400, "recovery re-executes everything");
        for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
            assert!(close(s.geq, p.geq) && close(s.ieq, p.ieq), "device {i}");
        }
        let report = ProfileReport::from_trace(&rec.finish());
        assert_eq!(report.spec_aborts, 1);
        assert_eq!(report.aborts_exception, 1);
        assert_eq!(report.aborts_dependence, 0);
    }

    #[test]
    fn clean_runs_pass_through_the_recovery_wrapper() {
        let list = build_device_list(300, 5);
        let seq = load_sequential(&list, 1e-6);
        let pool = Pool::new(4);
        let plan = FaultPlan::none();
        let (par, outcome) =
            load_parallel_recovering(&pool, &list, 1e-6, &plan, &wlp_obs::NoopRecorder);
        assert!(!outcome.recovered);
        assert!(outcome.panic.is_none());
        assert_eq!(outcome.iterations, 300);
        for (i, (s, p)) in seq.iter().zip(&par).enumerate() {
            assert!(close(s.geq, p.geq) && close(s.ieq, p.ieq), "device {i}");
        }
    }

    #[test]
    fn corrupted_device_list_reports_divergence_not_a_hang() {
        let mut list = build_device_list(200, 8);
        wlp_fault::corrupt_list_cycle(&mut list, 99).expect("list long enough");
        let pool = Pool::new(4);
        let plan = FaultPlan::none();
        let (_, outcome) =
            load_parallel_recovering(&pool, &list, 1e-6, &plan, &wlp_obs::NoopRecorder);
        let d = outcome.diverged.expect("cycle must be detected");
        assert!(d.cycle || d.steps >= d.budget, "{d:?}");
    }

    #[test]
    fn empty_netlist() {
        let list = build_device_list(0, 1);
        let pool = Pool::new(2);
        let (out, outcome) = load_parallel(&pool, &list, 1e-6, Method::General3);
        assert!(out.is_empty());
        assert_eq!(outcome.iterations, 0);
    }
}
