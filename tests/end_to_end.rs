//! Cross-crate integration: the compiler-side plan drives the runtime-side
//! execution, end to end, for the paper's loop shapes.

use std::sync::atomic::{AtomicU64, Ordering};
use wlp::core::general::{general3, GeneralConfig};
use wlp::core::speculate::{speculative_while, SpeculativeArray};
use wlp::core::taxonomy::TerminatorClass;
use wlp::ir::ir::examples;
use wlp::ir::{plan, StrategyKind};
use wlp::list::ListArena;
use wlp::runtime::{ChunkPolicy, NoopRecorder, Pool, Step};

#[test]
fn planned_general3_executes_list_loop_correctly() {
    // compiler side: Figure 1(b) plans to General-3 without undo machinery
    let p = plan(&examples::figure1b_list_traversal());
    assert_eq!(p.strategy, StrategyKind::General3);
    assert!(!p.needs_undo);

    // runtime side: execute exactly that plan
    let list = ListArena::from_values_shuffled(0..10_000u64, 9);
    let expect: u64 = list.iter().map(|(_, &v)| v * 3).sum();
    for workers in [1, 2, 4, 8] {
        let pool = Pool::new(workers);
        let total = AtomicU64::new(0);
        let out = general3(
            &pool,
            &list,
            GeneralConfig::default(),
            &NoopRecorder,
            |_i, node| {
                total.fetch_add(list[node] * 3, Ordering::Relaxed);
                Step::Continue
            },
        );
        assert_eq!(out.iterations, 10_000);
        assert_eq!(total.load(Ordering::Relaxed), expect, "p = {workers}");
    }
}

#[test]
fn planned_speculation_executes_track_loop_correctly() {
    // compiler side: the TRACK shape needs the PD test and undo
    let p = plan(&examples::track_style_unknown());
    assert_eq!(p.strategy, StrategyKind::InductionDoall);
    assert!(p.needs_pd_test);
    assert!(p.needs_undo);
    assert_eq!(p.terminator, TerminatorClass::RemainderVariant);

    // runtime side: a subscripted-subscript loop with an RV exit
    let n = 3000usize;
    let idx: Vec<usize> = (0..n).map(|i| (i * 7919) % n).collect(); // permutation (7919 coprime)
    let arr = SpeculativeArray::new(vec![1.0f64; n]);
    let pool = Pool::new(4);
    let out = speculative_while(
        &pool,
        n,
        ChunkPolicy::One,
        &arr,
        &NoopRecorder,
        |i, a| a.read(idx[i]) < 0.0 || i >= 2500,
        |i, a| {
            let v = a.read(idx[i]);
            a.write(idx[i], v * 2.0);
        },
    );
    assert!(out.committed_parallel, "{:?}", out.verdict);
    assert_eq!(out.last_valid, Some(2500));
    let snap = arr.snapshot();
    let doubled = snap.iter().filter(|&&v| v == 2.0).count();
    assert_eq!(
        doubled, 2500,
        "exactly the valid iterations' writes survive"
    );
}

#[test]
fn provable_recurrence_is_planned_sequential_and_stays_correct() {
    let p = plan(&examples::figure5c_recurrence());
    assert_eq!(p.strategy, StrategyKind::Sequential);
    // the speculation driver still yields the right answer if someone
    // ignores the plan and speculates anyway — it just falls back
    let n = 100usize;
    let arr = SpeculativeArray::new(vec![1i64; n]);
    let pool = Pool::new(4);
    let out = speculative_while(
        &pool,
        n - 1,
        ChunkPolicy::One,
        &arr,
        &NoopRecorder,
        |_, _| false,
        |i, a| {
            let s = a.read(i) + a.read(i + 1);
            a.write(i + 1, s);
        },
    );
    assert!(out.reexecuted_sequentially);
    let snap = arr.snapshot();
    for (i, v) in snap.iter().enumerate() {
        assert_eq!(*v, (i + 1) as i64, "prefix-sum semantics at {i}");
    }
}

#[test]
fn full_spice_pipeline_across_pool_widths() {
    use wlp::workloads::spice::{build_device_list, load_parallel, load_sequential, Method};
    let list = build_device_list(5_000, 31);
    let reference = load_sequential(&list, 1e-6);
    for workers in [1, 3, 8] {
        let pool = Pool::new(workers);
        for m in [Method::General1, Method::General2, Method::General3] {
            let (stamps, _) = load_parallel(&pool, &list, 1e-6, m);
            for (i, (a, b)) in stamps.iter().zip(&reference).enumerate() {
                assert!(
                    (a.ieq - b.ieq).abs() < 1e-9 && (a.geq - b.geq).abs() < 1e-9,
                    "{m:?} p={workers} device {i}"
                );
            }
        }
    }
}

#[test]
fn ma28_factorization_stays_consistent_under_parallel_search() {
    use wlp::sparse::gen::gemat_like;
    use wlp::sparse::EliminationWork;
    use wlp::workloads::ma28;
    let m = gemat_like(300, 1900, 8);
    let mut work = EliminationWork::from_csr(&m);
    ma28::pre_eliminate_singletons(&mut work, 0.1);
    let pool = Pool::new(8);
    for step in 0..40 {
        let (seq, _) = ma28::loop270_sequential(&work, 0.1);
        let (par, _) = ma28::loop270_parallel(&pool, &work, 0.1);
        assert_eq!(seq, par, "step {step}");
        match seq {
            Some(sp) => {
                work.eliminate(sp.pivot.row, sp.pivot.col);
            }
            None => break,
        }
    }
}

#[test]
fn parallel_pivot_factorization_solves_exactly() {
    use wlp::sparse::gen::stencil7;
    use wlp::sparse::{factorize, factorize_with};
    use wlp::workloads::ma28::loop270_parallel;
    let m = stencil7(6, 6, 2, 3);
    let pool = Pool::new(4);
    let lu_par = factorize_with(&m, |work| {
        loop270_parallel(&pool, work, 0.1).0.map(|sp| sp.pivot)
    })
    .unwrap();
    let lu_seq = factorize(&m, 0.1).unwrap();
    let x_true: Vec<f64> = (0..m.n_rows()).map(|i| (i % 5) as f64 - 2.0).collect();
    let b = m.spmv(&x_true);
    // sequential consistency: the two factorizations solve identically
    let xp = lu_par.solve(&b);
    let xs = lu_seq.solve(&b);
    for i in 0..m.n_rows() {
        assert!((xp[i] - xs[i]).abs() < 1e-12, "row {i}");
        assert!((xp[i] - x_true[i]).abs() < 1e-8, "row {i}");
    }
}

#[test]
fn mcsparse_doany_always_returns_a_valid_pivot() {
    use wlp::sparse::gen::saylr_like;
    use wlp::sparse::EliminationWork;
    use wlp::workloads::mcsparse;
    let work = EliminationWork::from_csr(&saylr_like(77));
    for workers in [1, 2, 8] {
        let pool = Pool::new(workers);
        let (p, _) = mcsparse::dfact_doany(&pool, &work, 0.1, 16);
        let p = p.expect("a pivot exists");
        assert!(mcsparse::acceptable(&p, 16));
        assert!(work.get(p.row, p.col).is_some());
    }
}
