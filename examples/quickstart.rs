//! Quickstart: parallelize a WHILE loop over a linked list.
//!
//! The loop of the paper's Figure 1(b): traverse a list, do independent
//! work per node, stop at null. The dispatcher (the list pointer) is a
//! general recurrence, so the loop runs with General-3 — dynamic
//! self-scheduling, no locks, no backups, no time-stamps.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::atomic::{AtomicU64, Ordering};
use wlp::core::general::{general1, general3, GeneralConfig};
use wlp::list::ListArena;
use wlp::runtime::{NoopRecorder, Pool, Step};

fn main() {
    // A linked list whose nodes are scattered in memory (as heap-allocated
    // nodes would be), holding 100k work items.
    let n = 100_000u64;
    let list = ListArena::from_values_shuffled(0..n, 42);

    // The per-node work: some arithmetic into a disjoint output slot.
    let out: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let body = |_iteration: usize, node: wlp::list::NodeId| {
        let v = list[node];
        let mut acc = v;
        for _ in 0..32 {
            acc = acc
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        out[v as usize].store(acc, Ordering::Relaxed);
        Step::Continue
    };

    let pool = Pool::new(8);

    let t0 = std::time::Instant::now();
    let g3 = general3(&pool, &list, GeneralConfig::default(), &NoopRecorder, body);
    let t_g3 = t0.elapsed();

    let t0 = std::time::Instant::now();
    let g1 = general1(&pool, &list, GeneralConfig::default(), &NoopRecorder, body);
    let t_g1 = t0.elapsed();

    println!(
        "General-3 (dynamic, no locks): {} iterations, {} hops, {t_g3:?}",
        g3.iterations, g3.hops
    );
    println!(
        "General-1 (lock around next): {} iterations, {} hops, {t_g1:?}",
        g1.iterations, g1.hops
    );
    assert_eq!(g3.iterations as u64, n);
    assert_eq!(g1.hops, n, "General-1 traverses the list exactly once");

    // Every node was processed exactly once, wherever it lived in memory.
    let processed = out
        .iter()
        .filter(|c| c.load(Ordering::Relaxed) != 0)
        .count();
    println!("processed {processed}/{n} nodes");
}
