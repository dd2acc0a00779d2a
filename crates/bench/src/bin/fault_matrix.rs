//! CI fault-matrix runner: one process per (mode, seed) batch.
//!
//! ```text
//! cargo run -p wlp-bench --release --bin fault-matrix -- stall 0 1 2
//! cargo run -p wlp-bench --release --bin fault-matrix -- all 7
//! ```
//!
//! Modes: `panic`, `stall`, `hog`, `cycle`, or `all`. Every cell runs the
//! seeded fault end to end through the threaded runtime and verifies the
//! robustness contract (sequential-equivalent result, correctly
//! attributed abort, conservation laws, pool reusability); any violation
//! exits non-zero so the CI job fails loudly.

use wlp_bench::run_fault_mode;
use wlp_fault::FaultMode;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode_arg, seed_args) = match args.split_first() {
        Some(x) => x,
        None => {
            eprintln!("usage: fault-matrix <panic|stall|hog|cycle|all> <seed>...");
            std::process::exit(2);
        }
    };
    let modes: Vec<FaultMode> = if mode_arg == "all" {
        vec![
            FaultMode::Panic,
            FaultMode::Stall,
            FaultMode::Hog,
            FaultMode::Cycle,
        ]
    } else {
        match FaultMode::parse(mode_arg) {
            Some(m) => vec![m],
            None => {
                eprintln!("unknown fault mode `{mode_arg}`");
                std::process::exit(2);
            }
        }
    };
    let seeds: Vec<u64> = seed_args
        .iter()
        .map(|s| {
            s.parse().unwrap_or_else(|_| {
                eprintln!("bad seed `{s}`");
                std::process::exit(2);
            })
        })
        .collect();
    if seeds.is_empty() {
        eprintln!("at least one seed required");
        std::process::exit(2);
    }

    println!("mode/seed      abort       correct  pool-reusable");
    let mut failed = false;
    for mode in modes {
        for &seed in &seeds {
            match run_fault_mode(mode, seed) {
                Ok(row) => print!("{row}"),
                Err(e) => {
                    eprintln!("FAIL {e}");
                    failed = true;
                }
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
