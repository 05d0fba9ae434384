//! Mapper scaling experiment: sweep Q∈{4..64} × D∈{2..16} cost matrices,
//! plus templated pools (k∈{2,3,4} distinct rows at Q∈{16,32,64} ×
//! D∈{3,4}), through greedy, greedy+local-search, and the adaptive budgeted
//! exact mapper; report decision cost (nodes, host wall time) and solution
//! quality, and enforce the scaling claims (adaptive ≤ greedy everywhere,
//! adaptive == enumerated optimum and no budget trip where enumeration is
//! feasible, bounded per-decision wall time at Q=64, D=16 where exact
//! search is infeasible).
//!
//! Writes `results/mapper_scaling.csv`.
//!
//! Usage: `cargo run --release -p multicl-bench --bin mapper_scaling
//!         [--smoke] [SEED]`
//!
//! `--smoke` runs the reduced CI grid (Q≤16, D≤4) plus one templated point
//! (Q=32, D=4, k=2).

use multicl_bench::experiments::mapper_scaling;
use multicl_bench::{print_table, write_report};
use std::time::Duration;

/// Per-decision host wall-clock ceiling asserted over the sweep. The
/// default adaptive node budget finishes in well under this on any modern
/// machine in a release build; debug builds get 10× slack.
fn wall_budget() -> Duration {
    if cfg!(debug_assertions) {
        Duration::from_millis(2_500)
    } else {
        Duration::from_millis(250)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed: u64 =
        args.iter().filter(|a| *a != "--smoke").find_map(|s| s.parse().ok()).unwrap_or(42);

    let points = mapper_scaling::run(smoke, seed);
    let table = mapper_scaling::table(&points);
    print_table(&table);

    if let Some(top) = points.iter().max_by_key(|p| (p.queues, p.devices)) {
        println!(
            "largest point Q={} D={}: adaptive decision in {:?} ({} nodes, tripped: {}), \
             exhaustive space {}",
            top.queues,
            top.devices,
            top.wall,
            top.nodes,
            top.tripped,
            match top.space {
                Some(s) => format!("{s:e}"),
                None => "beyond u128".to_string(),
            },
        );
    }

    if let Err(violation) = mapper_scaling::verify(&points, wall_budget()) {
        eprintln!("mapper_scaling FAILED: {violation}");
        std::process::exit(1);
    }
    println!("all points verified: adaptive ≤ greedy, exact where enumerable, wall within budget");

    if let Some(path) = write_report("mapper_scaling.csv", &table.to_csv()) {
        println!("wrote {}", path.display());
    }
}
