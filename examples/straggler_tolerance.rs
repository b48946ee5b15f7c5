//! Straggler tolerance: FedAvg vs FedAT on the same cluster with the
//! paper's injected delays (0 … 30 s) and unstable clients, plus FedAT's
//! per-tier update counts — the wait-free cross-tier asynchrony, counted.
//!
//! ```text
//! cargo run --release --example straggler_tolerance
//! ```

use fedat::core::prelude::*;
use fedat::data::suite;

fn main() {
    let task = suite::sent140_like(60, 11);
    let horizon = 1200.0;

    println!("=== virtual cluster: FedAvg vs FedAT under stragglers ===");
    for (strategy, rounds) in [(StrategyKind::FedAvg, 60u64), (StrategyKind::FedAt, 400)] {
        let cfg = ExperimentConfig::builder()
            .strategy(strategy)
            .rounds(rounds)
            .max_time(horizon)
            .clients_per_round(6)
            .eval_every(10)
            .seed(11)
            .build();
        let out = run_experiment(&task, &cfg);
        println!(
            "{:8}: best acc {:.4} | {} global updates in {:.0} virtual s | t→{:.2}: {}",
            strategy.name(),
            out.best_accuracy(),
            out.global_updates,
            out.report.end_time,
            task.target_accuracy,
            out.trace
                .time_to_accuracy(task.target_accuracy)
                .map(|t| format!("{t:.0}s"))
                .unwrap_or_else(|| "not reached".into()),
        );
        // No tier waits at another tier's barrier: a fast tier banks as
        // many updates as its own latency allows instead of idling until
        // the slowest client of a cross-tier cohort reports.
        if let Some(tiers) = out.tier_updates {
            println!("          tier update counts {tiers:?} (fast → slow)");
            assert!(
                tiers.first() > tiers.last(),
                "the fastest tier must out-update the slowest"
            );
        }
    }
}
