//! Large-scale run: the paper's 500-client AWS-style experiment shape
//! (Fig. 7) on the FEMNIST-like 62-class task.
//!
//! By default runs a 100-client slice so it finishes in well under a
//! minute; pass `--full` for the 500-client version.
//!
//! ```text
//! cargo run --release --example large_scale [-- --full]
//! ```

use fedat::core::prelude::*;
use fedat::data::suite;
use fedat::sim::fleet::ClusterConfig;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let clients = if full { 500 } else { 100 };
    let rounds = if full { 500 } else { 200 };
    let task = suite::femnist_like(clients, 21);
    println!(
        "task: {} — {} clients, {} classes, {} train samples",
        task.name,
        task.fed.num_clients(),
        task.fed.classes,
        task.fed.total_train_samples()
    );

    let mut cluster = ClusterConfig::paper_large(21).with_clients(clients);
    cluster.n_unstable = cluster.n_unstable.min(clients / 10);

    for strategy in [
        StrategyKind::FedAt,
        StrategyKind::TiFL,
        StrategyKind::AsoFed,
    ] {
        // FedAT tier updates advance the global model by one tier at a
        // time, so it earns a proportionally larger update budget within
        // the same horizon: the strategies are compared at equal virtual
        // time, not at an equal update count.
        let cfg = ExperimentConfig::builder()
            .strategy(strategy)
            .rounds(match strategy {
                StrategyKind::FedAt => rounds * 3,
                _ => rounds / 3,
            })
            .max_time(2500.0)
            .clients_per_round(10)
            .eval_every(10)
            .seed(21)
            .cluster(cluster.clone())
            .build();
        let out = run_experiment(&task, &cfg);
        let up = out.trace.points.last().map(|p| p.up_bytes).unwrap_or(0);
        println!(
            "{:8}: best acc {:.4} | {:5} updates | {:7.1} MB uploaded | t→{:.2}: {}",
            strategy.name(),
            out.best_accuracy(),
            out.global_updates,
            up as f64 / 1e6,
            task.target_accuracy,
            out.trace
                .time_to_accuracy(task.target_accuracy)
                .map(|t| format!("{t:.0}s"))
                .unwrap_or_else(|| "not reached".into()),
        );
    }
}
