//! Large-cohort server-path demo: FedAT on the 500-client × large-model
//! cohort, where the server's aggregation (`weighted_sum_into` over the
//! model dimension in cache-sized shards) and evaluation are a large share
//! of the work. Client training runs as kernel-pool jobs; evaluation is
//! pipelined as one more job beside them.
//!
//! By default runs a 100-client slice so it finishes in well under a
//! minute; pass `--full` for the 500-client version. Either way the run is
//! bit-identical for any pool worker count.
//!
//! ```text
//! cargo run --release --example large_cohort [-- --full]
//! ```

// This example reports the run's wall-clock time — the R4 clippy mirror
// (docs/LINTS.md) does not apply to demonstration timing.
#![allow(clippy::disallowed_methods)]

use fedat::core::prelude::*;
use fedat::data::federated::FederatedDataset;
use fedat::data::partition::Partitioner;
use fedat::data::suite::FedTask;
use fedat::data::synth::{synth_features, FeatureSynthSpec};
use fedat::nn::models::ModelSpec;
use fedat::sim::fleet::ClusterConfig;
use fedat::tensor::rng::{rng_for, tags};

/// `n_clients` Dirichlet-skewed feature clients (500 at full scale — the
/// paper's AWS-style cohort size) under a wide two-layer MLP (~33 k
/// weights), sized so the *server* dominates: every tier arrival
/// re-aggregates hundreds of ~33 k-weight updates and the evaluation
/// cadence sweeps thousands of test rows.
fn large_cohort_task(n_clients: usize, seed: u64) -> FedTask {
    let mut rng = rng_for(seed.wrapping_add(7), tags::DATA);
    let spec = FeatureSynthSpec {
        features: 64,
        classes: 62,
        separation: 0.8,
        noise: 1.0,
    };
    let pool = synth_features(&mut rng, &spec, n_clients * 40);
    let parts = Partitioner::Dirichlet { alpha: 0.3 }.partition(&pool, n_clients, &mut rng);
    let fed = FederatedDataset::from_partitions(parts, seed.wrapping_add(7));
    FedTask {
        name: format!("large-cohort({n_clients})"),
        fed,
        model: ModelSpec::Mlp {
            input: 64,
            hidden: vec![128, 128],
            classes: 62,
        },
        target_accuracy: 0.5,
    }
}

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let clients = if full { 500 } else { 100 };
    let rounds = if full { 120 } else { 40 };

    let task = large_cohort_task(clients, 21);
    println!(
        "task: {} — {} clients, {} classes, {} train samples, {} test rows",
        task.name,
        task.fed.num_clients(),
        task.fed.classes,
        task.fed.total_train_samples(),
        task.fed.global_test.len()
    );

    let mut cluster = ClusterConfig::paper_large(21).with_clients(clients);
    cluster.n_unstable = cluster.n_unstable.min(clients / 10);
    let cfg = ExperimentConfig::builder()
        .strategy(StrategyKind::FedAt)
        .rounds(rounds)
        .clients_per_round(10)
        .local_epochs(1)
        .eval_every(5)
        .eval_subset(512)
        .seed(21)
        .cluster(cluster)
        .build();

    let started = std::time::Instant::now();
    let outcome = run_experiment(&task, &cfg);
    let secs = started.elapsed().as_secs_f64();

    println!(
        "{} global updates in {:.1}s wall ({:.1} updates/s), best accuracy {:.3}",
        outcome.global_updates,
        secs,
        outcome.global_updates as f64 / secs.max(1e-9),
        outcome.best_accuracy()
    );
    println!(
        "accuracy variance over {} clients: {:.5}",
        outcome.per_client_accuracy.len(),
        outcome.accuracy_variance
    );
    println!(
        "training and eval ran as jobs on {} pool worker(s) beside the event loop",
        fedat::tensor::pool::worker_count()
    );
}
