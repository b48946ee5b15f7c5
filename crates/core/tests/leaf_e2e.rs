//! End-to-end regression for loader-built tasks: a FEMNIST-shaped fixture
//! is generated on disk by the LEAF writer, parsed back, and trained under
//! FedAT — and the whole run must be **bit-identical** across the
//! execution settings, extending the sweep contract of
//! `strategy_behavior.rs` from synthetic tasks to the disk-loaded
//! natural-partition path.

mod common;

use common::{sweep, SHORT};
use fedat_core::prelude::*;
use fedat_data::leaf::{writer, LeafBenchmark};
use fedat_data::suite::FedTask;
use fedat_sim::fleet::ClusterConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new() -> Self {
        static N: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "fedat-leaf-e2e-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn leaf_loaded_fedat_run_is_bit_identical_across_exec_and_simd_modes() {
    let tmp = TempDir::new();
    let written = writer::write_femnist_fixture(&tmp.0, 5, 8, 31).expect("write fixture");
    let task = FedTask::from_leaf_dir(&tmp.0, LeafBenchmark::femnist(), 31).expect("load fixture");

    // The on-disk round trip itself must be bitwise before training: any
    // drift here would masquerade as an execution-mode bug below.
    assert_eq!(task.fed.num_clients(), written.fed.num_clients());
    for (a, b) in task.fed.clients.iter().zip(written.fed.clients.iter()) {
        assert_eq!(a.train.x.data(), b.train.x.data());
        assert_eq!(a.train.y, b.train.y);
        assert_eq!(a.test.x.data(), b.test.x.data());
    }

    let cluster = ClusterConfig::paper_medium(31)
        .with_clients(task.fed.num_clients())
        .without_dropouts();
    let cfg = ExperimentConfig::builder()
        .strategy(StrategyKind::FedAt)
        .rounds(8)
        .clients_per_round(2)
        .local_epochs(1)
        .eval_every(2)
        .eval_subset(32) // capped → exercises the shuffled-subset path
        .seed(31)
        .cluster(cluster)
        .build();

    let base = sweep("FedAT on LEAF", &task, &cfg, SHORT);
    assert!(
        !base.trace.points.is_empty(),
        "the run must record a trace to pin"
    );
    assert!(base.final_weights.iter().all(|w| w.is_finite()));
}

#[test]
fn every_strategy_trains_on_a_leaf_loaded_task() {
    // The loader-built natural partition (uneven per-user sizes) must be a
    // first-class citizen of the whole strategy zoo, not just FedAT.
    let tmp = TempDir::new();
    writer::write_femnist_fixture(&tmp.0, 6, 8, 17).expect("write fixture");
    let task = Arc::new(
        FedTask::from_leaf_dir(&tmp.0, LeafBenchmark::femnist(), 17).expect("load fixture"),
    );
    let cluster = ClusterConfig::paper_medium(17)
        .with_clients(task.fed.num_clients())
        .without_dropouts();
    for strategy in StrategyKind::all() {
        let cfg = ExperimentConfig::builder()
            .strategy(strategy)
            .rounds(4)
            .clients_per_round(2)
            .local_epochs(1)
            .eval_every(4)
            .eval_subset(16)
            .seed(17)
            .cluster(cluster.clone())
            .build();
        let out = run_experiment_shared(&task, &cfg);
        assert!(
            out.global_updates > 0,
            "{} performed no updates on the LEAF task",
            strategy.name()
        );
        assert!(
            out.final_weights.iter().all(|w| w.is_finite()),
            "{} produced non-finite weights",
            strategy.name()
        );
        assert_eq!(out.per_client_accuracy.len(), task.fed.num_clients());
    }
}
