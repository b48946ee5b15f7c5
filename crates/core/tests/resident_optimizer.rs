//! `train_client` keeps one optimizer per thread and only `reset`s it
//! between dispatches. A chain of dispatches on this thread — different
//! clients, an architecture switch (the optimizer's buffers meet
//! parameters of other shapes), a learning-rate switch (rebuild) — must
//! equal, bit for bit, the same dispatches each run on a thread of its own,
//! whose thread-locals are new: a freshly built model and optimizer. The
//! chain visits every `ModelSpec` family under both learning rates, so a
//! layer with state `set_weights` does not reset would fail here.
#![expect(
    clippy::disallowed_methods,
    reason = "R4: a fresh thread is the reference this test compares the resident optimizer against"
)]

use fedat_core::config::{ExperimentConfig, OptimizerKind};
use fedat_core::local::{train_client, LocalUpdate};
use fedat_data::suite::{self, FedTask};
use fedat_nn::models::ModelSpec;
use std::sync::Arc;

fn dispatch(task: &FedTask, client: usize, cfg: &ExperimentConfig, round: u64) -> LocalUpdate {
    let global: Arc<[f32]> = task.model.build(1).weights().into();
    train_client(task, client, &global, cfg, 2, round, true)
}

#[test]
fn resident_optimizer_matches_fresh_ones_exactly() {
    let adam = ExperimentConfig::builder().seed(3).batch_size(8).build();
    assert_eq!(adam.optimizer, OptimizerKind::Adam { lr: 0.003 });
    let mut fast = adam.clone();
    fast.optimizer = OptimizerKind::Adam { lr: 0.05 };
    let logistic = suite::sent140_like(6, 3);
    let cnn = suite::cifar10_like(4, 2, 3);
    let mut mlp = suite::cifar10_like(4, 2, 3);
    mlp.model = ModelSpec::Mlp {
        input: cnn.fed.clients[0].train.features(),
        hidden: vec![24],
        classes: 10,
    };
    let lstm = suite::reddit_like(4, 3);
    let mut cnn_paper = suite::cifar10_like(4, 2, 3);
    cnn_paper.model = ModelSpec::CnnPaper {
        channels: 3,
        height: 8,
        width: 8,
        classes: 10,
    };
    let chain = [
        (&logistic, 0, &adam),
        (&logistic, 1, &adam),
        (&mlp, 2, &adam),
        (&logistic, 2, &adam),
        (&cnn, 1, &adam),
        (&mlp, 3, &fast),
        (&mlp, 0, &fast),
        (&mlp, 1, &adam),
        (&lstm, 0, &adam),
        (&cnn_paper, 2, &adam),
        (&lstm, 1, &fast),
        (&cnn, 3, &fast),
        (&cnn_paper, 0, &fast),
        (&logistic, 3, &fast),
        (&lstm, 2, &adam),
    ];
    for (i, &(task, client, cfg)) in chain.iter().enumerate() {
        let resident = dispatch(task, client, cfg, i as u64);
        let fresh = std::thread::scope(|s| {
            s.spawn(|| dispatch(task, client, cfg, i as u64))
                .join()
                .expect("fresh-thread dispatch panicked")
        });
        let bits = |w: &[f32]| -> Vec<u32> { w.iter().map(|v| v.to_bits()).collect() };
        assert_eq!(
            bits(&fresh.weights),
            bits(&resident.weights),
            "dispatch {i}"
        );
    }
}
