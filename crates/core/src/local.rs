//! Client-side local training (Algorithm 2 inner loop).
//!
//! This is the hottest path in the whole system: every simulated dispatch
//! of every strategy funnels through [`train_client`]. Five things keep it
//! cheap:
//!
//! * **Model reuse** — simulated clients are stateless between rounds, so
//!   the (expensive, RNG-driven) model construction is hoisted into a
//!   thread-local cache keyed by [`fedat_nn::models::ModelSpec`]; each dispatch just loads
//!   the downloaded weights with `set_weights`.
//! * **A resident optimizer** — the built optimizer stays in a thread-local
//!   next to the cached model and is `reset` per dispatch: a fresh one bit
//!   for bit, without allocating, zeroing and freeing its moments per
//!   client. Gradients are zero at rest between the two
//!   (`fedat_nn::optim`), so a dispatch never clears them either.
//! * **Zero-copy globals** — the downloaded weights arrive as a shared
//!   `Arc<[f32]>` (one decoded broadcast per tier round) and the proximal
//!   term holds the same `Arc` instead of cloning the full vector.
//! * **Scratch batches** — mini-batches are gathered into recycled
//!   scratch-arena storage, and each epoch's row order and each batch's
//!   labels go into buffers resident on the thread, so a steady-state
//!   dispatch allocates once: the weight vector it returns.
//! * **Speculative execution** — [`train_client`] is pure in its arguments,
//!   so strategies wrap each dispatch in a [`TrainJob`] and launch it on
//!   the kernel pool *at dispatch time* ([`TrainHandle::launch`]); the
//!   event loop joins the finished result when the completion event fires.
//!   See [`crate::exec`] for the job cap and the determinism argument.

use crate::config::ExperimentConfig;
use crate::config::OptimizerKind;
use fedat_data::suite::FedTask;
use fedat_nn::model::Model;
use fedat_nn::optim::{Optimizer, ProxTerm};
use fedat_tensor::rng::{rng_for, tags};
use std::sync::Arc;

/// Everything one client dispatch needs to train, owned (`'static`) so the
/// job can run on any pool worker. The model itself stays shared: `task`
/// and the downloaded `global` weights are `Arc`s, and `cfg` is the
/// server's shared config handle — building a job copies pointers, not
/// tensors.
pub struct TrainJob {
    /// The federated task (model spec + client datasets).
    pub task: Arc<fedat_data::suite::FedTask>,
    /// Client id.
    pub client: usize,
    /// The (post-roundtrip) downloaded global weights.
    pub global: Arc<[f32]>,
    /// Experiment configuration (seed, optimizer, batch size, λ).
    pub cfg: Arc<ExperimentConfig>,
    /// Local epochs for this dispatch.
    pub epochs: usize,
    /// The client's selection counter at dispatch (fixes its batch
    /// schedule).
    pub selection_round: u64,
    /// Whether the Eq. (3) proximal constraint applies.
    pub use_prox: bool,
}

impl TrainJob {
    /// Runs the job to completion on the calling thread.
    pub fn run(&self) -> LocalUpdate {
        train_client(
            &self.task,
            self.client,
            &self.global,
            &self.cfg,
            self.epochs,
            self.selection_round,
            self.use_prox,
        )
    }
}

/// An in-flight client training computation, created at dispatch: a pool
/// job, running (or queued) unless the run's job cap is 0, in which case it
/// trains when joined — at the completion event that calls
/// [`TrainHandle::join`].
pub struct TrainHandle(Option<fedat_tensor::pool::JobHandle<LocalUpdate>>);

impl TrainHandle {
    /// Submits `job` to the kernel pool under the calling thread's kernel
    /// overlay — the run's, so concurrent runs cannot cross-talk.
    pub fn launch(job: TrainJob) -> TrainHandle {
        TrainHandle(Some(fedat_tensor::pool::submit(move || job.run())))
    }

    /// Returns the training result, blocking only if the job is mid-run on
    /// a worker (an unstarted job is stolen and run inline — the pool's
    /// steal-on-join contract — so this never deadlocks).
    pub fn join(mut self) -> LocalUpdate {
        self.0.take().expect("train handle already consumed").join()
    }
}

impl Drop for TrainHandle {
    /// A handle dropped unjoined — the client dropped out or missed its
    /// deadline, or the run stopped with clients in flight — cancels its
    /// job: one that has not started yet is reclaimed unexecuted, costing
    /// nothing; one already running (or finished) completes on its worker
    /// and the result is dropped.
    fn drop(&mut self) {
        if let Some(handle) = self.0.take() {
            handle.cancel();
        }
    }
}

/// The result a client uploads after local training.
#[derive(Clone, Debug)]
pub struct LocalUpdate {
    /// New local weights `w_k^{t+1}` (flattened).
    pub weights: Vec<f32>,
    /// Local sample count `n_k` (the aggregation weight).
    pub n_samples: usize,
}

/// Runs `epochs` epochs of mini-batch training on `client`'s local data,
/// starting from the downloaded `global` weights.
///
/// The mini-batch order is a fixed pseudo-random function of
/// `(seed, client, selection_round)`, matching the paper's fixed schedules
/// (§6: "each client, once selected, would follow a fixed, pseudo-random
/// mini-batch schedule").
///
/// `use_prox` applies the Eq. (3) constraint `λ/2‖w − w_global‖²` around the
/// *downloaded* global model. The `Arc` is shared into the prox term —
/// no copy of the global vector is made.
pub fn train_client(
    task: &FedTask,
    client: usize,
    global: &Arc<[f32]>,
    cfg: &ExperimentConfig,
    epochs: usize,
    selection_round: u64,
    use_prox: bool,
) -> LocalUpdate {
    // The model cache is shared with the pooled evaluators. Reuse is
    // behavior-neutral: every weight is overwritten by `set_weights` before
    // training, and none of the spec-built architectures carry
    // non-parameter state across batches — an invariant documented on
    // `ModelSpec::build` and pinned (for the dense and conv families) by
    // `model_reuse_matches_fresh_builds_exactly`.
    fedat_nn::models::with_cached_model(&task.model, cfg.seed, |model| {
        with_resident_optimizer(cfg.optimizer, |opt| {
            run_local_epochs(
                model,
                opt,
                task,
                client,
                global,
                cfg,
                epochs,
                selection_round,
                use_prox,
            )
        })
    })
}

thread_local! {
    /// The optimizer this thread's last dispatch trained with.
    static OPTIMIZER: std::cell::RefCell<Option<(OptimizerKind, Box<dyn Optimizer>)>> =
        const { std::cell::RefCell::new(None) };
    /// The row-order and label buffers of this thread's last dispatch,
    /// reused by the next (taken out for the run, put back after it).
    static BATCH_BUFFERS: std::cell::Cell<(Vec<usize>, Vec<u32>)> =
        const { std::cell::Cell::new((Vec::new(), Vec::new())) };
}

/// Runs `f` with this thread's resident optimizer, `reset` (built first,
/// when the thread has none of this `kind`). Same discipline as
/// [`fedat_nn::models::with_cached_model`]: taken out for the closure, put
/// back after it, so a panic inside `f` drops a half-stepped optimizer with
/// its model instead of returning it to the thread.
fn with_resident_optimizer<R>(kind: OptimizerKind, f: impl FnOnce(&mut dyn Optimizer) -> R) -> R {
    let mut opt = match OPTIMIZER.take() {
        Some((resident, opt)) if resident == kind => opt,
        _ => kind.build(),
    };
    opt.reset();
    let result = f(opt.as_mut());
    OPTIMIZER.set(Some((kind, opt)));
    result
}

/// The local-training inner loop, on whichever model instance and (fresh
/// or reset) optimizer [`train_client`] handed over.
#[allow(
    clippy::too_many_arguments,
    reason = "one private call site passes train_client's arguments through"
)]
fn run_local_epochs(
    model: &mut dyn Model,
    opt: &mut dyn Optimizer,
    task: &FedTask,
    client: usize,
    global: &Arc<[f32]>,
    cfg: &ExperimentConfig,
    epochs: usize,
    selection_round: u64,
    use_prox: bool,
) -> LocalUpdate {
    let data = &task.fed.clients[client].train;
    model.set_weights(global.as_ref());
    let prox = if use_prox && cfg.lambda > 0.0 {
        Some(ProxTerm::new(cfg.lambda, Arc::clone(global)))
    } else {
        None
    };
    let mut batch_rng = rng_for(
        cfg.seed ^ ((client as u64) << 16) ^ selection_round.wrapping_mul(0x2545_F491),
        tags::BATCHES,
    );
    // The first epoch reads every row in shuffled order: ask for them all
    // now, not one cache miss at a time.
    fedat_tensor::simd::prefetch(data.x.data());
    let (mut order, mut labels) = BATCH_BUFFERS.take();
    for _ in 0..epochs.max(1) {
        data.shuffled_rows_into(&mut batch_rng, &mut order);
        for batch in order.chunks(cfg.batch_size) {
            let x = data.gather_batch_into(batch, &mut labels);
            model.train_batch(&x, &labels, opt, prox.as_ref());
            x.recycle();
        }
    }
    BATCH_BUFFERS.set((order, labels));
    LocalUpdate {
        weights: model.weights(),
        n_samples: data.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;
    use fedat_data::suite;
    use fedat_tensor::ops::dist_sq;

    fn tiny_task() -> FedTask {
        suite::sent140_like(6, 3)
    }

    fn cfg() -> ExperimentConfig {
        ExperimentConfig::builder().seed(3).batch_size(8).build()
    }

    fn global_of(task: &FedTask, seed: u64) -> Arc<[f32]> {
        task.model.build(seed).weights().into()
    }

    #[test]
    fn training_changes_weights_and_counts_samples() {
        let task = tiny_task();
        let global = global_of(&task, 1);
        let up = train_client(&task, 0, &global, &cfg(), 2, 0, false);
        assert_eq!(up.weights.len(), global.len());
        assert!(dist_sq(&up.weights, &global) > 0.0, "weights did not move");
        assert!(up.weights.iter().all(|w| w.is_finite()));
        assert_eq!(up.n_samples, task.fed.clients[0].train.len());
    }

    #[test]
    fn same_selection_round_is_deterministic() {
        let task = tiny_task();
        let global = global_of(&task, 1);
        let a = train_client(&task, 1, &global, &cfg(), 2, 5, true);
        let b = train_client(&task, 1, &global, &cfg(), 2, 5, true);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn model_reuse_matches_fresh_builds_exactly() {
        // The thread-local model cache must be invisible to results — for
        // the dense (logistic) and conv (CNN) model families.
        for task in [tiny_task(), suite::cifar10_like(4, 2, 3)] {
            let global = global_of(&task, 1);
            let (mut m, mut o) = (task.model.build(cfg().seed), cfg().optimizer.build());
            let (m, o) = (m.as_mut(), o.as_mut());
            let fresh = run_local_epochs(m, o, &task, 1, &global, &cfg(), 2, 5, true);
            let warm1 = train_client(&task, 1, &global, &cfg(), 2, 5, true);
            // Second reuse pass exercises the cache-hit path.
            let warm2 = train_client(&task, 1, &global, &cfg(), 2, 5, true);
            assert_eq!(fresh.weights, warm1.weights, "{}", task.name);
            assert_eq!(warm1.weights, warm2.weights, "{}", task.name);
        }
    }

    #[test]
    fn different_selection_rounds_differ() {
        let task = tiny_task();
        let global = global_of(&task, 1);
        let a = train_client(&task, 1, &global, &cfg(), 2, 5, false);
        let b = train_client(&task, 1, &global, &cfg(), 2, 6, false);
        assert_ne!(a.weights, b.weights, "batch schedule should vary by round");
    }

    #[test]
    fn prox_reduces_drift_from_global() {
        let task = tiny_task();
        let global = global_of(&task, 1);
        let mut c = cfg();
        c.lambda = 5.0; // strong pull for an unambiguous test
        let with_prox = train_client(&task, 2, &global, &c, 3, 0, true);
        c.lambda = 0.0;
        let without = train_client(&task, 2, &global, &c, 3, 0, true);
        let d_prox = dist_sq(&with_prox.weights, &global);
        let d_free = dist_sq(&without.weights, &global);
        assert!(
            d_prox < d_free,
            "prox run drifted {d_prox} ≥ unconstrained {d_free}"
        );
    }

    #[test]
    fn more_epochs_more_progress() {
        let task = tiny_task();
        let global = global_of(&task, 1);
        let short = train_client(&task, 3, &global, &cfg(), 1, 0, false);
        let long = train_client(&task, 3, &global, &cfg(), 6, 0, false);
        // Longer training should end with (weakly) lower loss on the
        // client's own rows on this convex task.
        let data = &task.fed.clients[3].train;
        let loss = |up: &LocalUpdate| {
            let mut model = task.model.build(0);
            model.set_weights(&up.weights);
            model.evaluate(&data.x, &data.y).loss
        };
        assert!(loss(&long) <= loss(&short) + 0.05);
    }

    #[test]
    fn steady_state_training_is_allocation_free() {
        // After a warm-up dispatch, further dispatches of the same client
        // must not miss the scratch arena (i.e. perform no tensor
        // allocations) — on the dense (logistic) and the conv (CNN) family,
        // whose column matrices, pooling indices and non-zero lists are
        // per-batch buffers too. `crates/nn/tests/alloc_steady_state.rs`
        // watches the allocator itself for what never goes through the
        // arena.
        for task in [tiny_task(), suite::cifar10_like(4, 2, 3)] {
            let global = global_of(&task, 1);
            for round in 0..3 {
                let _ = train_client(&task, 1, &global, &cfg(), 2, round, true);
            }
            let before = fedat_tensor::scratch::alloc_misses();
            for round in 3..8 {
                let _ = train_client(&task, 1, &global, &cfg(), 2, round, true);
            }
            assert_eq!(
                fedat_tensor::scratch::alloc_misses(),
                before,
                "{}: steady-state dispatches must not allocate tensors",
                task.name
            );
        }
    }
}
