//! The two fully asynchronous baselines, as mixing rules for the
//! arrival-triggered server.
//!
//! * **FedAsync** (Xie et al., 2019): each arriving update is mixed into
//!   the global model with a staleness-attenuated weight
//!   `α_t = α · s(staleness)`, where `s` is one of the
//!   [`StalenessFn`] families from the FedAsync paper (polynomial
//!   `a = 0.5` by default). Clients train unconstrained.
//! * **ASO-Fed** (Chen et al., 2019): the server keeps a *copy of each
//!   client's latest weights* and the global model is the `n_k/N`-weighted
//!   average of all copies, so one client's stale update cannot yank the
//!   global model. Clients train with a local constraint (the same prox
//!   form FedAT adopts).

use crate::config::ExperimentConfig;
use crate::staleness::StalenessFn;
use crate::strategies::arrival::Mixer;
use fedat_data::suite::FedTask;
use fedat_tensor::ops::lerp_into;

/// FedAsync's staleness-discounted interpolation.
pub(crate) struct FedAsync {
    alpha: f32,
    staleness: StalenessFn,
}

impl FedAsync {
    pub fn new(cfg: &ExperimentConfig) -> Self {
        FedAsync {
            alpha: cfg.fedasync_alpha,
            staleness: cfg.fedasync_staleness,
        }
    }
}

impl Mixer for FedAsync {
    fn use_prox(&self) -> bool {
        false
    }

    fn absorb(&mut self, global: &mut Vec<f32>, _client: usize, weights: Vec<f32>, staleness: u64) {
        // `lerp_into` shards the sweep across the kernel pool with the
        // vectorized inner loop (bit-identical for any kernel/thread count;
        // pinned by `fedasync_mixing_is_bit_identical_across_simd_and_threads`).
        lerp_into(
            global,
            &weights,
            self.alpha * self.staleness.factor(staleness),
        );
    }
}

/// ASO-Fed's per-client server copies.
pub(crate) struct AsoFed {
    /// Each client's latest weights on the server (`w⁰` until it reports).
    copies: Vec<Vec<f32>>,
    /// `n_k / N` aggregation weight per client.
    client_weight: Vec<f32>,
}

impl AsoFed {
    pub fn new(task: &FedTask, cfg: &ExperimentConfig) -> Self {
        let total = task.fed.total_train_samples();
        let sizes = task.fed.client_sizes();
        AsoFed {
            copies: vec![task.model.build(cfg.seed).weights(); sizes.len()],
            client_weight: sizes.iter().map(|&n| n as f32 / total as f32).collect(),
        }
    }
}

impl Mixer for AsoFed {
    fn use_prox(&self) -> bool {
        true
    }

    /// Replaces the client's copy and updates the global average
    /// incrementally: `w ← w + (n_c/N)·(w_c_new − w_c_old)`. Staleness
    /// plays no part: a copy is only ever as stale as its own client.
    fn absorb(&mut self, global: &mut Vec<f32>, client: usize, weights: Vec<f32>, _: u64) {
        let wc = self.client_weight[client];
        for ((g, old), new) in global
            .iter_mut()
            .zip(self.copies[client].iter())
            .zip(weights.iter())
        {
            *g += wc * (new - old);
        }
        self.copies[client] = weights;
    }
}
