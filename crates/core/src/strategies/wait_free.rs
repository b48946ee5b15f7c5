//! The two fully asynchronous baselines, as wait-free lanes of the round
//! server: lane `c` holds client `c` alone, so every client trains
//! continuously — it downloads the current global model, trains, uploads,
//! and is re-dispatched the moment its update has been mixed. The server
//! talks to *all* clients all the time — the communication-bottleneck
//! pattern FedAT's §1 argues against. FedAT is the same driver with one
//! lane per tier.
//!
//! Neither method uses the round's aggregation rule: a lane's round has at
//! most one upload.

use crate::aggregate::AggRule;
use crate::config::ExperimentConfig;
use crate::staleness::StalenessFn;
use crate::strategies::round::{RoundPolicy, ServerView};
use fedat_data::suite::FedTask;
use fedat_tensor::ops::lerp_into;

/// How a wait-free method mixes one landed update into the global model.
pub(crate) enum WaitFree {
    /// **FedAsync** (Xie et al., 2019): the update is mixed in with a
    /// staleness-attenuated weight `α_t = α · s(staleness)`, where `s` is
    /// one of the [`StalenessFn`] families from the FedAsync paper
    /// (polynomial `a = 0.5` by default). Clients train unconstrained.
    FedAsync {
        clients: usize,
        alpha: f32,
        staleness: StalenessFn,
    },
    /// **ASO-Fed** (Chen et al., 2019): the server keeps a *copy of each
    /// client's latest weights* (`w⁰` until it reports) and the global model
    /// is the `n_k/N`-weighted average of all copies, so one client's stale
    /// update cannot yank the global model. Clients train with a local
    /// constraint (the same prox form FedAT adopts).
    AsoFed {
        copies: Vec<Vec<f32>>,
        /// `n_k / N` per client.
        client_weight: Vec<f32>,
    },
}

impl WaitFree {
    pub fn fedasync(cfg: &ExperimentConfig, clients: usize) -> Self {
        WaitFree::FedAsync {
            clients,
            alpha: cfg.fedasync_alpha,
            staleness: cfg.fedasync_staleness,
        }
    }

    pub fn asofed(task: &FedTask, cfg: &ExperimentConfig) -> Self {
        let total = task.fed.total_train_samples();
        let sizes = task.fed.client_sizes();
        WaitFree::AsoFed {
            copies: vec![task.model.build(cfg.seed).weights(); sizes.len()],
            client_weight: sizes.iter().map(|&n| n as f32 / total as f32).collect(),
        }
    }
}

impl RoundPolicy for WaitFree {
    fn lanes(&self) -> usize {
        match self {
            WaitFree::FedAsync { clients, .. } => *clients,
            WaitFree::AsoFed { copies, .. } => copies.len(),
        }
    }

    fn wait_free(&self) -> bool {
        true
    }

    fn select(
        &mut self,
        lane: usize,
        _view: &mut ServerView,
        pool: &mut Vec<usize>,
    ) -> Option<usize> {
        pool.push(lane);
        None
    }

    fn use_prox(&self) -> bool {
        matches!(self, WaitFree::AsoFed { .. })
    }

    fn mix(
        &mut self,
        client: usize,
        received: &[(Vec<f32>, usize)],
        staleness: u64,
        global: &mut Vec<f32>,
        _rule: AggRule,
    ) -> bool {
        let Some((weights, _)) = received.first() else {
            return false;
        };
        match self {
            // One vectorized sweep (bit-identical for any SIMD lane and
            // worker count; pinned by
            // `fedasync_mixing_is_bit_identical_across_simd_and_threads`).
            WaitFree::FedAsync {
                alpha,
                staleness: s,
                ..
            } => lerp_into(global, weights, *alpha * s.factor(staleness)),
            // Replaces the client's copy and updates the global average
            // incrementally: `w ← w + (n_c/N)·(w_c_new − w_c_old)`.
            // Staleness plays no part: a copy is only ever as stale as its
            // own client.
            WaitFree::AsoFed {
                copies,
                client_weight,
            } => {
                let wc = client_weight[client];
                for ((g, old), &new) in global.iter_mut().zip(&mut copies[client]).zip(weights) {
                    *g += wc * (new - *old);
                    *old = new;
                }
            }
        }
        true
    }
}
