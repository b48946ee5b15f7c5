//! The two plain synchronous baselines: FedAvg (Algorithm 1) and FedProx.
//!
//! FedAvg is the round server's defaults and nothing else: every round
//! samples uniformly from the whole eligible fleet, trains `E` epochs
//! unconstrained, and averages into the global model.
//!
//! FedProx differs in two ways, both from Li et al. (2018): the proximal
//! term `λ/2‖w − w_global‖²` on the local objective and
//! device-capability-dependent local work (slower devices run fewer
//! epochs — the γ-inexactness knob).

use crate::config::ExperimentConfig;
use crate::strategies::round::RoundPolicy;

/// FedAvg: the defaults.
pub(crate) struct FedAvg;

impl RoundPolicy for FedAvg {}

/// FedProx: prox term on, slower delay-parts run fewer local epochs.
pub(crate) struct FedProx {
    client_epochs: Vec<usize>,
}

impl FedProx {
    pub fn new(cfg: &ExperimentConfig, fleet: &fedat_sim::Fleet) -> Self {
        // Part 0 (fastest) runs the full E epochs; each slower part sheds
        // one, bottoming out at 1.
        let client_epochs = (0..fleet.len())
            .map(|c| cfg.local_epochs.saturating_sub(fleet.part_of(c)).max(1))
            .collect();
        FedProx { client_epochs }
    }
}

impl RoundPolicy for FedProx {
    fn epochs(&self, client: usize, _cfg: &ExperimentConfig) -> usize {
        self.client_epochs[client]
    }

    fn use_prox(&self) -> bool {
        true
    }
}
