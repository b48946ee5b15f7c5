//! TiFL (Chai et al., HPDC'20): synchronous tier-based federated learning
//! with adaptive, accuracy-driven tier selection.
//!
//! TiFL is FedAvg with a different answer to "who may be selected": each
//! round draws *one* tier and samples clients within it, so a fast-tier
//! round is fast. The adaptive policy re-estimates per-tier test accuracies
//! every `PROB_UPDATE_EVERY` rounds and biases the draw towards
//! lower-accuracy tiers, under per-tier credit budgets (both from the TiFL
//! paper). This is also the tiering scheme FedAT borrows (§2.1).

use crate::config::ExperimentConfig;
use crate::eval::per_client_accuracy;
use crate::strategies::round::{RoundPolicy, ServerView};
use crate::tiering::TierAssignment;
use rand::RngExt;

/// Rounds between re-estimations of the per-tier accuracies (the interval
/// the TiFL paper calls the adaptive evaluation interval; the FedAT paper
/// notes it "requires collecting test accuracies of all clients every
/// certain rounds").
const PROB_UPDATE_EVERY: u64 = 20;

/// TiFL's tiering module (the one FedAT borrows): a one-shot latency
/// profile of the fleet, optionally with a fraction of clients deliberately
/// mis-tiered (robustness ablation).
pub(crate) fn profiled_tiers(cfg: &ExperimentConfig, fleet: &fedat_sim::Fleet) -> TierAssignment {
    let mut tiers = TierAssignment::profile(fleet, cfg.num_tiers, cfg.local_epochs);
    if cfg.mistier_fraction > 0.0 {
        tiers.mistier(cfg.mistier_fraction, cfg.seed);
    }
    tiers
}

/// TiFL's credit-weighted tier draw.
pub(crate) struct Tifl {
    tiers: TierAssignment,
    /// Remaining selections per tier.
    credits: Vec<u64>,
    /// Selection probabilities (re-normalized over selectable tiers).
    probs: Vec<f64>,
}

impl Tifl {
    /// Profiles the tiers and hands each an equal share of the rounds as
    /// credits, like TiFL's credit initialization.
    pub fn new(cfg: &ExperimentConfig, fleet: &fedat_sim::Fleet) -> Self {
        let tiers = profiled_tiers(cfg, fleet);
        let m = tiers.num_tiers();
        Tifl {
            tiers,
            credits: vec![cfg.rounds / m as u64 + 1; m],
            probs: vec![1.0 / m as f64; m],
        }
    }

    /// Re-estimates per-tier accuracy of the current global model and
    /// biases selection toward the weaker tiers (probability ∝ 1 − acc).
    fn update_probs(&mut self, view: &ServerView) {
        let accs = per_client_accuracy(view.task, view.global, view.cfg.seed);
        let mut weights: Vec<f64> = (0..self.tiers.num_tiers())
            .map(|t| {
                let clients = self.tiers.tier(t);
                if clients.is_empty() {
                    return 0.0;
                }
                let mean: f64 =
                    clients.iter().map(|&c| accs[c] as f64).sum::<f64>() / clients.len() as f64;
                (1.0 - mean).max(0.01)
            })
            .collect();
        let sum: f64 = weights.iter().sum();
        if sum > 0.0 {
            for w in weights.iter_mut() {
                *w /= sum;
            }
            self.probs = weights;
        }
    }

    /// Draws the tier for the next round among those with credits and
    /// eligible clients.
    fn pick_tier(&self, view: &mut ServerView) -> Option<usize> {
        let staffed = |t: &usize| self.tiers.tier(*t).iter().any(|&c| view.is_eligible(c));
        let m = self.tiers.num_tiers();
        let mut pool: Vec<usize> = (0..m)
            .filter(|&t| self.credits[t] > 0)
            .filter(staffed)
            .collect();
        if pool.is_empty() {
            // Credits exhausted everywhere: fall back to any tier with
            // eligible clients, so training can use the full round budget.
            pool = (0..m).filter(staffed).collect();
        }
        let last = *pool.last()?;
        let total: f64 = pool.iter().map(|&t| self.probs[t]).sum();
        let mut r = view.rng.random::<f64>() * total;
        for &t in &pool {
            r -= self.probs[t];
            if r <= 0.0 {
                return Some(t);
            }
        }
        Some(last)
    }
}

impl RoundPolicy for Tifl {
    fn select(
        &mut self,
        _lane: usize,
        view: &mut ServerView,
        pool: &mut Vec<usize>,
    ) -> Option<usize> {
        if view.updates > 0 && view.updates.is_multiple_of(PROB_UPDATE_EVERY) {
            self.update_probs(view);
        }
        let Some(tier) = self.pick_tier(view) else {
            // No tier has an eligible client, so nobody anywhere does: wait
            // for whoever returns first.
            pool.extend(0..view.fleet.len());
            return None;
        };
        self.credits[tier] = self.credits[tier].saturating_sub(1);
        pool.extend_from_slice(self.tiers.tier(tier));
        Some(tier)
    }

    /// Replacements come from the round's own tier, like the cohort.
    fn replacements(&self, group: Option<usize>, _view: &ServerView) -> Vec<usize> {
        self.tiers
            .tier(group.expect("every TiFL round has a tier"))
            .to_vec()
    }
}
