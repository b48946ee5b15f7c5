//! FedAT — the paper's contribution (§4, Algorithm 2).
//!
//! Clients are partitioned into `M` latency tiers. Every tier runs its own
//! *synchronous* FedAvg-style round loop at its natural pace — one lane of
//! the round server each; whenever a tier finishes a round, the server
//! (1) replaces that tier's model with the `n_k/N_c`-weighted average of
//! its clients' uploads, (2) recomputes the global model as the *cross-tier
//! weighted average* of all tier models using the Eq. (5) heuristic (slower
//! tiers get the larger weights), and (3) hands the fresh global model to
//! the tier for its next round — an asynchronous, wait-free cross-tier
//! update.
//!
//! Clients minimize the Eq. (3) surrogate `F_k(w) + λ/2‖w − w_global‖²`,
//! and every transfer is polyline-compressed in both directions (§4.3).
//!
//! On top of the paper's protocol the policy carries the one part of the
//! fault-tolerance layer that is FedAT's own (see `docs/ROBUSTNESS.md`):
//! optional dynamic re-tiering from an EWMA of observed response
//! latencies. It is off under the default
//! [`FaultPolicy`](crate::config::FaultPolicy), which keeps legacy runs
//! bit-identical.

use crate::aggregate::{aggregate_tiers_into, cross_tier_weights, uniform_tier_weights, AggRule};
use crate::config::{ExperimentConfig, RetierPolicy};
use crate::strategies::round::{aggregate_received, RoundPolicy, ServerView};
use crate::strategies::tifl::profiled_tiers;
use crate::tiering::TierAssignment;
use fedat_data::suite::FedTask;

/// FedAT's tier lanes, tier models and Eq. (5) cross-tier mixing.
pub(crate) struct FedAt {
    tiers: TierAssignment,
    /// Per-tier server models `w_tier_m` (Algorithm 2 state), aggregated
    /// in place every tier round.
    tier_models: Vec<Vec<f32>>,
    /// Per-tier update counters `T_tier_m`.
    tier_counts: Vec<u64>,
    /// Nominal round-trip latency per tier — the deadline base: the
    /// slowest member's profiled (after a re-tier: observed) expectation.
    tier_nominal: Vec<f64>,
    /// EWMA of observed per-client response latencies (seeded from the
    /// profile-time expectation; drives dynamic re-tiering).
    ewma: Vec<f64>,
    retier: Option<RetierPolicy>,
    /// Tier rounds concluded since the last re-tier check.
    rounds_since_check: u64,
    /// Fig. 6 ablation: uniform instead of Eq. (5) weights.
    uniform_weights: bool,
}

impl FedAt {
    /// Profiles tiers, initializes every tier model to `w⁰`, and zeroes
    /// the update counters.
    pub fn new(task: &FedTask, cfg: &ExperimentConfig, fleet: &fedat_sim::Fleet) -> Self {
        let tiers = profiled_tiers(cfg, fleet);
        let m = tiers.num_tiers();
        let ewma: Vec<f64> = (0..fleet.len())
            .map(|c| fleet.expected_latency(c, cfg.local_epochs))
            .collect();
        let tier_nominal = (0..m)
            .map(|t| slowest(&tiers, &ewma, t).max(1e-6))
            .collect();
        FedAt {
            tiers,
            tier_models: vec![task.model.build(cfg.seed).weights(); m],
            tier_counts: vec![0; m],
            tier_nominal,
            ewma,
            retier: cfg.fault.retier,
            rounds_since_check: 0,
            uniform_weights: cfg.uniform_tier_weights,
        }
    }
}

/// The largest latency estimate among tier `t`'s members.
fn slowest(tiers: &TierAssignment, ewma: &[f64], t: usize) -> f64 {
    tiers
        .tier(t)
        .iter()
        .map(|&c| ewma[c])
        .fold(0.0_f64, f64::max)
}

impl RoundPolicy for FedAt {
    /// All tiers train simultaneously, each at its own pace.
    fn lanes(&self) -> usize {
        self.tiers.num_tiers()
    }

    fn select(
        &mut self,
        lane: usize,
        _view: &mut ServerView,
        pool: &mut Vec<usize>,
    ) -> Option<usize> {
        pool.extend_from_slice(self.tiers.tier(lane));
        Some(lane)
    }

    fn replacements(&self, group: Option<usize>, _view: &ServerView) -> Vec<usize> {
        self.tiers
            .tier(group.expect("every FedAT round has a tier"))
            .to_vec()
    }

    /// Eq. (3) local constraint.
    fn use_prox(&self) -> bool {
        true
    }

    fn nominal(&self, lane: usize, _cohort: &[usize], _view: &ServerView) -> f64 {
        self.tier_nominal[lane]
    }

    fn mix(
        &mut self,
        lane: usize,
        received: &[(Vec<f32>, usize)],
        _staleness: u64,
        global: &mut Vec<f32>,
        rule: AggRule,
    ) -> bool {
        if received.is_empty() {
            // An empty round skips the tier update entirely: `T_tier` does
            // not move, so the Eq. (5) weights account for the staleness.
            return false;
        }
        // Intra-tier synchronous aggregation (Algorithm 2 inner loop) into
        // the standing tier-model buffer. The robust rule (when configured)
        // applies here, where individual client updates meet; the
        // cross-tier Eq. (5) average below mixes *tier models*, which the
        // guard already screened, and keeps its staleness weighting.
        aggregate_received(rule, received, &mut self.tier_models[lane]);
        self.tier_counts[lane] += 1;
        let weights = if self.uniform_weights {
            uniform_tier_weights(self.tier_counts.len())
        } else {
            cross_tier_weights(&self.tier_counts)
        };
        aggregate_tiers_into(&self.tier_models, &weights, global);
        true
    }

    fn on_landed(&mut self, client: usize, latency: f64) {
        let alpha = RetierPolicy::ALPHA;
        self.ewma[client] = alpha * latency + (1.0 - alpha) * self.ewma[client];
    }

    /// Dynamic re-tiering: every `check_every` concluded tier rounds,
    /// re-partition by the latency EWMAs and adopt the new assignment when
    /// enough clients have drifted out of place. In-flight clients are
    /// pinned to their current tier so per-tier round accounting (and the
    /// "no member in flight at round start" invariant) survives the swap.
    fn after_round(&mut self, view: &ServerView) -> Option<usize> {
        let policy = self.retier?;
        self.rounds_since_check += 1;
        if self.rounds_since_check < policy.check_every {
            return None;
        }
        self.rounds_since_check = 0;
        let m = self.tiers.num_tiers();
        let mut desired = TierAssignment::from_latencies(&self.ewma, m).assignments();
        let old = self.tiers.assignments();
        for (c, a) in desired.iter_mut().enumerate() {
            if view.is_inflight(c) {
                *a = old[c];
            }
        }
        let moved = desired.iter().zip(&old).filter(|(a, b)| a != b).count();
        if moved == 0 || (moved as f64) < policy.drift_threshold * old.len() as f64 {
            return None;
        }
        // `None`: pinning emptied a tier; keep the old partition.
        self.tiers = TierAssignment::from_assignments(&desired, m)?;
        for t in 0..m {
            let worst = slowest(&self.tiers, &self.ewma, t);
            if worst > 0.0 {
                self.tier_nominal[t] = worst;
            }
        }
        Some(moved)
    }

    fn tier_updates(&self) -> Option<Vec<u64>> {
        Some(self.tier_counts.clone())
    }
}
