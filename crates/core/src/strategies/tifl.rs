//! TiFL (Chai et al., HPDC'20): synchronous tier-based federated learning
//! with adaptive, accuracy-driven tier selection.
//!
//! Each round selects *one* tier; clients are sampled within it, so a
//! fast-tier round is fast. The adaptive policy re-estimates per-tier test
//! accuracies every `PROB_UPDATE_EVERY` rounds and biases selection towards
//! lower-accuracy tiers, under per-tier credit budgets (both from the TiFL
//! paper). This is also the tiering scheme FedAT borrows (§2.1).

use crate::aggregate::aggregate_clients_into;
use crate::config::ExperimentConfig;
use crate::eval::per_client_accuracy;
use crate::exec::ExecCtx;
use crate::strategies::{
    dispatch_tracked, earliest_return, retry_slot, FaultCounters, InflightTable, PhaseEvent,
    ServerCore, Strategy, REVIVE_BIT,
};
use crate::tiering::TierAssignment;
use fedat_data::suite::FedTask;
use fedat_sim::fault::{FaultEvent, FaultKind};
use fedat_sim::runtime::{Completion, EventHandler, SimCtx};
use fedat_sim::trace::Trace;
use rand::RngExt;
use std::sync::Arc;

/// Rounds between re-estimations of the per-tier accuracies (the interval
/// the TiFL paper calls the adaptive evaluation interval; the FedAT paper
/// notes it "requires collecting test accuracies of all clients every
/// certain rounds").
const PROB_UPDATE_EVERY: u64 = 20;

/// TiFL server.
pub struct TiflStrategy {
    core: ServerCore,
    tiers: TierAssignment,
    /// Remaining selections per tier.
    credits: Vec<u64>,
    /// Selection probabilities (re-normalized over selectable tiers).
    probs: Vec<f64>,
    inflight: InflightTable,
    received: Vec<(Vec<f32>, usize)>,
    outstanding: usize,
    /// Clients selected for the current round (quorum denominator).
    picked: usize,
    /// The tier the current round samples from (replacement pool).
    round_tier: usize,
    /// Nominal round-trip latency of the current round's cohort.
    round_nominal: f64,
    /// Parked: no selectable tier right now, revival timer pending.
    waiting: bool,
    starved: bool,
}

impl TiflStrategy {
    /// Builds the TiFL server with profiled tiers and equal initial credits.
    pub fn new(
        task: Arc<FedTask>,
        cfg: &ExperimentConfig,
        fleet: &fedat_sim::Fleet,
        exec: ExecCtx,
    ) -> Self {
        let mut tiers = TierAssignment::profile(fleet, cfg.num_tiers, cfg.local_epochs);
        if cfg.mistier_fraction > 0.0 {
            tiers.mistier(cfg.mistier_fraction, cfg.seed);
        }
        let m = tiers.num_tiers();
        // Credits: rounds split evenly, like TiFL's credit initialization.
        let credits = vec![cfg.rounds / m as u64 + 1; m];
        let core = ServerCore::new(task, cfg, exec, cfg.rounds, cfg.eval_every);
        TiflStrategy {
            core,
            tiers,
            credits,
            probs: vec![1.0 / m as f64; m],
            inflight: InflightTable::new(),
            received: Vec::new(),
            outstanding: 0,
            picked: 0,
            round_tier: 0,
            round_nominal: 0.0,
            waiting: false,
            starved: false,
        }
    }

    /// Re-estimates per-tier accuracy of the current global model and
    /// biases selection toward the weaker tiers (probability ∝ 1 − acc).
    fn update_probs(&mut self) {
        let accs = per_client_accuracy(&self.core.task, &self.core.global, self.core.cfg.seed);
        let m = self.tiers.num_tiers();
        let mut weights = vec![0.0f64; m];
        for (t, w) in weights.iter_mut().enumerate() {
            let clients = self.tiers.tier(t);
            if clients.is_empty() {
                continue;
            }
            let mean: f64 =
                clients.iter().map(|&c| accs[c] as f64).sum::<f64>() / clients.len() as f64;
            *w = (1.0 - mean).max(0.01);
        }
        let sum: f64 = weights.iter().sum();
        if sum > 0.0 {
            for w in weights.iter_mut() {
                *w /= sum;
            }
            self.probs = weights;
        }
    }

    /// Picks the tier for the next round among those with credits and alive
    /// clients.
    fn pick_tier(&mut self, ctx: &mut SimCtx) -> Option<usize> {
        let m = self.tiers.num_tiers();
        let now = ctx.now();
        let usable = |core: &ServerCore, c: usize| {
            ctx.fleet.is_alive(c, now) && !core.is_quarantined(c, now)
        };
        let selectable: Vec<usize> = (0..m)
            .filter(|&t| {
                self.credits[t] > 0 && self.tiers.tier(t).iter().any(|&c| usable(&self.core, c))
            })
            .collect();
        // Credits exhausted everywhere: fall back to any tier with alive
        // clients (uniform), so training can use the full round budget.
        let pool: Vec<usize> = if selectable.is_empty() {
            (0..m)
                .filter(|&t| self.tiers.tier(t).iter().any(|&c| usable(&self.core, c)))
                .collect()
        } else {
            selectable
        };
        if pool.is_empty() {
            return None;
        }
        let total: f64 = pool.iter().map(|&t| self.probs[t]).sum();
        let mut r = ctx.rng.random::<f64>() * total;
        for &t in &pool {
            r -= self.probs[t];
            if r <= 0.0 {
                return Some(t);
            }
        }
        Some(*pool.last().expect("pool non-empty"))
    }

    fn start_round(&mut self, ctx: &mut SimCtx) {
        if self.core.updates > 0 && self.core.updates.is_multiple_of(PROB_UPDATE_EVERY) {
            self.update_probs();
        }
        let Some(tier) = self.pick_tier(ctx) else {
            // No tier has usable clients. Park until the earliest client
            // returns (alive and out of quarantine); starve only when every
            // client is permanently gone.
            let now = ctx.now();
            let revive =
                earliest_return(&self.core, ctx, 0..ctx.fleet.len(), now).unwrap_or(f64::INFINITY);
            if revive.is_finite() {
                self.core.faults.quorum_rounds += 1;
                ctx.faults.record(FaultEvent {
                    time: now,
                    kind: FaultKind::Quorum,
                    client: None,
                    tier: None,
                    detail: 0,
                });
                self.waiting = true;
                ctx.schedule_timer(revive, REVIVE_BIT);
            } else {
                self.starved = true;
            }
            return;
        };
        self.credits[tier] = self.credits[tier].saturating_sub(1);
        let now = ctx.now();
        let alive: Vec<usize> = self
            .tiers
            .tier(tier)
            .iter()
            .copied()
            .filter(|&c| ctx.fleet.is_alive(c, now) && !self.core.is_quarantined(c, now))
            .collect();
        let picks = self
            .core
            .sample_clients(ctx, &alive, self.core.cfg.clients_per_round);
        self.outstanding = picks.len();
        self.picked = picks.len();
        self.round_tier = tier;
        self.received.clear();
        let epochs = self.core.cfg.local_epochs;
        self.round_nominal = picks
            .iter()
            .map(|&c| ctx.fleet.expected_latency(c, epochs))
            .fold(0.0_f64, f64::max)
            .max(1e-6);
        let (weights, down_bytes) = self
            .core
            .transport
            .broadcast(ctx, &picks, &self.core.global);
        for c in picks {
            // Speculative launch at dispatch; TiFL trains unconstrained.
            dispatch_tracked(
                &mut self.core,
                &mut self.inflight,
                ctx,
                c,
                tier as u64,
                0,
                self.round_nominal,
                &weights,
                epochs,
                false,
                down_bytes,
            );
        }
    }

    fn conclude_if_done(&mut self, ctx: &mut SimCtx) {
        if self.outstanding != 0 {
            return;
        }
        if !self.received.is_empty() {
            let refs: Vec<(&[f32], usize)> = self
                .received
                .iter()
                .map(|(w, n)| (w.as_slice(), *n))
                .collect();
            aggregate_clients_into(self.core.cfg.guard.agg_rule, &refs, &mut self.core.global);
        }
        if (self.received.len() as f64) < self.core.cfg.fault.quorum * self.picked as f64 {
            self.core.faults.quorum_rounds += 1;
            ctx.faults.record(FaultEvent {
                time: ctx.now(),
                kind: FaultKind::Quorum,
                client: None,
                tier: Some(self.round_tier),
                detail: self.received.len() as u64,
            });
        }
        self.core.bump(ctx);
        if !self.finished() {
            self.start_round(ctx);
        }
    }
}

impl EventHandler for TiflStrategy {
    fn on_start(&mut self, ctx: &mut SimCtx) {
        self.core.eval_now(ctx);
        self.start_round(ctx);
    }

    fn on_completion(&mut self, ctx: &mut SimCtx, c: Completion) {
        match self.inflight.advance(&mut self.core, ctx, &c) {
            PhaseEvent::UploadScheduled | PhaseEvent::Unknown => return,
            PhaseEvent::Landed {
                weights, n_samples, ..
            } => {
                self.outstanding -= 1;
                self.received.push((weights, n_samples));
            }
            PhaseEvent::Lost { .. } | PhaseEvent::Rejected { .. } => self.outstanding -= 1,
        }
        self.conclude_if_done(ctx);
    }

    fn on_timer(&mut self, ctx: &mut SimCtx, tag: u64) {
        if tag & REVIVE_BIT != 0 {
            if !self.waiting {
                return;
            }
            self.waiting = false;
            self.core.faults.revivals += 1;
            if !self.finished() {
                self.start_round(ctx);
            }
            return;
        }
        let Some(t) = self.inflight.timeout(&mut self.core, tag) else {
            return;
        };
        let nominal = self.round_nominal;
        let epochs = self.core.cfg.local_epochs;
        let redispatched = {
            // Replacements come from the round's own tier, like the
            // original cohort.
            let members = self.tiers.tier(t.group as usize);
            retry_slot(
                &mut self.core,
                &mut self.inflight,
                ctx,
                &t,
                members,
                nominal,
                false,
                |_| epochs,
            )
        };
        if !redispatched {
            self.outstanding -= 1;
            self.conclude_if_done(ctx);
        }
    }

    fn finished(&self) -> bool {
        self.starved || self.core.budget_exhausted()
    }
}

impl Strategy for TiflStrategy {
    fn trace(&self) -> &Trace {
        &self.core.trace
    }

    fn take_trace(&mut self) -> Trace {
        std::mem::take(&mut self.core.trace)
    }

    fn global_weights(&self) -> &[f32] {
        &self.core.global
    }

    fn global_updates(&self) -> u64 {
        self.core.updates
    }

    fn variance_checkpoints(&self) -> &[f32] {
        &self.core.variance_checkpoints
    }

    fn fault_counters(&self) -> FaultCounters {
        self.core.faults
    }

    fn speculation(&self) -> crate::exec::Speculation {
        self.core.speculation
    }

    fn flush_evals(&mut self) {
        self.core.flush_evals();
    }
}
