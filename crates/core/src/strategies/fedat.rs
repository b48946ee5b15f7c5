//! FedAT — the paper's contribution (§4, Algorithm 2).
//!
//! Clients are partitioned into `M` latency tiers. Every tier runs its own
//! *synchronous* FedAvg-style round loop at its natural pace; whenever a
//! tier finishes a round, the server (1) replaces that tier's model with
//! the `n_k/N_c`-weighted average of its clients' uploads, (2) recomputes
//! the global model as the *cross-tier weighted average* of all tier models
//! using the Eq. (5) heuristic (slower tiers get the larger weights), and
//! (3) hands the fresh global model to the tier for its next round — an
//! asynchronous, wait-free cross-tier update.
//!
//! Clients minimize the Eq. (3) surrogate `F_k(w) + λ/2‖w − w_global‖²`,
//! and every transfer is polyline-compressed in both directions (§4.3).
//!
//! On top of the paper's protocol this server carries the fault-tolerance
//! layer (see `docs/ROBUSTNESS.md`): per-dispatch deadlines with bounded,
//! backed-off re-dispatch; quorum accounting when a round concludes
//! under-strength; parking a fully-offline tier until its earliest member
//! returns (instead of permanent dormancy); and optional dynamic
//! re-tiering from an EWMA of observed response latencies. All of it is
//! disabled under the default [`crate::config::FaultPolicy`], which keeps
//! legacy runs bit-identical.

use crate::aggregate::{
    aggregate_clients_into, aggregate_tiers_into, cross_tier_weights, uniform_tier_weights,
};
use crate::config::ExperimentConfig;
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
use std::sync::Arc;

/// FedAT server.
pub struct FedAtStrategy {
    core: ServerCore,
    tiers: TierAssignment,
    /// Per-tier server models `w_tier_m` (Algorithm 2 state), aggregated
    /// in place every tier round.
    tier_models: Vec<Vec<f32>>,
    /// Per-tier update counters `T_tier_m`.
    tier_counts: Vec<u64>,
    /// In-flight dispatches per tier.
    tier_outstanding: Vec<usize>,
    /// Uploads received in each tier's current round.
    tier_received: Vec<Vec<(Vec<f32>, usize)>>,
    /// Clients selected for each tier's current round (quorum denominator).
    tier_picked: Vec<usize>,
    inflight: InflightTable,
    /// Tiers still running rounds (a tier goes dormant only when every
    /// member is *permanently* gone; transient outages park it instead).
    active_tiers: usize,
    /// Parked tiers: offline right now but holding a pending revival timer.
    tier_waiting: Vec<bool>,
    /// Dormant tiers: every member permanently dropped.
    tier_dormant: Vec<bool>,
    /// Nominal round-trip latency per tier — the deadline base.
    tier_nominal: Vec<f64>,
    /// EWMA of observed per-client response latencies (seeded from the
    /// profile-time expectation; drives dynamic re-tiering).
    ewma: Vec<f64>,
    /// Tier rounds concluded since the last re-tier check.
    rounds_since_check: u64,
    /// Number of tier rounds started (each performs exactly one downlink
    /// encode via the broadcast path).
    tier_rounds_started: u64,
    /// Fig. 6 ablation: uniform instead of Eq. (5) weights.
    uniform_weights: bool,
    /// Reusable buffer for alive-member filtering (hot path: one tier round
    /// per tier arrival; avoids a fresh Vec per round).
    alive_buf: Vec<usize>,
}

impl FedAtStrategy {
    /// Builds the FedAT server: profiles tiers, initializes every tier
    /// model to `w⁰`, and zeroes the update counters.
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
        let core = ServerCore::new(task, cfg, exec, cfg.rounds, cfg.eval_every);
        let tier_models = vec![core.global.clone(); m];
        let ewma: Vec<f64> = (0..fleet.len())
            .map(|c| fleet.expected_latency(c, cfg.local_epochs))
            .collect();
        let tier_nominal = nominal_latencies(&tiers, &ewma);
        FedAtStrategy {
            core,
            tiers,
            tier_models,
            tier_counts: vec![0; m],
            tier_outstanding: vec![0; m],
            tier_received: (0..m).map(|_| Vec::new()).collect(),
            tier_picked: vec![0; m],
            inflight: InflightTable::new(),
            active_tiers: m,
            tier_waiting: vec![false; m],
            tier_dormant: vec![false; m],
            tier_nominal,
            ewma,
            rounds_since_check: 0,
            tier_rounds_started: 0,
            uniform_weights: cfg.uniform_tier_weights,
            alive_buf: Vec::new(),
        }
    }

    /// Current cross-tier aggregation weights.
    pub fn tier_weights(&self) -> Vec<f32> {
        if self.uniform_weights {
            uniform_tier_weights(self.tier_counts.len())
        } else {
            cross_tier_weights(&self.tier_counts)
        }
    }

    /// Per-tier update counts (for diagnostics and tests).
    pub fn tier_update_counts(&self) -> &[u64] {
        &self.tier_counts
    }

    /// Number of tier rounds started so far (diagnostics and the
    /// encode-once regression test).
    pub fn tier_rounds_started(&self) -> u64 {
        self.tier_rounds_started
    }

    /// Read access to the transport (encode counters in tests).
    pub fn transport(&self) -> &crate::transport::Transport {
        &self.core.transport
    }

    /// The current tier partition (re-tiering diagnostics).
    pub fn tier_assignment(&self) -> &TierAssignment {
        &self.tiers
    }

    fn start_tier_round(&mut self, ctx: &mut SimCtx, tier: usize) {
        let now = ctx.now();
        self.alive_buf.clear();
        {
            let members = self.tiers.tier(tier);
            let table = &self.inflight;
            let core = &self.core;
            self.alive_buf.extend(members.iter().copied().filter(|&c| {
                ctx.fleet.is_alive(c, now) && !table.contains(c) && !core.is_quarantined(c, now)
            }));
        }
        if self.alive_buf.is_empty() {
            // Every member is offline. If any of them comes back, park the
            // tier until the earliest return and skip this round — the
            // skipped round simply doesn't bump `T_tier`, so the Eq. (5)
            // staleness weights absorb it. Only a tier of *permanently*
            // gone clients goes dormant (the legacy behavior); other tiers
            // continue either way — exactly the wait-free property of
            // cross-tier asynchrony.
            let revive =
                earliest_return(&self.core, ctx, self.tiers.tier(tier).iter().copied(), now)
                    .unwrap_or(f64::INFINITY);
            if revive.is_finite() {
                self.core.faults.quorum_rounds += 1;
                ctx.faults.record(FaultEvent {
                    time: now,
                    kind: FaultKind::Quorum,
                    client: None,
                    tier: Some(tier),
                    detail: 0,
                });
                self.tier_waiting[tier] = true;
                ctx.schedule_timer(revive, REVIVE_BIT | tier as u64);
            } else {
                self.tier_dormant[tier] = true;
                self.active_tiers -= 1;
            }
            return;
        }
        let picks = self
            .core
            .sample_clients(ctx, &self.alive_buf, self.core.cfg.clients_per_round);
        self.tier_outstanding[tier] = picks.len();
        self.tier_picked[tier] = picks.len();
        self.tier_received[tier].clear();
        self.tier_rounds_started += 1;
        let epochs = self.core.cfg.local_epochs;
        let nominal = self.tier_nominal[tier];
        // Downlink: every selected client receives the latest *global*
        // model — encoded once, decoded once, shared by all dispatches.
        let (weights, down_bytes) = self
            .core
            .transport
            .broadcast(ctx, &picks, &self.core.global);
        for c in picks {
            // Speculative launch: the client starts training on the kernel
            // pool now; the compute event only joins it. `true`: Eq. (3)
            // local constraint.
            dispatch_tracked(
                &mut self.core,
                &mut self.inflight,
                ctx,
                c,
                tier as u64,
                0,
                nominal,
                &weights,
                epochs,
                true,
                down_bytes,
            );
        }
    }

    /// Concludes tier `tier`'s round once its last slot resolves:
    /// aggregates whatever landed, accounts quorum, runs the re-tier check,
    /// and starts the tier's next round.
    fn conclude_if_done(&mut self, ctx: &mut SimCtx, tier: usize) {
        if self.tier_outstanding[tier] != 0 {
            return;
        }
        if !self.tier_received[tier].is_empty() {
            // Intra-tier synchronous aggregation (Algorithm 2 inner
            // loop), written into the standing tier-model buffer. This
            // step runs `weighted_sum_into` or, under a robust rule,
            // `robust_reduce_into`; the cross-tier update below always
            // runs `weighted_sum_into`. Both kernels shard the model
            // dimension across the kernel pool.
            let refs: Vec<(&[f32], usize)> = self.tier_received[tier]
                .iter()
                .map(|(w, n)| (w.as_slice(), *n))
                .collect();
            // The robust rule (when configured) applies here, at the
            // intra-tier step where individual client updates meet; the
            // cross-tier Eq. (5) average mixes *tier models*, which the
            // guard already screened, and keeps its staleness weighting.
            aggregate_clients_into(
                self.core.cfg.guard.agg_rule,
                &refs,
                &mut self.tier_models[tier],
            );
            self.tier_counts[tier] += 1;
            // Cross-tier asynchronous aggregation (Eq. 5), into the
            // standing global buffer.
            let weights = self.tier_weights();
            aggregate_tiers_into(&self.tier_models, &weights, &mut self.core.global);
            self.core.bump(ctx);
        }
        let received = self.tier_received[tier].len();
        if (received as f64) < self.core.cfg.fault.quorum * self.tier_picked[tier] as f64 {
            // Degraded round: fewer updates than the quorum fraction made
            // it back (an empty round skips the tier update entirely —
            // staleness accounting, not a stall).
            self.core.faults.quorum_rounds += 1;
            ctx.faults.record(FaultEvent {
                time: ctx.now(),
                kind: FaultKind::Quorum,
                client: None,
                tier: Some(tier),
                detail: received as u64,
            });
        }
        self.maybe_retier(ctx);
        if !self.finished() {
            self.start_tier_round(ctx, tier);
        }
    }

    /// Dynamic re-tiering: every `check_every` concluded tier rounds,
    /// re-partition by the latency EWMAs and adopt the new assignment when
    /// enough clients have drifted out of place. In-flight clients are
    /// pinned to their current tier so per-tier round accounting (and the
    /// "no member in flight at round start" invariant) survives the swap.
    fn maybe_retier(&mut self, ctx: &mut SimCtx) {
        let Some(policy) = self.core.cfg.fault.retier else {
            return;
        };
        self.rounds_since_check += 1;
        if self.rounds_since_check < policy.check_every {
            return;
        }
        self.rounds_since_check = 0;
        let m = self.tiers.num_tiers();
        let mut desired = TierAssignment::from_latencies(&self.ewma, m).assignments();
        let old = self.tiers.assignments();
        for (c, a) in desired.iter_mut().enumerate() {
            if self.inflight.contains(c) {
                *a = old[c];
            }
        }
        let moved = desired.iter().zip(&old).filter(|(a, b)| a != b).count();
        if moved == 0 || (moved as f64) < policy.drift_threshold * old.len() as f64 {
            return;
        }
        let Some(new_tiers) = TierAssignment::from_assignments(&desired, m) else {
            return; // pinning emptied a tier; keep the old partition
        };
        self.tiers = new_tiers;
        for t in 0..m {
            let worst = self
                .tiers
                .tier(t)
                .iter()
                .map(|&c| self.ewma[c])
                .fold(0.0_f64, f64::max);
            if worst > 0.0 {
                self.tier_nominal[t] = worst;
            }
        }
        self.core.faults.retier_events += 1;
        ctx.faults.record(FaultEvent {
            time: ctx.now(),
            kind: FaultKind::Retier,
            client: None,
            tier: None,
            detail: moved as u64,
        });
        // A dormant tier may have been handed live members; wake it (the
        // round start re-parks or re-dormants it if they're gone too).
        for t in 0..m {
            if self.tier_dormant[t] {
                self.tier_dormant[t] = false;
                self.active_tiers += 1;
                if !self.finished() {
                    self.start_tier_round(ctx, t);
                }
            }
        }
    }
}

/// Per-tier nominal latency: the slowest member's (profiled or observed)
/// round-trip expectation.
fn nominal_latencies(tiers: &TierAssignment, ewma: &[f64]) -> Vec<f64> {
    (0..tiers.num_tiers())
        .map(|t| {
            tiers
                .tier(t)
                .iter()
                .map(|&c| ewma[c])
                .fold(0.0_f64, f64::max)
                .max(1e-6)
        })
        .collect()
}

impl EventHandler for FedAtStrategy {
    fn on_start(&mut self, ctx: &mut SimCtx) {
        self.core.eval_now(ctx);
        // All tiers start training simultaneously, each at its own pace.
        for tier in 0..self.tiers.num_tiers() {
            self.start_tier_round(ctx, tier);
        }
    }

    fn on_completion(&mut self, ctx: &mut SimCtx, c: Completion) {
        match self.inflight.advance(&mut self.core, ctx, &c) {
            // Still outstanding until the upload arrives / stale event.
            PhaseEvent::UploadScheduled | PhaseEvent::Unknown => (),
            PhaseEvent::Landed {
                group,
                latency,
                weights,
                n_samples,
            } => {
                let tier = group as usize;
                let alpha = self.core.cfg.fault.retier.map_or(0.3, |p| p.alpha);
                self.ewma[c.client] = alpha * latency + (1.0 - alpha) * self.ewma[c.client];
                self.tier_outstanding[tier] -= 1;
                self.tier_received[tier].push((weights, n_samples));
                self.conclude_if_done(ctx, tier);
            }
            // Dropped mid-compute or mid-upload, or discarded by the
            // guard: either way the round slot resolves without an update.
            PhaseEvent::Lost { group } | PhaseEvent::Rejected { group } => {
                let tier = group as usize;
                self.tier_outstanding[tier] -= 1;
                self.conclude_if_done(ctx, tier);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut SimCtx, tag: u64) {
        if tag & REVIVE_BIT != 0 {
            let tier = (tag & !REVIVE_BIT) as usize;
            if !self.tier_waiting[tier] {
                return;
            }
            self.tier_waiting[tier] = false;
            self.core.faults.revivals += 1;
            if !self.finished() {
                self.start_tier_round(ctx, tier);
            }
            return;
        }
        // Deadline timer: cancel the dispatch if still pending, then hand
        // the round slot to a replacement (bounded retries) or count it
        // lost.
        let Some(t) = self.inflight.timeout(&mut self.core, tag) else {
            return;
        };
        let tier = t.group as usize;
        let nominal = self.tier_nominal[tier];
        let epochs = self.core.cfg.local_epochs;
        let redispatched = {
            let members = self.tiers.tier(tier);
            retry_slot(
                &mut self.core,
                &mut self.inflight,
                ctx,
                &t,
                members,
                nominal,
                true,
                |_| epochs,
            )
        };
        if !redispatched {
            self.tier_outstanding[tier] -= 1;
            self.conclude_if_done(ctx, tier);
        }
    }

    fn finished(&self) -> bool {
        self.core.budget_exhausted() || self.active_tiers == 0
    }
}

impl Strategy for FedAtStrategy {
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

    fn tier_updates(&self) -> Option<Vec<u64>> {
        Some(self.tier_counts.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedat_data::suite;
    use fedat_sim::fleet::{ClusterConfig, Fleet};
    use fedat_sim::runtime::{run, EventHandler, RunLimits};

    /// Regression: the global model is encoded exactly once per tier round,
    /// no matter how many clients the round selects.
    #[test]
    fn codec_encodes_global_model_once_per_tier_round() {
        let n = 20;
        let task = suite::sent140_like(n, 21);
        let cluster = ClusterConfig::paper_medium(21)
            .with_clients(n)
            .without_dropouts();
        let cfg = ExperimentConfig::builder()
            .strategy(crate::config::StrategyKind::FedAt)
            .rounds(25)
            .clients_per_round(4)
            .local_epochs(1)
            .eval_every(5)
            .seed(21)
            .cluster(cluster.clone())
            .build();
        let fleet = Fleet::new(&cluster, task.fed.client_sizes());
        let mut s = FedAtStrategy::new(
            Arc::new(task),
            &cfg,
            &fleet,
            crate::exec::ExecCtx::resolve(&cfg),
        );
        {
            let h: &mut dyn EventHandler = &mut s;
            run(h, &fleet, cfg.seed, RunLimits::default());
        }
        let rounds = s.tier_rounds_started();
        assert!(
            rounds >= 25,
            "expected at least the budgeted tier rounds, got {rounds}"
        );
        assert_eq!(
            s.transport().downlink_encode_count(),
            rounds,
            "downlink must encode exactly once per tier round"
        );
        // With 4 clients per round a per-client encoder would have done 4×
        // the work; make the sharing observable.
        assert!(
            s.transport().uplink_encode_count() > s.transport().downlink_encode_count(),
            "uploads (per client) must outnumber downlink encodes (per round)"
        );
    }
}
