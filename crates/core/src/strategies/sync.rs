//! Synchronous round-based strategies: FedAvg (Algorithm 1) and FedProx.
//!
//! FedProx differs from FedAvg in two ways, both from Li et al. (2018):
//! the proximal term `λ/2‖w − w_global‖²` on the local objective and
//! device-capability-dependent local work (slower devices run fewer
//! epochs — the γ-inexactness knob).
//!
//! Both share the fault-tolerance layer: per-dispatch deadlines with
//! bounded re-dispatch (when the policy enables them) and parking the
//! round loop until the earliest client returns when the whole fleet is
//! transiently offline — permanent total loss still starves the run, as
//! before.

use crate::aggregate::aggregate_clients_into;
use crate::config::ExperimentConfig;
use crate::exec::ExecCtx;
use crate::strategies::{
    dispatch_tracked, earliest_return, retry_slot, FaultCounters, InflightTable, PhaseEvent,
    ServerCore, Strategy, REVIVE_BIT,
};
use fedat_data::suite::FedTask;
use fedat_sim::fault::{FaultEvent, FaultKind};
use fedat_sim::runtime::{Completion, EventHandler, SimCtx};
use fedat_sim::trace::Trace;
use std::sync::Arc;

/// FedAvg / FedProx server.
pub struct SyncStrategy {
    core: ServerCore,
    use_prox: bool,
    /// Per-client local epochs (`None` = uniform `cfg.local_epochs`).
    client_epochs: Option<Vec<usize>>,
    inflight: InflightTable,
    received: Vec<(Vec<f32>, usize)>,
    outstanding: usize,
    /// Clients selected for the current round (quorum denominator).
    picked: usize,
    /// Nominal round-trip latency of the current round's cohort — the
    /// deadline base.
    round_nominal: f64,
    /// Parked: the whole fleet is offline and a revival timer is pending.
    waiting: bool,
    /// Set when no clients remain alive *and none will return*; terminates
    /// the run.
    starved: bool,
}

impl SyncStrategy {
    /// Plain FedAvg: uniform epochs, no proximal term.
    pub fn fedavg(task: Arc<FedTask>, cfg: &ExperimentConfig, exec: ExecCtx) -> Self {
        let core = ServerCore::new(task, cfg, exec, cfg.rounds, cfg.eval_every);
        SyncStrategy {
            core,
            use_prox: false,
            client_epochs: None,
            inflight: InflightTable::new(),
            received: Vec::new(),
            outstanding: 0,
            picked: 0,
            round_nominal: 0.0,
            waiting: false,
            starved: false,
        }
    }

    /// FedProx: prox term on, slower delay-parts run fewer local epochs.
    pub fn fedprox(
        task: Arc<FedTask>,
        cfg: &ExperimentConfig,
        fleet: &fedat_sim::Fleet,
        exec: ExecCtx,
    ) -> Self {
        let epochs: Vec<usize> = (0..fleet.len())
            .map(|c| {
                // Part 0 (fastest) runs the full E epochs; each slower part
                // sheds one, bottoming out at 1.
                cfg.local_epochs.saturating_sub(fleet.part_of(c)).max(1)
            })
            .collect();
        let core = ServerCore::new(task, cfg, exec, cfg.rounds, cfg.eval_every);
        SyncStrategy {
            core,
            use_prox: true,
            client_epochs: Some(epochs),
            inflight: InflightTable::new(),
            received: Vec::new(),
            outstanding: 0,
            picked: 0,
            round_nominal: 0.0,
            waiting: false,
            starved: false,
        }
    }

    fn epochs_for(&self, client: usize) -> usize {
        match &self.client_epochs {
            Some(e) => e[client],
            None => self.core.cfg.local_epochs,
        }
    }

    fn start_round(&mut self, ctx: &mut SimCtx) {
        let now = ctx.now();
        let alive: Vec<usize> = ctx
            .alive_clients()
            .into_iter()
            .filter(|&c| !self.core.is_quarantined(c, now))
            .collect();
        if alive.is_empty() {
            // Park until the earliest client returns (alive *and* out of
            // quarantine); only a fleet that is permanently gone starves
            // the run.
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
        }
        let picks = self
            .core
            .sample_clients(ctx, &alive, self.core.cfg.clients_per_round);
        self.outstanding = picks.len();
        self.picked = picks.len();
        self.received.clear();
        self.round_nominal = picks
            .iter()
            .map(|&c| ctx.fleet.expected_latency(c, self.epochs_for(c)))
            .fold(0.0_f64, f64::max)
            .max(1e-6);
        // One encode + decode for the whole cohort; clients share the
        // decoded model.
        let (weights, down_bytes) = self
            .core
            .transport
            .broadcast(ctx, &picks, &self.core.global);
        for c in picks {
            let epochs = self.epochs_for(c);
            // Speculative launch at dispatch; the prox flag travels with
            // the job (FedProx on, FedAvg off). Downlink transfer charged
            // at dispatch; the uplink is charged when the trained payload
            // is known.
            dispatch_tracked(
                &mut self.core,
                &mut self.inflight,
                ctx,
                c,
                0,
                0,
                self.round_nominal,
                &weights,
                epochs,
                self.use_prox,
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
                tier: None,
                detail: self.received.len() as u64,
            });
        }
        self.core.bump(ctx);
        if !self.finished() {
            self.start_round(ctx);
        }
    }
}

impl EventHandler for SyncStrategy {
    fn on_start(&mut self, ctx: &mut SimCtx) {
        self.core.eval_now(ctx); // round-0 baseline point
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
        let pool = ctx.alive_clients();
        let nominal = self.round_nominal;
        let use_prox = self.use_prox;
        let redispatched = {
            let client_epochs = &self.client_epochs;
            let default_epochs = self.core.cfg.local_epochs;
            retry_slot(
                &mut self.core,
                &mut self.inflight,
                ctx,
                &t,
                &pool,
                nominal,
                use_prox,
                |c| client_epochs.as_ref().map_or(default_epochs, |e| e[c]),
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

impl Strategy for SyncStrategy {
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
