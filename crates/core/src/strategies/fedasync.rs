//! FedAsync (Xie et al., 2019): fully asynchronous federated optimization.
//!
//! Every client trains continuously; each arriving update is mixed into the
//! global model with a staleness-attenuated weight
//! `α_t = α · s(staleness)` where `s` is one of the
//! [`StalenessFn`](crate::staleness::StalenessFn) families from the FedAsync
//! paper (polynomial `a = 0.5` by default), after which the client
//! immediately redownloads and retrains. The server talks to *all* clients
//! all the time — the communication-bottleneck pattern FedAT's §1 argues
//! against.

use crate::config::ExperimentConfig;
use crate::exec::ExecCtx;
use crate::strategies::{
    FaultCounters, InflightTable, PhaseEvent, ServerCore, Strategy, REVIVE_BIT,
};
use fedat_data::suite::FedTask;
use fedat_sim::runtime::{Completion, EventHandler, SimCtx};
use fedat_sim::trace::Trace;
use fedat_tensor::ops::lerp_into;
use std::collections::BTreeMap;
use std::sync::Arc;

/// FedAsync server.
///
/// Deadlines don't apply here — the protocol is wait-free, so a slow
/// client delays nobody. The fault layer's contribution is *revival*: a
/// client lost to a transient outage rejoins the pool when it comes back
/// (the legacy behavior dropped it forever, which under flapping churn
/// bled the pool dry).
pub struct FedAsyncStrategy {
    core: ServerCore,
    alpha: f32,
    staleness: crate::staleness::StalenessFn,
    /// Global version at each in-flight client's dispatch (staleness base).
    /// Ordered map: all accesses are keyed today, and `BTreeMap` keeps any
    /// future iteration deterministic (lint rule R1).
    dispatch_version: BTreeMap<usize, u64>,
    inflight: InflightTable,
    live_dispatches: usize,
    /// Revival timers in flight for flapped-out clients.
    pending_revivals: usize,
}

impl FedAsyncStrategy {
    /// Builds the FedAsync server.
    ///
    /// One FedAsync global update ingests a single client, versus
    /// `clients_per_round` clients per synchronous round, so the update
    /// budget is scaled by `clients_per_round` — and further by
    /// [`super::ASYNC_FILL`] because asynchronous updates complete much
    /// faster in wall time; the shared `max_time` horizon is the effective
    /// stopping rule, exactly as in the paper's timeline figures. The
    /// evaluation stride is scaled likewise.
    pub fn new(task: Arc<FedTask>, cfg: &ExperimentConfig, exec: ExecCtx) -> Self {
        let k = cfg.clients_per_round as u64;
        let core = ServerCore::new(
            task,
            cfg,
            exec,
            cfg.rounds * k * super::ASYNC_FILL,
            cfg.eval_every * k,
        );
        FedAsyncStrategy {
            core,
            alpha: cfg.fedasync_alpha,
            staleness: cfg.fedasync_staleness,
            dispatch_version: BTreeMap::new(),
            inflight: InflightTable::new(),
            live_dispatches: 0,
            pending_revivals: 0,
        }
    }

    fn dispatch_client(&mut self, ctx: &mut SimCtx, client: usize) {
        let epochs = self.core.cfg.local_epochs;
        let (weights, down_bytes) = self.core.transport.download(ctx, client, &self.core.global);
        let selection_round = ctx.dispatches_of(client);
        // Speculative launch at dispatch; FedAsync trains unconstrained.
        // No deadline timer: the protocol is wait-free.
        let phase = self
            .core
            .launch(client, &weights, epochs, selection_round, false);
        let gen = self.inflight.begin(client, 0, 0, ctx.now(), phase);
        self.dispatch_version.insert(client, self.core.updates);
        ctx.dispatch_with_transfer(client, gen, epochs, down_bytes);
        self.live_dispatches += 1;
    }

    /// On a transient loss (or a quarantine), arm a wake-up at the later of
    /// the client's return time and its quarantine release so it rejoins
    /// the pool; a permanently-gone client has no return time and leaves
    /// forever (the legacy behavior).
    fn schedule_revival(&mut self, ctx: &mut SimCtx, client: usize) {
        if self.finished() {
            return;
        }
        if let Some(t_up) = ctx.fleet.next_up_time(client, ctx.now()) {
            self.pending_revivals += 1;
            let wake = t_up.max(self.core.guard_release_time(client));
            ctx.schedule_timer(wake, REVIVE_BIT | client as u64);
        }
    }

    /// Puts `client` back to work: dispatches immediately when it is alive
    /// and out of quarantine, otherwise parks it on a revival timer.
    fn redispatch_or_park(&mut self, ctx: &mut SimCtx, client: usize) {
        let now = ctx.now();
        if ctx.fleet.is_alive(client, now) && !self.core.is_quarantined(client, now) {
            self.dispatch_client(ctx, client);
        } else {
            self.schedule_revival(ctx, client);
        }
    }
}

impl EventHandler for FedAsyncStrategy {
    fn on_start(&mut self, ctx: &mut SimCtx) {
        self.core.eval_now(ctx);
        for c in ctx.alive_clients() {
            self.dispatch_client(ctx, c);
        }
    }

    fn on_completion(&mut self, ctx: &mut SimCtx, c: Completion) {
        match self.inflight.advance(&mut self.core, ctx, &c) {
            PhaseEvent::UploadScheduled | PhaseEvent::Unknown => {}
            PhaseEvent::Landed { weights, .. } => {
                self.live_dispatches -= 1;
                // Staleness measured when the update *lands* at the server.
                let version = self.dispatch_version.remove(&c.client).unwrap_or(0);
                let staleness = self.core.updates - version;
                if self
                    .core
                    .cfg
                    .guard
                    .max_staleness
                    .is_some_and(|bound| staleness > bound)
                {
                    // Over the staleness bound: the attenuated weight would
                    // be tiny anyway, and a corrupted-but-clipped stale
                    // update can still steer the model — drop it outright
                    // and put the client back to work on fresh weights.
                    self.core.note_stale(ctx, c.client, 0, staleness);
                    if !self.finished() {
                        self.redispatch_or_park(ctx, c.client);
                    }
                    return;
                }
                let alpha_t = self.alpha * self.staleness.factor(staleness);
                // The mixing sweep runs over the full model on *every*
                // arrival — `lerp_into` shards it across the kernel pool
                // with the vectorized inner loop, the same treatment the
                // sharded aggregation gives the synchronous strategies
                // (bit-identical for any kernel/thread count; pinned by
                // `fedasync_mixing_is_bit_identical_across_simd_and_threads`).
                lerp_into(&mut self.core.global, &weights, alpha_t);
                self.core.bump(ctx);
                if !self.finished() {
                    self.redispatch_or_park(ctx, c.client);
                }
            }
            // A guard-rejected update: the client is still alive, so it
            // goes straight back to work (or to quarantine parking).
            PhaseEvent::Rejected { .. } => {
                self.live_dispatches -= 1;
                self.dispatch_version.remove(&c.client);
                if !self.finished() {
                    self.redispatch_or_park(ctx, c.client);
                }
            }
            // A dropped client leaves the pool (wait-free: nobody blocks)
            // — but rejoins at its return time if the outage is transient.
            PhaseEvent::Lost { .. } => {
                self.live_dispatches -= 1;
                self.dispatch_version.remove(&c.client);
                self.schedule_revival(ctx, c.client);
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut SimCtx, tag: u64) {
        if tag & REVIVE_BIT == 0 {
            return;
        }
        let client = (tag & !REVIVE_BIT) as usize;
        self.pending_revivals -= 1;
        if self.finished() || self.inflight.contains(client) {
            return;
        }
        let now = ctx.now();
        if ctx.fleet.is_alive(client, now) && !self.core.is_quarantined(client, now) {
            self.core.faults.revivals += 1;
            self.dispatch_client(ctx, client);
        } else {
            // Went down again (or got re-quarantined) before the wake-up
            // fired; chase the next return time (if any).
            self.schedule_revival(ctx, client);
        }
    }

    fn finished(&self) -> bool {
        self.core.budget_exhausted()
            || self.live_dispatches == 0 && self.pending_revivals == 0 && self.core.updates > 0
    }
}

impl Strategy for FedAsyncStrategy {
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
