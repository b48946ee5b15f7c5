//! ASO-Fed (Chen et al., 2019): asynchronous online federated learning.
//!
//! Like FedAsync, every client cycles continuously; unlike FedAsync the
//! server keeps a *copy of each client's latest weights* and the global
//! model is the `n_k/N`-weighted average of all copies, so one client's
//! stale update cannot yank the global model. Clients train with a local
//! constraint (the same prox form FedAT adopts).

use crate::config::ExperimentConfig;
use crate::exec::ExecCtx;
use crate::strategies::{
    FaultCounters, InflightTable, PhaseEvent, ServerCore, Strategy, REVIVE_BIT,
};
use fedat_data::suite::FedTask;
use fedat_sim::runtime::{Completion, EventHandler, SimCtx};
use fedat_sim::trace::Trace;
use std::collections::BTreeMap;
use std::sync::Arc;

/// ASO-Fed server.
///
/// Like FedAsync, the protocol is wait-free so deadlines don't apply; the
/// fault layer adds client *revival* — a transiently-lost client rejoins
/// the pool at its return time instead of leaving forever.
pub struct AsoFedStrategy {
    core: ServerCore,
    /// Per-client weight copies on the server.
    copies: Vec<Vec<f32>>,
    /// `n_k / N` aggregation weight per client.
    client_weight: Vec<f32>,
    /// Global version at each in-flight client's dispatch (staleness base
    /// for the guard's `max_staleness` bound). Ordered map: accesses are
    /// keyed, and `BTreeMap` keeps any future iteration deterministic
    /// (lint rule R1).
    dispatch_version: BTreeMap<usize, u64>,
    inflight: InflightTable,
    live_dispatches: usize,
    /// Revival timers in flight for flapped-out clients.
    pending_revivals: usize,
}

impl AsoFedStrategy {
    /// Builds the ASO-Fed server (budget and eval scaling as in FedAsync).
    pub fn new(task: Arc<FedTask>, cfg: &ExperimentConfig, exec: ExecCtx) -> Self {
        let k = cfg.clients_per_round as u64;
        let core = ServerCore::new(
            task.clone(),
            cfg,
            exec,
            cfg.rounds * k * super::ASYNC_FILL,
            cfg.eval_every * k,
        );
        let n_clients = task.fed.num_clients();
        let total: usize = task.fed.total_train_samples();
        let client_weight: Vec<f32> = task
            .fed
            .client_sizes()
            .iter()
            .map(|&n| n as f32 / total as f32)
            .collect();
        let copies = vec![core.global.clone(); n_clients];
        AsoFedStrategy {
            core,
            copies,
            client_weight,
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
        // Speculative launch at dispatch; `true`: ASO-Fed's local
        // constraint. No deadline timer: the protocol is wait-free.
        let phase = self
            .core
            .launch(client, &weights, epochs, selection_round, true);
        let gen = self.inflight.begin(client, 0, 0, ctx.now(), phase);
        self.dispatch_version.insert(client, self.core.updates);
        ctx.dispatch_with_transfer(client, gen, epochs, down_bytes);
        self.live_dispatches += 1;
    }

    /// On a transient loss (or a quarantine), arm a wake-up at the later of
    /// the client's return time and its quarantine release so it rejoins
    /// the pool; a permanently-gone client leaves forever.
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

    /// Replaces client `c`'s copy and incrementally updates the global
    /// average: `w ← w + (n_c/N)·(w_c_new − w_c_old)`.
    fn absorb(&mut self, client: usize, new_weights: Vec<f32>) {
        let wc = self.client_weight[client];
        for ((g, old), new) in self
            .core
            .global
            .iter_mut()
            .zip(self.copies[client].iter())
            .zip(new_weights.iter())
        {
            *g += wc * (new - old);
        }
        self.copies[client] = new_weights;
    }
}

impl EventHandler for AsoFedStrategy {
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
                let version = self.dispatch_version.remove(&c.client).unwrap_or(0);
                let staleness = self.core.updates - version;
                if self
                    .core
                    .cfg
                    .guard
                    .max_staleness
                    .is_some_and(|bound| staleness > bound)
                {
                    // Over the staleness bound: don't replace the server's
                    // copy with ancient weights; re-seed the client with
                    // the current global model instead.
                    self.core.note_stale(ctx, c.client, 0, staleness);
                    if !self.finished() {
                        self.redispatch_or_park(ctx, c.client);
                    }
                    return;
                }
                self.absorb(c.client, weights);
                self.core.bump(ctx);
                if !self.finished() {
                    self.redispatch_or_park(ctx, c.client);
                }
            }
            // Guard-rejected: the client is alive; back to work (or to
            // quarantine parking).
            PhaseEvent::Rejected { .. } => {
                self.live_dispatches -= 1;
                self.dispatch_version.remove(&c.client);
                if !self.finished() {
                    self.redispatch_or_park(ctx, c.client);
                }
            }
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
            self.schedule_revival(ctx, client);
        }
    }

    fn finished(&self) -> bool {
        self.core.budget_exhausted()
            || self.live_dispatches == 0 && self.pending_revivals == 0 && self.core.updates > 0
    }
}

impl Strategy for AsoFedStrategy {
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
