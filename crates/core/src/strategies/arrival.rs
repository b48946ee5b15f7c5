//! The arrival-triggered server: one driver for the fully asynchronous
//! methods, whose global model moves on *every* landed update.
//!
//! Every client trains continuously: it downloads the current global
//! model, trains, uploads, and is re-dispatched the moment its update has
//! been absorbed. The server talks to *all* clients all the time — the
//! communication-bottleneck pattern FedAT's §1 argues against. A [`Mixer`]
//! says how one update enters the global model (FedAsync, ASO-Fed); the
//! driver owns the rest.
//!
//! This is deliberately not a [`RoundServer`](super::round::RoundServer)
//! with one lane per client: the protocol is wait-free, so there are no
//! deadlines (a slow client delays nobody), no quorum, and nothing to
//! park but single clients. The fault layer's contribution here is
//! *revival* — a client lost to a transient outage, or sitting out a
//! quarantine, rejoins the pool when it comes back instead of leaving
//! forever (which under flapping churn bled the pool dry) — and the
//! guard's `max_staleness` bound.

use crate::config::ExperimentConfig;
use crate::experiment::Outcome;
use crate::strategies::{
    dispatchable, log_fault, InflightTable, PhaseEvent, ServerCore, Strategy, ASYNC_FILL,
    REVIVE_BIT,
};
use fedat_data::suite::FedTask;
use fedat_sim::fault::{FaultKind, FaultLog};
use fedat_sim::runtime::{Completion, EventHandler, SimCtx, SimReport};
use std::sync::Arc;

/// How one landed update enters the global model.
pub(crate) trait Mixer: Send {
    /// Whether clients train under the proximal local constraint.
    fn use_prox(&self) -> bool;

    /// Folds `client`'s update, trained from a model `staleness` global
    /// versions old, into `global`.
    fn absorb(&mut self, global: &mut Vec<f32>, client: usize, weights: Vec<f32>, staleness: u64);
}

/// The arrival-triggered server, generic over its [`Mixer`].
pub(crate) struct ArrivalServer<X: Mixer> {
    core: ServerCore,
    mixer: X,
    /// Global version at each client's latest dispatch (staleness base),
    /// indexed by client id.
    dispatch_version: Vec<u64>,
    inflight: InflightTable,
    live_dispatches: usize,
    /// Revival timers in flight for flapped-out or quarantined clients.
    pending_revivals: usize,
}

impl<X: Mixer> ArrivalServer<X> {
    /// Builds the server around `mixer`.
    ///
    /// One asynchronous global update ingests a single client, versus
    /// `clients_per_round` clients per synchronous round, so the update
    /// budget is scaled by `clients_per_round` — and further by
    /// [`ASYNC_FILL`] because asynchronous updates complete much faster in
    /// wall time; the shared `max_time` horizon is the effective stopping
    /// rule, exactly as in the paper's timeline figures. The evaluation
    /// stride is scaled likewise.
    pub fn new(task: Arc<FedTask>, cfg: &ExperimentConfig, mixer: X) -> Self {
        let k = cfg.clients_per_round as u64;
        let clients = task.fed.clients.len();
        ArrivalServer {
            core: ServerCore::new(task, cfg, cfg.rounds * k * ASYNC_FILL, cfg.eval_every * k),
            mixer,
            dispatch_version: vec![0; clients],
            inflight: InflightTable::new(clients),
            live_dispatches: 0,
            pending_revivals: 0,
        }
    }

    /// Sends `client` the current global model and starts its training
    /// (at dispatch, under the speculative execution mode). No deadline
    /// timer: the protocol is wait-free.
    fn dispatch_client(&mut self, ctx: &mut SimCtx, client: usize) {
        let epochs = self.core.cfg.local_epochs;
        let weights = self.core.transport.download(ctx, client, &self.core.global);
        let selection_round = ctx.dispatches_of(client);
        let use_prox = self.mixer.use_prox();
        let inflight = self
            .core
            .launch(client, &weights, epochs, selection_round, use_prox);
        let tag = self.inflight.begin(client, 0, 0, 0, ctx.now(), inflight);
        self.dispatch_version[client] = self.core.updates;
        ctx.dispatch(client, tag, epochs);
        self.live_dispatches += 1;
    }

    /// On a transient loss (or a quarantine), arms a wake-up at the later
    /// of the client's return time and its quarantine release so it rejoins
    /// the pool; a permanently-gone client has no return time and leaves
    /// forever.
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

    /// Puts an idle `client` back to work: dispatches it when it is alive
    /// and out of quarantine, otherwise parks it on a revival timer.
    /// Returns whether it was dispatched.
    fn redispatch_or_park(&mut self, ctx: &mut SimCtx, client: usize) -> bool {
        let go = dispatchable(&self.core, &self.inflight, ctx.fleet, client, ctx.now());
        if go {
            self.dispatch_client(ctx, client);
        } else {
            self.schedule_revival(ctx, client);
        }
        go
    }
}

impl<X: Mixer> EventHandler for ArrivalServer<X> {
    fn on_start(&mut self, ctx: &mut SimCtx) {
        self.core.eval_now(ctx); // round-0 baseline point
        for c in ctx.alive_clients() {
            self.dispatch_client(ctx, c);
        }
    }

    fn on_completion(&mut self, ctx: &mut SimCtx, c: Completion) {
        let landed = match self.inflight.advance(&mut self.core, ctx, &c) {
            PhaseEvent::Unknown => return,
            PhaseEvent::Landed { weights, .. } => Some(weights),
            // A guard-rejected update: the client is still alive, so it
            // goes straight back to work (or to quarantine parking).
            PhaseEvent::Rejected { .. } => None,
            // A dropped client leaves the pool (wait-free: nobody blocks)
            // — but rejoins at its return time if the outage is transient.
            PhaseEvent::Lost { .. } => {
                self.live_dispatches -= 1;
                self.schedule_revival(ctx, c.client);
                return;
            }
        };
        self.live_dispatches -= 1;
        if let Some(weights) = landed {
            // Staleness is measured when the update *lands* at the server.
            let staleness = self.core.updates - self.dispatch_version[c.client];
            if self
                .core
                .cfg
                .guard
                .max_staleness
                .is_some_and(|bound| staleness > bound)
            {
                // Over the staleness bound: the update is ancient, and a
                // corrupted-but-clipped stale update can still steer the
                // model — drop it outright and put the client back to work
                // on fresh weights. Staleness is a timing property, not a
                // value property, so it is no quarantine offense.
                log_fault(ctx, FaultKind::Stale, Some(c.client), Some(0), staleness);
            } else {
                // The mixers sweep the full model on *every* arrival.
                self.mixer
                    .absorb(&mut self.core.global, c.client, weights, staleness);
                self.core.bump(ctx);
            }
        }
        if !self.finished() {
            self.redispatch_or_park(ctx, c.client);
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
        // Logged only on an actual re-dispatch: a client that went down
        // again (or got re-quarantined) before the wake-up fired chases its
        // next return time instead.
        if self.redispatch_or_park(ctx, client) {
            log_fault(ctx, FaultKind::Revive, Some(client), Some(0), 0);
        }
    }

    fn finished(&self) -> bool {
        self.core.budget_exhausted()
            || self.live_dispatches == 0 && self.pending_revivals == 0 && self.core.updates > 0
    }
}

impl<X: Mixer> Strategy for ArrivalServer<X> {
    fn finish(self: Box<Self>, report: SimReport, faults: FaultLog) -> Outcome {
        self.core.finish(report, faults, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrategyKind;
    use crate::strategies::mixers::FedAsync;
    use fedat_data::suite;
    use fedat_sim::fleet::{ClusterConfig, Fleet};
    use fedat_sim::runtime::{run, RunLimits};

    /// The arrival-side mirror of the round server's encode-once test:
    /// every dispatch is a unicast of the then-current global model, so the
    /// downlink encodes exactly once per dispatch.
    #[test]
    fn codec_encodes_global_model_once_per_dispatch() {
        let n = 12;
        let task = Arc::new(suite::sent140_like(n, 23));
        let cluster = ClusterConfig::paper_medium(23)
            .with_clients(n)
            .without_dropouts();
        let fleet = Fleet::new(&cluster, task.fed.client_sizes());
        let cfg = ExperimentConfig::builder()
            .strategy(StrategyKind::FedAsync)
            .rounds(3)
            .clients_per_round(4)
            .local_epochs(1)
            .eval_every(5)
            .seed(23)
            .cluster(cluster)
            .build();
        let mixer = FedAsync::new(&cfg);
        let mut s = ArrivalServer::new(Arc::clone(&task), &cfg, mixer);
        run(&mut s, &fleet, cfg.seed, RunLimits::default());
        // Nobody drops out and no guard is on, so a dispatch has either
        // landed (one global update each) or is still in flight.
        let dispatches = s.core.updates + s.live_dispatches as u64;
        assert!(s.core.updates >= 3 * 4 * ASYNC_FILL && s.live_dispatches > 0);
        assert_eq!(s.core.transport.downlink_encode_count(), dispatches);
        assert_eq!(
            s.core.transport.uplink_encode_count(),
            s.core.updates,
            "every landed update was encoded once on the uplink"
        );
    }
}
