//! The barrier-triggered server: one driver for every method whose global
//! model moves when a *round* concludes.
//!
//! A [`RoundServer`] runs one or more **lanes**. A lane is a synchronous
//! round loop — select a cohort, broadcast, wait until every slot has
//! resolved, mix what landed, go again. FedAvg, FedProx and TiFL are one
//! lane; FedAT (§4, Algorithm 2) is `M` lanes, one per tier, whose
//! conclusions update the shared global model asynchronously.
//!
//! The driver owns everything the fault layer touches, once, for every
//! policy: the in-flight table, per-lane slot accounting, deadline timers
//! with backed-off re-dispatch, quorum accounting, parking a lane whose
//! candidates are all offline until the earliest one returns, revival, and
//! the stopping rule. A [`RoundPolicy`] answers only what differs between
//! methods — who may be selected, how much local work, how uploads become
//! the global model — and never sees the table, a timer or the fault log.

use crate::aggregate::{aggregate_clients_into, AggRule};
use crate::config::ExperimentConfig;
use crate::experiment::Outcome;
use crate::strategies::{
    dispatchable, earliest_return, log_fault, InflightTable, PhaseEvent, ServerCore, Strategy,
    TimedOut, REVIVE_BIT,
};
use fedat_data::suite::FedTask;
use fedat_sim::fault::{FaultKind, FaultLog};
use fedat_sim::runtime::{Completion, EventHandler, SimCtx, SimReport};
use fedat_sim::Fleet;
use rand::rngs::StdRng;
use std::sync::Arc;

/// What a policy may see of the server while it decides.
pub struct ServerView<'a> {
    /// The client population (profiled latencies, availability).
    pub fleet: &'a Fleet,
    /// The run's configuration.
    pub cfg: &'a ExperimentConfig,
    /// The federated task being trained.
    pub task: &'a FedTask,
    /// Current virtual time (seconds).
    pub now: f64,
    /// Current global weights `w^t`.
    pub global: &'a [f32],
    /// Global updates performed so far (`t`).
    pub updates: u64,
    /// The run's client-sampling RNG. Every draw moves every later
    /// selection, so a policy draws only what its rule needs.
    pub rng: &'a mut StdRng,
    core: &'a ServerCore,
    inflight: &'a InflightTable,
}

impl<'a> ServerView<'a> {
    fn new(core: &'a ServerCore, inflight: &'a InflightTable, ctx: &'a mut SimCtx) -> Self {
        ServerView {
            fleet: ctx.fleet,
            cfg: &core.cfg,
            task: &core.task,
            now: ctx.now(),
            global: &core.global,
            updates: core.updates,
            rng: &mut *ctx.rng,
            core,
            inflight,
        }
    }

    /// Whether `client` has a dispatch in flight (in any lane).
    pub fn is_inflight(&self, client: usize) -> bool {
        self.inflight.contains(client)
    }

    /// Whether `client` can be dispatched right now: alive, idle and out
    /// of quarantine. The driver applies the same predicate to every pool
    /// a policy hands it.
    pub fn is_eligible(&self, client: usize) -> bool {
        dispatchable(self.core, self.inflight, self.fleet, client, self.now)
    }
}

/// The candidates for one round, as a policy selected them.
pub struct Cohort {
    /// Clients the round may draw from. The driver keeps the eligible ones
    /// and samples `clients_per_round` of them uniformly — all of them,
    /// without touching the RNG, when no more than that are eligible. When
    /// none is, the lane parks until the first of the pool returns.
    pub pool: Vec<usize>,
    /// The round's group label: the `tier` of its fault-log rows (a
    /// client-scoped row of an unlabelled round logs tier 0).
    pub group: Option<usize>,
}

impl Cohort {
    /// Every client, unlabelled: FedAvg's answer, and what a policy offers
    /// when it has no narrower choice to make — a lane with nobody eligible
    /// then waits for whoever returns first.
    pub fn whole_fleet(view: &ServerView) -> Self {
        Cohort {
            pool: (0..view.fleet.len()).collect(),
            group: None,
        }
    }
}

/// What differs between round-based methods. Every method has the FedAvg
/// answer as its default, so a policy overrides only its own idea.
pub trait RoundPolicy: Send {
    /// Number of independent barrier lanes (FedAT: one per tier).
    fn lanes(&self) -> usize {
        1
    }

    /// The candidates and group label of `lane`'s next round. Called
    /// exactly once per round start, so per-round state — TiFL's tier draw
    /// and credit — advances here.
    fn select(&mut self, _lane: usize, view: &mut ServerView) -> Cohort {
        Cohort::whole_fleet(view)
    }

    /// Where a timed-out slot of a round labelled `group` may find its
    /// replacement (filtered for eligibility by the driver).
    fn replacements(&self, _group: Option<usize>, view: &ServerView) -> Vec<usize> {
        Cohort::whole_fleet(view).pool
    }

    /// Local epochs `client` runs per dispatch.
    fn epochs(&self, _client: usize, cfg: &ExperimentConfig) -> usize {
        cfg.local_epochs
    }

    /// Whether clients train under the proximal local constraint (Eq. 3).
    fn use_prox(&self) -> bool {
        false
    }

    /// The nominal round-trip latency that deadlines in `lane` are a
    /// multiple of, given the cohort of the lane's current round. Default:
    /// the slowest pick's profiled expectation.
    fn nominal(&self, _lane: usize, cohort: &[usize], view: &ServerView) -> f64 {
        let expected = |&c| view.fleet.expected_latency(c, self.epochs(c, view.cfg));
        cohort
            .iter()
            .map(expected)
            .fold(0.0_f64, f64::max)
            .max(1e-6)
    }

    /// Turns the uploads `lane`'s round received (weights, sample count)
    /// into the global model; returns whether the round counts as a global
    /// update. Default: aggregate under `rule` straight into the global
    /// model, and count even an empty round — a barrier server's budget is
    /// in rounds, which is what ends a run whose cohorts keep getting lost.
    fn mix(
        &mut self,
        _lane: usize,
        received: &[(Vec<f32>, usize)],
        global: &mut Vec<f32>,
        rule: AggRule,
    ) -> bool {
        aggregate_received(rule, received, global);
        true
    }

    /// An update from `client` landed `latency` seconds after dispatch.
    fn on_landed(&mut self, _client: usize, _latency: f64) {}

    /// A round concluded (in any lane). A policy that re-partitions its
    /// lanes does it here and returns how many clients moved; the driver
    /// logs the re-tier and wakes lanes that had run out of members.
    fn after_round(&mut self, _view: &ServerView) -> Option<usize> {
        None
    }

    /// Per-tier update counts, for policies that keep tier models.
    fn tier_updates(&self) -> Option<Vec<u64>> {
        None
    }
}

/// Aggregates one round's uploads into `out` under `rule`; leaves `out`
/// untouched when nothing landed.
pub fn aggregate_received(rule: AggRule, received: &[(Vec<f32>, usize)], out: &mut Vec<f32>) {
    if !received.is_empty() {
        let refs: Vec<(&[f32], usize)> = received.iter().map(|(w, n)| (&w[..], *n)).collect();
        aggregate_clients_into(rule, &refs, out);
    }
}

/// One barrier: a cohort in flight and what has come back from it.
#[derive(Default)]
struct Lane {
    /// The cohort selected for the current round: the quorum denominator
    /// and what the policy's deadline base is computed over.
    picked: Vec<usize>,
    /// The current round's group label; while parked, the label of the
    /// `Quorum` row that parked the lane (its `Revive` row repeats it).
    group: Option<usize>,
    /// Slots of the current round not yet resolved.
    outstanding: usize,
    /// Uploads landed so far this round, with their sample counts.
    received: Vec<(Vec<f32>, usize)>,
    /// Parked: nobody eligible right now, a revival timer is pending.
    waiting: bool,
    /// Every candidate is permanently gone; the lane runs no more rounds
    /// (until a re-tier hands it live members).
    dormant: bool,
}

/// The round-triggered server, generic over its [`RoundPolicy`].
pub struct RoundServer<P: RoundPolicy> {
    core: ServerCore,
    policy: P,
    inflight: InflightTable,
    lanes: Vec<Lane>,
    /// Lanes not dormant; the run ends when none is left.
    active: usize,
    /// Rounds started so far, over all lanes (one downlink encode each).
    rounds_started: u64,
}

impl<P: RoundPolicy> RoundServer<P> {
    /// Builds the server around `policy`. The update budget is
    /// `cfg.rounds` global updates, evaluated every `cfg.eval_every`.
    pub fn new(task: Arc<FedTask>, cfg: &ExperimentConfig, policy: P) -> Self {
        let lanes = policy.lanes();
        let inflight = InflightTable::new(task.fed.clients.len());
        RoundServer {
            core: ServerCore::new(task, cfg, cfg.rounds, cfg.eval_every),
            policy,
            inflight,
            lanes: (0..lanes).map(|_| Lane::default()).collect(),
            active: lanes,
            rounds_started: 0,
        }
    }

    /// The `tier` client-scoped fault rows of `lane`'s current round carry.
    fn tier(&self, lane: usize) -> usize {
        self.lanes[lane].group.unwrap_or(0)
    }

    fn start_round(&mut self, ctx: &mut SimCtx, lane: usize) {
        let now = ctx.now();
        let mut view = ServerView::new(&self.core, &self.inflight, ctx);
        let Cohort { pool, group } = self.policy.select(lane, &mut view);
        let eligible: Vec<usize> = pool
            .iter()
            .copied()
            .filter(|&c| view.is_eligible(c))
            .collect();
        if eligible.is_empty() {
            // Nobody to dispatch. Park the lane until the earliest candidate
            // returns (alive *and* out of quarantine) and skip this round —
            // for FedAT the skipped round simply doesn't bump `T_tier`, so
            // the Eq. (5) staleness weights absorb it while the other tiers
            // carry on. Only candidates that are all *permanently* gone end
            // the lane.
            match earliest_return(&self.core, ctx, pool.into_iter(), now) {
                Some(at) if at.is_finite() => {
                    log_fault(ctx, FaultKind::Quorum, None, group, 0);
                    // Nothing of a parked lane is in flight, so nothing
                    // reads its label until the revival logs it.
                    self.lanes[lane].group = group;
                    self.lanes[lane].waiting = true;
                    ctx.schedule_timer(at, REVIVE_BIT | lane as u64);
                }
                _ => {
                    self.lanes[lane].dormant = true;
                    self.active -= 1;
                }
            }
            return;
        }
        let k = self.core.cfg.clients_per_round;
        let picks = self.core.sample_clients(ctx, &eligible, k);
        self.rounds_started += 1;
        let state = &mut self.lanes[lane];
        state.group = group;
        state.outstanding = picks.len();
        state.received.clear();
        state.picked = picks.clone();
        let deadline = self.deadline(ctx, lane, 0);
        // One codec roundtrip of the latest global model for the whole
        // cohort; the dispatches share the decoded weights. The downlink
        // is charged here, the uplink when the trained update lands.
        let weights = self
            .core
            .transport
            .broadcast(ctx, &picks, &self.core.global);
        for client in picks {
            self.dispatch(ctx, client, lane, 0, deadline, &weights);
        }
    }

    /// How long a dispatch into `lane` may take after `retries`
    /// re-dispatches of its slot: `nominal × multiplier × backoff^retries`.
    /// `None` when the fault policy sets no deadlines.
    fn deadline(&self, ctx: &mut SimCtx, lane: usize, retries: u32) -> Option<f64> {
        let fault = &self.core.cfg.fault;
        let mult = fault.deadline_multiplier?;
        let view = ServerView::new(&self.core, &self.inflight, ctx);
        let nominal = self.policy.nominal(lane, &self.lanes[lane].picked, &view);
        Some(nominal * mult * fault.backoff.powi(retries as i32))
    }

    /// Launches, registers and dispatches one tracked client round trip in
    /// `lane` from the decoded download `weights`, arming its deadline
    /// timer if there is one. Training starts at dispatch under the
    /// speculative execution mode; the epoch count and prox flag travel
    /// with the job.
    fn dispatch(
        &mut self,
        ctx: &mut SimCtx,
        client: usize,
        lane: usize,
        retries: u32,
        deadline: Option<f64>,
        weights: &Arc<[f32]>,
    ) {
        let epochs = self.policy.epochs(client, &self.core.cfg);
        let group = self.tier(lane) as u64;
        let round = ctx.dispatches_of(client);
        let prox = self.policy.use_prox();
        let inflight = self.core.launch(client, weights, epochs, round, prox);
        let now = ctx.now();
        let tag = self
            .inflight
            .begin(client, lane, group, retries, now, inflight);
        ctx.dispatch(client, tag, epochs);
        if let Some(deadline) = deadline {
            ctx.schedule_timer(now + deadline, tag);
        }
    }

    /// Handles a dispatch cancelled at its deadline: records the timeout,
    /// then — if retries remain and the policy's replacement pool has an
    /// eligible client other than the victim — re-dispatches the round slot
    /// to it with the *current* global model (a fresh unicast download, not
    /// the possibly stale round broadcast) and a backed-off deadline.
    /// Returns `false` when the slot is lost instead.
    fn retry_slot(&mut self, ctx: &mut SimCtx, lost: &TimedOut) -> bool {
        let lane = lost.lane;
        let tier = Some(self.tier(lane));
        let attempts = lost.retries as u64;
        log_fault(ctx, FaultKind::Timeout, Some(lost.client), tier, attempts);
        if lost.retries >= self.core.cfg.fault.max_retries {
            return false;
        }
        let view = ServerView::new(&self.core, &self.inflight, ctx);
        let mut candidates = self.policy.replacements(self.lanes[lane].group, &view);
        candidates.retain(|&c| c != lost.client && view.is_eligible(c));
        let Some(&replacement) = self.core.sample_clients(ctx, &candidates, 1).first() else {
            return false;
        };
        let retries = lost.retries + 1;
        let global = &self.core.global;
        let weights = self.core.transport.download(ctx, replacement, global);
        let deadline = self.deadline(ctx, lane, retries);
        self.dispatch(ctx, replacement, lane, retries, deadline, &weights);
        log_fault(ctx, FaultKind::Retry, Some(replacement), tier, attempts + 1);
        true
    }

    /// One slot of `lane`'s round resolved (landed, lost, rejected, or timed
    /// out for good). When it was the last one the round concludes: mix
    /// whatever landed, account quorum, let the policy re-partition, and
    /// start the lane's next round.
    fn resolve_slot(&mut self, ctx: &mut SimCtx, lane: usize) {
        let state = &mut self.lanes[lane];
        state.outstanding -= 1;
        if state.outstanding != 0 {
            return;
        }
        let (received, picked, group) = (state.received.len(), state.picked.len(), state.group);
        let rule = self.core.cfg.guard.agg_rule;
        let global = &mut self.core.global;
        if self.policy.mix(lane, &state.received, global, rule) {
            self.core.bump(ctx);
        }
        if (received as f64) < self.core.cfg.fault.quorum * picked as f64 {
            // Degraded round: fewer updates than the quorum fraction made
            // it back. It still mixed whatever arrived.
            log_fault(ctx, FaultKind::Quorum, None, group, received as u64);
        }
        let view = ServerView::new(&self.core, &self.inflight, ctx);
        if let Some(moved) = self.policy.after_round(&view) {
            log_fault(ctx, FaultKind::Retier, None, None, moved as u64);
            // A dormant lane may have been handed live members; wake it
            // (its round start parks or re-dormants it if they're gone too).
            for l in 0..self.lanes.len() {
                if self.lanes[l].dormant {
                    self.lanes[l].dormant = false;
                    self.active += 1;
                    if !self.finished() {
                        self.start_round(ctx, l);
                    }
                }
            }
        }
        if !self.finished() {
            self.start_round(ctx, lane);
        }
    }
}

impl<P: RoundPolicy> EventHandler for RoundServer<P> {
    fn on_start(&mut self, ctx: &mut SimCtx) {
        self.core.eval_now(ctx); // round-0 baseline point
        for lane in 0..self.lanes.len() {
            self.start_round(ctx, lane);
        }
    }

    fn on_completion(&mut self, ctx: &mut SimCtx, c: Completion) {
        let (lane, landed) = match self.inflight.advance(&mut self.core, ctx, &c) {
            // A dispatch a deadline already cancelled.
            PhaseEvent::Unknown => return,
            PhaseEvent::Landed {
                lane,
                latency,
                weights,
                n_samples,
            } => {
                self.policy.on_landed(c.client, latency);
                (lane, Some((weights, n_samples)))
            }
            // Dropped mid-round, or discarded by the guard: either way the
            // slot resolves without an update.
            PhaseEvent::Lost { lane } | PhaseEvent::Rejected { lane } => (lane, None),
        };
        self.lanes[lane].received.extend(landed);
        self.resolve_slot(ctx, lane);
    }

    fn on_timer(&mut self, ctx: &mut SimCtx, tag: u64) {
        if tag & REVIVE_BIT != 0 {
            let lane = (tag & !REVIVE_BIT) as usize;
            if std::mem::take(&mut self.lanes[lane].waiting) {
                let group = self.lanes[lane].group;
                log_fault(ctx, FaultKind::Revive, None, group, 0);
                if !self.finished() {
                    self.start_round(ctx, lane);
                }
            }
            return;
        }
        // Deadline timer: cancel the dispatch if still pending, then hand
        // the round slot to a replacement or count it lost.
        if let Some(lost) = self.inflight.timeout(&mut self.core, tag) {
            if !self.retry_slot(ctx, &lost) {
                self.resolve_slot(ctx, lost.lane);
            }
        }
    }

    fn finished(&self) -> bool {
        self.core.budget_exhausted() || self.active == 0
    }
}

impl<P: RoundPolicy> Strategy for RoundServer<P> {
    fn finish(self: Box<Self>, report: SimReport, faults: FaultLog) -> Outcome {
        let tier_updates = self.policy.tier_updates();
        self.core.finish(report, faults, tier_updates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrategyKind;
    use crate::strategies::{fedat::FedAt, sync::FedAvg, tifl::Tifl};
    use fedat_data::suite;
    use fedat_sim::fleet::ClusterConfig;
    use fedat_sim::runtime::{run, RunLimits};

    /// Runs `policy` to its budget; returns (rounds started, downlink
    /// encodes, uplink encodes).
    fn encode_counts<P: RoundPolicy>(
        policy: P,
        task: &Arc<FedTask>,
        cfg: &ExperimentConfig,
        fleet: &Fleet,
    ) -> (u64, u64, u64) {
        let mut s = RoundServer::new(Arc::clone(task), cfg, policy);
        run(&mut s, fleet, cfg.seed, RunLimits::default());
        let transport = &s.core.transport;
        (
            s.rounds_started,
            transport.downlink_encode_count(),
            transport.uplink_encode_count(),
        )
    }

    /// Regression: whatever the policy, the global model is encoded exactly
    /// once per round, no matter how many clients the round selects.
    #[test]
    fn codec_encodes_global_model_once_per_round() {
        let n = 20;
        let task = Arc::new(suite::sent140_like(n, 21));
        let cluster = ClusterConfig::paper_medium(21)
            .with_clients(n)
            .without_dropouts();
        let fleet = Fleet::new(&cluster, task.fed.client_sizes());
        let cfg = ExperimentConfig::builder()
            .strategy(StrategyKind::FedAt) // FedAT's default codec: polyline
            .rounds(25)
            .clients_per_round(4)
            .local_epochs(1)
            .eval_every(5)
            .seed(21)
            .cluster(cluster)
            .build();
        let counts = [
            ("FedAvg", encode_counts(FedAvg, &task, &cfg, &fleet)),
            (
                "TiFL",
                encode_counts(Tifl::new(&cfg, &fleet), &task, &cfg, &fleet),
            ),
            (
                "FedAT",
                encode_counts(FedAt::new(&task, &cfg, &fleet), &task, &cfg, &fleet),
            ),
        ];
        for (name, (rounds, down, up)) in counts {
            assert!(
                rounds >= 25,
                "{name}: expected at least the budgeted rounds, got {rounds}"
            );
            assert_eq!(
                down, rounds,
                "{name}: downlink must encode exactly once per round"
            );
            // With 4 clients per round a per-client encoder would have done
            // 4× the work; make the sharing observable.
            assert!(
                up > down,
                "{name}: uploads (per client) must outnumber downlink encodes (per round)"
            );
        }
    }

    #[test]
    fn variance_checkpoints_are_recorded() {
        let n = 20;
        let task = Arc::new(suite::sent140_like(n, 11));
        let cluster = ClusterConfig::paper_medium(11)
            .with_clients(n)
            .without_dropouts();
        let fleet = Fleet::new(&cluster, task.fed.client_sizes());
        let cfg = ExperimentConfig::builder()
            .strategy(StrategyKind::FedAt)
            .rounds(60)
            .clients_per_round(3)
            .local_epochs(1)
            .eval_every(5)
            .seed(11)
            .cluster(cluster)
            .build();
        let policy = FedAt::new(&task, &cfg, &fleet);
        let mut s = RoundServer::new(Arc::clone(&task), &cfg, policy);
        run(&mut s, &fleet, cfg.seed, RunLimits::default());
        s.core.join_pending_eval();
        assert!(
            !s.core.variance_checkpoints.is_empty(),
            "long runs must sample the variance metric"
        );
        for &v in &s.core.variance_checkpoints {
            assert!(
                (0.0..=0.25).contains(&v),
                "client-accuracy variance {v} out of range"
            );
        }
    }
}
