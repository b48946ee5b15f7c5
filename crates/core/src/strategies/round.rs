//! The one server driver: every method's global model moves when a lane
//! concludes a *round*.
//!
//! A `RoundServer` runs one or more **lanes**. A lane is a synchronous
//! round loop — select a cohort, broadcast, wait until every slot has
//! resolved, mix what landed, go again. FedAvg, FedProx and TiFL are one
//! lane; FedAT (§4, Algorithm 2) is `M` lanes, one per tier, whose
//! conclusions update the shared global model asynchronously. FedAsync and
//! ASO-Fed are the limit where every lane holds one client: a
//! [`wait_free`](RoundPolicy::wait_free) lane's round is one update. A run
//! builds the server around the policy it is given
//! ([`crate::experiment::run_experiment_with`]).
//!
//! The driver owns everything the fault layer touches, once, for every
//! policy: the in-flight table, per-lane slot accounting, deadline timers
//! with backed-off re-dispatch, quorum accounting, parking a lane whose
//! candidates are all offline until the earliest one returns, revival, the
//! staleness bound and the stopping rule. A [`RoundPolicy`] answers only
//! what differs between methods — who may be selected, how much local
//! work, how uploads become the global model — and never sees the table, a
//! timer or the fault log.

use crate::aggregate::{aggregate_clients_into, AggRule};
use crate::config::{ExperimentConfig, FaultPolicy};
use crate::experiment::Outcome;
use crate::local::LocalUpdate;
use crate::strategies::{log_fault, ServerCore, ASYNC_FILL};
use fedat_data::suite::FedTask;
use fedat_sim::fault::{FaultKind, FaultLog};
use fedat_sim::runtime::{Completion, EventHandler, SimCtx, SimReport};
use fedat_sim::Fleet;
use fedat_tensor::pool::JobHandle;
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
    /// of quarantine. The one eligibility predicate: the driver applies it
    /// wherever it picks someone to send work to — round start, deadline
    /// retry, revival — so no path can hand work to a client another path
    /// would refuse.
    pub fn is_eligible(&self, client: usize) -> bool {
        self.fleet.is_alive(client, self.now)
            && !self.inflight.contains(client)
            && !self.core.is_quarantined(client, self.now)
    }
}

/// What differs between methods. Every method has the FedAvg answer as its
/// default, so a policy overrides only its own idea.
pub trait RoundPolicy: Send {
    /// Number of independent lanes (FedAT: one per tier; FedAsync and
    /// ASO-Fed: one per client).
    fn lanes(&self) -> usize {
        1
    }

    /// Whether the lanes are wait-free, each holding one client that goes
    /// straight back to work after its update: FedAsync and ASO-Fed. Such a
    /// lane arms no deadline and logs no `Quorum` row, its update is
    /// dropped with a `Stale` row when it is staler than the guard's
    /// `max_staleness`, its `Revive` row names the client and is logged
    /// only when the client is dispatched again, and the run's budget is
    /// `rounds × clients_per_round ×` [`ASYNC_FILL`] updates, evaluated
    /// every `eval_every × clients_per_round`. A fixed property of the
    /// method.
    fn wait_free(&self) -> bool {
        false
    }

    /// Pushes the candidates of `lane`'s next round onto `pool` (empty on
    /// entry) and returns the round's group label: the `tier` of its
    /// fault-log rows (a client-scoped row of an unlabelled round logs
    /// tier 0). The driver keeps the eligible candidates and samples
    /// `clients_per_round` of them uniformly — all of them, without
    /// touching the RNG, when no more than that are eligible. When none is,
    /// the lane parks until the first of the pool returns. Called exactly
    /// once per round start, so per-round state — TiFL's tier draw and
    /// credit — advances here. Default: the whole fleet, unlabelled.
    fn select(
        &mut self,
        _lane: usize,
        view: &mut ServerView,
        pool: &mut Vec<usize>,
    ) -> Option<usize> {
        pool.extend(0..view.fleet.len());
        None
    }

    /// Where a timed-out slot of a round labelled `group` may find its
    /// replacement (filtered for eligibility by the driver).
    fn replacements(&self, _group: Option<usize>, view: &ServerView) -> Vec<usize> {
        (0..view.fleet.len()).collect()
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

    /// Turns the uploads `lane`'s round received (weights, sample count),
    /// trained from a model `staleness` global updates old, into the global
    /// model; returns whether the round counts as a global update. Default:
    /// aggregate under `rule` straight into the global model, and count
    /// even an empty round — a barrier server's budget is in rounds, which
    /// is what ends a run whose cohorts keep getting lost.
    fn mix(
        &mut self,
        _lane: usize,
        received: &[(Vec<f32>, usize)],
        _staleness: u64,
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

/// High bit of a timer tag: marks a parked lane's revival wake-up (a tier,
/// or a wait-free lane's one client, coming back); the low bits are the
/// lane. Every other timer tag is a [`dispatch_tag`] carrying that
/// dispatch's deadline.
const REVIVE_BIT: u64 = 1 << 63;

/// The tag of `client`'s dispatch with ordinal `selection_round`: unique
/// over a run, and clear of [`REVIVE_BIT`] (ordinals stay below 2³¹).
fn dispatch_tag(client: usize, selection_round: u64) -> u64 {
    debug_assert!(selection_round < 1 << 31 && (client as u64) < 1 << 32);
    (selection_round << 32) | client as u64
}

/// The client a [`dispatch_tag`] names.
fn tag_client(tag: u64) -> usize {
    (tag & u64::from(u32::MAX)) as usize
}

/// One tracked dispatch: its training, launched at dispatch time, plus the
/// bookkeeping the fault layer needs.
struct Dispatch {
    /// The lane that waits for this dispatch (a wait-free lane's is its
    /// client's).
    lane: usize,
    /// The `tier` its fault-log rows carry.
    group: u64,
    /// Retries already spent on this round slot.
    retries: u32,
    dispatched_at: f64,
    /// The client's dispatch ordinal — the corruption scenario keys its
    /// per-event draw on it so the decision is a pure function of the
    /// dispatch, independent of event order.
    selection_round: u64,
    /// The training computation. The downloaded weights, selection round,
    /// epoch count and prox flag were all captured into the job when it
    /// launched — no simulator state can leak in later, which is what makes
    /// speculative execution trace-invisible.
    handle: JobHandle<LocalUpdate>,
    /// The decoded broadcast this dispatch trained from — the shared
    /// reference model for delta-family uplink codecs. Both ends hold it
    /// (the client received it on the downlink; the server keeps this
    /// `Arc` here), so encoding the uplink against it costs no extra
    /// traffic and decoding is trivially consistent.
    reference: Arc<[f32]>,
}

/// The server's table of in-flight dispatches: a dense `Vec` indexed by
/// client (client ids are `0..n`), an O(1) lookup on every completion,
/// where a wait-free run holds one live entry per client (2 000 on the
/// `async-overhead` benchmark workload).
///
/// A dispatch's event tag is [`dispatch_tag`] of its client and selection
/// round, so a completion or deadline timer names its client, and arriving
/// after the dispatch was cancelled (or after the client was re-dispatched
/// under a newer ordinal) it no longer matches the client's entry and
/// resolves to nothing instead of corrupting round accounting.
struct InflightTable {
    by_client: Vec<Option<Dispatch>>,
}

impl InflightTable {
    /// Whether `client` has a dispatch in flight.
    fn contains(&self, client: usize) -> bool {
        self.by_client[client].is_some()
    }

    /// Registers `client`'s new dispatch and returns its tag (the tag to
    /// dispatch under and the tag its deadline timer carries).
    fn begin(&mut self, client: usize, d: Dispatch) -> u64 {
        let tag = dispatch_tag(client, d.selection_round);
        let prev = self.by_client[client].replace(d);
        debug_assert!(prev.is_none(), "client {client} already in flight");
        tag
    }

    /// Takes the dispatch tagged `tag`, if it is still its client's entry.
    fn take(&mut self, tag: u64) -> Option<Dispatch> {
        let client = tag_client(tag);
        self.by_client
            .get_mut(client)?
            .take_if(|d| dispatch_tag(client, d.selection_round) == tag)
    }
}

/// One lane: its round's cohort in flight and what has come back from it.
#[derive(Default)]
struct Lane {
    /// The cohort selected for the current round: the quorum denominator
    /// and what the policy's deadline base is computed over.
    picked: Vec<usize>,
    /// The current round's group label; while parked, the label of the
    /// `Quorum` row that parked the lane (its `Revive` row repeats it).
    group: Option<usize>,
    /// Global updates at the current round's dispatch: what an upload's
    /// staleness is measured from.
    version: u64,
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

/// The server: the one event handler every run drives, around the run's
/// [`RoundPolicy`].
pub(crate) struct RoundServer {
    core: ServerCore,
    policy: Box<dyn RoundPolicy>,
    /// The policy's [`RoundPolicy::wait_free`].
    wait_free: bool,
    inflight: InflightTable,
    lanes: Vec<Lane>,
    /// What [`RoundPolicy::select`] fills, reused by every round start.
    pool: Vec<usize>,
    /// Lanes not dormant; the run ends when none is left.
    active: usize,
    /// Rounds started so far, over all lanes (one downlink encode each).
    rounds_started: u64,
}

impl RoundServer {
    /// Builds the server around `policy`. The update budget is
    /// `cfg.rounds` global updates, evaluated every `cfg.eval_every`. A
    /// wait-free update ingests one client where a barrier round ingests
    /// `clients_per_round`, so a wait-free policy's budget and stride are
    /// scaled by `clients_per_round`, and the budget also by [`ASYNC_FILL`].
    pub fn new(task: Arc<FedTask>, cfg: &ExperimentConfig, policy: Box<dyn RoundPolicy>) -> Self {
        let lanes = policy.lanes();
        let wait_free = policy.wait_free();
        let (k, fill) = if wait_free {
            (cfg.clients_per_round as u64, ASYNC_FILL)
        } else {
            (1, 1)
        };
        let inflight = InflightTable {
            by_client: std::iter::repeat_with(|| None)
                .take(task.fed.num_clients())
                .collect(),
        };
        RoundServer {
            core: ServerCore::new(task, cfg, cfg.rounds * k * fill, cfg.eval_every * k),
            policy,
            wait_free,
            inflight,
            lanes: (0..lanes).map(|_| Lane::default()).collect(),
            pool: Vec::new(),
            active: lanes,
            rounds_started: 0,
        }
    }

    /// The `tier` client-scoped fault rows of `lane`'s current round carry.
    fn tier(&self, lane: usize) -> usize {
        self.lanes[lane].group.unwrap_or(0)
    }

    /// Starts `lane`'s next round; returns whether it dispatched anyone
    /// (rather than parking the lane or retiring it).
    fn start_round(&mut self, ctx: &mut SimCtx, lane: usize) -> bool {
        let now = ctx.now();
        let mut pool = std::mem::take(&mut self.pool);
        pool.clear();
        let mut view = ServerView::new(&self.core, &self.inflight, ctx);
        let group = self.policy.select(lane, &mut view, &mut pool);
        let state = &mut self.lanes[lane];
        state.picked.clear();
        state
            .picked
            .extend(pool.iter().copied().filter(|&c| view.is_eligible(c)));
        self.pool = pool;
        if state.picked.is_empty() {
            // Nobody to dispatch. Park the lane until the earliest candidate
            // returns (alive *and* out of quarantine) and skip this round —
            // for FedAT the skipped round simply doesn't bump `T_tier`, so
            // the Eq. (5) staleness weights absorb it while the other tiers
            // carry on. Only candidates that are all *permanently* gone end
            // the lane.
            let core = &self.core;
            let back = |&c: &usize| {
                let up = ctx.fleet.next_up_time(c, now)?;
                Some(up.max(core.guard_release_time(c)))
            };
            match self.pool.iter().filter_map(back).min_by(f64::total_cmp) {
                Some(at) if at.is_finite() => {
                    if !self.wait_free {
                        log_fault(ctx, FaultKind::Quorum, None, group, 0);
                    }
                    // Nothing of a parked lane is in flight, so nothing
                    // reads its label until the revival logs it.
                    state.group = group;
                    state.waiting = true;
                    ctx.schedule_timer(at, REVIVE_BIT | lane as u64);
                }
                _ => {
                    state.dormant = true;
                    self.active -= 1;
                }
            }
            return false;
        }
        let k = self.core.cfg.clients_per_round;
        if state.picked.len() > k {
            state.picked = self.core.sample_clients(ctx, &state.picked, k);
        }
        self.rounds_started += 1;
        state.group = group;
        state.outstanding = state.picked.len();
        state.version = self.core.updates;
        let deadline = self.deadline(ctx, lane, 0);
        // One codec roundtrip of the latest global model for the whole
        // cohort; the dispatches share the decoded weights. The downlink
        // is charged here, the uplink when the trained update lands.
        let picked = &self.lanes[lane].picked;
        let weights = self
            .core
            .transport
            .broadcast(ctx, picked, &self.core.global);
        for i in 0..picked.len() {
            let client = self.lanes[lane].picked[i];
            self.dispatch(ctx, client, lane, 0, deadline, &weights);
        }
        true
    }

    /// How long a dispatch into `lane` may take after `retries`
    /// re-dispatches of its slot: `nominal × multiplier × BACKOFF^retries`.
    /// `None` when the fault policy sets no deadlines, and always for a
    /// wait-free lane: a slow client delays nobody.
    fn deadline(&self, ctx: &mut SimCtx, lane: usize, retries: u32) -> Option<f64> {
        let mult = self.core.cfg.fault.deadline_multiplier;
        let mult = mult.filter(|_| !self.wait_free)?;
        let view = ServerView::new(&self.core, &self.inflight, ctx);
        let nominal = self.policy.nominal(lane, &self.lanes[lane].picked, &view);
        Some(nominal * mult * FaultPolicy::BACKOFF.powi(retries as i32))
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
        let handle = self.core.launch(client, weights, epochs, round, prox);
        let now = ctx.now();
        let d = Dispatch {
            lane,
            group,
            retries,
            dispatched_at: now,
            selection_round: round,
            handle,
            reference: Arc::clone(weights),
        };
        let tag = self.inflight.begin(client, d);
        ctx.dispatch(client, tag, epochs);
        if let Some(deadline) = deadline {
            ctx.schedule_timer(now + deadline, tag);
        }
    }

    /// The land step, for a completion that named a live dispatch: joins
    /// the training job launched at dispatch (running it now if the job cap
    /// is 0 or no worker got to it), takes the trained weights through the
    /// uplink codec in the vector they arrived in (charging the actual
    /// uplink payload), lets the corruption scenario (if active) mangle them
    /// and the guard layer (if active) screen them, and adds the update to
    /// its lane's round. An update the guard discards, or a wait-free one
    /// over the staleness bound, is dropped (the guard already did its
    /// reject/quarantine bookkeeping).
    fn land(&mut self, ctx: &mut SimCtx, client: usize, d: Dispatch) {
        let update = d.handle.join();
        // Uplink bytes are charged on the *honest* encoded payload first:
        // corruption mangles the values in flight, it does not change what
        // the client transmitted or the traffic meter's view of it.
        let reference = Some(&d.reference[..]);
        let mut weights = self
            .core
            .transport
            .upload(ctx, client, update.weights, reference);
        let tier = Some(d.group as usize);
        if let Some(mode) = ctx
            .fleet
            .corrupt_update(client, d.selection_round, &mut weights)
        {
            log_fault(ctx, FaultKind::Corrupt, Some(client), tier, mode);
        }
        if !self.core.screen_update(ctx, client, d.group, &mut weights) {
            return;
        }
        self.policy.on_landed(client, ctx.now() - d.dispatched_at);
        let staleness = self.core.updates - self.lanes[d.lane].version;
        let bound = self.core.cfg.guard.max_staleness;
        if self.wait_free && bound.is_some_and(|b| staleness > b) {
            // Over the staleness bound: the update is ancient, and a
            // corrupted-but-clipped stale update can still steer the model
            // — drop it outright and put the client back to work on fresh
            // weights. Staleness is a timing property, not a value
            // property, so it is no quarantine offense.
            let tier = Some(self.tier(d.lane));
            log_fault(ctx, FaultKind::Stale, Some(client), tier, staleness);
            return;
        }
        self.lanes[d.lane]
            .received
            .push((weights, update.n_samples));
    }

    /// The deadline step: the deadline timer `tag` fired. A stale timer —
    /// its dispatch already landed or was lost — does nothing. Otherwise
    /// the dispatch is cancelled (its job handle dropped unjoined, which
    /// cancels a job no worker has started; its eventual completion matches
    /// no entry), and its round slot goes to a replacement or is lost.
    fn expire(&mut self, ctx: &mut SimCtx, tag: u64) {
        let Some(d) = self.inflight.take(tag) else {
            return;
        };
        self.core.abandon(d.handle);
        if !self.retry_slot(ctx, tag_client(tag), d.lane, d.retries) {
            self.resolve_slot(ctx, d.lane);
        }
    }

    /// Records `victim`'s timeout, then — if retries remain and the
    /// policy's replacement pool has an eligible client other than the
    /// victim — re-dispatches the round slot to it with the *current*
    /// global model (a fresh unicast download, not the possibly stale round
    /// broadcast) and a backed-off deadline. Returns `false` when the slot
    /// is lost instead.
    fn retry_slot(&mut self, ctx: &mut SimCtx, victim: usize, lane: usize, spent: u32) -> bool {
        let tier = Some(self.tier(lane));
        let attempts = spent as u64;
        log_fault(ctx, FaultKind::Timeout, Some(victim), tier, attempts);
        if spent >= FaultPolicy::MAX_RETRIES {
            return false;
        }
        let view = ServerView::new(&self.core, &self.inflight, ctx);
        let mut candidates = self.policy.replacements(self.lanes[lane].group, &view);
        candidates.retain(|&c| c != victim && view.is_eligible(c));
        let Some(&replacement) = self.core.sample_clients(ctx, &candidates, 1).first() else {
            return false;
        };
        let retries = spent + 1;
        let global = &self.core.global;
        let weights = self.core.transport.download(ctx, replacement, global);
        let deadline = self.deadline(ctx, lane, retries);
        self.dispatch(ctx, replacement, lane, retries, deadline, &weights);
        log_fault(ctx, FaultKind::Retry, Some(replacement), tier, attempts + 1);
        true
    }

    /// One slot of `lane`'s round resolved (landed, lost, or timed out for
    /// good). When it was the last one the round concludes: mix
    /// whatever landed, account quorum, let the policy re-partition, and
    /// start the lane's next round.
    fn resolve_slot(&mut self, ctx: &mut SimCtx, lane: usize) {
        let state = &mut self.lanes[lane];
        state.outstanding -= 1;
        if state.outstanding != 0 {
            return;
        }
        let (received, picked, group) = (state.received.len(), state.picked.len(), state.group);
        let staleness = self.core.updates - state.version;
        let rule = self.core.cfg.guard.agg_rule;
        let global = &mut self.core.global;
        let counted = self
            .policy
            .mix(lane, &state.received, staleness, global, rule);
        state.received.clear();
        if counted {
            self.core.bump(ctx);
        }
        let quorum = self.core.cfg.fault.quorum;
        if !self.wait_free && (received as f64) < quorum * picked as f64 {
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

    /// Ends the run: the [`Outcome`] around the simulator's `report` and
    /// fault log, with the policy's per-tier update counts. The dispatches
    /// still in flight at the stop are abandoned unjoined — their unstarted
    /// jobs cancelled — each a discard when the run speculates.
    pub fn finish(mut self, report: SimReport, faults: FaultLog) -> Outcome {
        for d in self.inflight.by_client.iter_mut().filter_map(Option::take) {
            self.core.abandon(d.handle);
        }
        let tier_updates = self.policy.tier_updates();
        self.core.finish(report, faults, tier_updates)
    }
}

impl EventHandler for RoundServer {
    fn on_start(&mut self, ctx: &mut SimCtx) {
        self.core.eval_now(ctx); // round-0 baseline point
        for lane in 0..self.lanes.len() {
            self.start_round(ctx, lane);
        }
    }

    fn on_completion(&mut self, ctx: &mut SimCtx, c: Completion) {
        // No entry: a dispatch a deadline already cancelled.
        let Some(d) = self.inflight.take(c.tag) else {
            return;
        };
        let lane = d.lane;
        if c.dropped {
            // Dropped mid-round: the dispatch-time job is wasted work.
            self.core.abandon(d.handle);
        } else {
            self.land(ctx, c.client, d);
        }
        self.resolve_slot(ctx, lane);
    }

    fn on_timer(&mut self, ctx: &mut SimCtx, tag: u64) {
        if tag & REVIVE_BIT != 0 {
            let lane = (tag & !REVIVE_BIT) as usize;
            if std::mem::take(&mut self.lanes[lane].waiting) {
                if !self.wait_free {
                    let group = self.lanes[lane].group;
                    log_fault(ctx, FaultKind::Revive, None, group, 0);
                }
                // A wait-free lane's row names its client, and only once it
                // is back at work: one that went down again (or got
                // re-quarantined) before the wake-up chases its next return.
                if !self.finished() && self.start_round(ctx, lane) && self.wait_free {
                    let client = Some(self.lanes[lane].picked[0]);
                    log_fault(ctx, FaultKind::Revive, client, Some(self.tier(lane)), 0);
                }
            }
            return;
        }
        self.expire(ctx, tag);
    }

    fn finished(&self) -> bool {
        self.core.budget_exhausted() || self.active == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrategyKind;
    use crate::exec::Speculation;
    use crate::strategies::{fedat::FedAt, sync::FedAvg, tifl::Tifl, wait_free::WaitFree};
    use fedat_data::suite;
    use fedat_sim::fleet::ClusterConfig;
    use fedat_sim::runtime::{run, run_logged, RunLimits};

    /// What one run to its budget encoded, against what it started.
    struct Encodes {
        rounds: u64,
        updates: u64,
        down: u64,
        up: u64,
    }

    fn encode_counts(
        policy: impl RoundPolicy + 'static,
        task: &Arc<FedTask>,
        cfg: &ExperimentConfig,
        fleet: &Fleet,
    ) -> Encodes {
        let mut s = RoundServer::new(Arc::clone(task), cfg, Box::new(policy));
        run(&mut s, fleet, cfg.seed, RunLimits::default());
        let transport = &s.core.transport;
        Encodes {
            rounds: s.rounds_started,
            updates: s.core.updates,
            down: transport.downlink_encode_count(),
            up: transport.uplink_encode_count(),
        }
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
        for (name, e) in counts {
            assert!(
                e.rounds >= 25,
                "{name}: expected at least the budgeted rounds, got {}",
                e.rounds
            );
            assert_eq!(
                e.down, e.rounds,
                "{name}: downlink must encode exactly once per round"
            );
            // With 4 clients per round a per-client encoder would have done
            // 4× the work; make the sharing observable.
            assert!(
                e.up > e.down,
                "{name}: uploads (per client) must outnumber downlink encodes (per round)"
            );
        }
    }

    /// A FedAsync round is one dispatch, so the global model is encoded
    /// once per dispatch and each landed update once on the uplink.
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
        let e = encode_counts(WaitFree::fedasync(&cfg, n), &task, &cfg, &fleet);
        // Nobody drops out and no guard is on, so every landed update is a
        // global update, and a started round has landed or is in flight.
        assert!(e.updates >= 3 * 4 * ASYNC_FILL && e.rounds > e.updates);
        assert_eq!(
            e.down, e.rounds,
            "FedAsync: one downlink encode per dispatch"
        );
        assert_eq!(
            e.up, e.updates,
            "FedAsync: one uplink encode per landed update"
        );
    }

    /// A FedAT run stops when one tier's round spends the budget; the
    /// other tiers' dispatches are still in flight and are dropped
    /// unjoined. A speculative run counts each as a discard, a cap-0 run
    /// counts nothing, and the number in flight is the same under both.
    #[test]
    fn dispatches_in_flight_at_the_stop_are_discards() {
        let n = 20;
        let task = Arc::new(suite::sent140_like(n, 13));
        let cluster = ClusterConfig::paper_medium(13)
            .with_clients(n)
            .without_dropouts();
        let fleet = Fleet::new(&cluster, task.fed.client_sizes());
        let cfg = ExperimentConfig::builder()
            .strategy(StrategyKind::FedAt)
            .rounds(12)
            .clients_per_round(3)
            .local_epochs(1)
            .eval_every(5)
            .seed(13)
            .cluster(cluster)
            .build();
        let stop = |max_pool_jobs| {
            let _cap = fedat_tensor::ctx::install(fedat_tensor::ctx::KernelCtx {
                max_pool_jobs,
                ..fedat_tensor::ctx::snapshot()
            });
            let policy = Box::new(FedAt::new(&task, &cfg, &fleet));
            let mut s = RoundServer::new(Arc::clone(&task), &cfg, policy);
            let (report, faults) = run_logged(&mut s, &fleet, cfg.seed, RunLimits::default());
            assert!(s.core.budget_exhausted(), "the budget stops the run");
            let in_flight = s.inflight.by_client.iter().flatten().count() as u64;
            (in_flight, s.finish(report, faults).speculation)
        };
        let (in_flight, inline) = stop(0);
        assert!(in_flight > 0, "no tier was mid-round at the stop");
        assert_eq!(inline, Speculation::default());
        // No dropouts and no deadlines: the stop is the only discard.
        let (again, speculative) = stop(usize::MAX);
        assert_eq!(again, in_flight);
        assert_eq!(speculative.discards, in_flight, "{speculative:?}");
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
        let policy = Box::new(FedAt::new(&task, &cfg, &fleet));
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
