//! The six federated-learning methods, all driven by the same
//! discrete-event runtime.
//!
//! There are two server state machines, one per *trigger*: [`round`]'s
//! `RoundServer` moves the global model when a barrier lane concludes a
//! round, `arrival`'s `ArrivalServer` on every landed update. Each owns
//! the in-flight table and the whole fault layer for its trigger; a method
//! is a small policy plugged into one of them — the table is the design:
//!
//! | Strategy | Driver | Policy | Eligible for a round | Local work | Mixing |
//! |---|---|---|---|---|---|
//! | FedAvg | round, 1 lane | `sync::FedAvg` | whole fleet, uniform sample | `E` epochs | rule-aggregate the cohort into the global model |
//! | FedProx | round, 1 lane | `sync::FedProx` | whole fleet, uniform sample | fewer epochs on slower devices, prox term | as FedAvg |
//! | TiFL | round, 1 lane | `tifl::Tifl` | one tier, drawn by accuracy-driven credits | `E` epochs | as FedAvg |
//! | FedAT | round, `M` lanes | `fedat::FedAt` | lane `m` = tier `m`'s members | `E` epochs, prox term | rule-aggregate into the tier model, then the Eq. 5 cross-tier average (the paper) |
//! | FedAsync | arrival | `mixers::FedAsync` | everyone, always | `E` epochs | `w ← lerp(w, w_k, α·s(staleness))` |
//! | ASO-Fed | arrival | `mixers::AsoFed` | everyone, always | `E` epochs, prox term | replace client `k`'s server copy; `w` = `n_k/N`-weighted mean of the copies |
//!
//! "Eligible" always also means alive, idle and out of quarantine — one
//! predicate, applied by the drivers at round start, deadline retry and
//! revival alike. A new round-based method implements [`round::RoundPolicy`]
//! (`examples/custom_strategy.rs` does, in one method).

mod arrival;
mod fedat;
mod mixers;
pub mod round;
mod sync;
mod tifl;

use crate::config::{ExperimentConfig, StrategyKind};
use crate::eval::{accuracy_variance, per_client_accuracy, Evaluator};
use crate::exec::Speculation;
use crate::experiment::Outcome;
use crate::transport::Transport;
use fedat_data::suite::FedTask;
use fedat_sim::fault::{FaultEvent, FaultKind, FaultLog};
use fedat_sim::runtime::{Completion, EventHandler, SimCtx, SimReport};
use fedat_sim::trace::{Trace, TracePoint};
use std::sync::Arc;

/// High bit of a timer tag: marks revival wake-ups (a parked tier or a
/// flapped-out async client coming back). Every other timer tag is a
/// dispatch's tag (see [`InflightTable`]) carrying that dispatch's deadline.
pub(crate) const REVIVE_BIT: u64 = 1 << 63;

/// A runnable FL method: the event handler, and the outcome it reports
/// once the event loop has exited.
pub trait Strategy: EventHandler + Send {
    /// Ends the run: joins the in-flight pipelined evaluation, if any, so
    /// the trace and variance checkpoints are complete, and reports the
    /// run's [`Outcome`] around the simulator's `report` and fault log.
    fn finish(self: Box<Self>, report: SimReport, faults: FaultLog) -> Outcome;
}

/// Server-side state shared by both drivers.
pub(crate) struct ServerCore {
    pub task: Arc<FedTask>,
    /// Shared so dispatch-time training jobs can carry the config to any
    /// pool worker without cloning it per dispatch.
    pub cfg: Arc<ExperimentConfig>,
    pub transport: Transport,
    /// Whether the run's job cap lets jobs onto the pool — what makes a
    /// dispatch a speculative launch. Read once, from the kernel overlay
    /// the run installed before building its strategy.
    speculative: bool,
    /// `None` exactly while a pipelined evaluation is in flight (the job
    /// owns the evaluator and hands it back at the join).
    evaluator: Option<Evaluator>,
    /// The at-most-one in-flight pipelined evaluation (see
    /// [`ServerCore::eval_now`]).
    pending_eval: Option<PendingEval>,
    /// Current global weights `w^t`.
    pub global: Vec<f32>,
    /// Global update counter `t`.
    pub updates: u64,
    /// Global update budget (strategy-scaled).
    pub budget: u64,
    /// Evaluate every this many global updates (strategy-scaled).
    pub eval_stride: u64,
    pub trace: Trace,
    /// Per-client accuracy variance, sampled every
    /// [`VARIANCE_EVAL_STRIDE`]-th evaluation.
    pub variance_checkpoints: Vec<f32>,
    /// Training launched ahead of completion events, and how much of it
    /// was abandoned.
    pub speculation: Speculation,
    /// Guard-layer state (norm EWMA, offense counts, quarantine clocks).
    guard: GuardState,
    evals_done: u64,
}

/// Mutable guard-layer state. All of it is a pure function of the landed
/// updates' values and order in virtual time, so it preserves the
/// bit-identity contract across job caps × SimdKernel × worker counts.
#[derive(Default)]
struct GuardState {
    /// EWMA of accepted (post-clip) update L2 norms; `None` until the
    /// first accepted update initializes it.
    ewma_norm: Option<f64>,
    /// Per-client rejected-update counts since the last quarantine
    /// (indexed by client, grown on demand).
    offenses: Vec<u32>,
    /// Per-client quarantine release times (0 = never quarantined).
    quarantined_until: Vec<f64>,
}

impl GuardState {
    fn ensure(&mut self, client: usize) {
        if self.offenses.len() <= client {
            self.offenses.resize(client + 1, 0);
            self.quarantined_until.resize(client + 1, 0.0);
        }
    }
}

/// One round-boundary evaluation running as a kernel-pool job while the
/// event loop trains the next round. Everything a trace point needs besides
/// accuracy/loss was snapshotted at the cadence point, so the joined point
/// does not depend on when the job ran.
struct PendingEval {
    handle: fedat_tensor::pool::JobHandle<(Evaluator, fedat_nn::model::EvalResult, Option<f32>)>,
    time: f64,
    round: u64,
    up_bytes: u64,
    down_bytes: u64,
}

/// Per-client variance is sampled every this many global evaluations (a
/// full per-client sweep costs about one extra global evaluation).
pub const VARIANCE_EVAL_STRIDE: u64 = 5;

/// Extra update-budget multiplier for the fully asynchronous methods
/// (FedAsync, ASO-Fed): their single-client updates land continuously, so
/// within any wall-clock horizon they perform far more global updates than
/// a synchronous method performs rounds. The budget is scaled up so the
/// shared `max_time` horizon — the paper's timeline axis — is the binding
/// stopping rule.
pub const ASYNC_FILL: u64 = 20;

impl ServerCore {
    pub fn new(task: Arc<FedTask>, cfg: &ExperimentConfig, budget: u64, eval_stride: u64) -> Self {
        let codec = cfg
            .codec
            .unwrap_or_else(|| crate::config::default_codec(cfg.strategy));
        let transport = Transport::new(codec);
        let evaluator = Evaluator::new(&task, cfg.eval_subset, cfg.seed);
        let global = task.model.build(cfg.seed).weights();
        let trace = Trace::new(format!("{} @ {}", cfg.strategy.name(), task.name));
        ServerCore {
            task,
            cfg: Arc::new(cfg.clone()),
            transport,
            speculative: fedat_tensor::pool::max_pool_jobs() > 0,
            evaluator: Some(evaluator),
            pending_eval: None,
            global,
            updates: 0,
            budget,
            eval_stride: eval_stride.max(1),
            trace,
            variance_checkpoints: Vec::new(),
            speculation: Speculation::default(),
            guard: GuardState::default(),
            evals_done: 0,
        }
    }

    /// Records one global update; evaluates on the configured cadence.
    pub fn bump(&mut self, ctx: &mut SimCtx) {
        self.updates += 1;
        // With a value-screening guard active every accepted update is
        // finite, so a non-finite global model means the guard leaked — a
        // bug, not a scenario outcome. (Undefended corrupt runs and
        // quarantine-only configs legitimately go non-finite; no assert.)
        if self.cfg.guard.finite_check || self.cfg.guard.norm_screen.is_some() {
            debug_assert!(
                self.global.iter().all(|w| w.is_finite()),
                "guard leaked a non-finite update into the global model at t={}",
                self.updates
            );
        }
        if self.updates.is_multiple_of(self.eval_stride) {
            self.eval_now(ctx);
        }
    }

    /// Evaluates the current global model and appends a trace point;
    /// periodically also sweeps per-client accuracies for the variance
    /// metric.
    ///
    /// The evaluation is *pipelined*: the trace-point context (virtual
    /// time, update count, traffic meters) is snapshotted here, the sweep
    /// itself is submitted as a kernel-pool job, and the event loop
    /// immediately returns to dispatching the next round — eval overlaps
    /// training instead of serializing the event-loop thread. At most one
    /// evaluation is in flight; the next cadence point (or the end-of-run
    /// [`ServerCore::finish`]) joins it and appends its trace point *before*
    /// anything newer, so trace order is the submission order and every
    /// value in the point was fixed at submit time. The weights are cloned
    /// into the job, the variance-sweep decision is made here from
    /// `evals_done`, and the evaluator round-trips through the job —
    /// nothing about the result depends on when, or on which thread, the
    /// job runs (at job cap 0: at that next join, on the event-loop thread).
    pub fn eval_now(&mut self, ctx: &mut SimCtx) {
        let time = ctx.now();
        let up_bytes = ctx.traffic.uplink_bytes();
        let down_bytes = ctx.traffic.downlink_bytes();
        self.evals_done += 1;
        let sweep_variance = self.evals_done.is_multiple_of(VARIANCE_EVAL_STRIDE);
        // Join (and record) the previous round's eval first: trace points
        // must land in submission order.
        self.join_pending_eval();
        let mut evaluator = self
            .evaluator
            .take()
            .expect("evaluator is with a joined job");
        let weights = self.global.clone();
        let sweep = sweep_variance.then(|| (Arc::clone(&self.task), self.cfg.seed));
        let handle = fedat_tensor::pool::submit(move || {
            let r = evaluator.evaluate(&weights);
            let variance = sweep.map(|(task, seed)| {
                let accs = per_client_accuracy(&task, &weights, seed);
                accuracy_variance(&accs)
            });
            (evaluator, r, variance)
        });
        self.pending_eval = Some(PendingEval {
            handle,
            time,
            round: self.updates,
            up_bytes,
            down_bytes,
        });
    }

    /// Joins the in-flight pipelined evaluation (if any), appending its
    /// trace point and variance checkpoint and taking the evaluator back.
    fn join_pending_eval(&mut self) {
        let Some(pending) = self.pending_eval.take() else {
            return;
        };
        let (evaluator, r, variance) = pending.handle.join();
        self.evaluator = Some(evaluator);
        self.trace.push(TracePoint {
            time: pending.time,
            round: pending.round,
            accuracy: r.accuracy,
            loss: r.loss,
            up_bytes: pending.up_bytes,
            down_bytes: pending.down_bytes,
        });
        if let Some(v) = variance {
            self.variance_checkpoints.push(v);
        }
    }

    /// Both drivers' [`Strategy::finish`]: joins the eval pipeline's
    /// straggler, sweeps the final per-client accuracies and builds the
    /// run's [`Outcome`].
    pub fn finish(
        mut self,
        report: SimReport,
        faults: FaultLog,
        tier_updates: Option<Vec<u64>>,
    ) -> Outcome {
        self.join_pending_eval();
        let per_client = per_client_accuracy(&self.task, &self.global, self.cfg.seed);
        // Mean of the in-training variance checkpoints plus the final state.
        let mut checkpoints = self.variance_checkpoints;
        checkpoints.push(accuracy_variance(&per_client));
        let mean_variance = checkpoints.iter().sum::<f32>() / checkpoints.len() as f32;
        Outcome {
            trace: self.trace,
            report,
            final_weights: self.global,
            global_updates: self.updates,
            per_client_accuracy: per_client,
            accuracy_variance: mean_variance,
            faults,
            tier_updates,
            speculation: self.speculation,
        }
    }

    /// Whether the update budget is exhausted.
    pub fn budget_exhausted(&self) -> bool {
        self.updates >= self.budget
    }

    /// Samples `k` distinct clients from `pool` (all of `pool` if smaller).
    pub fn sample_clients(&self, ctx: &mut SimCtx, pool: &[usize], k: usize) -> Vec<usize> {
        if pool.len() <= k {
            return pool.to_vec();
        }
        fedat_tensor::rng::sample_without_replacement(ctx.rng, pool.len(), k)
            .into_iter()
            .map(|i| pool[i])
            .collect()
    }

    /// Starts one client's local training *at dispatch time* and returns
    /// the in-flight entry holding its handle. The job begins on the
    /// kernel pool immediately unless the run's job cap is 0 (see
    /// [`crate::exec`]), which defers it to the join inside
    /// [`InflightTable::advance`]. `weights` is the shared decoded
    /// broadcast — launching clones `Arc`s, never the model.
    pub fn launch(
        &mut self,
        client: usize,
        weights: &std::sync::Arc<[f32]>,
        epochs: usize,
        selection_round: u64,
        use_prox: bool,
    ) -> Inflight {
        self.speculation.launches += u64::from(self.speculative);
        Inflight {
            handle: crate::local::TrainHandle::launch(crate::local::TrainJob {
                task: Arc::clone(&self.task),
                client,
                global: Arc::clone(weights),
                cfg: Arc::clone(&self.cfg),
                epochs,
                selection_round,
                use_prox,
            }),
            selection_round,
            reference: Arc::clone(weights),
        }
    }

    /// Abandons a dispatch's training: dropping the handle cancels the job
    /// (an unstarted one costs nothing), and under a non-zero job cap the
    /// launch it undoes counts as a discard.
    fn abandon(&mut self, inflight: Inflight) {
        drop(inflight);
        self.speculation.discards += u64::from(self.speculative);
    }

    /// Screens one landed update against the guard policy, mutating it in
    /// place when clipping. Returns `true` to accept, `false` to discard.
    ///
    /// Runs as the update lands, in virtual-time event order, on values
    /// that are already bit-identical across execution modes — so every
    /// decision (and the EWMA it feeds) is deterministic.
    pub fn screen_update(
        &mut self,
        ctx: &mut SimCtx,
        client: usize,
        group: u64,
        weights: &mut [f32],
    ) -> bool {
        if !self.cfg.guard.screens_updates() {
            return true;
        }
        if self.cfg.guard.finite_check && !weights.iter().all(|w| w.is_finite()) {
            self.reject_update(ctx, client, group, 0);
            return false;
        }
        if let Some(screen) = self.cfg.guard.norm_screen {
            // The screen measures the L2 norm of the update's *displacement*
            // from the current global model, not of the raw weights: client
            // uploads are full models, and a scaled-up model has a huge
            // displacement but the same direction, so bounding the
            // displacement bounds the damage additively. (Screening raw
            // norms lets a magnitude attack inflate the aggregate — and the
            // EWMA with it — a little every round, compounding into a
            // frozen, blown-up model.) Sequential f64 fold: bit-identical
            // for every SIMD lane by construction.
            let norm = weights
                .iter()
                .zip(self.global.iter())
                .map(|(w, g)| {
                    let d = (*w - *g) as f64;
                    d * d
                })
                .sum::<f64>()
                .sqrt();
            if !norm.is_finite() {
                // Finite coordinates can still overflow the squared norm;
                // nothing sane survives that magnitude.
                self.reject_update(ctx, client, group, 1);
                return false;
            }
            match self.guard.ewma_norm {
                None => {
                    // First accepted update seeds the EWMA. Guard against a
                    // zero seed (a no-op first update would make every later
                    // norm infinite-relative).
                    self.guard.ewma_norm = Some(norm.max(1e-12));
                }
                Some(ewma) => {
                    let limit = screen.threshold * ewma;
                    let accepted_norm = if norm <= limit {
                        norm
                    } else if screen.clip {
                        // Shrink the displacement to the limit; the update's
                        // direction survives, its magnitude is bounded.
                        let s = (limit / norm) as f32;
                        for (w, g) in weights.iter_mut().zip(self.global.iter()) {
                            *w = *g + (*w - *g) * s;
                        }
                        let tier = Some(group as usize);
                        log_fault(ctx, FaultKind::Clip, Some(client), tier, norm as u64);
                        limit
                    } else {
                        self.reject_update(ctx, client, group, 1);
                        return false;
                    };
                    self.guard.ewma_norm =
                        Some(screen.alpha * accepted_norm + (1.0 - screen.alpha) * ewma);
                }
            }
        }
        true
    }

    /// Records one rejected update and advances the offender's quarantine
    /// clock when the policy asks for one.
    fn reject_update(&mut self, ctx: &mut SimCtx, client: usize, group: u64, detail: u64) {
        let (now, tier) = (ctx.now(), Some(group as usize));
        log_fault(ctx, FaultKind::Reject, Some(client), tier, detail);
        if let Some(after) = self.cfg.guard.quarantine_after {
            self.guard.ensure(client);
            self.guard.offenses[client] += 1;
            if self.guard.offenses[client] >= after {
                self.guard.offenses[client] = 0;
                self.guard.quarantined_until[client] = now + self.cfg.guard.quarantine_secs;
                let secs = self.cfg.guard.quarantine_secs as u64;
                log_fault(ctx, FaultKind::Quarantine, Some(client), tier, secs);
            }
        }
    }

    /// Whether `client` is currently serving a quarantine.
    pub fn is_quarantined(&self, client: usize, now: f64) -> bool {
        self.guard
            .quarantined_until
            .get(client)
            .is_some_and(|&until| now < until)
    }

    /// When `client`'s quarantine lifts (0.0 if never quarantined).
    pub fn guard_release_time(&self, client: usize) -> f64 {
        self.guard
            .quarantined_until
            .get(client)
            .copied()
            .unwrap_or(0.0)
    }
}

/// Appends one server-side row to the run's fault log, stamped now.
pub(crate) fn log_fault(
    ctx: &mut SimCtx,
    kind: FaultKind,
    client: Option<usize>,
    tier: Option<usize>,
    detail: u64,
) {
    let time = ctx.now();
    ctx.faults.record(FaultEvent {
        time,
        kind,
        client,
        tier,
        detail,
    });
}

/// The one eligibility predicate: `client` can be dispatched at `now` when
/// it is alive, idle (no dispatch in flight) and out of quarantine. Both
/// drivers use it wherever they pick someone to send work to — round start,
/// deadline retry, revival — so no path can hand work to a client another
/// path would refuse.
pub(crate) fn dispatchable(
    core: &ServerCore,
    table: &InflightTable,
    fleet: &fedat_sim::Fleet,
    client: usize,
    now: f64,
) -> bool {
    fleet.is_alive(client, now) && !table.contains(client) && !core.is_quarantined(client, now)
}

/// Earliest virtual time at which any of `clients` is both alive and out of
/// quarantine — the park-until time for a pool with nothing dispatchable
/// right now. `None` when no client ever returns (all gone for good).
pub(crate) fn earliest_return(
    core: &ServerCore,
    ctx: &SimCtx,
    clients: impl Iterator<Item = usize>,
    now: f64,
) -> Option<f64> {
    clients
        .filter_map(|c| {
            let up = ctx.fleet.next_up_time(c, now)?;
            Some(up.max(core.guard_release_time(c)))
        })
        .min_by(f64::total_cmp)
}

/// One in-flight client computation, launched at dispatch time.
pub(crate) struct Inflight {
    /// The training computation for this dispatch. The downloaded weights,
    /// selection round, epoch count and prox flag were all captured into
    /// the job when it launched — no simulator state can leak in later,
    /// which is what makes speculative execution trace-invisible.
    pub handle: crate::local::TrainHandle,
    /// This dispatch's selection round (the client's dispatch ordinal) —
    /// the corruption scenario keys its per-event draw on it so the decision
    /// is a pure function of the dispatch, independent of event order.
    pub selection_round: u64,
    /// The decoded broadcast this dispatch trained from — the shared
    /// reference model for delta-family uplink codecs. Both ends hold it
    /// (the client received it on the downlink; the server keeps this `Arc`
    /// in its standing in-flight table), so encoding the uplink against it
    /// costs no extra traffic and decoding is trivially consistent.
    pub reference: std::sync::Arc<[f32]>,
}

/// What a completion event meant for the client's round trip.
pub(crate) enum PhaseEvent {
    /// The client's trained update landed at the server.
    Landed {
        /// The barrier lane the dispatch belongs to.
        lane: usize,
        /// Observed dispatch→arrival latency (feeds the re-tiering EWMA).
        latency: f64,
        /// Post-roundtrip uploaded weights.
        weights: Vec<f32>,
        /// The client's sample count (aggregation weight).
        n_samples: usize,
    },
    /// The dispatch was lost to a dropout.
    Lost {
        /// The barrier lane the dispatch belongs to.
        lane: usize,
    },
    /// The update arrived but the guard discarded it (non-finite or over
    /// the norm screen). For round/slot accounting this is a loss; the
    /// reject/quarantine bookkeeping already happened inside the screen.
    Rejected {
        /// The barrier lane the dispatch belongs to.
        lane: usize,
    },
    /// Stale event: the dispatch was already resolved (cancelled by a
    /// deadline).
    Unknown,
}

/// A dispatch cancelled by its deadline timer.
pub(crate) struct TimedOut {
    pub client: usize,
    /// The barrier lane the dispatch belongs to.
    pub lane: usize,
    /// Retries already spent on this round slot.
    pub retries: u32,
}

/// One tracked dispatch: its training plus the bookkeeping the fault layer
/// needs (lane, group, retry count, dispatch time).
struct Dispatch {
    /// The barrier lane that waits for this dispatch (always 0 for the
    /// arrival server, which has no barriers).
    lane: usize,
    /// The `tier` its fault-log rows carry.
    group: u64,
    retries: u32,
    dispatched_at: f64,
    inflight: Inflight,
}

/// The tag of `client`'s dispatch with ordinal `selection_round`: unique
/// over a run, and clear of [`REVIVE_BIT`] (ordinals stay below 2³¹).
fn dispatch_tag(client: usize, selection_round: u64) -> u64 {
    debug_assert!(selection_round < 1 << 31 && (client as u64) < 1 << 32);
    (selection_round << 32) | client as u64
}

/// The server's table of in-flight dispatches: a dense `Vec` indexed by
/// client (client ids are `0..n`), an O(1) lookup on every completion,
/// where an arrival-driven run holds one live entry per client (2 000 on
/// the `async-overhead` benchmark workload).
///
/// A dispatch's event tag is [`dispatch_tag`] of its client and selection
/// round, so a completion or deadline timer names its client, and arriving
/// after the dispatch was cancelled (or after the client was re-dispatched
/// under a newer ordinal) it no longer matches the client's entry and
/// resolves to nothing instead of corrupting round accounting.
pub(crate) struct InflightTable {
    by_client: Vec<Option<Dispatch>>,
}

impl InflightTable {
    /// An empty table for clients `0..clients`.
    pub fn new(clients: usize) -> Self {
        InflightTable {
            by_client: std::iter::repeat_with(|| None).take(clients).collect(),
        }
    }

    /// Whether `client` has a dispatch in flight.
    pub fn contains(&self, client: usize) -> bool {
        self.by_client[client].is_some()
    }

    /// Registers a new dispatch and returns its tag (the tag to dispatch
    /// under and the tag its deadline timer carries).
    pub fn begin(
        &mut self,
        client: usize,
        lane: usize,
        group: u64,
        retries: u32,
        now: f64,
        inflight: Inflight,
    ) -> u64 {
        let tag = dispatch_tag(client, inflight.selection_round);
        let prev = self.by_client[client].replace(Dispatch {
            lane,
            group,
            retries,
            dispatched_at: now,
            inflight,
        });
        debug_assert!(prev.is_none(), "client {client} already in flight");
        tag
    }

    /// Takes `client`'s entry if it is the dispatch tagged `tag`.
    fn take(&mut self, client: usize, tag: u64) -> Option<Dispatch> {
        self.by_client
            .get_mut(client)?
            .take_if(|d| dispatch_tag(client, d.inflight.selection_round) == tag)
    }

    /// Resolves one client's round trip for its completion.
    ///
    /// A landed completion *joins* the training job launched at dispatch
    /// (running it now if the job cap is 0 or no worker got to it), takes
    /// the trained weights through the uplink codec in the vector they
    /// arrived in (charging the actual uplink payload), lets the corruption
    /// scenario (if active) mangle them and the guard layer (if active)
    /// screen them, and hands the update back to the strategy. A dropout
    /// discards the speculative result unjoined. A completion whose tag
    /// doesn't match the client's entry belongs to a cancelled dispatch and
    /// is reported [`PhaseEvent::Unknown`]. Shared by both drivers so the
    /// protocol cannot diverge.
    pub fn advance(
        &mut self,
        core: &mut ServerCore,
        ctx: &mut SimCtx,
        c: &Completion,
    ) -> PhaseEvent {
        let Some(d) = self.take(c.client, c.tag) else {
            return PhaseEvent::Unknown;
        };
        let info = d.inflight;
        if c.dropped {
            // Dropped mid-round: the dispatch-time job is wasted work.
            core.abandon(info);
            return PhaseEvent::Lost { lane: d.lane };
        }
        let update = info.handle.join();
        // Uplink bytes are charged on the *honest* encoded payload first:
        // corruption mangles the values in flight, it does not change what
        // the client transmitted or the traffic meter's view of it.
        let reference = Some(&info.reference[..]);
        let mut weights = core
            .transport
            .upload(ctx, c.client, update.weights, reference);
        let tier = Some(d.group as usize);
        if let Some(mode) = ctx
            .fleet
            .corrupt_update(c.client, info.selection_round, &mut weights)
        {
            log_fault(ctx, FaultKind::Corrupt, Some(c.client), tier, mode);
        }
        if !core.screen_update(ctx, c.client, d.group, &mut weights) {
            return PhaseEvent::Rejected { lane: d.lane };
        }
        PhaseEvent::Landed {
            lane: d.lane,
            latency: ctx.now() - d.dispatched_at,
            weights,
            n_samples: update.n_samples,
        }
    }

    /// Cancels the dispatch whose deadline timer (tag = the dispatch's tag)
    /// fired. Returns `None` when the timer is stale — the dispatch already
    /// landed or was lost. The cancelled job is discarded unjoined; its
    /// eventual completion event resolves to [`PhaseEvent::Unknown`].
    pub fn timeout(&mut self, core: &mut ServerCore, tag: u64) -> Option<TimedOut> {
        let client = (tag & u64::from(u32::MAX)) as usize;
        let d = self.take(client, tag)?;
        core.abandon(d.inflight);
        Some(TimedOut {
            client,
            lane: d.lane,
            retries: d.retries,
        })
    }
}

/// Builds the strategy object for a config. It reads the job cap of the
/// kernel overlay installed on the calling thread — the run's (see
/// [`crate::exec::resolve`]).
pub fn build_strategy(
    task: Arc<FedTask>,
    cfg: &ExperimentConfig,
    fleet: &fedat_sim::Fleet,
) -> Box<dyn Strategy> {
    use arrival::ArrivalServer;
    use round::RoundServer;
    match cfg.strategy {
        StrategyKind::FedAvg => Box::new(RoundServer::new(task, cfg, sync::FedAvg)),
        StrategyKind::FedProx => {
            let policy = sync::FedProx::new(cfg, fleet);
            Box::new(RoundServer::new(task, cfg, policy))
        }
        StrategyKind::TiFL => {
            let policy = tifl::Tifl::new(cfg, fleet);
            Box::new(RoundServer::new(task, cfg, policy))
        }
        StrategyKind::FedAt => {
            let policy = fedat::FedAt::new(&task, cfg, fleet);
            Box::new(RoundServer::new(task, cfg, policy))
        }
        StrategyKind::FedAsync => {
            let mixer = mixers::FedAsync::new(cfg);
            Box::new(ArrivalServer::new(task, cfg, mixer))
        }
        StrategyKind::AsoFed => {
            let mixer = mixers::AsoFed::new(&task, cfg);
            Box::new(ArrivalServer::new(task, cfg, mixer))
        }
    }
}
