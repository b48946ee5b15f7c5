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
use crate::eval::Evaluator;
use crate::exec::Speculation;
use crate::transport::Transport;
use fedat_data::suite::FedTask;
use fedat_sim::fault::{FaultEvent, FaultKind};
use fedat_sim::runtime::{Completion, EventHandler, SimCtx};
use fedat_sim::trace::{Trace, TracePoint};
use std::collections::BTreeMap;
use std::sync::Arc;

/// High bit of a timer tag: marks revival wake-ups (a parked tier or a
/// flapped-out async client coming back). Every other timer tag is a
/// dispatch generation carrying that dispatch's deadline.
pub(crate) const REVIVE_BIT: u64 = 1 << 63;

/// Counters summarizing one run's server-side fault-tolerance activity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    /// Dispatches cancelled at their deadline.
    pub timeouts: u64,
    /// Timed-out slots re-dispatched to a replacement client.
    pub retries: u64,
    /// Rounds concluded below quorum (degraded or skipped with staleness
    /// accounting).
    pub quorum_rounds: u64,
    /// Dynamic re-tier adoptions.
    pub retier_events: u64,
    /// Revival timers that restarted a parked tier or client.
    pub revivals: u64,
    /// Uplink payloads mangled by the corrupted-update scenario (ground
    /// truth — the server cannot observe this directly).
    pub corrupt: u64,
    /// Updates discarded by the guard (non-finite, or over the norm screen
    /// with clipping disabled).
    pub rejects: u64,
    /// Updates clipped down to the norm-screen threshold.
    pub clips: u64,
    /// Async updates discarded for exceeding the staleness bound.
    pub stale: u64,
    /// Clients quarantined for repeat offenses.
    pub quarantines: u64,
}

/// A runnable FL method: the event handler, and the results it hands back
/// once the event loop has exited.
pub trait Strategy: EventHandler + Send {
    /// Ends the run: joins the in-flight pipelined evaluation, if any, so
    /// the trace and variance checkpoints are complete, and moves the
    /// results out.
    fn finish(self: Box<Self>) -> Finished;
}

/// What a finished run hands back ([`Strategy::finish`]).
pub struct Finished {
    /// The accuracy/loss/bytes trace.
    pub trace: Trace,
    /// Final global model weights.
    pub global_weights: Vec<f32>,
    /// Number of global updates performed (`t` in Algorithm 2).
    pub global_updates: u64,
    /// Per-client accuracy variances sampled along the run (what the
    /// paper's Table 1 `Norm. Var.` averages).
    pub variance_checkpoints: Vec<f32>,
    /// Fault-tolerance activity counters.
    pub fault_counters: FaultCounters,
    /// Per-tier update counts for tiered strategies (`None` otherwise) —
    /// lets callers assert that no tier stalled.
    pub tier_updates: Option<Vec<u64>>,
    /// Speculative launches and discards of this run.
    pub speculation: Speculation,
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
    /// Fault-tolerance activity for the whole run.
    pub faults: FaultCounters,
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
        let codec = crate::config::resolve_codec(cfg.codec, cfg.strategy);
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
            faults: FaultCounters::default(),
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
                let accs = crate::eval::per_client_accuracy(&task, &weights, seed);
                crate::eval::accuracy_variance(&accs)
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

    /// Both drivers' [`Strategy::finish`], less the policy's `tier_updates`:
    /// joins the eval pipeline's straggler and moves the results out.
    pub fn finish(mut self) -> Finished {
        self.join_pending_eval();
        Finished {
            trace: self.trace,
            global_weights: self.global,
            global_updates: self.updates,
            variance_checkpoints: self.variance_checkpoints,
            fault_counters: self.faults,
            tier_updates: None,
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
    /// the in-flight phase entry holding its handle. The job begins on the
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
    ) -> ClientPhase {
        self.speculation.launches += u64::from(self.speculative);
        ClientPhase::Computing(Inflight {
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
        })
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
    /// Runs at the Uploading→Landed seam, in virtual-time event order, on
    /// values that are already bit-identical across execution modes — so
    /// every decision (and the EWMA it feeds) is deterministic.
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
                        self.faults.clips += 1;
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
        self.faults.rejects += 1;
        let (now, tier) = (ctx.now(), Some(group as usize));
        log_fault(ctx, FaultKind::Reject, Some(client), tier, detail);
        if let Some(after) = self.cfg.guard.quarantine_after {
            self.guard.ensure(client);
            self.guard.offenses[client] += 1;
            if self.guard.offenses[client] >= after {
                self.guard.offenses[client] = 0;
                self.guard.quarantined_until[client] = now + self.cfg.guard.quarantine_secs;
                self.faults.quarantines += 1;
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

    /// Records one async update discarded for exceeding the staleness
    /// bound. Staleness is a timing property, not a value property, so it
    /// does not count toward quarantine offenses.
    pub fn note_stale(&mut self, ctx: &mut SimCtx, client: usize, group: u64, staleness: u64) {
        self.faults.stale += 1;
        let tier = Some(group as usize);
        log_fault(ctx, FaultKind::Stale, Some(client), tier, staleness);
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

/// Where one client currently is in its round trip.
///
/// A client dispatch now takes two simulator events: the *compute*
/// completion (download + local training done — the strategy joins the
/// training result and puts the encoded update on the wire) and the
/// *upload arrival* (the uplink transfer finished — the update is
/// applied). Under infinite bandwidth the second event fires at the same
/// virtual instant; with a finite link it charges the actual encoded
/// payload of the *trained* weights, which differs from the downlink
/// payload once a lossy codec is in play.
pub(crate) enum ClientPhase {
    /// Dispatched; local training completes with the compute event.
    Computing(Inflight),
    /// Trained; the encoded update is in flight to the server.
    Uploading {
        /// Post-roundtrip uploaded weights.
        weights: Vec<f32>,
        /// The client's sample count (aggregation weight).
        n_samples: usize,
    },
}

/// What a completion event meant for the client's round trip.
pub(crate) enum PhaseEvent {
    /// Compute finished; the upload is now in flight — nothing to account
    /// yet (the dispatch is still outstanding).
    UploadScheduled,
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
    /// The dispatch was lost to a dropout (mid-compute or mid-upload).
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
    /// Stale event: the dispatch was already resolved (e.g. cancelled by a
    /// deadline) or superseded by a newer generation.
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

/// One tracked dispatch: the phase state machine plus the bookkeeping the
/// fault layer needs (generation, lane, group, retry count, dispatch time).
struct Dispatch {
    gen: u64,
    /// The barrier lane that waits for this dispatch (always 0 for the
    /// arrival server, which has no barriers).
    lane: usize,
    /// The `tier` its fault-log rows carry.
    group: u64,
    retries: u32,
    dispatched_at: f64,
    phase: ClientPhase,
}

/// The server's table of in-flight dispatches, keyed by client and by a
/// monotonically increasing *generation*. The generation is the dispatch's
/// event tag, so a completion or deadline timer arriving after the dispatch
/// was cancelled (or after the client was re-dispatched under a new
/// generation) resolves to nothing instead of corrupting round accounting.
///
/// Both maps are `BTreeMap`, not `HashMap`: every lookup here is keyed, but
/// a future `.iter()` over a RandomState-seeded map would silently order
/// server actions nondeterministically — the exact failure mode `fedat-lint`
/// rule R1 guards against. The ordered map makes any future iteration
/// deterministic by construction (and the keyed-op cost is identical at
/// in-flight sizes of tens of entries).
pub(crate) struct InflightTable {
    by_client: BTreeMap<usize, Dispatch>,
    client_of: BTreeMap<u64, usize>,
    next_gen: u64,
}

impl InflightTable {
    pub fn new() -> Self {
        InflightTable {
            by_client: BTreeMap::new(),
            client_of: BTreeMap::new(),
            // Generations start at 1 and stay below REVIVE_BIT for any
            // conceivable run length, so tag namespaces never collide.
            next_gen: 1,
        }
    }

    /// Whether `client` has a dispatch in flight.
    pub fn contains(&self, client: usize) -> bool {
        self.by_client.contains_key(&client)
    }

    /// Registers a new dispatch and returns its generation (the tag to
    /// dispatch under and the tag its deadline timer carries).
    pub fn begin(
        &mut self,
        client: usize,
        lane: usize,
        group: u64,
        retries: u32,
        now: f64,
        phase: ClientPhase,
    ) -> u64 {
        let gen = self.next_gen;
        self.next_gen += 1;
        let prev = self.by_client.insert(
            client,
            Dispatch {
                gen,
                lane,
                group,
                retries,
                dispatched_at: now,
                phase,
            },
        );
        debug_assert!(prev.is_none(), "client {client} already in flight");
        self.client_of.insert(gen, client);
        gen
    }

    /// Advances one client's compute→upload state machine for a completion.
    ///
    /// On a compute completion this *joins* the training job launched at
    /// dispatch (running it now if the job cap is 0 or no worker got to
    /// it), takes the trained weights through the uplink codec in
    /// the vector they arrived in (charging the *actual* uplink payload)
    /// and schedules the upload arrival; on the
    /// arrival it hands the update back to the strategy, after the
    /// corruption scenario (if active) mangled the payload and the guard
    /// layer (if active) screened it. A dropout mid-compute discards the
    /// speculative result unjoined. A completion whose tag doesn't match
    /// the client's current generation belongs to a cancelled dispatch and
    /// is reported [`PhaseEvent::Unknown`]. Shared by both drivers so the
    /// phase protocol cannot diverge.
    pub fn advance(
        &mut self,
        core: &mut ServerCore,
        ctx: &mut SimCtx,
        c: &Completion,
    ) -> PhaseEvent {
        match self.by_client.get(&c.client) {
            Some(d) if d.gen == c.tag => {}
            _ => return PhaseEvent::Unknown,
        }
        let mut d = self.by_client.remove(&c.client).expect("checked above");
        match d.phase {
            ClientPhase::Computing(info) if !c.dropped => {
                let update = info.handle.join();
                // Uplink bytes are charged on the *honest* encoded payload
                // first: corruption mangles the values in flight, it does
                // not change what the client transmitted or the traffic
                // meter's view of it.
                let (mut w_up, up_bytes) =
                    core.transport
                        .upload(ctx, c.client, update.weights, Some(&info.reference));
                if let Some(mode) =
                    ctx.fleet
                        .corrupt_update(c.client, info.selection_round, &mut w_up)
                {
                    core.faults.corrupt += 1;
                    let tier = Some(d.group as usize);
                    log_fault(ctx, FaultKind::Corrupt, Some(c.client), tier, mode);
                }
                d.phase = ClientPhase::Uploading {
                    weights: w_up,
                    n_samples: update.n_samples,
                };
                self.by_client.insert(c.client, d);
                ctx.schedule_transfer(c.client, c.tag, up_bytes);
                PhaseEvent::UploadScheduled
            }
            ClientPhase::Uploading {
                mut weights,
                n_samples,
            } if !c.dropped => {
                self.client_of.remove(&d.gen);
                if !core.screen_update(ctx, c.client, d.group, &mut weights) {
                    return PhaseEvent::Rejected { lane: d.lane };
                }
                PhaseEvent::Landed {
                    lane: d.lane,
                    latency: ctx.now() - d.dispatched_at,
                    weights,
                    n_samples,
                }
            }
            ClientPhase::Computing(info) => {
                // Dropped mid-compute: the dispatch-time job is wasted work.
                core.abandon(info);
                self.client_of.remove(&d.gen);
                PhaseEvent::Lost { lane: d.lane }
            }
            ClientPhase::Uploading { .. } => {
                self.client_of.remove(&d.gen);
                PhaseEvent::Lost { lane: d.lane }
            }
        }
    }

    /// Cancels the dispatch whose deadline timer (tag = generation) fired.
    /// Returns `None` when the timer is stale — the dispatch already landed
    /// or was lost. A cancelled mid-compute job is discarded unjoined; its
    /// eventual completion event resolves to [`PhaseEvent::Unknown`].
    pub fn timeout(&mut self, core: &mut ServerCore, gen: u64) -> Option<TimedOut> {
        let client = self.client_of.remove(&gen)?;
        let d = self.by_client.remove(&client)?;
        debug_assert_eq!(d.gen, gen);
        if let ClientPhase::Computing(info) = d.phase {
            core.abandon(info);
        }
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
