//! The six federated-learning methods, all driven by the same
//! discrete-event runtime.
//!
//! There is one server state machine, [`round`]'s `RoundServer`: it moves
//! the global model when a lane concludes a round, and it owns the
//! in-flight table and the whole fault layer. A method is a small policy
//! plugged into it — the table is the design:
//!
//! | Strategy | Lanes | Policy | Eligible for a round | Local work | Mixing |
//! |---|---|---|---|---|---|
//! | FedAvg | 1 | `sync::FedAvg` | whole fleet, uniform sample | `E` epochs | rule-aggregate the cohort into the global model |
//! | FedProx | 1 | `sync::FedProx` | whole fleet, uniform sample | fewer epochs on slower devices, prox term | as FedAvg |
//! | TiFL | 1 | `tifl::Tifl` | one tier, drawn by accuracy-driven credits | `E` epochs | as FedAvg |
//! | FedAT | `M`, one per tier | `fedat::FedAt` | lane `m` = tier `m`'s members | `E` epochs, prox term | rule-aggregate into the tier model, then the Eq. 5 cross-tier average (the paper) |
//! | FedAsync | one per client, wait-free | `wait_free::WaitFree::FedAsync` | lane `c` = client `c`, always | `E` epochs | `w ← lerp(w, w_k, α·s(staleness))` |
//! | ASO-Fed | one per client, wait-free | `wait_free::WaitFree::AsoFed` | lane `c` = client `c`, always | `E` epochs, prox term | replace client `k`'s server copy; `w` = `n_k/N`-weighted mean of the copies |
//!
//! "Eligible" always also means alive, idle and out of quarantine — one
//! predicate, applied by the driver at round start, deadline retry and
//! revival alike. A new method implements [`round::RoundPolicy`] and runs
//! through [`run_experiment_with`](crate::experiment::run_experiment_with)
//! (`examples/custom_strategy.rs` does, in one method).

mod fedat;
pub mod round;
mod sync;
mod tifl;
mod wait_free;

use crate::config::{ExperimentConfig, StrategyKind};
use crate::eval::{accuracy_variance, per_client_accuracy, Evaluator};
use crate::exec::Speculation;
use crate::experiment::Outcome;
use crate::local::{train_client, LocalUpdate};
use crate::transport::Transport;
use fedat_data::suite::FedTask;
use fedat_sim::fault::{FaultEvent, FaultKind, FaultLog};
use fedat_sim::runtime::{SimCtx, SimReport};
use fedat_sim::trace::{Trace, TracePoint};
use fedat_tensor::pool::JobHandle;
use round::RoundPolicy;
use std::sync::Arc;

/// The driver's server-side state that no lane owns: the model, the
/// transport, evaluation, the budget and the guard.
pub(crate) struct ServerCore {
    pub task: Arc<FedTask>,
    /// Shared so dispatch-time training jobs can carry the config to any
    /// pool worker without cloning it per dispatch.
    pub cfg: Arc<ExperimentConfig>,
    pub transport: Transport,
    /// Whether the run's job cap lets jobs onto the pool — what makes a
    /// dispatch a speculative launch. Read once, from the kernel overlay
    /// the run installed before building its server.
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
struct GuardState {
    /// EWMA of accepted (post-clip) update L2 norms; `None` until the
    /// first accepted update initializes it.
    ewma_norm: Option<f64>,
    /// Per-client rejected-update counts since the last quarantine.
    offenses: Vec<u32>,
    /// Per-client quarantine release times (0 = never quarantined).
    quarantined_until: Vec<f64>,
}

/// One round-boundary evaluation running as a kernel-pool job while the
/// event loop trains the next round. Everything a trace point needs besides
/// accuracy/loss was snapshotted at the cadence point, so the joined point
/// does not depend on when the job ran.
struct PendingEval {
    handle: JobHandle<(Evaluator, fedat_nn::model::EvalResult, Option<f32>)>,
    time: f64,
    round: u64,
    up_bytes: u64,
    down_bytes: u64,
}

/// Per-client variance is sampled every this many global evaluations. A
/// per-client sweep costs several global evaluations of 512 rows: 2.3× on
/// the benchmark's `table1-cnn`, 7.9× on `cohort500-wire` and
/// `robust-churn`, 31.6× on `async-overhead`, whose 2 000 clients make it
/// 2 000 ten-row batches (1.47 ms against 0.046 ms).
pub const VARIANCE_EVAL_STRIDE: u64 = 5;

/// Extra update-budget multiplier for the wait-free methods (FedAsync,
/// ASO-Fed): their single-client updates land continuously, so
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
        let clients = task.fed.num_clients();
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
            guard: GuardState {
                ewma_norm: None,
                offenses: vec![0; clients],
                quarantined_until: vec![0.0; clients],
            },
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

    /// Ends the run: joins the eval pipeline's straggler, so the trace and
    /// variance checkpoints are complete, sweeps the final per-client
    /// accuracies and builds the run's [`Outcome`] around the simulator's
    /// `report` and fault log.
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

    /// Starts one client's local training *at dispatch time*: submits
    /// [`train_client`] to the kernel pool under the run's kernel overlay,
    /// so concurrent runs cannot cross-talk. The job begins on the pool
    /// immediately unless the run's job cap is 0 (see [`crate::exec`]),
    /// which defers it to the join when the update lands. `weights` is the
    /// shared decoded broadcast — launching clones `Arc`s, never the model.
    /// `round` is the client's selection counter (it fixes the batch
    /// schedule) and `prox` whether the Eq. (3) proximal term applies.
    pub fn launch(
        &mut self,
        client: usize,
        weights: &Arc<[f32]>,
        epochs: usize,
        round: u64,
        prox: bool,
    ) -> JobHandle<LocalUpdate> {
        self.speculation.launches += u64::from(self.speculative);
        let (task, cfg) = (Arc::clone(&self.task), Arc::clone(&self.cfg));
        let global = Arc::clone(weights);
        fedat_tensor::pool::submit(move || {
            train_client(&task, client, &global, &cfg, epochs, round, prox)
        })
    }

    /// Abandons a dispatch's training: dropping the handle cancels the job
    /// (an unstarted one costs nothing), and under a non-zero job cap the
    /// launch it undoes counts as a discard.
    pub fn abandon(&mut self, handle: JobHandle<LocalUpdate>) {
        drop(handle);
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
        now < self.guard.quarantined_until[client]
    }

    /// When `client`'s quarantine lifts (0.0 if never quarantined).
    pub fn guard_release_time(&self, client: usize) -> f64 {
        self.guard.quarantined_until[client]
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

/// The policy of the built-in method `cfg.strategy` names: what
/// [`crate::experiment::run_experiment_shared`] runs the server on.
pub(crate) fn policy_for(
    task: &FedTask,
    cfg: &ExperimentConfig,
    fleet: &fedat_sim::Fleet,
) -> Box<dyn RoundPolicy> {
    match cfg.strategy {
        StrategyKind::FedAvg => Box::new(sync::FedAvg),
        StrategyKind::FedProx => Box::new(sync::FedProx::new(cfg, fleet)),
        StrategyKind::TiFL => Box::new(tifl::Tifl::new(cfg, fleet)),
        StrategyKind::FedAt => Box::new(fedat::FedAt::new(task, cfg, fleet)),
        StrategyKind::FedAsync => Box::new(wait_free::WaitFree::fedasync(cfg, fleet.len())),
        StrategyKind::AsoFed => Box::new(wait_free::WaitFree::asofed(task, cfg)),
    }
}
