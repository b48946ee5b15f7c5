//! The traced pass (`--trace 1`): an outside-in profile of the layers one
//! workload exercises.
//!
//! Nothing inside the program is instrumented. The pass calls each layer's
//! public entry points itself — with the workload's own model, codec,
//! aggregation rule, cohort size and *trained* updates — wraps every call in
//! a span, and reports the median call time (or the rate it implies). Two
//! full-length runs of the workload, one with training inline on the event
//! loop and one under default (speculative) execution, give the wall the
//! `share.*` estimates are divided by and the speed-up the pool buys.
//!
//! `share.x = median call time × calls the run makes ÷ inline wall`. The
//! call counts come from the run's own `Outcome`, and replayed clients are
//! drawn the way the run draws them (see [`replay_clients`]): small clients
//! finish sooner and dominate an asynchronous update stream, so uniform
//! sampling would overstate training cost. What the shares do not cover —
//! the strategy state machine, transport glue, guard screening, joins — is
//! `core.strategies.residual_share`.

use crate::manifest::PER_LAYER;
use crate::output::PassResult;
use crate::run::{health, measured, Measured};
use crate::spans::Tracer;
use crate::stats::{fingerprint, median};
use crate::workloads::{sub_seed, Workload, BATCH_SIZE, CLIENTS_PER_ROUND, NUM_TIERS};
use fedat_bench::grid::run_grid;
use fedat_bench::harness::Job;
use fedat_compress::codec::{codec_for, CodecKind};
use fedat_core::aggregate::{aggregate_clients_into, aggregate_tiers_into, cross_tier_weights};
use fedat_core::config::StrategyKind;
use fedat_core::eval::{per_client_accuracy, Evaluator};
use fedat_core::exec::ExecMode;
use fedat_core::local::train_client;
use fedat_core::tiering::TierAssignment;
use fedat_core::transport::is_delta_family;
use fedat_core::{ExperimentConfig, Outcome};
use fedat_data::suite::FedTask;
use fedat_nn::models::ModelSpec;
use fedat_nn::optim::ProxTerm;
use fedat_nn::Mode;
use fedat_sim::fleet::Fleet;
use fedat_sim::runtime::{self, Completion, EventHandler, RunLimits, SimCtx, SimReport};
use fedat_tensor::ops::{
    lerp_into, matmul_into, matmul_nt_into, matmul_tn_into, robust_reduce_into, weighted_sum_into,
    RobustRule,
};
use fedat_tensor::pool;
use fedat_tensor::rng::{rng_for, uniform};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Calls per probe before its time slice may end it.
const MIN_CALLS: usize = 30;

/// Calls after which a probe that has used four slices gives up on
/// [`MIN_CALLS`] (task builds and client sweeps take tens of milliseconds).
const FEW_CALLS: usize = 5;

/// Spans one probe may record; a span covers as many back-to-back calls as
/// it takes for this many spans to fill the probe's time slice.
const MAX_SPANS: usize = 1000;

/// Shortest span: two clock reads cost ~50 ns, which would otherwise be a
/// third of a 330-weight matmul.
const SPAN_FLOOR_S: f64 = 5e-6;

/// Events one call of the event-loop probe processes.
const EVENTS_PER_CALL: u64 = 50_000;

/// One evaluation in [`VARIANCE_STRIDE`] also sweeps every client's test set
/// (`fedat_core::strategies::VARIANCE_EVAL_STRIDE`).
const VARIANCE_STRIDE: usize = fedat_core::strategies::VARIANCE_EVAL_STRIDE as usize;

/// RNG stream tag for the benchmark's own draws (disjoint from
/// `fedat_tensor::rng::tags`).
const REPLAY_TAG: u64 = 0xBE7C_0001;

/// Runs layer calls inside spans under one root and a time slice per probe,
/// and keeps every probe's median.
struct Probes {
    tracer: Tracer,
    root: usize,
    slice_s: f64,
    /// Median seconds per unit of work, by probe name.
    seconds: BTreeMap<&'static str, f64>,
}

impl Probes {
    /// Calls `f` until it has been called [`MIN_CALLS`] times and the slice
    /// is used up; records the median seconds per unit of work under `name`,
    /// where `f` returns the units one call performed (1 for "per call").
    fn probe(&mut self, name: &'static str, mut f: impl FnMut() -> f64) {
        let group = self.tracer.open("probe", Some(self.root));
        let (units, first) = self.tracer.time(name, Some(group), &mut f);
        let span_s = SPAN_FLOOR_S.max(self.slice_s / MAX_SPANS as f64);
        let per_span = (span_s / first.max(1e-9)).ceil().clamp(1.0, 65536.0) as usize;
        let mut per_unit = vec![first / units];
        let started = Instant::now();
        let mut calls = 1;
        loop {
            let elapsed = started.elapsed().as_secs_f64();
            let enough = calls >= MIN_CALLS && elapsed >= self.slice_s;
            let slow = calls >= FEW_CALLS && elapsed >= 4.0 * self.slice_s;
            if enough || slow || per_unit.len() >= MAX_SPANS {
                break;
            }
            let span = self.tracer.open(name, Some(group));
            let units: f64 = (0..per_span).map(|_| f()).sum();
            per_unit.push(self.tracer.close(span) / units);
            calls += per_span;
        }
        self.tracer.close(group);
        self.seconds.insert(name, median(&per_unit));
    }

    /// One full experiment run inside a span.
    fn run(&mut self, name: &'static str, task: &Arc<FedTask>, cfg: &ExperimentConfig) -> Measured {
        let root = self.root;
        self.tracer.time(name, Some(root), || measured(task, cfg)).0
    }
}

/// A healthy run with the same final model and the same trace as
/// `reference` (`what` it is): the repository's bit-identity contract across
/// execution modes and grid scheduling.
fn healthy_and_same(run: &Outcome, reference: &Outcome, what: &str) -> Result<(), String> {
    health(run)?;
    if fingerprint(&run.final_weights) == fingerprint(&reference.final_weights)
        && run.trace.points == reference.trace.points
    {
        Ok(())
    } else {
        Err(format!("differs from {what}"))
    }
}

/// A no-op strategy: keeps every live client busy and does nothing with the
/// completions, so a run over it times the event loop alone.
struct Redispatch {
    epochs: usize,
    budget: u64,
    scheduled: u64,
    completed: u64,
}

impl Redispatch {
    fn new(epochs: usize, budget: u64) -> Self {
        Redispatch {
            epochs,
            budget,
            scheduled: 0,
            completed: 0,
        }
    }

    fn dispatch(&mut self, ctx: &mut SimCtx, client: usize) {
        if self.scheduled < self.budget {
            ctx.dispatch(client, 0, self.epochs);
            self.scheduled += 1;
        }
    }
}

impl EventHandler for Redispatch {
    fn on_start(&mut self, ctx: &mut SimCtx) {
        for c in ctx.alive_clients() {
            self.dispatch(ctx, c);
        }
    }

    fn on_completion(&mut self, ctx: &mut SimCtx, c: Completion) {
        self.completed += 1;
        if !c.dropped && ctx.fleet.is_alive(c.client, ctx.now()) {
            self.dispatch(ctx, c.client);
        }
    }

    fn finished(&self) -> bool {
        self.completed >= self.budget
    }
}

fn event_loop(fleet: &Fleet, epochs: usize, seed: u64, budget: u64) -> (SimReport, Redispatch) {
    let mut handler = Redispatch::new(epochs, budget);
    let report = runtime::run(&mut handler, fleet, seed, RunLimits::default());
    (report, handler)
}

/// Input and output width of the model's widest dense layer — the matmul
/// shape local training actually runs at batch size 10.
fn widest_dense(spec: &ModelSpec) -> (usize, usize) {
    match spec {
        ModelSpec::Logistic { input, classes } => (*input, *classes),
        ModelSpec::Mlp {
            input,
            hidden,
            classes,
        } => {
            let dims: Vec<usize> = std::iter::once(*input)
                .chain(hidden.iter().copied())
                .chain(std::iter::once(*classes))
                .collect();
            dims.windows(2)
                .map(|w| (w[0], w[1]))
                .max_by_key(|(k, n)| k * n)
                .expect("an MLP has at least one dense layer")
        }
        ModelSpec::CnnLite { height, width, .. } => (32 * (height / 4) * (width / 4), 64),
        ModelSpec::CnnPaper { height, width, .. } => (64 * (height / 8) * (width / 8), 64),
        ModelSpec::LstmLm { vocab, hidden, .. } => (*hidden, *vocab),
    }
}

/// Draws `n` clients the way a run of `workload` trains them.
///
/// FedAT: tier `t` in proportion to its update count in the reference run,
/// clients uniform within the tier. FedAsync: client `c` in proportion to
/// `1 / expected_latency(c)` — every client trains back to back, so fast
/// (small) clients contribute proportionally more updates.
fn replay_clients(
    workload: Workload,
    fleet: &Fleet,
    tiers: &TierAssignment,
    tier_updates: Option<&[u64]>,
    seed: u64,
    n: usize,
) -> Vec<usize> {
    let epochs = workload.local_epochs();
    let mut weights = vec![0.0f64; fleet.len()];
    match tier_updates {
        Some(counts) => {
            for (t, &count) in counts.iter().enumerate() {
                let members = tiers.tier(t);
                for &c in members {
                    weights[c] = count as f64 / members.len() as f64;
                }
            }
        }
        None => {
            for (c, w) in weights.iter_mut().enumerate() {
                *w = 1.0 / fleet.expected_latency(c, epochs);
            }
        }
    }
    let cumulative: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, w| {
            *acc += w;
            Some(*acc)
        })
        .collect();
    let total = *cumulative.last().expect("a fleet has clients");
    let mut rng = rng_for(seed, REPLAY_TAG);
    (0..n)
        .map(|_| {
            let u = uniform(&mut rng, 0.0, total);
            cumulative.partition_point(|&c| c <= u).min(fleet.len() - 1)
        })
        .collect()
}

/// Runs the traced pass for `workload`; returns the result and the spans it
/// recorded, for the caller to write out.
pub fn run(workload: Workload, seed: u64, seconds: f64, quick: bool) -> (PassResult, Tracer) {
    let mut tracer = Tracer::new();
    let root = tracer.open("workload", None);
    let mut p = Probes {
        tracer,
        root,
        // 27 probes and ~10 s of full runs share the window.
        slice_s: if quick { 0.0 } else { seconds / 45.0 },
        seconds: BTreeMap::new(),
    };
    let s = sub_seed(seed, 0);
    let rounds = workload.rounds(quick);
    let epochs = workload.local_epochs();
    let k = CLIENTS_PER_ROUND;
    let tiered = workload.strategy() == StrategyKind::FedAt;

    // ---- set-up layers -------------------------------------------------
    let mut built = None;
    p.probe("data.task_build", || {
        built = Some(workload.task(s));
        1.0
    });
    let task = Arc::new(built.expect("the probe ran at least once"));
    let cluster = workload.cluster(s);
    let sizes = task.fed.client_sizes();
    p.probe("sim.fleet_build", || {
        std::hint::black_box(Fleet::new(&cluster, sizes.clone()));
        1.0
    });
    let fleet = Fleet::new(&cluster, sizes.clone());
    p.probe("core.tiering.profile", || {
        std::hint::black_box(TierAssignment::profile(&fleet, NUM_TIERS, epochs));
        1.0
    });
    let tiers = TierAssignment::profile(&fleet, NUM_TIERS, epochs);

    // ---- full runs -----------------------------------------------------
    let cfg = workload.config(s, rounds);
    let inline_cfg = |seed: u64, rounds: u64| {
        let mut c = workload.config(seed, rounds);
        c.exec.mode = Some(ExecMode::Inline);
        c
    };
    let inline = p.run("run.inline", &task, &inline_cfg(s, rounds));
    let default = p.run("run.default", &task, &cfg);
    let eighth = (rounds / 8).max(1);
    let grid_cfgs = [inline_cfg(s, eighth), inline_cfg(s.wrapping_add(1), eighth)];
    let serial: Vec<Measured> = grid_cfgs
        .iter()
        .map(|c| p.run("run.grid_serial", &task, c))
        .collect();
    let jobs: Vec<Job> = grid_cfgs
        .iter()
        .map(|c| Job {
            label: String::new(),
            task: Arc::clone(&task),
            cfg: c.clone(),
        })
        .collect();
    // Workers hint 0: the grid runs on the pool as it is, never grown.
    let (grid, grid_wall) = p.tracer.time("run.grid", Some(root), || run_grid(jobs, 0));
    pool::quiesce();

    let mut problems = Vec::new();
    let mut failed = 0u64;
    let mut check = |name: &str, verdict: Result<(), String>| {
        if let Err(why) = verdict {
            failed += 1;
            problems.push(format!("{name}: {why}"));
        }
    };
    check("inline run", health(&inline.outcome));
    check(
        "default run",
        healthy_and_same(&default.outcome, &inline.outcome, "the inline run"),
    );
    for (i, (g, s)) in grid.iter().zip(&serial).enumerate() {
        check(&format!("serial eighth {i}"), health(&s.outcome));
        check(
            &format!("grid eighth {i}"),
            healthy_and_same(&g.outcome, &s.outcome, "the same job run serially"),
        );
    }
    let attempted = 2 + 2 * grid_cfgs.len() as u64;

    // ---- replay inputs: the trained model and real trained updates -----
    let reference = &default.outcome;
    let global: Arc<[f32]> = reference.final_weights.clone().into();
    let dim = global.len();
    let raw_mb = dim as f64 * 4.0 / 1e6;
    let up_codec = codec_for(workload.codec());
    // Delta-family codecs apply to the uplink only; the shared downlink
    // broadcast travels uncompressed (`fedat_core::transport`).
    let down_codec = codec_for(if is_delta_family(workload.codec()) {
        CodecKind::None
    } else {
        workload.codec()
    });
    let broadcast: Arc<[f32]> = down_codec.decode(&down_codec.encode(&global)).into();
    let replay = replay_clients(
        workload,
        &fleet,
        &tiers,
        reference.tier_updates.as_deref(),
        s,
        4096,
    );
    let mut next_client = replay.iter().copied().cycle();
    let updates: Vec<(Vec<f32>, usize)> = (0..k)
        .map(|i| {
            let c = next_client.next().expect("cycle never ends");
            let u = train_client(&task, c, &broadcast, &cfg, epochs, i as u64, tiered);
            (u.weights, u.n_samples)
        })
        .collect();
    let update_refs: Vec<&[f32]> = updates.iter().map(|(w, _)| w.as_slice()).collect();

    // ---- data ----------------------------------------------------------
    let mut batch_rng = rng_for(s, REPLAY_TAG + 1);
    let mut y = Vec::new();
    p.probe("data.batch_gather", || {
        let c = next_client.next().expect("cycle never ends");
        let data = &task.fed.clients[c].train;
        let schedule = data.batch_schedule(BATCH_SIZE, &mut batch_rng);
        for batch in &schedule {
            data.gather_batch_into(batch, &mut y).recycle();
        }
        schedule.len() as f64
    });

    // ---- tensor --------------------------------------------------------
    let (dk, dn) = widest_dense(&task.model);
    let m = BATCH_SIZE;
    let x_mk = vec![0.01f32; m * dk];
    let w_kn = vec![0.01f32; dk * dn];
    let dy_mn = vec![0.01f32; m * dn];
    let mut y_mn = vec![0.0f32; m * dn];
    let mut dw_kn = vec![0.0f32; dk * dn];
    let mut dx_mk = vec![0.0f32; m * dk];
    // Forward Y = X·W, weight gradient dW = Xᵀ·dY, input gradient dX = dY·Wᵀ.
    p.probe("tensor.matmul_nn", || {
        matmul_into(&x_mk, &w_kn, &mut y_mn, m, dk, dn);
        1.0
    });
    p.probe("tensor.matmul_tn", || {
        matmul_tn_into(&x_mk, &dy_mn, &mut dw_kn, dk, m, dn);
        1.0
    });
    p.probe("tensor.matmul_nt", || {
        matmul_nt_into(&dy_mn, &w_kn, &mut dx_mk, m, dn, dk);
        1.0
    });
    let mut reduced = vec![0.0f32; dim];
    p.probe("tensor.robust_reduce", || {
        robust_reduce_into(
            &update_refs,
            RobustRule::TrimmedMean { trim: k / 5 },
            &mut reduced,
        );
        1.0
    });
    let mean_weights = vec![1.0 / k as f32; k];
    p.probe("tensor.weighted_sum", || {
        weighted_sum_into(&update_refs, &mean_weights, &mut reduced);
        1.0
    });
    p.probe("tensor.pool_roundtrip", || {
        pool::submit(|| ()).join();
        1.0
    });

    // ---- nn ------------------------------------------------------------
    let mut model = task.model.build(s);
    model.set_weights(&broadcast);
    let batch_client = &task.fed.clients[replay[0]].train;
    let rows: Vec<usize> = (0..BATCH_SIZE.min(batch_client.len())).collect();
    let x = batch_client.gather_batch_into(&rows, &mut y);
    p.probe("nn.forward", || {
        model.logits(&x, Mode::Train).recycle();
        1.0
    });
    let mut opt = cfg.optimizer.build();
    let prox = tiered.then(|| ProxTerm::new(cfg.lambda, Arc::clone(&broadcast)));
    p.probe("nn.train_batch", || {
        std::hint::black_box(model.train_batch(&x, &y, opt.as_mut(), prox.as_ref()));
        1.0
    });
    p.probe("nn.weights_roundtrip", || {
        model.set_weights(&global);
        std::hint::black_box(model.weights());
        1.0
    });

    // ---- compress ------------------------------------------------------
    let update = &updates[0].0;
    let blob = up_codec.encode_with_ref(update, Some(&broadcast));
    p.probe("compress.encode", || {
        std::hint::black_box(up_codec.encode_with_ref(update, Some(&broadcast)));
        1.0
    });
    p.probe("compress.decode", || {
        std::hint::black_box(up_codec.decode_with_ref(&blob, Some(&broadcast)));
        1.0
    });
    let down_blob = down_codec.encode(&global);
    p.probe("compress.down_encode", || {
        std::hint::black_box(down_codec.encode(&global));
        1.0
    });
    p.probe("compress.down_decode", || {
        std::hint::black_box(down_codec.decode(&down_blob));
        1.0
    });

    // ---- sim -----------------------------------------------------------
    p.probe("sim.event", || {
        event_loop(&fleet, epochs, s, EVENTS_PER_CALL).0.events as f64
    });

    // ---- core ----------------------------------------------------------
    let mut selection = 0u64;
    p.probe("core.local.train_client", || {
        let c = next_client.next().expect("cycle never ends");
        selection += 1;
        std::hint::black_box(train_client(
            &task, c, &broadcast, &cfg, epochs, selection, tiered,
        ));
        1.0
    });
    let mut mixed = global.to_vec();
    let client_updates: Vec<(&[f32], usize)> =
        updates.iter().map(|(w, n)| (w.as_slice(), *n)).collect();
    p.probe("core.aggregate.intra", || {
        if tiered {
            aggregate_clients_into(cfg.guard.agg_rule, &client_updates, &mut mixed);
        } else {
            // FedAsync has no tier round: its per-arrival aggregation is the
            // staleness-weighted mix of one update into the global model.
            lerp_into(&mut mixed, update, 0.01);
        }
        1.0
    });
    let tier_models: Vec<Vec<f32>> = updates
        .iter()
        .take(NUM_TIERS)
        .map(|(w, _)| w.clone())
        .collect();
    let tier_counts: Vec<u64> = (1..=NUM_TIERS as u64).rev().collect();
    p.probe("core.aggregate.cross", || {
        let weights = cross_tier_weights(&tier_counts);
        aggregate_tiers_into(&tier_models, &weights, &mut mixed);
        1.0
    });
    let mut evaluator = Evaluator::new(&task, cfg.eval_subset, s);
    p.probe("core.eval.global", || {
        std::hint::black_box(evaluator.evaluate(&global));
        1.0
    });
    p.probe("core.eval.per_client", || {
        std::hint::black_box(per_client_accuracy(&task, &global, s));
        1.0
    });
    x.recycle();

    // ---- shares of the inline run's wall -------------------------------
    let t = &p.seconds;
    let run = &inline.outcome;
    let wall = inline.wall_s;
    let global_updates = run.global_updates as f64;
    let trainings = workload.client_rounds(run.global_updates) as f64;
    let evals = run.trace.points.len();
    // One final sweep on top of every `VARIANCE_STRIDE`-th evaluation.
    let sweeps = evals / VARIANCE_STRIDE + 1;
    let up_leg = t["compress.encode"] + t["compress.decode"];
    let down_leg = t["compress.down_encode"] + t["compress.down_decode"];
    let per_update_aggregate = if tiered {
        t["core.aggregate.intra"] + t["core.aggregate.cross"]
    } else {
        t["core.aggregate.intra"]
    };
    let share_train = trainings * t["core.local.train_client"] / wall;
    // One downlink leg per tier round (FedAT broadcasts) or per dispatch
    // (FedAsync), one uplink leg per trained client.
    let share_codec = (global_updates * down_leg + trainings * up_leg) / wall;
    let share_aggregate = global_updates * per_update_aggregate / wall;
    let share_eval =
        (evals as f64 * t["core.eval.global"] + sweeps as f64 * t["core.eval.per_client"]) / wall;
    let share_sim = run.report.events as f64 * t["sim.event"] / wall;
    let covered = share_train + share_codec + share_aggregate + share_eval + share_sim;
    if covered > 1.15 {
        eprintln!(
            "warning: layer shares add up to {covered:.2} of the inline wall: the replay is mis-sized"
        );
    }

    let flops = 2.0 * (m * dk * dn) as f64;
    let serial_wall: f64 = serial.iter().map(|r| r.wall_s).sum();
    let value = |name: &str| -> f64 {
        match name {
            "data.task_build_ms" => t["data.task_build"] * 1e3,
            "data.batch_gather_us" => t["data.batch_gather"] * 1e6,
            "tensor.matmul_nn_gflops" => flops / t["tensor.matmul_nn"] / 1e9,
            "tensor.matmul_tn_gflops" => flops / t["tensor.matmul_tn"] / 1e9,
            "tensor.matmul_nt_gflops" => flops / t["tensor.matmul_nt"] / 1e9,
            "tensor.robust_reduce_melems_s" => (k * dim) as f64 / t["tensor.robust_reduce"] / 1e6,
            // k inputs read, one output written.
            "tensor.weighted_sum_gbs" => {
                ((k + 1) * dim * 4) as f64 / t["tensor.weighted_sum"] / 1e9
            }
            "tensor.pool_roundtrip_us" => t["tensor.pool_roundtrip"] * 1e6,
            "nn.forward_us" => t["nn.forward"] * 1e6,
            "nn.train_batch_us" => t["nn.train_batch"] * 1e6,
            "nn.bwd_optim_us" => (t["nn.train_batch"] - t["nn.forward"]) * 1e6,
            "nn.weights_roundtrip_us" => t["nn.weights_roundtrip"] * 1e6,
            "nn.eval_rows_per_s" => evaluator.test_rows() as f64 / t["core.eval.global"],
            "compress.encode_mb_s" => raw_mb / t["compress.encode"],
            "compress.decode_mb_s" => raw_mb / t["compress.decode"],
            "compress.wire_ratio" => (dim * 4) as f64 / blob.wire_bytes() as f64,
            "sim.event_ns" => t["sim.event"] * 1e9,
            "sim.fleet_build_ms" => t["sim.fleet_build"] * 1e3,
            "core.tiering.profile_ms" => t["core.tiering.profile"] * 1e3,
            "core.local.train_client_us" => t["core.local.train_client"] * 1e6,
            "core.aggregate.intra_us" => t["core.aggregate.intra"] * 1e6,
            "core.aggregate.cross_us" => t["core.aggregate.cross"] * 1e6,
            "core.eval.global_ms" => t["core.eval.global"] * 1e3,
            "core.eval.per_client_ms" => t["core.eval.per_client"] * 1e3,
            "core.exec.speculative_speedup" => inline.wall_s / default.wall_s,
            "core.exec.inline_wall_s" => inline.wall_s,
            "share.train" => share_train,
            "share.codec" => share_codec,
            "share.aggregate" => share_aggregate,
            "share.eval" => share_eval,
            "share.sim" => share_sim,
            "core.strategies.residual_share" => 1.0 - covered,
            "bench.grid_efficiency" => serial_wall / grid_wall,
            _ => unreachable!("per-layer metric {name} has no measurement"),
        }
    };
    let metrics: Vec<(&'static str, f64)> =
        PER_LAYER.iter().map(|m| (m.name, value(m.name))).collect();

    p.tracer.close(root);
    let pass = PassResult {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
    };
    (pass, p.tracer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedat_sim::fleet::ClusterConfig;
    use fedat_sim::runtime::StopReason;

    #[test]
    fn noop_handler_processes_exactly_the_events_it_schedules() {
        let fleet = Fleet::new(
            &ClusterConfig::paper_medium(3).with_clients(20),
            vec![10; 20],
        );
        let (report, handler) = event_loop(&fleet, 1, 3, 1000);
        assert_eq!(report.reason, StopReason::Finished);
        assert_eq!(handler.scheduled, 1000);
        assert_eq!(handler.completed, 1000);
        assert_eq!(report.events, 1000);
        // Same seed, same virtual end time: the probe is deterministic.
        assert_eq!(event_loop(&fleet, 1, 3, 1000).0.end_time, report.end_time);
    }

    #[test]
    fn widest_dense_layer_per_architecture() {
        let mlp = ModelSpec::Mlp {
            input: 64,
            hidden: vec![128, 128],
            classes: 62,
        };
        assert_eq!(widest_dense(&mlp), (128, 128));
        let cnn = ModelSpec::CnnLite {
            channels: 1,
            height: 8,
            width: 8,
            classes: 10,
        };
        assert_eq!(widest_dense(&cnn), (128, 64));
        let logistic = ModelSpec::Logistic {
            input: 32,
            classes: 10,
        };
        assert_eq!(widest_dense(&logistic), (32, 10));
    }

    #[test]
    fn replay_follows_tier_update_counts_and_client_speed() {
        let w = Workload::Cohort500Wire;
        let task = w.task(5);
        let fleet = Fleet::new(&w.cluster(5), task.fed.client_sizes());
        let tiers = TierAssignment::profile(&fleet, NUM_TIERS, 1);
        // Only tier 0 ever updated: every draw comes from tier 0.
        let draws = replay_clients(w, &fleet, &tiers, Some(&[7, 0, 0, 0, 0]), 5, 200);
        assert!(draws.iter().all(|&c| tiers.tier_of(c) == 0));
        // FedAsync weighting: the faster half of the fleet is drawn more often.
        let draws = replay_clients(Workload::AsyncOverhead, &fleet, &tiers, None, 5, 4000);
        let mut latencies: Vec<f64> = (0..fleet.len())
            .map(|c| fleet.expected_latency(c, 1))
            .collect();
        latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let cut = latencies[fleet.len() / 2];
        let fast = draws
            .iter()
            .filter(|&&c| fleet.expected_latency(c, 1) < cut)
            .count();
        assert!(fast > draws.len() * 55 / 100, "fast half drew {fast}/4000");
    }

    #[test]
    fn quick_traced_pass_reports_every_layer_metric() {
        let (pass, tracer) = run(Workload::AsyncOverhead, 9, 1.0, true);
        assert!(pass.correct, "{:?}", pass.problems);
        // Every span but the root has a parent recorded before it.
        let spans = tracer.spans();
        assert!(spans.len() > 100 && spans[0].parent.is_none());
        assert!(spans
            .iter()
            .enumerate()
            .skip(1)
            .all(|(id, s)| s.parent.is_some_and(|p| p < id) && s.end_ns >= s.start_ns));
        assert_eq!((pass.attempted, pass.failed), (6, 0));
        let names: Vec<&str> = pass.metrics.iter().map(|(n, _)| *n).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, expected);
        assert!(pass.metrics.iter().all(|(_, v)| v.is_finite()));
    }
}
