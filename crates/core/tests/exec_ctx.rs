//! Per-run execution settings: concurrent experiments with *different*
//! exec modes and kernel settings must not cross-talk.
//!
//! `run_experiment_shared` resolves a kernel overlay
//! ([`fedat_core::exec::resolve`]) once from config + environment and
//! installs it on the calling thread; every job the run submits (training,
//! pipelined evals) carries it to the thread that runs it. There is no
//! process-global mutable configuration or counter behind a run. These
//! tests pin that property: N concurrent runs, each under different
//! settings, each bit-identical to its own serial counterpart and each
//! reporting exactly its own `Outcome::speculation`.

use fedat_core::exec::{self, ExecMode};
use fedat_core::{run_experiment, ExperimentConfig, Outcome, StrategyKind};
use fedat_data::suite;
use fedat_sim::fleet::ClusterConfig;
use fedat_tensor::simd::SimdKernel;
use std::sync::Barrier;

fn cfg_with(mode: ExecMode, simd: SimdKernel, n: usize, seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder()
        .strategy(StrategyKind::FedAt)
        .rounds(12)
        .clients_per_round(3)
        .local_epochs(1)
        .eval_every(3)
        .seed(seed)
        .cluster(
            ClusterConfig::paper_medium(seed)
                .with_clients(n)
                .without_dropouts(),
        )
        .exec_mode(mode)
        .simd_kernel(simd)
        .build()
}

fn assert_same(label: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(
        a.final_weights, b.final_weights,
        "{label}: weights diverged"
    );
    assert_eq!(a.global_updates, b.global_updates, "{label}");
    assert_eq!(
        a.trace.points.len(),
        b.trace.points.len(),
        "{label}: trace length diverged"
    );
    for (p, q) in a.trace.points.iter().zip(b.trace.points.iter()) {
        assert_eq!(p.time, q.time, "{label}: virtual time diverged");
        assert_eq!(p.round, q.round, "{label}");
        assert_eq!(p.accuracy, q.accuracy, "{label}: accuracy diverged");
        assert_eq!(p.loss, q.loss, "{label}: loss diverged");
        assert_eq!(p.up_bytes, q.up_bytes, "{label}: uplink diverged");
        assert_eq!(p.down_bytes, q.down_bytes, "{label}: downlink diverged");
    }
}

/// The four settings of the grid: {Speculative, Inline} × {Auto, Scalar}.
const COMBOS: [(ExecMode, SimdKernel, &str); 4] = [
    (ExecMode::Speculative, SimdKernel::Auto, "spec/auto"),
    (ExecMode::Speculative, SimdKernel::Scalar, "spec/scalar"),
    (ExecMode::Inline, SimdKernel::Auto, "inline/auto"),
    (ExecMode::Inline, SimdKernel::Scalar, "inline/scalar"),
];

#[test]
fn concurrent_runs_with_different_contexts_match_their_serial_counterparts() {
    let n = 12;
    let task = suite::sent140_like(n, 41);

    // Serial baselines, one per context, on this thread.
    let serial: Vec<Outcome> = COMBOS
        .iter()
        .map(|&(mode, simd, _)| run_experiment(&task, &cfg_with(mode, simd, n, 41)))
        .collect();

    // All four contexts at once, each from its own OS thread.
    let concurrent: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = COMBOS
            .iter()
            .map(|&(mode, simd, _)| {
                let task = &task;
                scope.spawn(move || run_experiment(task, &cfg_with(mode, simd, n, 41)))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for ((s, c), &(_, _, label)) in serial.iter().zip(concurrent.iter()).zip(COMBOS.iter()) {
        assert_same(label, c, s);
    }
    // The bit-identity contract also pins the four contexts to *each
    // other*: mode and kernel choice are performance levers, not semantics.
    for (s, &(_, _, label)) in serial.iter().skip(1).zip(COMBOS.iter().skip(1)) {
        assert_same(label, s, &serial[0]);
    }
}

/// A FedAT config on a cluster where half the fleet drops out mid-run, so
/// speculative runs both launch and discard.
fn dropout_cfg(mode: ExecMode, n: usize, seed: u64) -> ExperimentConfig {
    let mut cluster = ClusterConfig::paper_medium(seed).with_clients(n);
    cluster.n_unstable = n / 2;
    cluster.dropout_horizon = 400.0;
    let mut cfg = cfg_with(mode, SimdKernel::Auto, n, seed);
    cfg.cluster = Some(cluster);
    cfg.rounds = 120;
    cfg.max_time = 2000.0;
    cfg
}

#[test]
fn config_overrides_beat_the_default_layer() {
    // A run whose config pins Inline must launch nothing and one that pins
    // Speculative must launch, whatever three sibling threads are doing:
    // they run Speculative experiments concurrently in this process. The
    // barrier starts all five runs together.
    let n = 8;
    let task = suite::sent140_like(n, 43);
    let start = Barrier::new(5);
    let run = |mode: ExecMode| {
        start.wait();
        run_experiment(&task, &cfg_with(mode, SimdKernel::Auto, n, 43))
    };
    std::thread::scope(|scope| {
        let siblings: Vec<_> = (0..3)
            .map(|_| scope.spawn(|| run(ExecMode::Speculative)))
            .collect();
        let inline = scope.spawn(|| run(ExecMode::Inline));
        let spec = run(ExecMode::Speculative);
        let inline = inline.join().unwrap();
        assert!(inline.global_updates > 0);
        assert_eq!(
            inline.speculation.launches, 0,
            "an Inline-pinned run launched speculative jobs"
        );
        assert!(
            spec.speculation.launches > 0,
            "a Speculative run launched nothing"
        );
        for s in siblings {
            assert_eq!(s.join().unwrap().speculation, spec.speculation);
        }
    });
}

#[test]
fn concurrent_runs_report_exactly_their_own_speculation() {
    // Two Inline and two Speculative runs at once, on a cluster with
    // dropouts: each run's launch/discard counts must equal those of the
    // same config run alone.
    let n = 14;
    let task = suite::sent140_like(n, 29);
    let cfgs: Vec<ExperimentConfig> = [
        (ExecMode::Inline, 29),
        (ExecMode::Speculative, 29),
        (ExecMode::Inline, 31),
        (ExecMode::Speculative, 31),
    ]
    .iter()
    .map(|&(mode, seed)| dropout_cfg(mode, n, seed))
    .collect();
    let alone: Vec<Outcome> = cfgs.iter().map(|c| run_experiment(&task, c)).collect();
    for (c, out) in cfgs.iter().zip(&alone) {
        let spec = out.speculation;
        if c.exec.mode == Some(ExecMode::Inline) {
            assert_eq!(spec, Default::default(), "inline runs never speculate");
        } else {
            assert!(spec.launches > 0 && spec.discards > 0, "{spec:?}");
            assert!(spec.discards <= spec.launches, "{spec:?}");
        }
    }
    let start = Barrier::new(cfgs.len());
    let together: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = cfgs
            .iter()
            .map(|c| {
                let (task, start) = (&task, &start);
                scope.spawn(move || {
                    start.wait();
                    run_experiment(task, c)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (i, (t, a)) in together.iter().zip(&alone).enumerate() {
        assert_eq!(
            t.speculation, a.speculation,
            "run {i} counted a sibling's work"
        );
        assert_same(&format!("run {i}"), t, a);
    }
}

#[test]
fn resolve_layers_config_over_the_thread_overlay() {
    // A kernel overlay installed on the calling thread (how tests and
    // benches scope kernel-level code) is the base `resolve` starts from;
    // explicit config overrides beat it field by field.
    use fedat_tensor::ctx::{self, KernelCtx};
    let _g = ctx::install(KernelCtx {
        simd: SimdKernel::Scalar,
        max_pool_jobs: 5,
    });
    let inherited = exec::resolve(&ExperimentConfig::builder().build());
    let default_cap = match exec::default_exec_mode() {
        ExecMode::Speculative => 5,
        ExecMode::Inline => 0,
    };
    assert_eq!(
        inherited,
        KernelCtx {
            max_pool_jobs: default_cap,
            ..ctx::snapshot()
        }
    );

    let cfg = ExperimentConfig::builder()
        .exec_mode(ExecMode::Speculative)
        .simd_kernel(SimdKernel::Auto)
        .build();
    let resolved = exec::resolve(&cfg);
    assert_eq!(resolved.simd, SimdKernel::Auto, "config must win");
    assert_eq!(
        resolved.max_pool_jobs, 5,
        "untouched fields keep the enclosing overlay"
    );
}

#[test]
fn inline_is_the_job_cap_of_zero() {
    let cfg = ExperimentConfig::builder()
        .exec_mode(ExecMode::Inline)
        .max_pool_jobs(4)
        .build();
    assert_eq!(exec::resolve(&cfg).max_pool_jobs, 0, "Inline beats the cap");

    // And a run cannot tell the two spellings apart: every field of the
    // outcome, speculation included, is the same.
    let n = 14;
    let task = suite::sent140_like(n, 29);
    let inline = dropout_cfg(ExecMode::Inline, n, 29);
    let mut cap_zero = dropout_cfg(ExecMode::Speculative, n, 29);
    cap_zero.exec.max_pool_jobs = Some(0);
    let (a, b) = (
        run_experiment(&task, &inline),
        run_experiment(&task, &cap_zero),
    );
    assert_eq!(a.speculation, Default::default());
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn one_selector_names_each_lane_and_rides_into_pool_jobs() {
    use fedat_tensor::simd::backend_name;
    // What each selector value dispatches to, whatever `FEDAT_SIMD` says.
    let named = |simd: SimdKernel| {
        let cfg = ExperimentConfig::builder().simd_kernel(simd).build();
        let _g = fedat_tensor::ctx::install(exec::resolve(&cfg));
        backend_name()
    };
    assert!(["avx2+fma", "portable"].contains(&named(SimdKernel::Auto)));
    assert_eq!(named(SimdKernel::Portable), "portable");
    assert_eq!(named(SimdKernel::Scalar), "scalar");

    // `cfg.exec.simd = Some(Portable)` survives `resolve` and travels with
    // a job onto whichever thread runs it.
    let cfg = ExperimentConfig::builder()
        .simd_kernel(SimdKernel::Portable)
        .build();
    let _g = fedat_tensor::ctx::install(exec::resolve(&cfg));
    fedat_tensor::pool::ensure_workers(1);
    let job = fedat_tensor::pool::submit(|| (fedat_tensor::simd::simd_kernel(), backend_name()));
    assert_eq!(job.join(), (SimdKernel::Portable, "portable"));
}
