//! Per-run execution settings: concurrent experiments with *different*
//! job caps and kernel settings must not cross-talk.
//!
//! `run_experiment_shared` resolves a kernel overlay
//! ([`fedat_core::exec::resolve`]) once from the calling thread's overlay
//! and the config's `Inline` pin, and installs it on the calling thread;
//! every job the run submits (training, pipelined evals) carries it to the
//! thread that runs it. There is no
//! process-global mutable configuration or counter behind a run. These
//! tests pin that property: N concurrent runs, each under different
//! settings, each bit-identical to its own serial counterpart and each
//! reporting exactly its own `Outcome::speculation`.
#![expect(
    clippy::disallowed_methods,
    reason = "R4: concurrent runs on real threads are what these tests compare against serial ones"
)]

use fedat_core::exec::{self, ExecMode};
use fedat_core::{run_experiment, ExperimentConfig, Outcome, StrategyKind};
use fedat_data::suite::{self, FedTask};
use fedat_sim::fleet::ClusterConfig;
use fedat_tensor::ctx::{self, KernelCtx};
use fedat_tensor::simd::SimdKernel;
use std::sync::Barrier;

/// The job cap that lets every job onto the pool, whatever the host
/// default (cap 0 under `FEDAT_EXEC=inline`).
const UNCAPPED: usize = usize::MAX;

fn cfg_with(n: usize, seed: u64) -> ExperimentConfig {
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
        .build()
}

/// Runs `cfg` with `overlay` installed on this thread.
fn run_under(overlay: KernelCtx, task: &FedTask, cfg: &ExperimentConfig) -> Outcome {
    let _overlay = ctx::install(overlay);
    run_experiment(task, cfg)
}

/// The host defaults with the job cap replaced.
fn capped(max_pool_jobs: usize) -> KernelCtx {
    KernelCtx {
        max_pool_jobs,
        ..ctx::snapshot()
    }
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

const fn kernel_ctx(max_pool_jobs: usize, simd: SimdKernel) -> KernelCtx {
    KernelCtx {
        simd,
        max_pool_jobs,
    }
}

/// The four overlays of the grid: {uncapped, cap 0} × {Auto, Scalar}.
const COMBOS: [(KernelCtx, &str); 4] = [
    (kernel_ctx(UNCAPPED, SimdKernel::Auto), "spec/auto"),
    (kernel_ctx(UNCAPPED, SimdKernel::Scalar), "spec/scalar"),
    (kernel_ctx(0, SimdKernel::Auto), "inline/auto"),
    (kernel_ctx(0, SimdKernel::Scalar), "inline/scalar"),
];

#[test]
fn concurrent_runs_with_different_contexts_match_their_serial_counterparts() {
    let n = 12;
    let task = suite::sent140_like(n, 41);
    let cfg = cfg_with(n, 41);

    // Serial baselines, one per context, on this thread.
    let serial: Vec<Outcome> = COMBOS
        .iter()
        .map(|&(overlay, _)| run_under(overlay, &task, &cfg))
        .collect();

    // All four contexts at once, each from its own OS thread.
    let concurrent: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = COMBOS
            .iter()
            .map(|&(overlay, _)| {
                let (task, cfg) = (&task, &cfg);
                scope.spawn(move || run_under(overlay, task, cfg))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for ((s, c), &(_, label)) in serial.iter().zip(concurrent.iter()).zip(COMBOS.iter()) {
        assert_same(label, c, s);
    }
    // The bit-identity contract also pins the four contexts to *each
    // other*: job cap and kernel choice are performance levers, not
    // semantics.
    for (s, &(_, label)) in serial.iter().skip(1).zip(COMBOS.iter().skip(1)) {
        assert_same(label, s, &serial[0]);
    }
}

/// A FedAT config on a cluster where half the fleet drops out mid-run, so
/// uncapped runs both launch and discard.
fn dropout_cfg(n: usize, seed: u64) -> ExperimentConfig {
    let mut cluster = ClusterConfig::paper_medium(seed).with_clients(n);
    cluster.n_unstable = n / 2;
    cluster.dropout_horizon = 400.0;
    let mut cfg = cfg_with(n, seed);
    cfg.cluster = Some(cluster);
    cfg.rounds = 120;
    cfg.max_time = 2000.0;
    cfg
}

#[test]
fn config_overrides_beat_the_default_layer() {
    // A run whose config pins Inline must launch nothing and one that does
    // not must launch, under the same uncapped overlay, whatever three
    // sibling threads are doing: they run uncapped experiments concurrently
    // in this process. The barrier starts all five runs together.
    let n = 8;
    let task = suite::sent140_like(n, 43);
    let start = Barrier::new(5);
    let run = |mode: Option<ExecMode>| {
        let mut cfg = cfg_with(n, 43);
        cfg.exec.mode = mode;
        start.wait();
        run_under(capped(UNCAPPED), &task, &cfg)
    };
    std::thread::scope(|scope| {
        let siblings: Vec<_> = (0..3).map(|_| scope.spawn(|| run(None))).collect();
        let inline = scope.spawn(|| run(Some(ExecMode::Inline)));
        let spec = run(None);
        let inline = inline.join().unwrap();
        assert!(inline.global_updates > 0);
        assert_eq!(
            inline.speculation.launches, 0,
            "an Inline-pinned run launched speculative jobs"
        );
        assert!(
            spec.speculation.launches > 0,
            "an uncapped run launched nothing"
        );
        for s in siblings {
            assert_eq!(s.join().unwrap().speculation, spec.speculation);
        }
    });
}

#[test]
fn concurrent_runs_report_exactly_their_own_speculation() {
    // Two cap-0 and two uncapped runs at once, on a cluster with dropouts:
    // each run's launch/discard counts must equal those of the same run
    // alone.
    let n = 14;
    let task = suite::sent140_like(n, 29);
    let runs: Vec<(usize, ExperimentConfig)> = [(0, 29), (UNCAPPED, 29), (0, 31), (UNCAPPED, 31)]
        .iter()
        .map(|&(cap, seed)| (cap, dropout_cfg(n, seed)))
        .collect();
    let alone: Vec<Outcome> = runs
        .iter()
        .map(|(cap, c)| run_under(capped(*cap), &task, c))
        .collect();
    for ((cap, _), out) in runs.iter().zip(&alone) {
        let spec = out.speculation;
        if *cap == 0 {
            assert_eq!(spec, Default::default(), "cap-0 runs never speculate");
        } else {
            assert!(spec.launches > 0 && spec.discards > 0, "{spec:?}");
            assert!(spec.discards <= spec.launches, "{spec:?}");
        }
    }
    let start = Barrier::new(runs.len());
    let together: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = runs
            .iter()
            .map(|(cap, c)| {
                let (task, start) = (&task, &start);
                scope.spawn(move || {
                    start.wait();
                    run_under(capped(*cap), task, c)
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
    // The one rule: a run executes under the calling thread's overlay,
    // lane and cap unchanged, and a config's `Inline` pins the cap to 0
    // over it. Both overlays differ from some host default
    // (`FEDAT_SIMD=scalar`, `FEDAT_EXEC=inline`), so the overlay must beat
    // the environment in every CI pass.
    let mut inline = ExperimentConfig::builder().build();
    inline.exec.mode = Some(ExecMode::Inline);
    for overlay in [
        kernel_ctx(5, SimdKernel::Scalar),
        kernel_ctx(UNCAPPED, SimdKernel::Auto),
    ] {
        let _g = ctx::install(overlay);
        assert_eq!(
            exec::resolve(&ExperimentConfig::builder().build()),
            overlay,
            "the overlay must come through unchanged"
        );
        assert_eq!(
            exec::resolve(&inline),
            KernelCtx {
                max_pool_jobs: 0,
                ..overlay
            },
            "Inline pins the cap and nothing else"
        );
    }
}

#[test]
fn inline_is_the_job_cap_of_zero() {
    let mut inline = ExperimentConfig::builder().build();
    inline.exec.mode = Some(ExecMode::Inline);
    {
        let _g = ctx::install(capped(4));
        assert_eq!(
            exec::resolve(&inline).max_pool_jobs,
            0,
            "Inline beats the cap"
        );
    }

    // And a run cannot tell the two spellings apart: every field of the
    // outcome, speculation included, is the same.
    let n = 14;
    let task = suite::sent140_like(n, 29);
    let mut inline = dropout_cfg(n, 29);
    inline.exec.mode = Some(ExecMode::Inline);
    let (a, b) = (
        run_under(capped(UNCAPPED), &task, &inline),
        run_under(capped(0), &task, &dropout_cfg(n, 29)),
    );
    assert_eq!(a.speculation, Default::default());
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn one_selector_names_each_lane_and_rides_into_pool_jobs() {
    use fedat_tensor::simd::backend_name;
    let process_default = ctx::snapshot().simd;
    // The lane a run resolves under an overlay, and what it dispatches to,
    // whatever `FEDAT_SIMD` says.
    let resolved = |simd: SimdKernel| {
        let _g = ctx::install(KernelCtx {
            simd,
            ..ctx::snapshot()
        });
        exec::resolve(&ExperimentConfig::builder().build())
    };
    let named = |simd: SimdKernel| {
        let _g = ctx::install(resolved(simd));
        backend_name()
    };
    // `Auto` is the AVX2 lane exactly where AVX2 + FMA are detected.
    #[cfg(target_arch = "x86_64")]
    let avx2_fma = is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma");
    #[cfg(not(target_arch = "x86_64"))]
    let avx2_fma = false;
    let auto = if avx2_fma { "avx2+fma" } else { "scalar" };
    assert_eq!(named(SimdKernel::Auto), auto);
    assert_eq!(named(SimdKernel::Scalar), "scalar");

    // The overlay's lane survives `resolve` and travels with a job onto
    // whichever thread runs it. The value is the one the process default
    // is not (`Scalar`, or `Auto` under `FEDAT_SIMD=scalar`), so a job that
    // fell back to the default would fail here.
    let other = match process_default {
        SimdKernel::Auto => SimdKernel::Scalar,
        SimdKernel::Scalar => SimdKernel::Auto,
    };
    let want = (other, named(other));
    let _g = ctx::install(KernelCtx {
        max_pool_jobs: UNCAPPED,
        ..resolved(other)
    });
    fedat_tensor::pool::ensure_workers(1);
    let job = fedat_tensor::pool::submit(|| (fedat_tensor::simd::simd_kernel(), backend_name()));
    assert_eq!(job.join(), want);
}
