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

mod common;

use common::{at, first_difference, SETTINGS, UNCAPPED};
use fedat_core::exec::{self, ExecMode};
use fedat_core::{run_experiment, ExperimentConfig, Outcome, StrategyKind};
use fedat_data::suite::{self, FedTask};
use fedat_sim::churn::ChurnConfig;
use fedat_sim::fault::{FaultEvent, FaultLog};
use fedat_sim::fleet::ClusterConfig;
use fedat_tensor::ctx::{self, KernelCtx};
use fedat_tensor::simd::SimdKernel;
use std::sync::Barrier;

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

#[test]
fn concurrent_runs_with_different_contexts_match_their_serial_counterparts() {
    let n = 12;
    let task = suite::sent140_like(n, 41);
    let cfg = cfg_with(n, 41);
    // {uncapped, cap 0} × {Auto, Scalar}: serial baselines on this thread,
    // then all four at once, each from its own OS thread.
    let settings = &SETTINGS[..4];
    let serial: Vec<Outcome> = settings
        .iter()
        .map(|&s| run_under(s, &task, &cfg))
        .collect();
    let concurrent: Vec<Outcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = settings
            .iter()
            .map(|&overlay| {
                let (task, cfg) = (&task, &cfg);
                scope.spawn(move || run_under(overlay, task, cfg))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Each matches its serial counterpart, and the four match each other:
    // job cap and lane are performance levers, not semantics.
    for ((s, c), setting) in serial.iter().zip(&concurrent).zip(settings) {
        assert_eq!(first_difference(c, s), None, "{setting:?}");
        assert_eq!(first_difference(s, &serial[0]), None, "{setting:?}");
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
        assert_eq!(first_difference(t, a), None, "run {i}");
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
    for overlay in [at(5, SimdKernel::Scalar), at(UNCAPPED, SimdKernel::Auto)] {
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

/// Flips `x`'s lowest mantissa bit.
fn flip(x: &mut f32) {
    *x = f32::from_bits(x.to_bits() ^ 1);
}

/// `log` with row 1's `detail` one higher.
fn bump_detail(log: &FaultLog) -> FaultLog {
    let mut out = FaultLog::new();
    for (i, &e) in log.events().iter().enumerate() {
        let detail = e.detail + u64::from(i == 1);
        out.record(FaultEvent { detail, ..e });
    }
    out
}

#[test]
fn first_difference_names_the_field_that_moved() {
    // A cheap run with fault rows, tier counts and a trace: FedAT under
    // storm churn.
    let n = 12;
    let task = suite::sent140_like(n, 47);
    let mut cfg = cfg_with(n, 47);
    cfg.rounds = 200;
    let storm = ClusterConfig::paper_medium(47).with_clients(n);
    cfg.cluster = Some(storm.with_churn(ChurnConfig::storm_heavy()));
    let run = run_experiment(&task, &cfg);
    assert!(run.faults.events().len() > 1 && run.trace.points.len() > 1);
    type Edit = fn(&mut Outcome);
    let edits: [(&str, Edit); 14] = [
        ("final_weights[3]", |o| flip(&mut o.final_weights[3])),
        ("per_client_accuracy[2]", |o| {
            flip(&mut o.per_client_accuracy[2])
        }),
        ("accuracy_variance", |o| flip(&mut o.accuracy_variance)),
        ("global_updates", |o| o.global_updates += 1),
        ("tier_updates[1]", |o| {
            o.tier_updates.as_mut().unwrap()[1] += 1
        }),
        ("report.events", |o| o.report.events += 1),
        ("trace.points[1].time", |o| o.trace.points[1].time += 1.0),
        ("trace.points[1].round", |o| o.trace.points[1].round += 1),
        ("trace.points[1].accuracy", |o| {
            flip(&mut o.trace.points[1].accuracy)
        }),
        ("trace.points[1].loss", |o| {
            flip(&mut o.trace.points[1].loss)
        }),
        ("trace.points[1].up_bytes", |o| {
            o.trace.points[1].up_bytes += 1
        }),
        ("trace.points[1].down_bytes", |o| {
            o.trace.points[1].down_bytes += 1
        }),
        ("faults[1].detail", |o| o.faults = bump_detail(&o.faults)),
        ("report.end_time", |o| o.report.end_time += 1.0),
    ];
    for (field, edit) in edits {
        let mut moved = run.clone();
        edit(&mut moved);
        let diff = first_difference(&run, &moved).expect(field);
        assert!(
            diff.starts_with(field),
            "{field} moved, the diff names {diff}"
        );
    }

    // Speculation depends on the job cap by definition; a NaN equals the
    // same NaN.
    let mut spec = run.clone();
    spec.speculation.launches += 1;
    assert_eq!(first_difference(&run, &spec), None);
    let mut nan = run.clone();
    nan.final_weights[0] = f32::NAN;
    let twin = nan.clone();
    assert_ne!(nan.final_weights, twin.final_weights);
    assert_eq!(first_difference(&nan, &twin), None);
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
