//! Corrupted-update integration tests: the corruption injector (sim)
//! against the server-side guard layer (core) — finite/norm screening,
//! staleness bounds, quarantine — with determinism pinned across execution
//! modes and worker counts while the attack is live.

mod common;

use common::{first_difference, sweep, SETTINGS};
use fedat_core::aggregate::AggRule;
use fedat_core::config::{GuardPolicy, NormScreen};
use fedat_core::prelude::*;
use fedat_data::suite;
use fedat_sim::churn::{ChurnConfig, CorruptMode, CorruptSpec, FlapSpec};
use fedat_sim::fault::FaultKind;
use fedat_sim::fleet::{ClusterConfig, Fleet};

fn scale_attack(fraction: f64) -> CorruptSpec {
    CorruptSpec {
        fraction,
        probability: 0.5,
        mode: CorruptMode::Scale { factor: 5.0 },
    }
}

fn clip_guard() -> GuardPolicy {
    GuardPolicy {
        finite_check: true,
        norm_screen: Some(NormScreen {
            alpha: 0.2,
            threshold: 2.0,
            clip: true,
        }),
        ..GuardPolicy::default()
    }
}

fn corrupt_cluster(n: usize, seed: u64, spec: Option<CorruptSpec>) -> ClusterConfig {
    ClusterConfig::paper_medium(seed)
        .with_clients(n)
        .without_dropouts()
        .with_churn(ChurnConfig {
            corrupt: spec,
            ..ChurnConfig::default()
        })
}

fn cfg_with(
    strategy: StrategyKind,
    rounds: u64,
    seed: u64,
    cluster: ClusterConfig,
    guard: GuardPolicy,
) -> ExperimentConfig {
    ExperimentConfig::builder()
        .strategy(strategy)
        .rounds(rounds)
        .clients_per_round(6)
        .local_epochs(1)
        .eval_every(5)
        .seed(seed)
        .cluster(cluster)
        .guard(guard)
        .build()
}

/// The regression pin for the default-inert contract: a run whose config
/// spells out the new knobs at their defaults — `GuardPolicy::default()`
/// and a corrupt spec covering zero clients — is bit-identical to a run
/// that never mentions them, and neither logs any guard fault kind.
#[test]
fn default_guard_and_empty_corrupt_spec_are_inert() {
    let n = 12;
    let task = suite::sent140_like(n, 43);
    let legacy = ExperimentConfig::builder()
        .strategy(StrategyKind::FedAt)
        .rounds(30)
        .clients_per_round(3)
        .local_epochs(1)
        .eval_every(5)
        .seed(43)
        .cluster(ClusterConfig::paper_medium(43).with_clients(n))
        .build();
    let spelled = ExperimentConfig::builder()
        .strategy(StrategyKind::FedAt)
        .rounds(30)
        .clients_per_round(3)
        .local_epochs(1)
        .eval_every(5)
        .seed(43)
        .cluster(
            ClusterConfig::paper_medium(43)
                .with_clients(n)
                .with_churn(ChurnConfig {
                    corrupt: Some(scale_attack(0.0)),
                    ..ChurnConfig::default()
                }),
        )
        .guard(GuardPolicy::default())
        .build();
    let a = fedat_core::run_experiment(&task, &legacy);
    let b = fedat_core::run_experiment(&task, &spelled);
    assert_eq!(first_difference(&a, &b), None);
    for kind in [
        FaultKind::Corrupt,
        FaultKind::Reject,
        FaultKind::Clip,
        FaultKind::Stale,
        FaultKind::Quarantine,
    ] {
        assert_eq!(a.faults.count(kind), 0, "inert run logged {kind}");
    }
    assert!(a.global_updates > 0);
}

/// The corruption draws live under their own RNG tag, so attaching a
/// corrupt spec must not move any legacy availability draw: dropout times
/// and the flap schedule are bit-identical with and without it.
#[test]
fn corrupt_spec_leaves_legacy_availability_draws_untouched() {
    let churn_without = ChurnConfig {
        flaps: Some(FlapSpec {
            fraction: 0.5,
            mean_up: 200.0,
            mean_down: 40.0,
            horizon: 2000.0,
        }),
        ..ChurnConfig::default()
    };
    let churn_with = ChurnConfig {
        corrupt: Some(scale_attack(0.4)),
        ..churn_without
    };
    let n = 20;
    let base = || ClusterConfig::paper_medium(53).with_clients(n);
    let fleet_a = Fleet::new(&base().with_churn(churn_without), vec![48; n]);
    let fleet_b = Fleet::new(&base().with_churn(churn_with), vec![48; n]);
    for c in 0..n {
        assert_eq!(
            fleet_a.dropout_time(c),
            fleet_b.dropout_time(c),
            "client {c}: dropout draw moved"
        );
        // Probe the flap schedule on a fixed grid.
        for step in 0..200 {
            let t = step as f64 * 10.0;
            assert_eq!(
                fleet_a.is_alive(c, t),
                fleet_b.is_alive(c, t),
                "client {c}: availability diverged at t={t}"
            );
            assert_eq!(fleet_a.next_up_time(c, t), fleet_b.next_up_time(c, t));
        }
    }
}

/// The headline e2e claim, in miniature: at 20% corrupt clients the
/// norm-screen guard keeps FedAvg within tolerance of the clean run while
/// the undefended server degrades, and the robust rules match the guard.
#[test]
fn guard_recovers_a_corrupted_run_that_degrades_undefended() {
    let n = 16;
    let seed = 59;
    let rounds = 120;
    let task = suite::sent140_like(n, seed);
    let run = |spec: Option<CorruptSpec>, guard: GuardPolicy| {
        let mut cfg = cfg_with(
            StrategyKind::FedAvg,
            rounds,
            seed,
            corrupt_cluster(n, seed, spec),
            guard,
        );
        // An 8-wide cohort makes the median structurally safe here: only 3
        // of the 16 clients are corrupt-capable (20%), which can never
        // reach the 4-of-8 breakdown point of the order statistics.
        cfg.clients_per_round = 8;
        fedat_core::run_experiment(&task, &cfg)
    };
    let clean = run(None, GuardPolicy::default());
    let undefended = run(Some(scale_attack(0.2)), GuardPolicy::default());
    let clipped = run(Some(scale_attack(0.2)), clip_guard());
    let median = run(
        Some(scale_attack(0.2)),
        GuardPolicy {
            finite_check: true,
            agg_rule: AggRule::CoordinateMedian,
            ..GuardPolicy::default()
        },
    );

    assert!(
        undefended.faults.count(FaultKind::Corrupt) > 0,
        "attack never fired"
    );
    assert!(
        clipped.faults.count(FaultKind::Clip) > 0,
        "screen never clipped"
    );
    let clean_best = clean.best_accuracy();
    // The magnitude attack compounds in the mean: the undefended server
    // must visibly degrade relative to both the clean run and the guard.
    assert!(
        undefended.best_accuracy() < clean_best - 0.05,
        "undefended run did not degrade: {:.3} vs clean {clean_best:.3}",
        undefended.best_accuracy()
    );
    for (name, out) in [("clip", &clipped), ("median", &median)] {
        assert!(
            out.final_weights.iter().all(|w| w.is_finite()),
            "{name}: non-finite final model"
        );
        assert!(
            out.best_accuracy() >= clean_best - 0.04,
            "{name}: best {:.3} fell out of tolerance of clean {clean_best:.3}",
            out.best_accuracy()
        );
    }
}

/// Non-finite uplinks (`NanPoke`) never reach the global model, for every
/// strategy: `finite_check` rejects them (`Reject` detail 0), and without
/// it the norm screen rejects them on their non-finite norm (detail 1).
/// In a debug build `ServerCore::bump`'s leak assertion is live as well.
#[test]
fn non_finite_uplinks_are_rejected_by_either_screen_for_every_strategy() {
    let n = 12;
    let seed = 67;
    let task = suite::sent140_like(n, seed);
    let nan_poke = CorruptSpec {
        fraction: 0.25,
        probability: 0.5,
        mode: CorruptMode::NanPoke,
    };
    let screen_only = GuardPolicy {
        finite_check: false,
        ..clip_guard()
    };
    for strategy in StrategyKind::all() {
        for (guard, detail) in [(clip_guard(), 0), (screen_only, 1)] {
            let cluster = corrupt_cluster(n, seed, Some(nan_poke));
            let out =
                fedat_core::run_experiment(&task, &cfg_with(strategy, 40, seed, cluster, guard));
            let name = format!("{}/finite_check={}", strategy.name(), guard.finite_check);
            let rejects = |d| {
                let events = out.faults.events().iter();
                events
                    .filter(|e| e.kind == FaultKind::Reject && e.detail == d)
                    .count()
            };
            assert!(
                rejects(detail) > 0,
                "{name}: no Reject row with detail {detail}"
            );
            assert!(out.global_updates > 0, "{name}: no global update");
            assert!(
                out.final_weights.iter().all(|w| w.is_finite()),
                "{name}: non-finite model"
            );
            for p in &out.trace.points {
                assert!(
                    p.accuracy.is_finite() && p.loss.is_finite(),
                    "{name}: {p:?}"
                );
            }
        }
    }
}

/// FedAsync with a staleness bound: ancient updates are discarded (logged
/// as `Stale`, counted, not mixed), and the run stays productive and
/// deterministic.
#[test]
fn fedasync_staleness_bound_discards_ancient_updates() {
    let n = 14;
    let seed = 61;
    let task = suite::sent140_like(n, seed);
    let guard = GuardPolicy {
        max_staleness: Some(3),
        ..GuardPolicy::default()
    };
    let cfg = cfg_with(
        StrategyKind::FedAsync,
        40,
        seed,
        corrupt_cluster(n, seed, None),
        guard,
    );
    let out = fedat_core::run_experiment(&task, &cfg);
    // paper_medium's latency spread guarantees the slowest clients land
    // updates many versions behind the bound of 3.
    assert!(
        out.faults.count(FaultKind::Stale) > 0,
        "no update ever exceeded the staleness bound"
    );
    assert!(out.global_updates > 0);
    assert!(out.final_weights.iter().all(|w| w.is_finite()));
    let again = fedat_core::run_experiment(&task, &cfg);
    assert_eq!(first_difference(&out, &again), None);
}

/// Reject-mode screening plus quarantine: repeat offenders are parked for
/// `quarantine_secs` (logged, counted) and the run still completes; the
/// ground-truth corrupt count shrinks versus an unquarantined run because
/// parked clients stop being selected.
#[test]
fn quarantine_parks_repeat_offenders() {
    let n = 16;
    let seed = 67;
    let task = suite::sent140_like(n, seed);
    let reject_guard = GuardPolicy {
        norm_screen: Some(NormScreen {
            clip: false,
            ..clip_guard().norm_screen.expect("screen set")
        }),
        ..clip_guard()
    };
    let quarantine_guard = GuardPolicy {
        quarantine_after: Some(2),
        quarantine_secs: 500.0,
        ..reject_guard
    };
    let attack = Some(CorruptSpec {
        probability: 1.0,
        ..scale_attack(0.25)
    });
    let run = |guard: GuardPolicy| {
        let cfg = cfg_with(
            StrategyKind::FedAvg,
            80,
            seed,
            corrupt_cluster(n, seed, attack),
            guard,
        );
        fedat_core::run_experiment(&task, &cfg)
    };
    let without = run(reject_guard);
    let with = run(quarantine_guard);
    assert!(
        with.faults.count(FaultKind::Reject) > 0,
        "screen never rejected"
    );
    assert!(
        with.faults.count(FaultKind::Quarantine) > 0,
        "repeat offenders were never quarantined"
    );
    let corrupt = |out: &fedat_core::Outcome| out.faults.count(FaultKind::Corrupt);
    assert!(
        corrupt(&with) < corrupt(&without),
        "quarantine did not shrink the attack surface: {} vs {}",
        corrupt(&with),
        corrupt(&without)
    );
    assert!(with.global_updates > 0);
    assert!(with.final_weights.iter().all(|w| w.is_finite()));
    let again = run(quarantine_guard);
    assert_eq!(first_difference(&with, &again), None);
}

/// Bit-identity with the guard on and the attack live: corruption,
/// screening, clipping and quarantine all sit on the virtual-time side of
/// the determinism contract, so the full outcome must not move across the
/// execution settings.
#[test]
fn guarded_corruption_is_bit_identical_across_exec_modes_and_workers() {
    let n = 12;
    let seed = 71;
    let task = suite::sent140_like(n, seed);
    let guard = GuardPolicy {
        quarantine_after: Some(3),
        quarantine_secs: 300.0,
        agg_rule: AggRule::TrimmedMean { frac: 0.3 },
        ..clip_guard()
    };
    let cfg = cfg_with(
        StrategyKind::FedAt,
        40,
        seed,
        corrupt_cluster(n, seed, Some(scale_attack(0.3))),
        guard,
    );
    let base = sweep("guarded corruption", &task, &cfg, SETTINGS);
    assert!(
        base.faults.count(FaultKind::Corrupt) > 0 && base.faults.count(FaultKind::Clip) > 0,
        "scenario no longer exercises the guard"
    );
}

/// A quarantined client is out of every dispatch pool — including the pool
/// a timed-out round slot draws its replacement from. Checked from the
/// fault log alone: no `Retry` row may name a client inside the window
/// opened by one of its own `Quarantine` rows.
#[test]
fn retry_never_dispatches_a_quarantined_client() {
    use fedat_core::config::FaultPolicy;
    use fedat_sim::churn::{DriftSpec, StormSpec};

    let n = 20;
    let guard = GuardPolicy {
        finite_check: true,
        norm_screen: Some(NormScreen {
            alpha: 0.2,
            threshold: 2.0,
            clip: false,
        }),
        quarantine_after: Some(2),
        quarantine_secs: 500.0,
        ..GuardPolicy::default()
    };
    for strategy in [
        StrategyKind::FedAvg,
        StrategyKind::TiFL,
        StrategyKind::FedAt,
    ] {
        for seed in [73, 79] {
            let task = suite::sent140_like(n, seed);
            // Storms and drift make deadlines fire; every corrupt-capable
            // client mangles every upload, so offenders are quarantined fast.
            let cluster = ClusterConfig::paper_medium(seed)
                .with_clients(n)
                .without_dropouts()
                .with_churn(ChurnConfig {
                    storms: Some(StormSpec {
                        count: 2,
                        cohort_fraction: 0.3,
                        duration: 150.0,
                        horizon: 1500.0,
                    }),
                    drift: Some(DriftSpec {
                        fraction: 0.4,
                        per_round: 0.05,
                        max_factor: 4.0,
                    }),
                    corrupt: Some(CorruptSpec {
                        probability: 1.0,
                        ..scale_attack(0.25)
                    }),
                    ..ChurnConfig::default()
                });
            let rounds = if strategy == StrategyKind::FedAt {
                600
            } else {
                80
            };
            let mut cfg = cfg_with(strategy, rounds, seed, cluster, guard);
            cfg.clients_per_round = 4;
            cfg.fault = FaultPolicy {
                deadline_multiplier: Some(1.05),
                ..FaultPolicy::default()
            };
            let out = fedat_core::run_experiment(&task, &cfg);
            let n = |kind| out.faults.count(kind);
            let name = strategy.name();
            assert!(
                n(FaultKind::Timeout) > 0
                    && n(FaultKind::Retry) > 0
                    && n(FaultKind::Quarantine) > 0,
                "{name}/{seed}: scenario no longer exercises the retry path"
            );
            let events = out.faults.events();
            for retry in events.iter().filter(|e| e.kind == FaultKind::Retry) {
                let serving = events.iter().find(|q| {
                    q.kind == FaultKind::Quarantine
                        && q.client == retry.client
                        && q.time <= retry.time
                        && retry.time < q.time + q.detail as f64
                });
                assert!(
                    serving.is_none(),
                    "{name}/{seed}: retry at t={} went to client {:?}, quarantined at t={} for {} s",
                    retry.time,
                    retry.client,
                    serving.map_or(0.0, |q| q.time),
                    serving.map_or(0, |q| q.detail),
                );
            }
        }
    }
}
