//! Fault-tolerance integration tests: the availability churn engine (sim)
//! driving the server-side robustness layer (core) — timeouts, re-dispatch,
//! quorum degradation, dynamic re-tiering — with determinism pinned across
//! execution modes and worker counts.

use fedat_compress::codec::CodecKind;
use fedat_core::config::{FaultPolicy, RetierPolicy};
use fedat_core::prelude::*;
use fedat_data::suite;
use fedat_sim::churn::{ChurnConfig, DriftSpec, FlapSpec, StormSpec};
use fedat_sim::fault::FaultKind;
use fedat_sim::fleet::{ClusterConfig, Fleet};

/// The paper_medium(seed=7) permanent-dropout schedule, pinned bit-exact.
/// The churn engine replaced the `dropout_at` representation with down
/// intervals; this guards the contract that the legacy draws — which every
/// seeded experiment's client availability depends on — survive the
/// refactor bit-for-bit.
#[test]
fn legacy_dropout_schedule_is_pinned() {
    let expected: [(usize, f64); 10] = [
        (3, f64::from_bits(0x40893a4b5d439091)),  // 807.2867989805692
        (11, f64::from_bits(0x407c3a2b3150b87d)), // 451.6355450776244
        (27, f64::from_bits(0x4094e04e931c55c2)), // 1336.0767330577223
        (28, f64::from_bits(0x407cb19e4df653e9)), // 459.10114856931483
        (29, f64::from_bits(0x40858cec0adba1b1)), // 689.6152550848693
        (38, f64::from_bits(0x4080cdce0326cc53)), // 537.7255919486146
        (42, f64::from_bits(0x408f1d914ba811ca)), // 995.6959450846127
        (46, f64::from_bits(0x40862fda902e3ea1)), // 709.9817203152526
        (71, f64::from_bits(0x405ba8982662abb6)), // 110.6342864955503
        (79, f64::from_bits(0x409c7ef751d7e170)), // 1823.7415231448504
    ];
    let cfg = ClusterConfig::paper_medium(7);
    let fleet = Fleet::new(&cfg, vec![48; cfg.n_clients]);
    let mut dropped = 0;
    for c in 0..cfg.n_clients {
        match expected.iter().find(|&&(e, _)| e == c) {
            Some(&(_, t)) => {
                assert_eq!(
                    fleet.dropout_time(c),
                    Some(t),
                    "client {c}: legacy dropout draw moved"
                );
                dropped += 1;
            }
            None => assert_eq!(
                fleet.dropout_time(c),
                None,
                "client {c} gained a spurious dropout"
            ),
        }
    }
    assert_eq!(dropped, cfg.n_unstable);
}

fn stormy_cluster(n: usize, seed: u64) -> ClusterConfig {
    // ~30% of the fleet taken down together mid-run, twice, plus light
    // flapping and compute drift that invalidates the static profile.
    let churn = ChurnConfig {
        flaps: Some(FlapSpec {
            fraction: 0.25,
            mean_up: 300.0,
            mean_down: 60.0,
            horizon: 4000.0,
        }),
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
        ..ChurnConfig::default()
    };
    ClusterConfig::paper_medium(seed)
        .with_clients(n)
        .without_dropouts()
        .with_churn(churn)
}

fn robust_cfg(n_rounds: u64, seed: u64, cluster: ClusterConfig) -> ExperimentConfig {
    ExperimentConfig::builder()
        .strategy(StrategyKind::FedAt)
        .rounds(n_rounds)
        .clients_per_round(3)
        .local_epochs(1)
        .eval_every(10)
        .seed(seed)
        .cluster(cluster)
        .fault(FaultPolicy {
            deadline_multiplier: Some(1.5),
            max_retries: 2,
            backoff: 1.5,
            // Strict quorum: any round degraded by a mid-flight drop (a
            // `Lost` slot is not retried) must be logged as a Quorum skip.
            quorum: 0.9,
            retier: Some(RetierPolicy {
                alpha: 0.3,
                check_every: 10,
                drift_threshold: 0.05,
            }),
        })
        .build()
}

/// FedAT under a drift+storm scenario with the full fault policy: the run
/// must complete with no stalled tier, actually exercise timeout /
/// re-dispatch / quorum / re-tier, and surface every fault kind in the log.
#[test]
fn fedat_with_timeouts_rides_out_a_storm_without_stalling() {
    let n = 20;
    let task = suite::sent140_like(n, 37);
    // Enough rounds that the run outlives the first down/up cycles, so the
    // ground-truth transitions show up in the log alongside the server's
    // fault-tolerance actions.
    let mut cfg = robust_cfg(400, 37, stormy_cluster(n, 37));
    cfg.max_time = 20_000.0;
    let out = fedat_core::run_experiment(&task, &cfg);

    assert!(out.global_updates > 0, "run made no progress");
    let tiers = out
        .tier_updates
        .as_ref()
        .expect("FedAT reports per-tier updates");
    for (t, &u) in tiers.iter().enumerate() {
        assert!(u > 0, "tier {t} stalled: 0 updates (counts {tiers:?})");
    }
    // Every fault-tolerance action must fire and be visible in the log.
    for kind in [
        FaultKind::Down,
        FaultKind::Up,
        FaultKind::Timeout,
        FaultKind::Retry,
        FaultKind::Quorum,
        FaultKind::Retier,
    ] {
        assert!(
            out.faults.count(kind) > 0,
            "fault kind {kind} missing from the log"
        );
    }
    assert_revives_agree_with_ground_truth(&out);
    // The log is time-ordered.
    for w in out.faults.events().windows(2) {
        assert!(w[0].time <= w[1].time, "fault log out of order");
    }
    assert!(out.final_weights.iter().all(|w| w.is_finite()));
}

/// The timeout/re-dispatch path must be trace-invisible to the execution
/// machinery: bit-identical across pool worker counts {1, 2, 4, 8} and a
/// config's `Inline`. Deadlines cancel speculative jobs mid-run,
/// so this pins that a discarded-but-still-running job can't leak anything
/// observable. The sweep runs on FedAT's default polyline wire, then again
/// on an 8-bit quantized uplink: a delta against each dispatch's broadcast.
#[test]
fn timeout_paths_are_bit_identical_across_exec_modes_and_workers() {
    use fedat_core::exec::ExecMode;
    use fedat_tensor::ctx::{self, KernelCtx};
    fedat_tensor::pool::ensure_workers(8);

    let n = 16;
    let task = suite::sent140_like(n, 41);
    for codec in [None, Some(CodecKind::Quantized { bits: 8 })] {
        let mut cfg = robust_cfg(60, 41, stormy_cluster(n, 41));
        cfg.max_time = 15_000.0;
        cfg.codec = codec;

        // "W workers" = a job cap of W−1 on this thread's overlay.
        let run_with = |mode: Option<ExecMode>, workers: usize| {
            let _overlay = ctx::install(KernelCtx {
                max_pool_jobs: workers - 1,
                ..ctx::snapshot()
            });
            let mut cfg = cfg.clone();
            cfg.exec.mode = mode;
            fedat_core::run_experiment(&task, &cfg)
        };

        let base = run_with(None, 8);
        let n = |kind| base.faults.count(kind);
        assert!(
            n(FaultKind::Timeout) > 0 && n(FaultKind::Retry) > 0,
            "scenario no longer exercises the timeout path ({codec:?})"
        );
        let rows = [1usize, 2, 4, 8]
            .map(|workers| (None, workers))
            .into_iter()
            .chain([(Some(ExecMode::Inline), 8)]);
        for (mode, workers) in rows {
            let out = run_with(mode, workers);
            let run = format!("{mode:?} with {workers} workers ({codec:?})");
            assert_eq!(
                out.final_weights, base.final_weights,
                "weights diverged under {run}"
            );
            assert_eq!(out.faults, base.faults, "fault log diverged under {run}");
            assert_eq!(out.report.end_time, base.report.end_time);
            assert_eq!(out.trace.points.len(), base.trace.points.len());
            for (p, q) in out.trace.points.iter().zip(base.trace.points.iter()) {
                assert_eq!(p.accuracy, q.accuracy);
                assert_eq!(p.loss, q.loss);
                assert_eq!(p.time, q.time);
                assert_eq!(p.up_bytes, q.up_bytes);
                assert_eq!(p.down_bytes, q.down_bytes);
            }
        }
    }
}

/// With the default (legacy) fault policy the new machinery is inert: no
/// timers fire, no faults beyond ground-truth down/up are logged, and the
/// run matches the legacy trace shape (the workspace-wide determinism pins
/// in `strategy_behavior.rs` cover bit-identity; this checks the policy
/// gate itself).
#[test]
fn default_policy_keeps_the_fault_layer_inert() {
    let n = 12;
    let task = suite::sent140_like(n, 43);
    let cluster = ClusterConfig::paper_medium(43).with_clients(n);
    let cfg = ExperimentConfig::builder()
        .strategy(StrategyKind::FedAt)
        .rounds(30)
        .clients_per_round(3)
        .local_epochs(1)
        .eval_every(5)
        .seed(43)
        .cluster(cluster)
        .build();
    let out = fedat_core::run_experiment(&task, &cfg);
    for kind in [
        FaultKind::Timeout,
        FaultKind::Retry,
        FaultKind::Retier,
        FaultKind::Revive,
    ] {
        assert_eq!(out.faults.count(kind), 0, "inert run logged {kind}");
    }
    assert!(out.global_updates > 0);
}

/// Transient churn without fault tolerance used to strand the async
/// strategies (a flapped client left the pool forever). Revival timers must
/// keep FedAsync productive through flaps, deterministically.
#[test]
fn fedasync_revives_flapped_clients() {
    let n = 10;
    let task = suite::sent140_like(n, 47);
    let churn = ChurnConfig {
        flaps: Some(FlapSpec {
            fraction: 1.0,
            mean_up: 150.0,
            mean_down: 30.0,
            horizon: 3000.0,
        }),
        ..ChurnConfig::default()
    };
    let cluster = ClusterConfig::paper_medium(47)
        .with_clients(n)
        .without_dropouts()
        .with_churn(churn);
    let cfg = ExperimentConfig::builder()
        .strategy(StrategyKind::FedAsync)
        .rounds(40)
        .clients_per_round(3)
        .local_epochs(1)
        .eval_every(20)
        .seed(47)
        .cluster(cluster)
        .build();
    let out = fedat_core::run_experiment(&task, &cfg);
    assert!(
        out.faults.count(FaultKind::Revive) > 0,
        "every client flaps, so revivals must fire"
    );
    assert_revives_agree_with_ground_truth(&out);
    assert!(out.global_updates > 0);
    let again = fedat_core::run_experiment(&task, &cfg);
    assert_eq!(out.final_weights, again.final_weights);
    assert_eq!(out.faults, again.faults);
}

/// Every `Revive` row agrees with the ground truth logged beside it: a
/// revived client's latest `Down`/`Up` row at that instant is `Up` (or it
/// has none), and a round server revives no more lanes than it parked —
/// a park is a `Quorum` row with nobody received (detail 0).
fn assert_revives_agree_with_ground_truth(out: &Outcome) {
    let events = out.faults.events();
    let revives = events.iter().filter(|e| e.kind == FaultKind::Revive);
    for revive in revives.clone().filter(|e| e.client.is_some()) {
        let latest = events.iter().rfind(|e| {
            matches!(e.kind, FaultKind::Down | FaultKind::Up)
                && e.client == revive.client
                && e.time <= revive.time
        });
        assert!(
            latest.is_none_or(|e| e.kind == FaultKind::Up),
            "client {:?} revived at t={} while down since t={}",
            revive.client,
            revive.time,
            latest.map_or(0.0, |e| e.time)
        );
    }
    let lane_revives = revives.filter(|e| e.client.is_none()).count();
    let parks = events
        .iter()
        .filter(|e| e.kind == FaultKind::Quorum && e.detail == 0)
        .count();
    assert!(
        lane_revives <= parks,
        "{lane_revives} lane revivals outnumber {parks} parking quorum rows"
    );
}
