//! Behavioral tests of the six strategies: the mechanism-level claims the
//! paper makes about each method, checked on small federations.

mod common;

use common::{sweep, SETTINGS, SHORT};
use fedat_compress::codec::CodecKind;
use fedat_core::prelude::*;
use fedat_core::strategies::build_strategy;
use fedat_data::suite;
use fedat_sim::fleet::{ClusterConfig, Fleet};
use fedat_sim::runtime::{run_logged, EventHandler, RunLimits};
use std::sync::Arc;

fn cfg(strategy: StrategyKind, rounds: u64, seed: u64, cluster: ClusterConfig) -> ExperimentConfig {
    ExperimentConfig::builder()
        .strategy(strategy)
        .rounds(rounds)
        .clients_per_round(3)
        .local_epochs(1)
        .eval_every(5)
        .seed(seed)
        .cluster(cluster)
        .build()
}

/// Drives a strategy by hand and returns its outcome for post-hoc
/// inspection.
fn run_strategy(
    strategy: StrategyKind,
    rounds: u64,
    seed: u64,
    n_clients: usize,
) -> (Outcome, fedat_data::suite::FedTask) {
    let task = suite::sent140_like(n_clients, seed);
    let cluster = ClusterConfig::paper_medium(seed)
        .with_clients(n_clients)
        .without_dropouts();
    let c = cfg(strategy, rounds, seed, cluster.clone());
    let fleet = Fleet::new(&cluster, task.fed.client_sizes());
    let _overlay = fedat_tensor::ctx::install(fedat_core::exec::resolve(&c));
    let mut s = build_strategy(Arc::new(task.clone()), &c, &fleet);
    let (report, faults) = {
        let h: &mut dyn EventHandler = &mut *s;
        run_logged(h, &fleet, seed, RunLimits::default())
    };
    (s.finish(report, faults), task)
}

#[test]
fn fedavg_performs_exactly_the_requested_rounds() {
    let (s, _) = run_strategy(StrategyKind::FedAvg, 17, 3, 15);
    assert_eq!(s.global_updates, 17);
}

#[test]
fn fedat_tier_updates_sum_to_global_updates() {
    let (s, _) = run_strategy(StrategyKind::FedAt, 40, 5, 20);
    assert_eq!(s.global_updates, 40);
    // The trace must be monotone in round number.
    for w in s.trace.points.windows(2) {
        assert!(w[1].round >= w[0].round);
    }
}

#[test]
fn fedat_time_per_update_beats_fedavg() {
    // Each FedAT update waits only for one tier's stragglers; FedAvg waits
    // for the slowest of a cross-tier cohort. Mean virtual time per global
    // update must therefore be smaller for FedAT.
    let (avg, _) = run_strategy(StrategyKind::FedAvg, 20, 7, 25);
    let (fat, _) = run_strategy(StrategyKind::FedAt, 60, 7, 25);
    let per_update = |s: &Outcome| s.trace.points.last().unwrap().time / s.global_updates as f64;
    assert!(
        per_update(&fat) < per_update(&avg),
        "FedAT {}s/update should beat FedAvg {}s/update",
        per_update(&fat),
        per_update(&avg)
    );
}

#[test]
fn async_strategies_update_far_more_often_per_virtual_second() {
    let (asy, _) = run_strategy(StrategyKind::FedAsync, 30, 9, 25);
    let (avg, _) = run_strategy(StrategyKind::FedAvg, 30, 9, 25);
    let rate = |s: &Outcome| s.global_updates as f64 / s.trace.points.last().unwrap().time.max(1.0);
    assert!(
        rate(&asy) > rate(&avg) * 2.0,
        "FedAsync update rate {} should dwarf FedAvg's {}",
        rate(&asy),
        rate(&avg)
    );
}

#[test]
fn uniform_and_weighted_fedat_diverge() {
    // Fig. 6's premise: the aggregation scheme changes the trajectory.
    let task = suite::sent140_like(20, 13);
    let cluster = ClusterConfig::paper_medium(13)
        .with_clients(20)
        .without_dropouts();
    let mut wcfg = cfg(StrategyKind::FedAt, 30, 13, cluster.clone());
    wcfg.uniform_tier_weights = false;
    let mut ucfg = cfg(StrategyKind::FedAt, 30, 13, cluster);
    ucfg.uniform_tier_weights = true;
    let w = fedat_core::run_experiment(&task, &wcfg);
    let u = fedat_core::run_experiment(&task, &ucfg);
    assert_ne!(
        w.final_weights, u.final_weights,
        "aggregation scheme must affect the model"
    );
}

#[test]
fn mistiering_changes_fedat_little_more_than_noise() {
    // §2.1: FedAT tolerates mis-profiled clients. A 30% mis-tiering should
    // not collapse accuracy.
    let task = suite::sent140_like(25, 15);
    let cluster = ClusterConfig::paper_medium(15)
        .with_clients(25)
        .without_dropouts();
    let clean_cfg = cfg(StrategyKind::FedAt, 50, 15, cluster.clone());
    let mut noisy_cfg = cfg(StrategyKind::FedAt, 50, 15, cluster);
    noisy_cfg.mistier_fraction = 0.3;
    let clean = fedat_core::run_experiment(&task, &clean_cfg);
    let noisy = fedat_core::run_experiment(&task, &noisy_cfg);
    assert!(
        noisy.best_accuracy() > clean.best_accuracy() - 0.1,
        "mis-tiering collapsed FedAT: {} vs {}",
        noisy.best_accuracy(),
        clean.best_accuracy()
    );
}

#[test]
fn compression_codec_flows_into_traffic_totals() {
    let task = suite::sent140_like(15, 17);
    let cluster = ClusterConfig::paper_medium(17)
        .with_clients(15)
        .without_dropouts();
    // Note: trained logistic weights reach magnitude ≈2, where precision 6
    // needs 5 polyline bytes per value and *loses* to raw — so the
    // comparison uses p4 and p3, which stay below 4 B/value.
    let sizes: Vec<u64> = [
        CodecKind::None,
        CodecKind::Polyline {
            precision: 4,
            delta: true,
        },
        CodecKind::Polyline {
            precision: 3,
            delta: true,
        },
    ]
    .into_iter()
    .map(|k| {
        let mut c = cfg(StrategyKind::FedAt, 20, 17, cluster.clone());
        c.codec = Some(k);
        let out = fedat_core::run_experiment(&task, &c);
        out.trace.points.last().unwrap().up_bytes
    })
    .collect();
    assert!(sizes[0] > sizes[1], "p4 must beat raw: {sizes:?}");
    assert!(sizes[1] > sizes[2], "p3 must beat p4: {sizes:?}");
}

#[test]
fn total_dropout_starves_but_terminates() {
    // Failure injection: every client is unstable and drops within 60 s.
    // Strategies must terminate (starved or budget) without panicking.
    let n = 12;
    let task = suite::sent140_like(n, 19);
    let mut cluster = ClusterConfig::paper_medium(19).with_clients(n);
    cluster.n_unstable = n;
    cluster.dropout_horizon = 60.0;
    for strategy in StrategyKind::all() {
        let mut c = cfg(strategy, 1000, 19, cluster.clone());
        c.max_time = 5000.0;
        let out = fedat_core::run_experiment(&task, &c);
        assert!(
            out.report.end_time <= 5000.0,
            "{} ran past the horizon",
            strategy.name()
        );
        assert!(out.final_weights.iter().all(|w| w.is_finite()));
    }
}

#[test]
fn fedat_trace_is_bit_identical_across_aggregation_thread_counts() {
    // Where the work runs must be invisible to results: a CNN run with a
    // capped, shuffled eval subset, across job caps and SIMD lanes.
    let n = 15;
    let task = suite::cifar10_like(n, 2, 23);
    let cluster = ClusterConfig::paper_medium(23)
        .with_clients(n)
        .without_dropouts();
    let mut c = cfg(StrategyKind::FedAt, 10, 23, cluster);
    c.eval_every = 2;
    c.eval_subset = 48; // capped → exercises the shuffled-subset path too
    let base = sweep("FedAT CNN", &task, &c, SHORT);
    assert!(!base.trace.points.is_empty());
}

#[test]
fn speculative_dropout_discards_are_trace_invisible() {
    // A client that drops mid-round has its speculative training job's
    // result *discarded*, and no run may tell: half the cluster here is
    // unstable over a horizon shorter than the run, so dispatches outlive
    // their clients.
    let n = 14;
    let task = suite::sent140_like(n, 29);
    let mut cluster = ClusterConfig::paper_medium(29).with_clients(n);
    cluster.n_unstable = n / 2; // half the fleet drops out mid-run
    cluster.dropout_horizon = 400.0;
    let mut c = cfg(StrategyKind::FedAt, 200, 29, cluster);
    c.max_time = 2000.0;
    c.eval_every = 10;
    let base = sweep("FedAT dropouts", &task, &c, SETTINGS);
    assert!(
        base.speculation.discards > 0,
        "the unstable cluster must have produced at least one discarded \
         speculative result — the scenario no longer exercises the path"
    );
}

#[test]
fn fedasync_mixing_is_bit_identical_across_simd_and_threads() {
    // FedAsync's server mixing (`lerp_into` over the full model on every
    // arrival) runs a vectorized loop on the event-loop thread while the
    // clients train on pool workers: neither the SIMD kernel nor the
    // worker count may change a bit of the run.
    let n = 12;
    let task = suite::sent140_like(n, 31);
    let cluster = ClusterConfig::paper_medium(31)
        .with_clients(n)
        .without_dropouts();
    let c = cfg(StrategyKind::FedAsync, 20, 31, cluster);
    let base = sweep("FedAsync", &task, &c, SETTINGS);
    assert!(!base.trace.points.is_empty());
}

#[test]
fn fedasync_inflight_bookkeeping_is_order_blind() {
    // The in-flight table and `dispatch_version` are client-indexed
    // `Vec`s: staleness-weighted async aggregation with enough concurrent
    // dispatches that both carry several live entries at once must not
    // depend on the order work completes in on the pool.
    let n = 12;
    let task = suite::sent140_like(n, 31);
    let cluster = ClusterConfig::paper_medium(31).with_clients(n);
    let c = ExperimentConfig::builder()
        .strategy(StrategyKind::FedAsync)
        .rounds(20)
        .clients_per_round(4)
        .eval_every(5)
        .seed(31)
        .cluster(cluster)
        .build();
    let base = sweep("FedAsync in flight", &task, &c, SETTINGS);
    assert!(base.global_updates > 0, "run made no progress");
    assert!(base.final_weights.iter().all(|w| w.is_finite()));
}

#[test]
fn delta_rle_fedat_is_bit_identical_across_exec_settings() {
    // The lossless delta uplink: each dispatch's broadcast is the
    // reference its XOR planes are taken against (`repro codec`'s FedAT
    // delta-rle cell).
    let task = suite::sent140_like(16, 11);
    let c = ExperimentConfig::builder()
        .strategy(StrategyKind::FedAt)
        .rounds(100)
        .clients_per_round(4)
        .local_epochs(1)
        .eval_every(10)
        .max_time(6_000.0)
        .codec(CodecKind::DeltaRle)
        .seed(11)
        .build();
    let base = sweep("FedAT delta-rle", &task, &c, SETTINGS);
    assert!(base.global_updates > 0, "run made no progress");
}
