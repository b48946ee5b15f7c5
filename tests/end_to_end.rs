//! Cross-crate integration tests: whole experiments through the public
//! facade, checking the paper's qualitative claims on small federations.

use fedat::core::prelude::*;
use fedat::data::suite;
use fedat::sim::fleet::ClusterConfig;

fn base_cfg(strategy: StrategyKind, rounds: u64, seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder()
        .strategy(strategy)
        .rounds(rounds)
        .clients_per_round(4)
        .local_epochs(2)
        .eval_every(5)
        .seed(seed)
        .build()
}

#[test]
fn all_six_strategies_complete_and_learn_something() {
    let task = suite::sent140_like(20, 31);
    for strategy in StrategyKind::all() {
        let out = run_experiment(&task, &base_cfg(strategy, 30, 31));
        assert!(out.global_updates > 0, "{} did nothing", strategy.name());
        assert!(
            out.final_weights.iter().all(|w| w.is_finite()),
            "{} produced non-finite weights",
            strategy.name()
        );
        assert!(
            out.best_accuracy() > 0.45,
            "{} below chance on a separable task: {}",
            strategy.name(),
            out.best_accuracy()
        );
    }
}

#[test]
fn fedat_beats_fedavg_on_time_axis_under_stragglers() {
    // The paper's headline: within the same virtual-time horizon, FedAT's
    // wait-free tier rounds produce far more global updates than FedAvg's
    // full-cohort synchronous rounds, reaching the target accuracy sooner.
    let task = suite::sent140_like(50, 33);
    let horizon = 900.0;
    let run_one = |strategy: StrategyKind, rounds: u64| {
        let mut cfg = base_cfg(strategy, rounds, 33);
        cfg.max_time = horizon;
        run_experiment(&task, &cfg)
    };
    let fedavg = run_one(StrategyKind::FedAvg, 10_000);
    let fedat = run_one(StrategyKind::FedAt, 10_000);
    assert!(
        fedat.global_updates > fedavg.global_updates * 2,
        "FedAT should bank far more updates in {horizon}s: {} vs {}",
        fedat.global_updates,
        fedavg.global_updates
    );
    let t_avg = fedavg.trace.time_to_accuracy(0.70);
    let t_at = fedat.trace.time_to_accuracy(0.70);
    match (t_at, t_avg) {
        (Some(a), Some(b)) => assert!(
            a <= b * 1.2,
            "FedAT ({a:.0}s) should not be slower than FedAvg ({b:.0}s) to 0.70"
        ),
        (Some(_), None) => {} // FedAT reached it, FedAvg never did — fine
        (None, _) => panic!("FedAT never reached 0.70 within the horizon"),
    }
}

#[test]
fn compression_cuts_bytes_without_killing_accuracy() {
    use fedat::compress::codec::CodecKind;
    let task = suite::sent140_like(20, 35);
    let mut raw_cfg = base_cfg(StrategyKind::FedAt, 40, 35);
    raw_cfg.codec = Some(CodecKind::None);
    let raw = run_experiment(&task, &raw_cfg);
    let mut p4_cfg = base_cfg(StrategyKind::FedAt, 40, 35);
    p4_cfg.codec = Some(CodecKind::Polyline {
        precision: 4,
        delta: true,
    });
    let p4 = run_experiment(&task, &p4_cfg);

    let bytes = |o: &Outcome| {
        o.trace
            .points
            .last()
            .map(|p| p.up_bytes + p.down_bytes)
            .unwrap()
    };
    // Trained logistic weights reach magnitude ≈2, so precision-4 polyline
    // needs ~3 B/value vs 4 B raw; expect at least a 15% cut here (CNN
    // payloads with small weights compress 2–3.5×, see fig5/EXPERIMENTS).
    assert!(
        (bytes(&p4) as f64) < bytes(&raw) as f64 * 0.85,
        "polyline p4 should cut ≥15% of traffic: {} vs {}",
        bytes(&p4),
        bytes(&raw)
    );
    assert!(
        (raw.best_accuracy() - p4.best_accuracy()).abs() < 0.08,
        "precision 4 should not change accuracy much: {} vs {}",
        raw.best_accuracy(),
        p4.best_accuracy()
    );
}

#[test]
fn asynchronous_methods_spend_more_bytes_per_unit_time() {
    // The communication-bottleneck claim (§1): async methods keep every
    // client talking to the server, so their byte rate dwarfs FedAT's.
    let task = suite::sent140_like(30, 37);
    let horizon = 400.0;
    let rate = |strategy: StrategyKind| {
        let mut cfg = base_cfg(strategy, 100_000, 37);
        cfg.max_time = horizon;
        let out = run_experiment(&task, &cfg);
        let last = out.trace.points.last().cloned().unwrap();
        (last.up_bytes + last.down_bytes) as f64 / last.time.max(1.0)
    };
    let asy = rate(StrategyKind::FedAsync);
    let fat = rate(StrategyKind::FedAt);
    assert!(
        asy > fat * 1.5,
        "FedAsync byte rate ({asy:.0} B/s) should clearly exceed FedAT's ({fat:.0} B/s)"
    );
}

#[test]
fn dropouts_do_not_stall_any_strategy() {
    // 30% unstable clients with a short horizon: every strategy must still
    // terminate and produce finite weights (the robustness property).
    let mut cluster = ClusterConfig::paper_medium(41).with_clients(20);
    cluster.n_unstable = 6;
    cluster.dropout_horizon = 120.0;
    let task = suite::sent140_like(20, 41);
    for strategy in StrategyKind::all() {
        let mut cfg = base_cfg(strategy, 25, 41);
        cfg.cluster = Some(cluster.clone());
        cfg.max_time = 2000.0;
        let out = run_experiment(&task, &cfg);
        assert!(
            out.final_weights.iter().all(|w| w.is_finite()),
            "{} broke under dropouts",
            strategy.name()
        );
    }
}

#[test]
fn tier_update_counts_follow_latency_order() {
    // FedAT's fast tiers must update the global model more often than its
    // slow tiers (the premise of the Eq. 5 weighting).
    use fedat::core::strategies::build_strategy;
    use fedat::sim::fleet::Fleet;
    use fedat::sim::runtime::{run_logged, EventHandler, RunLimits};
    use std::sync::Arc;

    let task = suite::sent140_like(30, 43);
    let cfg = {
        let mut c = base_cfg(StrategyKind::FedAt, 60, 43);
        c.cluster = Some(
            ClusterConfig::paper_medium(43)
                .with_clients(30)
                .without_dropouts(),
        );
        c
    };
    let fleet = Fleet::new(cfg.cluster.as_ref().unwrap(), task.fed.client_sizes());
    let _overlay = fedat::tensor::ctx::install(fedat::core::exec::resolve(&cfg));
    let mut strategy = build_strategy(Arc::new(task), &cfg, &fleet);
    let (report, faults) = {
        let handler: &mut dyn EventHandler = &mut *strategy;
        run_logged(handler, &fleet, cfg.seed, RunLimits::default())
    };
    assert!(strategy.finish(report, faults).global_updates >= 60);
}

#[test]
fn quick_scaled_tasks_are_consistent() {
    // `scaled` must preserve schema while shrinking data.
    for task in [
        suite::cifar10_like(10, 2, 1).scaled(0.3),
        suite::fmnist_like(10, 4, 1).scaled(0.3),
        suite::femnist_like(10, 1).scaled(0.3),
        suite::reddit_like(10, 1).scaled(0.3),
    ] {
        assert_eq!(task.fed.num_clients(), 10);
        assert!(task.fed.total_train_samples() > 0);
        let out = run_experiment(&task, &base_cfg(StrategyKind::FedAt, 6, 1));
        assert!(out.global_updates > 0, "{} failed", task.name);
    }
}
