//! One-call experiment orchestration: task + config → trace. A run is the
//! one server driver around one [`RoundPolicy`] — a built-in method's, or
//! the caller's ([`run_experiment_with`]).

use crate::config::ExperimentConfig;
use crate::strategies::policy_for;
use crate::strategies::round::{RoundPolicy, RoundServer};
use fedat_data::suite::FedTask;
use fedat_sim::fault::FaultLog;
use fedat_sim::fleet::{ClusterConfig, Fleet};
use fedat_sim::runtime::{run_logged, RunLimits, SimReport};
use fedat_sim::trace::Trace;
use std::sync::Arc;

/// Everything an experiment produces.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Accuracy/loss/bytes time series.
    pub trace: Trace,
    /// Simulator exit report.
    pub report: SimReport,
    /// Final global weights.
    pub final_weights: Vec<f32>,
    /// Global updates performed.
    pub global_updates: u64,
    /// Final per-client test accuracies (Definition 3.1 variance basis).
    pub per_client_accuracy: Vec<f32>,
    /// Average per-client accuracy variance over training checkpoints —
    /// the Table 1 `Norm. Var.` metric ("the average variance of test
    /// accuracy among all clients").
    pub accuracy_variance: f32,
    /// Time-ordered availability transitions, corruption injections and
    /// server fault-tolerance actions: the run's one fault record. How
    /// often an action fired is `faults.count(kind)`.
    pub faults: FaultLog,
    /// Per-tier update counts for tiered strategies (`None` otherwise).
    pub tier_updates: Option<Vec<u64>>,
    /// This run's speculative training launches and discards (wasted
    /// work). Cap-dependent, unlike everything above: zero when the run's
    /// job cap is 0.
    pub speculation: crate::exec::Speculation,
}

impl Outcome {
    /// Best accuracy along the trace (the Table 1 metric).
    pub fn best_accuracy(&self) -> f32 {
        self.trace.best_accuracy()
    }
}

/// The cluster a run gets when its config names none: the paper's medium
/// testbed at `n` clients, at most a tenth of them unstable (the paper's 10
/// unstable clients assume a 100-client cluster).
pub fn default_cluster(n: usize, seed: u64) -> ClusterConfig {
    let mut c = ClusterConfig::paper_medium(seed).with_clients(n);
    c.n_unstable = c.n_unstable.min(n / 10);
    c
}

/// Runs one federated-learning experiment end to end.
///
/// The cluster defaults to [`default_cluster`] at the task's client count;
/// override via [`ExperimentConfig::cluster`].
///
/// This entry clones the task once into an [`Arc`]; when the task is
/// already shared — harness jobs fanning one dataset across strategies, or
/// loader-built corpora ([`FedTask::from_leaf_dir`]) that can run to
/// hundreds of MB — use [`run_experiment_shared`] to skip the copy.
///
/// # Panics
/// Panics if an explicit cluster's client count disagrees with the task.
pub fn run_experiment(task: &FedTask, cfg: &ExperimentConfig) -> Outcome {
    run_experiment_shared(&Arc::new(task.clone()), cfg)
}

/// [`run_experiment`] without the corpus copy: the server holds the given
/// [`Arc`] directly, so arbitrarily large loader-built tasks are
/// shared, never cloned.
///
/// # Panics
/// Panics if an explicit cluster's client count disagrees with the task.
pub fn run_experiment_shared(task: &Arc<FedTask>, cfg: &ExperimentConfig) -> Outcome {
    run_experiment_with(task, cfg, |fleet| policy_for(task, cfg, fleet))
}

/// [`run_experiment_shared`] for a caller-built [`RoundPolicy`]: `policy`
/// gets the run's fleet and runs under the run's kernel overlay, and the
/// policy it returns is driven, evaluated and reported exactly like a
/// built-in (`cfg.strategy` only picks the default codec and the trace's
/// name).
///
/// # Panics
/// Panics if an explicit cluster's client count disagrees with the task.
pub fn run_experiment_with(
    task: &Arc<FedTask>,
    cfg: &ExperimentConfig,
    policy: impl FnOnce(&Fleet) -> Box<dyn RoundPolicy>,
) -> Outcome {
    let cluster = cfg
        .cluster
        .clone()
        .unwrap_or_else(|| default_cluster(task.fed.num_clients(), cfg.seed));
    assert_eq!(
        cluster.n_clients,
        task.fed.num_clients(),
        "cluster size must match the federation"
    );
    let fleet = Fleet::new(&cluster, task.fed.client_sizes());
    // Resolve the run's kernel overlay ONCE and install it for the run's
    // scope. Every job the run submits (training, pipelined evals) carries
    // it to the thread that runs it, so concurrent runs with different
    // settings never read each other's.
    let _overlay = fedat_tensor::ctx::install(crate::exec::resolve(cfg));
    let mut server = RoundServer::new(Arc::clone(task), cfg, policy(&fleet));
    let limits = RunLimits {
        max_time: cfg.max_time,
        max_events: 20_000_000,
    };
    let (report, faults) = run_logged(&mut server, &fleet, cfg.seed, limits);
    server.finish(report, faults)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StrategyKind;
    use fedat_compress::codec::CodecKind;
    use fedat_data::suite;
    use fedat_sim::churn::ChurnConfig;
    use fedat_sim::fault::FaultKind;

    fn quick_cfg(strategy: StrategyKind, rounds: u64, seed: u64) -> ExperimentConfig {
        ExperimentConfig::builder()
            .strategy(strategy)
            .rounds(rounds)
            .clients_per_round(3)
            .local_epochs(1)
            .eval_every(2)
            .seed(seed)
            .build()
    }

    /// `cfg` as given, then on its default cluster under storm churn and
    /// under light corruption, then over an 8-bit quantized wire.
    fn scenarios(task: &FedTask, cfg: &ExperimentConfig) -> [(&'static str, ExperimentConfig); 4] {
        let churned = |churn| ExperimentConfig {
            cluster: Some(default_cluster(task.fed.num_clients(), cfg.seed).with_churn(churn)),
            ..cfg.clone()
        };
        [
            ("default", cfg.clone()),
            ("storm", churned(ChurnConfig::storm_heavy())),
            ("corrupt", churned(ChurnConfig::corrupt_light())),
            (
                "quantized",
                ExperimentConfig {
                    codec: Some(CodecKind::Quantized { bits: 8 }),
                    ..cfg.clone()
                },
            ),
        ]
    }

    #[test]
    fn every_strategy_runs_on_a_tiny_task() {
        let task = suite::sent140_like(10, 5);
        for strategy in StrategyKind::all() {
            for (scenario, cfg) in scenarios(&task, &quick_cfg(strategy, 8, 5)) {
                let run = format!("{} ({scenario})", strategy.name());
                let out = run_experiment(&task, &cfg);
                assert!(out.global_updates > 0, "{run} performed no updates");
                assert!(!out.trace.points.is_empty(), "{run} recorded no trace");
                assert!(out.final_weights.iter().all(|w| w.is_finite()), "{run}");
                assert_eq!(out.per_client_accuracy.len(), 10);
            }
        }
    }

    #[test]
    fn experiments_are_deterministic() {
        let task = suite::sent140_like(10, 6);
        for (scenario, cfg) in scenarios(&task, &quick_cfg(StrategyKind::FedAt, 10, 6)) {
            let a = run_experiment(&task, &cfg);
            let b = run_experiment(&task, &cfg);
            assert_eq!(a.final_weights, b.final_weights, "{scenario}");
            assert_eq!(a.faults, b.faults, "{scenario}");
            assert_eq!(a.trace.points.len(), b.trace.points.len());
            for (p, q) in a.trace.points.iter().zip(b.trace.points.iter()) {
                assert_eq!(p.accuracy, q.accuracy);
                assert_eq!(p.time, q.time);
                assert_eq!(p.up_bytes, q.up_bytes);
            }
        }
    }

    #[test]
    fn seeds_change_outcomes() {
        let task = suite::sent140_like(10, 6);
        let a = run_experiment(&task, &quick_cfg(StrategyKind::FedAvg, 6, 1));
        let b = run_experiment(&task, &quick_cfg(StrategyKind::FedAvg, 6, 2));
        assert_ne!(a.final_weights, b.final_weights);
    }

    #[test]
    fn fedat_learns_on_separable_task() {
        let task = suite::sent140_like(12, 3);
        let cfg = ExperimentConfig::builder()
            .strategy(StrategyKind::FedAt)
            .rounds(150)
            .clients_per_round(4)
            .local_epochs(2)
            .eval_every(10)
            .seed(3)
            .build();
        let outs = scenarios(&task, &cfg).map(|(scenario, cfg)| {
            let out = run_experiment(&task, &cfg);
            assert!(
                out.best_accuracy() > 0.65,
                "FedAT should learn the separable task ({scenario}): best {} (chance 0.5)",
                out.best_accuracy()
            );
            out
        });
        // Each scenario must reach the run, or its row tests nothing.
        let [default, storm, corrupt, _] = &outs;
        assert!(
            storm.faults.count(FaultKind::Down) > default.faults.count(FaultKind::Down),
            "the storm took no extra client down"
        );
        assert!(
            corrupt.faults.count(FaultKind::Corrupt) > 0,
            "no uplink was corrupted"
        );
    }

    #[test]
    fn traffic_is_monotone_along_trace() {
        let task = suite::sent140_like(8, 4);
        for (scenario, cfg) in scenarios(&task, &quick_cfg(StrategyKind::FedAt, 12, 4)) {
            let out = run_experiment(&task, &cfg);
            for w in out.trace.points.windows(2) {
                assert!(w[1].up_bytes >= w[0].up_bytes, "{scenario}");
                assert!(w[1].down_bytes >= w[0].down_bytes, "{scenario}");
            }
            let last = out.trace.points.last().unwrap();
            assert!(last.up_bytes > 0 && last.down_bytes > 0, "{scenario}");
        }
    }
}
