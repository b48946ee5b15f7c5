//! The unit of work of the reproduction harness: a [`Job`] in, a
//! [`JobResult`] out, run by [`crate::grid::run_grid`], plus the
//! full/quick [`Scale`] selector.

use fedat_core::{ExperimentConfig, Outcome};
use fedat_data::suite::FedTask;
use std::sync::Arc;

/// One experiment to run: a label, the task, and the configuration.
pub struct Job {
    /// Row/series label, e.g. `FedAT @ cifar10-like(#2)`.
    pub label: String,
    /// The federated task (shared between jobs on the same dataset).
    pub task: Arc<FedTask>,
    /// Full configuration.
    pub cfg: ExperimentConfig,
}

/// A finished job.
pub struct JobResult {
    /// The job's label.
    pub label: String,
    /// Name of the task the job ran on.
    pub task_name: String,
    /// Strategy name.
    pub strategy: &'static str,
    /// The task's time-to-accuracy target.
    pub target_accuracy: f32,
    /// The experiment outcome.
    pub outcome: Outcome,
}

impl JobResult {
    /// Bytes uploaded by the last evaluation point.
    pub fn up_bytes(&self) -> u64 {
        self.outcome.trace.points.last().map_or(0, |p| p.up_bytes)
    }

    /// Bytes downloaded by the last evaluation point.
    pub fn down_bytes(&self) -> u64 {
        self.outcome.trace.points.last().map_or(0, |p| p.down_bytes)
    }

    /// Whether every weight of the final global model is finite.
    pub fn final_finite(&self) -> bool {
        self.outcome.final_weights.iter().all(|w| w.is_finite())
    }
}

/// Scale selector: full reproduces the paper's setup, quick shrinks it for
/// smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Paper-scale clients and budgets.
    Full,
    /// ≈8× smaller (harness smoke test).
    Quick,
}

impl Scale {
    /// Clients for the medium (Chameleon-style) experiments.
    pub fn medium_clients(self) -> usize {
        match self {
            Scale::Full => 100,
            Scale::Quick => 30,
        }
    }

    /// Clients for the large (AWS-style) experiments.
    pub fn large_clients(self) -> usize {
        match self {
            Scale::Full => 500,
            Scale::Quick => 50,
        }
    }

    /// Scales a round budget.
    pub fn rounds(self, full: u64) -> u64 {
        match self {
            Scale::Full => full,
            Scale::Quick => (full / 8).max(10),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::run_grid;
    use fedat_core::StrategyKind;
    use fedat_data::suite;

    #[test]
    fn jobs_run_in_parallel_and_keep_order() {
        let task = Arc::new(suite::sent140_like(10, 3));
        let jobs: Vec<Job> = (0..4)
            .map(|i| Job {
                label: format!("job{i}"),
                task: task.clone(),
                cfg: ExperimentConfig::builder()
                    .strategy(StrategyKind::FedAvg)
                    .rounds(4)
                    .clients_per_round(2)
                    .local_epochs(1)
                    .seed(i)
                    .build(),
            })
            .collect();
        let results = run_grid(jobs, 3);
        assert_eq!(results.len(), 4);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.label, format!("job{i}"), "order must be preserved");
            assert!(r.outcome.global_updates > 0);
        }
    }

    #[test]
    fn parallel_equals_serial() {
        let task = Arc::new(suite::sent140_like(10, 4));
        let mk = || Job {
            label: "x".into(),
            task: task.clone(),
            cfg: ExperimentConfig::builder()
                .strategy(StrategyKind::FedAt)
                .rounds(6)
                .clients_per_round(2)
                .local_epochs(1)
                .seed(7)
                .build(),
        };
        let serial = run_grid(vec![mk()], 1);
        let parallel = run_grid(vec![mk(), mk(), mk()], 3);
        for p in &parallel {
            assert_eq!(
                p.outcome.final_weights, serial[0].outcome.final_weights,
                "parallel scheduling must not affect results"
            );
        }
    }

    #[test]
    fn scale_shrinks() {
        assert_eq!(Scale::Full.medium_clients(), 100);
        assert!(Scale::Quick.medium_clients() < 100);
        assert_eq!(Scale::Full.rounds(600), 600);
        assert_eq!(Scale::Quick.rounds(600), 75);
    }
}
