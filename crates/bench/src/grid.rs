//! Concurrent experiment grids on the kernel pool.
//!
//! Runs many [`run_experiment_shared`] instances as concurrent pool *jobs*
//! — not dedicated OS threads — so whole-experiment parallelism and the
//! kernels' own fork-join parallelism share one scheduler instead of
//! oversubscribing the host. Each run resolves its own
//! [`fedat_core::exec::ExecCtx`] from its config at run start and installs
//! it as a per-thread overlay, so grid members with *different* execution
//! contexts (exec mode, SIMD kernel, thread budget) cannot cross-talk:
//! every run in the grid is bit-identical to the same run executed
//! serially (`grid_matches_serial_for_every_strategy` below compares whole
//! traces and final weights).
//!
//! The submitting thread joins handles in submission order; an unstarted
//! job is stolen and run inline at its join (the pool's steal-on-join
//! contract), so a grid completes on any host — including zero-worker
//! single-core machines, where it degrades to exactly the serial loop it
//! replaced.

use crate::harness::{Job, JobResult};
use fedat_core::run_experiment_shared;
use fedat_tensor::pool;

/// Runs every job as a kernel-pool job and returns results in the original
/// job order. `workers` is a pool-size hint: > 1 grows the shared pool to
/// at least `workers - 1` helper threads (the joining thread is the extra
/// worker); 0 or 1 leaves the pool at its ambient size.
pub fn run_grid(jobs: Vec<Job>, workers: usize) -> Vec<JobResult> {
    if workers > 1 {
        pool::ensure_workers(workers - 1);
    }
    let handles: Vec<pool::JobHandle<JobResult>> = jobs
        .into_iter()
        .map(|job| {
            pool::submit(move || {
                // Jobs share one task Arc per dataset — no corpus clone per
                // run. The run resolves its ExecCtx from its own config.
                let outcome = run_experiment_shared(&job.task, &job.cfg);
                JobResult {
                    label: job.label,
                    task_name: job.task.name.clone(),
                    strategy: job.cfg.strategy.name(),
                    target_accuracy: job.task.target_accuracy,
                    outcome,
                }
            })
        })
        .collect();
    handles.into_iter().map(|h| h.join()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedat_core::{ExperimentConfig, StrategyKind};
    use fedat_data::suite;
    use std::sync::Arc;

    fn job(task: &Arc<suite::FedTask>, strategy: StrategyKind, seed: u64) -> Job {
        Job {
            label: format!("{} s{seed}", strategy.name()),
            task: task.clone(),
            cfg: ExperimentConfig::builder()
                .strategy(strategy)
                .rounds(5)
                .clients_per_round(2)
                .local_epochs(1)
                .eval_every(2)
                .seed(seed)
                .build(),
        }
    }

    #[test]
    fn grid_matches_serial_for_every_strategy() {
        let task = Arc::new(suite::sent140_like(10, 11));
        let jobs: Vec<Job> = StrategyKind::all()
            .into_iter()
            .map(|s| job(&task, s, 11))
            .collect();
        let serial: Vec<_> = StrategyKind::all()
            .into_iter()
            .map(|s| {
                let j = job(&task, s, 11);
                run_experiment_shared(&j.task, &j.cfg)
            })
            .collect();
        let grid = run_grid(jobs, 3);
        assert_eq!(grid.len(), serial.len());
        for (g, s) in grid.iter().zip(serial.iter()) {
            assert_eq!(
                g.outcome.final_weights, s.final_weights,
                "{}: concurrent grid must be bit-identical to serial",
                g.label
            );
            assert_eq!(g.outcome.trace.points, s.trace.points, "{}", g.label);
        }
    }

    #[test]
    fn grid_preserves_job_order() {
        let task = Arc::new(suite::sent140_like(8, 13));
        let jobs: Vec<Job> = (0..5)
            .map(|i| job(&task, StrategyKind::FedAvg, i))
            .collect();
        let results = run_grid(jobs, 2);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(r.label, format!("FedAvg s{i}"));
            assert!(r.outcome.global_updates > 0);
        }
    }

    #[test]
    fn zero_worker_hint_degrades_to_serial_loop() {
        let task = Arc::new(suite::sent140_like(8, 17));
        let jobs = vec![job(&task, StrategyKind::FedAt, 17)];
        let results = run_grid(jobs, 0);
        let j = job(&task, StrategyKind::FedAt, 17);
        let serial = run_experiment_shared(&j.task, &j.cfg);
        assert_eq!(results[0].outcome.final_weights, serial.final_weights);
    }
}
