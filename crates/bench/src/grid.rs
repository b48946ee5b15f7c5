//! Concurrent experiment grids on the kernel pool.
//!
//! Runs many [`run_experiment_shared`] instances as concurrent pool *jobs*
//! — not dedicated OS threads — so whole-experiment parallelism and each
//! run's own training jobs share one scheduler instead of oversubscribing
//! the host. Every job carries the submitting thread's kernel overlay, and
//! each run resolves its own from it ([`fedat_core::exec::resolve`]) at run
//! start and installs it on the thread running it, so grid members with
//! *different* job caps (a config's `Inline`) cannot cross-talk: every run
//! in the grid is bit-identical to the same run executed serially
//! (`grid_matches_serial_for_every_strategy` below compares whole traces
//! and final weights).
//!
//! The submitting thread helps while it waits: it walks the handles in
//! submission order and runs every job no worker has started yet
//! ([`pool::JobHandle::run_if_unstarted`]), and only then joins — blocking,
//! if at all, on jobs that are mid-run on a worker. (Joining in submission
//! order instead parked it on the first mid-run job while the rest queued
//! behind the workers: `repro table1 --quick` took as much wall as CPU on
//! two cores.) A grid therefore completes on any host — including
//! zero-worker single-core machines, where it degrades to exactly the
//! serial loop it replaced. Only this thread picks up whole experiments
//! that way: a server joining one of its own training jobs steals that job
//! and nothing else.

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
    run_all(jobs.into_iter().map(|job| {
        move || {
            // Jobs share one task Arc per dataset — no corpus clone per
            // run. The run resolves its overlay from the one the job carries.
            let outcome = run_experiment_shared(&job.task, &job.cfg);
            JobResult {
                label: job.label,
                task_name: job.task.name.clone(),
                strategy: job.cfg.strategy.name(),
                target_accuracy: job.task.target_accuracy,
                max_time: job.cfg.max_time,
                outcome,
            }
        }
    }))
}

/// Runs every closure exactly once, on a pool worker or on this thread,
/// whichever claims it first; results come back in submission order.
fn run_all<T, F>(work: impl Iterator<Item = F>) -> Vec<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let handles: Vec<pool::JobHandle<T>> = work.map(pool::submit).collect();
    for handle in &handles {
        handle.run_if_unstarted();
    }
    handles.into_iter().map(pool::JobHandle::join).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedat_core::{ExperimentConfig, StrategyKind};
    use fedat_data::suite;
    use std::sync::atomic::{AtomicUsize, Ordering};
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

        // Eight unequal jobs and one helper thread — the shape that used to
        // park the submitter on the first mid-run job. Whichever thread
        // takes which job: each runs once, results keep submission order
        // and are the serial run's, bit for bit.
        let unequal = |i: usize| {
            let mut j = job(&task, StrategyKind::all()[i % 6], 40 + i as u64);
            j.cfg.rounds = [9, 2, 6, 3, 8, 2, 5, 4][i];
            j
        };
        let runs: Arc<Vec<AtomicUsize>> = Arc::new((0..8).map(|_| AtomicUsize::new(0)).collect());
        pool::ensure_workers(1);
        let grid = run_all((0..8).map(|i| {
            let (j, runs) = (unequal(i), Arc::clone(&runs));
            move || {
                runs[i].fetch_add(1, Ordering::Relaxed);
                (j.label, run_experiment_shared(&j.task, &j.cfg))
            }
        }));
        for (i, (label, outcome)) in grid.iter().enumerate() {
            let j = unequal(i);
            assert_eq!(*label, j.label, "slot {i} holds another job's result");
            assert_eq!(runs[i].load(Ordering::Relaxed), 1, "{label} ran twice");
            let s = run_experiment_shared(&j.task, &j.cfg);
            assert_eq!(outcome.final_weights, s.final_weights, "{label}");
            assert_eq!(outcome.trace.points, s.trace.points, "{label}");
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
