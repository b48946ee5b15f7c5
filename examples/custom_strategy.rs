//! Extending the system: a *new* federated-learning method is a
//! [`RoundPolicy`] — the answer to what differs from FedAvg — plugged into
//! the same round server the built-in methods run on.
//!
//! `PowerOfTwoChoices` is a selection rule that is not in the paper: each
//! round it samples two candidates per slot and keeps the *faster* half (by
//! profiled latency). Selection is all it says; the round loop, training,
//! codec, deadlines, guard, evaluation cadence and the [`Outcome`] come from
//! the driver, exactly as for FedAvg or FedAT.
//!
//! ```text
//! cargo run --release --example custom_strategy
//! ```

use fedat::core::prelude::*;
use fedat::core::strategies::round::{RoundPolicy, RoundServer, ServerView};
use fedat::data::suite;
use fedat::tensor::rng::sample_without_replacement;
use std::sync::Arc;

struct PowerOfTwoChoices;

impl RoundPolicy for PowerOfTwoChoices {
    fn select(
        &mut self,
        _lane: usize,
        view: &mut ServerView,
        pool: &mut Vec<usize>,
    ) -> Option<usize> {
        let eligible: Vec<usize> = (0..view.fleet.len())
            .filter(|&c| view.is_eligible(c))
            .collect();
        let k = view.cfg.clients_per_round;
        if eligible.len() <= k {
            // No choice to make: the driver dispatches whoever is eligible,
            // or parks the round until somebody is.
            pool.extend(0..view.fleet.len());
            return None;
        }
        // Two-choice sampling: draw 2k candidates, keep the k fastest.
        let draw = (2 * k).min(eligible.len());
        let drawn = sample_without_replacement(view.rng, eligible.len(), draw);
        pool.extend(drawn.into_iter().map(|i| eligible[i]));
        let latency = |c: usize| view.fleet.expected_latency(c, view.cfg.local_epochs);
        pool.sort_by(|&a, &b| latency(a).total_cmp(&latency(b)));
        pool.truncate(k);
        None
    }
}

fn main() {
    let task = Arc::new(suite::sent140_like(40, 17));
    let cfg = ExperimentConfig::builder()
        .strategy(StrategyKind::FedAvg) // FedAvg's hyperparameters and codec
        .rounds(80)
        .clients_per_round(5)
        .eval_every(10)
        .seed(17)
        .build();

    let custom = run_experiment_with(&task, &cfg, |_fleet| {
        Box::new(RoundServer::new(Arc::clone(&task), &cfg, PowerOfTwoChoices))
    });
    // Compare against stock FedAvg on the same cluster and budget.
    let stock = run_experiment_shared(&task, &cfg);
    for (name, out) in [("stock FedAvg", &stock), ("two-choices", &custom)] {
        println!(
            "{name:13}: best {:.4} | {} rounds in {:.0} virtual s | {:.1} kB up",
            out.best_accuracy(),
            out.global_updates,
            out.report.end_time,
            out.trace.points.last().map_or(0, |p| p.up_bytes) as f64 / 1e3,
        );
    }
    assert!(
        custom.report.end_time < stock.report.end_time,
        "keeping the faster half of the candidates must shorten the rounds"
    );
}
