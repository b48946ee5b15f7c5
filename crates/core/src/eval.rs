//! Global and per-client evaluation, plus the robustness metrics of
//! Definition 3.1 (convergence speed, accuracy variance, prediction
//! accuracy).

use fedat_data::dataset::Dataset;
use fedat_data::suite::FedTask;
use fedat_nn::metrics::{accuracy_batched, evaluate_batched};
use fedat_nn::model::EvalResult;
use fedat_nn::models::{with_cached_model, ModelSpec};
use fedat_tensor::rng::{rng_for, shuffle, tags};

/// Evaluation mini-batch size (also the per-client sweep batch).
const EVAL_BATCH: usize = 64;

/// A reusable evaluator: the task's model and a fixed test subset, swept
/// in fixed mini-batches on the calling thread's cached model instance
/// ([`with_cached_model`]), so evaluating costs no model build and returns
/// a fresh model's bits: `fedat_trace_is_bit_identical_across_aggregation_thread_counts`
/// pins whole traces across worker counts, cap 0 and the scalar lane.
pub struct Evaluator {
    spec: ModelSpec,
    seed: u64,
    test: Dataset,
}

impl Evaluator {
    /// Builds an evaluator over (a fixed subset of) the task's pooled test
    /// set. `subset` caps the number of test rows (0 = use everything).
    ///
    /// The pooled test set is the *concatenation of the per-client test
    /// splits in client order*, so a prefix would over-represent the first
    /// clients' classes under non-IID partitions and skew every accuracy
    /// trace. The subset is therefore drawn by a seed-derived shuffle of
    /// the row indices — deterministic for a given seed and shared by
    /// every strategy, so method comparisons stay apples-to-apples.
    pub fn new(task: &FedTask, subset: usize, seed: u64) -> Self {
        let full = &task.fed.global_test;
        let test = if subset > 0 && subset < full.len() {
            let mut idx: Vec<usize> = (0..full.len()).collect();
            shuffle(&mut rng_for(seed, tags::EVAL), &mut idx);
            idx.truncate(subset);
            full.subset(&idx)
        } else {
            full.clone()
        };
        Evaluator {
            spec: task.model.clone(),
            seed,
            test,
        }
    }

    /// Loss/accuracy of `weights` on the evaluation subset.
    pub fn evaluate(&mut self, weights: &[f32]) -> EvalResult {
        if self.test.is_empty() {
            return EvalResult::default();
        }
        with_cached_model(&self.spec, self.seed, |model| {
            model.set_weights(weights);
            evaluate_batched(model, &self.test.x, &self.test.y, EVAL_BATCH)
        })
    }

    /// Number of evaluation rows.
    pub fn test_rows(&self) -> usize {
        self.test.len()
    }
}

/// Per-client test accuracies of a single global model — the basis of the
/// paper's accuracy-variance metric (Table 1 `Norm. Var.` rows).
///
/// The sweep evaluates every client in turn on the calling thread's cached
/// model instance, computing accuracy only ([`accuracy_batched`]): the
/// variance metric reads nothing else.
pub fn per_client_accuracy(task: &FedTask, weights: &[f32], seed: u64) -> Vec<f32> {
    with_cached_model(&task.model, seed, |model| {
        model.set_weights(weights);
        task.fed
            .clients
            .iter()
            .map(|c| accuracy_batched(model, &c.test.x, &c.test.y, EVAL_BATCH))
            .collect()
    })
}

/// Population variance of per-client accuracies.
pub fn accuracy_variance(per_client: &[f32]) -> f32 {
    if per_client.is_empty() {
        return 0.0;
    }
    let n = per_client.len() as f32;
    let mean = per_client.iter().sum::<f32>() / n;
    per_client
        .iter()
        .map(|a| (a - mean) * (a - mean))
        .sum::<f32>()
        / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedat_data::federated::{ClientData, FederatedDataset};
    use fedat_data::suite;
    use fedat_tensor::Tensor;

    /// A federation whose pooled test set is maximally client-ordered:
    /// client `i`'s test rows all carry label `i`, so any prefix of
    /// `global_test` sees only the first clients' labels.
    fn label_striped_task(n_clients: usize, rows_per_client: usize) -> FedTask {
        let make = |label: u32| {
            let x = Tensor::from_vec(
                vec![label as f32; rows_per_client * 2],
                &[rows_per_client, 2],
            );
            fedat_data::dataset::Dataset::new(x, vec![label; rows_per_client], n_clients)
        };
        let clients: Vec<ClientData> = (0..n_clients)
            .map(|i| ClientData {
                train: make(i as u32),
                test: make(i as u32),
            })
            .collect();
        let tests: Vec<&fedat_data::dataset::Dataset> = clients.iter().map(|c| &c.test).collect();
        let global_test = fedat_data::dataset::Dataset::concat(&tests);
        FedTask {
            name: "label-striped".into(),
            fed: FederatedDataset {
                clients,
                global_test,
                classes: n_clients,
                features: 2,
                targets_per_row: 1,
            },
            model: ModelSpec::Logistic {
                input: 2,
                classes: n_clients,
            },
            target_accuracy: 0.5,
        }
    }

    /// Regression: the capped eval subset must be a seed-shuffled sample of
    /// the pooled test set, not its client-order prefix. With non-IID
    /// partitions a prefix over-represents the first clients' classes and
    /// skews every accuracy trace (the pre-fix behavior: a 20-row cap over
    /// this 10-client federation saw only client 0's label).
    #[test]
    fn capped_subset_draws_from_late_clients() {
        let task = label_striped_task(10, 20);
        let e = Evaluator::new(&task, 20, 7);
        assert_eq!(e.test_rows(), 20);
        let labels: std::collections::BTreeSet<u32> = e.test.y.iter().copied().collect();
        assert!(
            labels.iter().any(|&l| l >= 5),
            "capped subset drew only from early clients: {labels:?}"
        );
        assert!(
            labels.len() > 2,
            "capped subset is not a cross-client sample: {labels:?}"
        );
        // The subset is a pure function of the seed: every strategy of an
        // experiment (same cfg.seed) evaluates on the same rows.
        let e2 = Evaluator::new(&task, 20, 7);
        assert_eq!(e.test.y, e2.test.y);
        assert_ne!(
            Evaluator::new(&task, 20, 8).test.y,
            e.test.y,
            "different seeds should draw different subsets"
        );
    }

    #[test]
    fn evaluator_subset_caps_rows() {
        let task = suite::sent140_like(10, 1);
        let full = Evaluator::new(&task, 0, 1);
        let capped = Evaluator::new(&task, 16, 1);
        assert!(full.test_rows() > 16);
        assert_eq!(capped.test_rows(), 16);
    }

    #[test]
    fn evaluation_is_deterministic_per_weights() {
        let task = suite::sent140_like(8, 2);
        let w = task.model.build(5).weights();
        let mut e1 = Evaluator::new(&task, 0, 1);
        let mut e2 = Evaluator::new(&task, 0, 1);
        let r1 = e1.evaluate(&w);
        let r2 = e2.evaluate(&w);
        assert_eq!(r1.loss, r2.loss);
        assert_eq!(r1.accuracy, r2.accuracy);
    }

    #[test]
    fn streaming_evaluator_matches_serial_sweep_bitwise() {
        let task = suite::sent140_like(8, 2);
        let weights = task.model.build(3).weights();
        let test = &task.fed.global_test;
        assert!(
            test.len() > EVAL_BATCH,
            "the sweep must merge several batches"
        );
        let mut model = task.model.build(9);
        model.set_weights(&weights);
        let serial = evaluate_batched(model.as_mut(), &test.x, &test.y, EVAL_BATCH);
        let mut e = Evaluator::new(&task, 0, 3);
        assert_eq!(e.test_rows(), test.len());
        // Twice: the second pass reuses the thread's cached model.
        for _ in 0..2 {
            let cached = e.evaluate(&weights);
            assert_eq!(serial.loss, cached.loss);
            assert_eq!(serial.accuracy, cached.accuracy);
            assert_eq!(serial.count, cached.count);
        }
    }

    #[test]
    fn per_client_sweep_serial_and_pooled_agree_bitwise() {
        // The obviously-right reference (one freshly built model sweeps
        // every client) and the sweep as a pipelined eval runs it (a pool
        // job, on that thread's cached model) must produce identical
        // accuracies.
        let task = suite::cifar10_like(9, 2, 4);
        let w = task.model.build(6).weights();
        let mut model = task.model.build(4);
        model.set_weights(&w);
        let serial: Vec<f32> = task
            .fed
            .clients
            .iter()
            .map(|c| evaluate_batched(model.as_mut(), &c.test.x, &c.test.y, EVAL_BATCH).accuracy)
            .collect();
        let task = std::sync::Arc::new(task);
        let pooled = fedat_tensor::pool::submit(move || per_client_accuracy(&task, &w, 4));
        assert_eq!(serial, pooled.join());
    }

    #[test]
    fn per_client_accuracy_has_one_entry_per_client() {
        let task = suite::sent140_like(7, 3);
        let w = task.model.build(5).weights();
        let accs = per_client_accuracy(&task, &w, 1);
        assert_eq!(accs.len(), 7);
        assert!(accs.iter().all(|&a| (0.0..=1.0).contains(&a)));
    }

    #[test]
    fn variance_of_constant_is_zero() {
        assert_eq!(accuracy_variance(&[0.5, 0.5, 0.5]), 0.0);
        assert_eq!(accuracy_variance(&[]), 0.0);
    }

    #[test]
    fn variance_orders_spread() {
        let tight = accuracy_variance(&[0.5, 0.52, 0.48]);
        let wide = accuracy_variance(&[0.1, 0.9, 0.5]);
        assert!(wide > tight * 10.0);
    }
}
