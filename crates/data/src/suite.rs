//! LEAF-like benchmark suite: one ready-made task per paper dataset.
//!
//! Each builder mirrors a dataset from §6 of the paper with a synthetic
//! stand-in of the same statistical shape — the corpora are not
//! redistributable; `docs/DATA.md` loads the real LEAF ones instead — and
//! pairs the federation with the matching model architecture and the
//! paper's time-to-accuracy target.

use crate::dataset::Dataset;
use crate::federated::FederatedDataset;
use crate::partition::{uneven_budgets, Partitioner};
use crate::synth::{
    synth_features, synth_images, FeatureSynthSpec, ImageSynthSpec, TokenStreamGenerator,
    TokenSynthSpec,
};
use fedat_nn::models::ModelSpec;
use fedat_tensor::rng::{fill_normal, rng_for, tags};

/// A benchmark task: federation + model + accuracy target.
#[derive(Clone, Debug)]
pub struct FedTask {
    /// Task name (e.g. `cifar10-like(#2)`).
    pub name: String,
    /// The federated data.
    pub fed: FederatedDataset,
    /// Model architecture to train.
    pub model: ModelSpec,
    /// Target accuracy for time-to-accuracy comparisons (Fig. 2 bars,
    /// Table 2), scaled to this synthetic task.
    pub target_accuracy: f32,
}

impl FedTask {
    /// Shrinks every client's data by `frac` (for smoke tests and docs).
    /// Degenerate fractions are clamped into `[0, 1]` — see
    /// [`FederatedDataset::scaled`] for the exact contract.
    pub fn scaled(mut self, frac: f64) -> FedTask {
        self.fed = self.fed.scaled(frac);
        self
    }
}

/// Samples per client used by the default suite builders.
pub mod defaults {
    /// CIFAR-10-like samples per client.
    pub const CIFAR_PER_CLIENT: usize = 60;
    /// Fashion-MNIST-like samples per client.
    pub const FMNIST_PER_CLIENT: usize = 60;
    /// Sentiment140-like samples per client.
    pub const SENT_PER_CLIENT: usize = 50;
    /// FEMNIST-like samples per client.
    pub const FEMNIST_PER_CLIENT: usize = 40;
    /// Reddit-like sequences per client.
    pub const REDDIT_PER_CLIENT: usize = 24;
}

/// CIFAR-10 stand-in: 10-class 3×8×8 smooth-template images with heavy
/// pixel noise (CIFAR is the hardest of the paper's vision tasks), CNN
/// model, shard non-IID with `classes_per_client` labels per client
/// (`0` selects IID).
pub fn cifar10_like(n_clients: usize, classes_per_client: usize, seed: u64) -> FedTask {
    let mut rng = rng_for(seed, tags::DATA);
    let spec = ImageSynthSpec {
        channels: 3,
        height: 8,
        width: 8,
        classes: 10,
        signal: 1.0,
        noise: 2.5,
    };
    let pool = synth_images(&mut rng, &spec, n_clients * defaults::CIFAR_PER_CLIENT);
    let parts = partitioner_for(classes_per_client).partition(&pool, n_clients, &mut rng);
    let fed = FederatedDataset::from_partitions(parts, seed);
    FedTask {
        name: format!("cifar10-like({})", niid_tag(classes_per_client)),
        fed,
        model: ModelSpec::CnnLite {
            channels: 3,
            height: 8,
            width: 8,
            classes: 10,
        },
        target_accuracy: 0.47,
    }
}

/// Fashion-MNIST stand-in: 10-class 1×8×8 template images with moderate
/// noise; same CNN family, shard non-IID.
pub fn fmnist_like(n_clients: usize, classes_per_client: usize, seed: u64) -> FedTask {
    let mut rng = rng_for(seed.wrapping_add(1), tags::DATA);
    let spec = ImageSynthSpec {
        channels: 1,
        height: 8,
        width: 8,
        classes: 10,
        signal: 1.0,
        noise: 1.2,
    };
    let pool = synth_images(&mut rng, &spec, n_clients * defaults::FMNIST_PER_CLIENT);
    let parts = partitioner_for(classes_per_client).partition(&pool, n_clients, &mut rng);
    let fed = FederatedDataset::from_partitions(parts, seed.wrapping_add(1));
    FedTask {
        name: format!("fmnist-like({})", niid_tag(classes_per_client)),
        fed,
        model: ModelSpec::CnnLite {
            channels: 1,
            height: 8,
            width: 8,
            classes: 10,
        },
        target_accuracy: 0.76,
    }
}

/// Sentiment140 stand-in: binary bag-of-features task under a convex
/// logistic model; label skew across "accounts" via Dirichlet(0.5).
pub fn sent140_like(n_clients: usize, seed: u64) -> FedTask {
    let mut rng = rng_for(seed.wrapping_add(2), tags::DATA);
    let spec = FeatureSynthSpec {
        features: 32,
        classes: 2,
        separation: 0.17,
        noise: 1.0,
    };
    let pool = synth_features(&mut rng, &spec, n_clients * defaults::SENT_PER_CLIENT);
    let parts = Partitioner::Dirichlet { alpha: 0.5 }.partition(&pool, n_clients, &mut rng);
    let fed = FederatedDataset::from_partitions(parts, seed.wrapping_add(2));
    FedTask {
        name: "sent140-like".to_string(),
        fed,
        model: ModelSpec::Logistic {
            input: 32,
            classes: 2,
        },
        target_accuracy: 0.73,
    }
}

/// FEMNIST stand-in: 62-class 1×8×8 images, Dirichlet(0.3) label skew plus
/// a per-client "writer style" feature shift.
pub fn femnist_like(n_clients: usize, seed: u64) -> FedTask {
    let mut rng = rng_for(seed.wrapping_add(3), tags::DATA);
    let spec = ImageSynthSpec {
        channels: 1,
        height: 8,
        width: 8,
        classes: 62,
        signal: 1.0,
        noise: 0.55,
    };
    let pool = synth_images(&mut rng, &spec, n_clients * defaults::FEMNIST_PER_CLIENT);
    let mut parts = Partitioner::Dirichlet { alpha: 0.3 }.partition(&pool, n_clients, &mut rng);
    // Writer style: a fixed random shift of every pixel for all of a
    // client's samples (feature-level non-IID-ness on top of label skew).
    for (i, part) in parts.iter_mut().enumerate() {
        let mut style_rng = rng_for(seed ^ 0xFEE7 ^ ((i as u64) << 24), tags::DATA);
        let feat = part.features();
        let mut style = vec![0.0f32; feat];
        fill_normal(&mut style_rng, &mut style, 0.0, 0.25);
        apply_style(part, &style);
    }
    let fed = FederatedDataset::from_partitions(parts, seed.wrapping_add(3));
    FedTask {
        name: "femnist-like".to_string(),
        fed,
        model: ModelSpec::CnnLite {
            channels: 1,
            height: 8,
            width: 8,
            classes: 62,
        },
        target_accuracy: 0.70,
    }
}

/// Reddit stand-in: per-user Markov token streams with a shared backbone,
/// next-token prediction under an embedding+LSTM+dense model.
pub fn reddit_like(n_clients: usize, seed: u64) -> FedTask {
    let mut rng = rng_for(seed.wrapping_add(4), tags::DATA);
    let gen_spec = TokenSynthSpec {
        vocab: 80,
        seq_len: 8,
        user_skew: 0.35,
    };
    let generator = TokenStreamGenerator::new(&mut rng, gen_spec);
    let budgets = uneven_budgets(
        &mut rng,
        n_clients * defaults::REDDIT_PER_CLIENT,
        n_clients,
        0.5,
    );
    let parts: Vec<Dataset> = budgets
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let mut user_rng = rng_for(seed ^ 0x5EDD17 ^ ((i as u64) << 16), tags::DATA);
            generator.user_dataset(&mut user_rng, n.max(3))
        })
        .collect();
    let fed = FederatedDataset::from_partitions(parts, seed.wrapping_add(4));
    FedTask {
        name: "reddit-like".to_string(),
        fed,
        model: ModelSpec::LstmLm {
            vocab: 80,
            embed: 16,
            hidden: 24,
        },
        target_accuracy: 0.25,
    }
}

fn partitioner_for(classes_per_client: usize) -> Partitioner {
    if classes_per_client == 0 {
        Partitioner::Iid
    } else {
        Partitioner::Shard { classes_per_client }
    }
}

fn niid_tag(classes_per_client: usize) -> String {
    if classes_per_client == 0 {
        "iid".to_string()
    } else {
        format!("#{classes_per_client}")
    }
}

pub(crate) fn apply_style(part: &mut Dataset, style: &[f32]) {
    let cols = part.features();
    for row in part.x.data_mut().chunks_mut(cols) {
        for (v, &s) in row.iter_mut().zip(style.iter()) {
            *v += s;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::label_skew;

    #[test]
    fn cifar_task_shapes() {
        let t = cifar10_like(10, 2, 7);
        assert_eq!(t.fed.num_clients(), 10);
        assert_eq!(t.fed.classes, 10);
        assert_eq!(t.fed.features, 192);
        assert!(t.name.contains("#2"));
        // 2-class sharding: every client sees few labels.
        for c in &t.fed.clients {
            assert!(c.train.distinct_labels() <= 4);
        }
    }

    #[test]
    fn cifar_iid_has_low_skew() {
        let t = cifar10_like(10, 0, 7);
        let parts: Vec<Dataset> = t.fed.clients.iter().map(|c| c.train.clone()).collect();
        assert!(label_skew(&parts) < 0.6);
        assert!(t.name.contains("iid"));
    }

    #[test]
    fn sent140_is_binary_logistic() {
        let t = sent140_like(8, 1);
        assert_eq!(t.fed.classes, 2);
        assert!(matches!(
            t.model,
            ModelSpec::Logistic {
                input: 32,
                classes: 2
            }
        ));
    }

    #[test]
    fn femnist_has_62_classes_and_styles() {
        let t = femnist_like(12, 1);
        assert_eq!(t.fed.classes, 62);
        // Two clients' feature means should differ thanks to style shifts.
        let mean = |d: &Dataset| d.x.mean();
        let m0 = mean(&t.fed.clients[0].train);
        let m1 = mean(&t.fed.clients[1].train);
        assert!((m0 - m1).abs() > 1e-4, "style shift missing: {m0} vs {m1}");
    }

    #[test]
    fn reddit_is_sequence_task_with_uneven_clients() {
        let t = reddit_like(10, 1);
        assert_eq!(t.fed.targets_per_row, 8);
        assert_eq!(t.fed.classes, 80);
        let sizes = t.fed.client_sizes();
        assert!(
            sizes.iter().max() > sizes.iter().min(),
            "sizes should vary: {sizes:?}"
        );
    }

    #[test]
    fn tasks_are_reproducible() {
        let a = cifar10_like(5, 2, 42);
        let b = cifar10_like(5, 2, 42);
        assert_eq!(a.fed.global_test.x.data(), b.fed.global_test.x.data());
        let c = cifar10_like(5, 2, 43);
        assert_ne!(a.fed.global_test.x.data(), c.fed.global_test.x.data());
    }

    #[test]
    fn scaled_task_shrinks() {
        let t = cifar10_like(5, 2, 7).scaled(0.2);
        assert!(t.fed.total_train_samples() < 5 * defaults::CIFAR_PER_CLIENT / 3);
    }
}
