//! # fedat-data — synthetic federated datasets and non-IID partitioners
//!
//! The paper evaluates on five federated datasets (CIFAR-10, Fashion-MNIST,
//! Sentiment140, FEMNIST, Reddit) under the LEAF benchmark. Those corpora
//! are not redistributable here, so this crate generates *synthetic
//! equivalents with the same statistical shape*, and loads the real LEAF
//! corpora where they are on disk (`docs/DATA.md`):
//!
//! * [`synth`] — class-template image generators, separable feature-vector
//!   tasks, and per-user Markov token streams,
//! * [`partition`] — IID, shard-based `#classes-per-client` (exactly the
//!   McMahan et al. scheme the paper uses), and Dirichlet partitioners,
//! * [`federated`] — the [`federated::FederatedDataset`]
//!   container with per-client 80/20 train/test splits,
//! * [`suite`] — one ready-made [`suite::FedTask`] per paper
//!   dataset, pairing data with the matching
//!   [`ModelSpec`](fedat_nn::models::ModelSpec),
//! * [`leaf`] — loaders for the **real** LEAF on-disk format
//!   (FEMNIST/Sent140/Reddit) behind the same [`suite::FedTask`]
//!   interface, preserving the natural per-user partition, plus the
//!   [`leaf::writer`] that emits that format (and CI fixtures) offline.
//!
//! Everything is a deterministic function of `(generator, seed)` — for
//! LEAF directories, of the bytes on disk.

pub mod dataset;
pub mod federated;
pub mod leaf;
pub mod partition;
pub mod suite;
pub mod synth;

pub use dataset::Dataset;
pub use federated::{ClientData, FederatedDataset};
pub use leaf::{LeafBenchmark, LeafError};
pub use partition::Partitioner;
pub use suite::FedTask;
