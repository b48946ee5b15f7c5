//! # FedAT — Federated Learning with Asynchronous Tiers
//!
//! A from-scratch Rust reproduction of *FedAT: A High-Performance and
//! Communication-Efficient Federated Learning System with Asynchronous
//! Tiers* (Chai et al., SC 2021, arXiv:2010.05958).
//!
//! This facade crate re-exports the whole workspace so downstream users can
//! depend on a single crate:
//!
//! * [`tensor`] — dense f32 tensors with parallel kernels,
//! * [`nn`] — layers, losses, optimizers, and reference models,
//! * [`data`] — synthetic federated datasets and non-IID partitioners,
//! * [`compress`] — the Encoded Polyline weight codec,
//! * [`sim`] — the discrete-event federated cluster simulator,
//! * [`core`] — FedAT itself plus the FedAvg/TiFL/FedProx/FedAsync/ASO-Fed
//!   baselines, tiering, and weighted aggregation.
//!
//! The reproduction harness (`fedat-bench`: the `repro` CLI, its
//! experiment scenarios and the concurrent experiment grid) is a separate
//! crate that nothing here depends on, so library consumers never compile it.
//!
//! ## Quickstart
//!
//! ```
//! use fedat::core::prelude::*;
//! use fedat::data::suite;
//!
//! // A tiny binary-sentiment federation of 12 clients.
//! let task = suite::sent140_like(12, 7).scaled(0.5);
//! let cfg = ExperimentConfig::builder()
//!     .strategy(StrategyKind::FedAt)
//!     .rounds(20)
//!     .clients_per_round(3)
//!     .local_epochs(1)
//!     .seed(7)
//!     .build();
//! let outcome = run_experiment(&task, &cfg);
//! assert!(outcome.trace.points.len() > 1);
//! ```

pub use fedat_compress as compress;
pub use fedat_core as core;
pub use fedat_data as data;
pub use fedat_nn as nn;
pub use fedat_sim as sim;
pub use fedat_tensor as tensor;
