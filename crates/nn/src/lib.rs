//! # fedat-nn — neural-network layers, losses, and optimizers
//!
//! The model substrate of the FedAT reproduction (the paper uses
//! TensorFlow). Everything is implemented from scratch on top of
//! [`fedat_tensor`] with *manual, gradient-checked backprop* — no autograd
//! tape — which keeps the hot training loop allocation-light and fully
//! deterministic.
//!
//! The federated-learning crates interact with models exclusively through
//! the [`model::Model`] trait:
//!
//! * [`model::Sequential`] — feed-forward stacks (logistic regression, MLPs,
//!   and the paper's CNNs) built from [`layer::Layer`] implementations,
//! * [`lstm::LstmLm`] — an embedding + LSTM + projection language model used
//!   for the Reddit experiment (Fig. 8), trained with truncated BPTT,
//! * [`models`] — ready-made builders matching the architectures in §6 of
//!   the paper,
//! * [`optim`] — Adam, plus the proximal-term gradient `λ(w − w_global)`
//!   from Eq. (3),
//! * [`loss`] — softmax cross-entropy (mean-reduced) and accuracy.
//!
//! Weights flatten to a single `Vec<f32>` in a deterministic layer order
//! ([`model::Model::weights`] / [`model::Model::set_weights`]), which is the
//! unit the FedAT server aggregates and the polyline codec compresses.

pub mod layer;
pub mod layers;
pub mod loss;
pub mod lstm;
pub mod metrics;
pub mod model;
pub mod models;
pub mod optim;
pub mod param;

pub use layer::{Layer, Mode};
pub use model::{Model, Sequential};
pub use param::Param;
