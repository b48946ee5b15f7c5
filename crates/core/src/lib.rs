//! # fedat-core — FedAT and its baselines
//!
//! The paper's primary contribution (§4): a federated-learning server that
//! combines *synchronous intra-tier* training with *asynchronous cross-tier*
//! updates, a straggler-aware weighted aggregation heuristic (Eq. 5), a
//! local proximal constraint (Eq. 3), and polyline-compressed transfers
//! (§4.3) — plus faithful re-implementations of every baseline the paper
//! compares against (§6): FedAvg, TiFL, FedProx, FedAsync, and ASO-Fed.
//!
//! * [`config`] — experiment configuration (strategy, rounds, participation,
//!   optimizer, λ, codec, tiers),
//! * [`tiering`] — the profiling/tiering module, including mis-tiering
//!   injection for the robustness ablation,
//! * [`aggregate`] — intra-tier `n_k/N` averaging and the cross-tier
//!   `T_{tier(M+1−m)}/T` heuristic,
//! * [`local`] — client-side local training (Adam + proximal term,
//!   fixed pseudo-random mini-batch schedules),
//! * [`exec`] — the per-run execution settings: training jobs launch on
//!   the kernel pool at dispatch and are joined bit-identically when the
//!   completion event fires,
//! * [`transport`] — codec-mediated uplink/downlink with byte accounting,
//! * [`strategies`] — the six FL methods: one server driver, an
//!   [`fedat_sim::EventHandler`] running lanes of synchronous rounds (a
//!   tier each for FedAT, a client each for the wait-free FedAsync and
//!   ASO-Fed), and a small [`RoundPolicy`](strategies::round::RoundPolicy)
//!   per method,
//! * [`eval`] — global accuracy, per-client accuracy variance
//!   (Definition 3.1), robustness metrics,
//! * [`experiment`] — one-call experiment orchestration returning a
//!   [`Trace`](fedat_sim::Trace): a run takes a policy (a built-in
//!   method's, or the caller's through [`run_experiment_with`]) and builds
//!   the driver around it.
//!
//! ```
//! use fedat_core::prelude::*;
//! use fedat_data::suite;
//!
//! let task = suite::sent140_like(12, 7).scaled(0.4);
//! let cfg = ExperimentConfig::builder()
//!     .strategy(StrategyKind::FedAt)
//!     .rounds(40)
//!     .clients_per_round(3)
//!     .seed(7)
//!     .build();
//! let outcome = run_experiment(&task, &cfg);
//! assert!(outcome.trace.best_accuracy() > 0.4);
//! ```

pub mod aggregate;
pub mod config;
pub mod eval;
pub mod exec;
pub mod experiment;
pub mod local;
pub mod staleness;
pub mod strategies;
#[cfg(test)]
mod theory;
pub mod tiering;
pub mod transport;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::config::{ExperimentConfig, OptimizerKind, StrategyKind};
    pub use crate::experiment::{
        run_experiment, run_experiment_shared, run_experiment_with, Outcome,
    };
    pub use crate::tiering::TierAssignment;
    pub use fedat_sim::{Trace, TracePoint};
}

pub use config::{ExperimentConfig, OptimizerKind, StrategyKind};
pub use experiment::{run_experiment, run_experiment_shared, run_experiment_with, Outcome};
