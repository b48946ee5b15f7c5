//! Per-run execution: when client training runs and which kernel settings
//! it runs under ([`resolve`]).
//!
//! [`train_client`](crate::local::train_client) is a pure function of
//! `(task, client, downloaded weights, config, epochs, selection_round,
//! use_prox)` — it reads no simulator state and draws from no shared RNG —
//! so every dispatched client can start training the moment it is
//! *dispatched* instead of the moment its compute event *fires*. Each
//! dispatch submits a training job to the persistent kernel pool and the
//! event loop *joins* the result when the completion event arrives (the
//! server's land step); virtual
//! time, event order, traffic accounting and the RNG streams are untouched,
//! so no field of the run's outcome depends on where or when the job ran.
//! The pin is one sweep in this crate's tests (`tests/common/mod.rs`):
//! each scenario row runs under every job cap and SIMD lane, and
//! `first_difference` compares every `Outcome` field but `speculation`.
//!
//! A run executes under its calling thread's kernel overlay
//! ([`fedat_tensor::ctx::snapshot`]): the SIMD lane and the pool's job cap
//! come from there and nowhere else. Under a job cap of 0 nothing enters
//! the pool, and every job runs at its join, on the event-loop thread.
//!
//! The only observable cost of speculation is *wasted work*: a client that
//! drops out mid-round has already been trained (or is mid-training) when
//! its `dropped` completion arrives, and the result is discarded. So is
//! every dispatch still in flight when the run stops: its job may already
//! have run, and nothing joins it. Each run reports its own count in
//! [`Outcome::speculation`](crate::experiment::Outcome::speculation).

use crate::config::ExperimentConfig;
use fedat_tensor::ctx::KernelCtx;

/// A run's pinned job cap. `Inline` is cap 0, whatever the calling
/// thread's overlay says: the benchmark's spelling of it, kept until the
/// benchmark scopes the cap with an overlay like every other caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Job cap 0: every job runs at its join, on the event-loop thread.
    Inline,
}

/// How much training one run launched ahead of its completion events, and
/// how much of that was thrown away. Both are zero when the run's job cap
/// is 0; they depend on the cap by definition, which is why they are not
/// fault-log rows (the log is asserted equal across caps).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Speculation {
    /// Training jobs submitted to the pool at dispatch.
    pub launches: u64,
    /// Launched jobs whose result was abandoned: the client dropped out,
    /// crashed, or missed its deadline before the result was needed, or
    /// the run stopped with the dispatch still in flight.
    pub discards: u64,
}

/// The kernel overlay of *one* experiment run, resolved once at run start,
/// before the run builds its policy and server
/// ([`run_experiment_with`](crate::experiment::run_experiment_with)): the
/// calling thread's [`fedat_tensor::ctx::snapshot`], with the job cap
/// pinned to 0 when the config says [`ExecMode::Inline`]. The run installs
/// it as its thread-local overlay, and every job it submits carries it to
/// whichever thread runs it, so two concurrent runs cannot read each
/// other's settings.
pub fn resolve(cfg: &ExperimentConfig) -> KernelCtx {
    let ctx = fedat_tensor::ctx::snapshot();
    match cfg.exec.mode {
        Some(ExecMode::Inline) => KernelCtx {
            max_pool_jobs: 0,
            ..ctx
        },
        None => ctx,
    }
}
