//! Per-run execution configuration: when client training runs
//! ([`ExecMode`]) and which kernel settings it runs under
//! ([`resolve`]).
//!
//! [`train_client`](crate::local::train_client) is a pure function of
//! `(task, client, downloaded weights, config, epochs, selection_round,
//! use_prox)` — it reads no simulator state and draws from no shared RNG —
//! so every dispatched client can start training the moment it is
//! *dispatched* instead of the moment its compute event *fires*. Each
//! dispatch submits a training job to the persistent kernel pool and the
//! event loop *joins* the result when the completion event arrives; virtual
//! time, event order, traffic accounting and the RNG streams are untouched,
//! so the full trace does not depend on where or when the job ran (pinned
//! by `strategy_behavior.rs`).
//!
//! [`ExecMode::Speculative`] (the default) lets those jobs onto the pool.
//! [`ExecMode::Inline`] is the pool's job cap of zero: nothing enters the
//! pool, and every job runs at its join, on the event-loop thread. The
//! environment variable `FEDAT_EXEC=inline` flips the default (CI runs the
//! whole suite a second time this way).
//!
//! The only observable cost of speculation is *wasted work*: a client that
//! drops out mid-compute has already been trained (or is mid-training) when
//! its `dropped` completion arrives, and the result is discarded. Each run
//! reports its own count in
//! [`Outcome::speculation`](crate::experiment::Outcome::speculation).
//!
//! There is no process-global mutable configuration: a run's kernel
//! overlay is [`resolve`]d once and is the only thing the run reads.

use crate::config::ExperimentConfig;
use fedat_tensor::ctx::KernelCtx;
use std::sync::OnceLock;

/// When client training actually executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Launch the training job on the kernel pool at *dispatch*; join the
    /// result at the completion event. The default.
    Speculative,
    /// Job cap 0: every job runs at its join, on the event-loop thread.
    Inline,
}

/// The default [`ExecMode`], built once and never mutated: `Speculative`,
/// or `Inline` under `FEDAT_EXEC=inline`. `FEDAT_EXEC` is read here and
/// nowhere else.
#[expect(
    clippy::disallowed_methods,
    reason = "R4: execution default: speculative and inline runs are pinned bit-identical, so the job cap cannot change a result bit"
)]
pub fn default_exec_mode() -> ExecMode {
    static DEFAULT: OnceLock<ExecMode> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("FEDAT_EXEC").as_deref() {
        Ok(s) if s.eq_ignore_ascii_case("inline") => ExecMode::Inline,
        _ => ExecMode::Speculative,
    })
}

/// How much training one run launched ahead of its completion events, and
/// how much of that was thrown away. Both are zero when the run's job cap
/// is 0 ([`ExecMode::Inline`]); they depend on the cap by definition, which
/// is why they are not fault-log rows (the log is asserted equal across
/// modes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Speculation {
    /// Training jobs submitted to the pool at dispatch.
    pub launches: u64,
    /// Launched jobs whose result was abandoned: the client dropped out,
    /// crashed, or missed its deadline before the result was needed.
    pub discards: u64,
}

/// Resolves the kernel overlay of *one* experiment run, once, at run start
/// ([`run_experiment_with`](crate::experiment::run_experiment_with)), lowest
/// priority first:
///
/// 1. the built-in defaults,
/// 2. the environment (`FEDAT_EXEC`, `FEDAT_SIMD`), read once per process,
/// 3. a [`fedat_tensor::ctx`] overlay already installed on the calling
///    thread (how a test or bench scopes kernel-level code),
/// 4. the config's [`ExecOverrides`](crate::config::ExecOverrides), field
///    by field.
///
/// The mode is no field of its own: [`ExecMode::Inline`] resolves to
/// `max_pool_jobs: 0`, whatever cap the config sets. The run installs the
/// result as its thread-local overlay, and every job it submits carries the
/// overlay to whichever thread runs it, so two concurrent runs cannot read
/// each other's settings.
pub fn resolve(cfg: &ExperimentConfig) -> KernelCtx {
    let o = cfg.exec;
    let base = fedat_tensor::ctx::snapshot();
    KernelCtx {
        simd: o.simd.unwrap_or(base.simd),
        max_pool_jobs: match o.mode.unwrap_or_else(default_exec_mode) {
            ExecMode::Speculative => o.max_pool_jobs.unwrap_or(base.max_pool_jobs),
            ExecMode::Inline => 0,
        },
    }
}
