//! Per-run execution configuration: when client training runs
//! ([`ExecMode`]) and which kernel settings it runs under ([`ExecCtx`]).
//!
//! [`train_client`](crate::local::train_client) is a pure function of
//! `(task, client, downloaded weights, config, epochs, selection_round,
//! use_prox)` — it reads no simulator state and draws from no shared RNG —
//! so every dispatched client can start training the moment it is
//! *dispatched* instead of the moment its compute event *fires*. Under
//! [`ExecMode::Speculative`] (the default) each dispatch submits a training
//! job to the persistent kernel pool and the event loop merely *joins* the
//! result when the completion event arrives; virtual time, event order,
//! traffic accounting and the RNG streams are untouched, so the full trace
//! is bit-identical to inline execution by construction (pinned by
//! `strategy_behavior.rs`).
//!
//! [`ExecMode::Inline`] trains at completion on the event-loop thread. The
//! environment variable `FEDAT_EXEC=inline` flips the default (CI runs the
//! whole suite a second time this way).
//!
//! The only observable cost of speculation is *wasted work*: a client that
//! drops out mid-compute has already been trained (or is mid-training) when
//! its `dropped` completion arrives, and the result is discarded. Each run
//! reports its own count in
//! [`Outcome::speculation`](crate::experiment::Outcome::speculation).
//!
//! There is no process-global mutable configuration: an [`ExecCtx`] is
//! resolved once per run and is the only thing the run reads.

use std::sync::OnceLock;

/// When client training actually executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Launch the training job on the kernel pool at *dispatch*; join the
    /// result at the completion event. The default.
    Speculative,
    /// Train on the event-loop thread when the completion event fires.
    Inline,
}

/// The default [`ExecMode`], built once and never mutated: `Speculative`,
/// or `Inline` under `FEDAT_EXEC=inline`. `FEDAT_EXEC` is read here and
/// nowhere else.
pub fn default_exec_mode() -> ExecMode {
    static DEFAULT: OnceLock<ExecMode> = OnceLock::new();
    *DEFAULT.get_or_init(|| match std::env::var("FEDAT_EXEC").as_deref() {
        Ok(s) if s.eq_ignore_ascii_case("inline") => ExecMode::Inline,
        _ => ExecMode::Speculative,
    })
}

/// How much training one run launched ahead of its completion events, and
/// how much of that was thrown away. Both are zero under
/// [`ExecMode::Inline`]; they are mode-dependent by definition, which is
/// why they are not part of `FaultCounters` (those are asserted equal
/// across modes).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Speculation {
    /// Training jobs submitted to the pool at dispatch.
    pub launches: u64,
    /// Launched jobs whose result was abandoned: the client dropped out,
    /// crashed, or missed its deadline before the result was needed.
    pub discards: u64,
}

/// The complete execution configuration of *one* experiment run: the
/// [`ExecMode`] plus the tensor-layer kernel settings
/// ([`fedat_tensor::ctx::KernelCtx`]).
///
/// Resolution happens **once**, at run start
/// ([`run_experiment_shared`](crate::experiment::run_experiment_shared)),
/// lowest priority first:
///
/// 1. the built-in defaults,
/// 2. the environment (`FEDAT_EXEC`, `FEDAT_SIMD`), read once per process,
/// 3. for the kernel settings, a [`fedat_tensor::ctx`] overlay already
///    installed on the calling thread (how a test or bench scopes
///    kernel-level code),
/// 4. the config's [`ExecOverrides`](crate::config::ExecOverrides), field
///    by field.
///
/// The result is immutable for the run's lifetime: it is installed as the
/// thread-local kernel overlay ([`ExecCtx::enter`]) so every kernel the run
/// touches — including work it ships across the pool — reads *this* run's
/// configuration, and it is threaded through `ServerCore` to the training
/// launch path. Two concurrent `run_experiment_shared` calls therefore
/// cannot read each other's settings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecCtx {
    /// When client training executes (speculative vs. inline).
    pub mode: ExecMode,
    /// The tensor-layer kernel selections and worker hints.
    pub kernels: fedat_tensor::ctx::KernelCtx,
}

impl ExecCtx {
    /// Resolves a run's execution context (see the type docs for the
    /// order).
    pub fn resolve(cfg: &crate::config::ExperimentConfig) -> Self {
        let o = cfg.exec;
        let base = fedat_tensor::ctx::snapshot();
        ExecCtx {
            mode: o.mode.unwrap_or_else(default_exec_mode),
            kernels: fedat_tensor::ctx::KernelCtx {
                simd: o.simd.unwrap_or(base.simd),
                max_threads: o.max_threads.unwrap_or(base.max_threads).max(1),
                max_pool_jobs: o.max_pool_jobs.unwrap_or(base.max_pool_jobs),
            },
        }
    }

    /// Installs this context's kernel configuration as the calling thread's
    /// overlay for the guard's lifetime. Work submitted to the pool while
    /// the guard is live inherits the overlay automatically.
    pub fn enter(&self) -> fedat_tensor::ctx::OverlayGuard {
        fedat_tensor::ctx::install(self.kernels)
    }
}
