//! Kernel configuration: one immutable default plus a per-thread overlay —
//! the mechanism behind per-run execution contexts.
//!
//! The two kernel settings of this crate ([`crate::simd::SimdKernel`] and
//! the [`crate::pool`] job cap) have no process-global *mutable* state.
//! Each getter reads the thread-local [`KernelCtx`] overlay when one is
//! installed and the immutable process defaults otherwise, so two
//! concurrent experiment runs — or two tests in one binary — can never
//! read each other's settings. To scope a setting,
//! install an overlay:
//!
//! ```
//! use fedat_tensor::ctx::{self, KernelCtx};
//! let _g = ctx::install(KernelCtx { max_pool_jobs: 0, ..ctx::snapshot() });
//! assert_eq!(fedat_tensor::pool::max_pool_jobs(), 0);
//! ```
//!
//! ## Propagation
//!
//! The overlay is thread-local, so it must travel with work that hops
//! threads. The one thread-crossing path in this crate,
//! [`crate::pool::submit`], propagates it automatically: the job records
//! the submitter's overlay and installs it around execution (worker-side
//! *and* steal-on-join).
//!
//! A `None` overlay propagates too: work submitted from a thread running
//! on the defaults runs on the defaults wherever it executes, even when the
//! executing thread happens to hold an overlay of its own (steal-on-join
//! from inside another run).
//!
//! ## Determinism
//!
//! The overlay only selects between kernels that are bit-identical by
//! construction, so installing or dropping one can never change a result —
//! it changes which (equivalent) code path computes it, and on which
//! thread.

use crate::simd::SimdKernel;
use std::cell::Cell;
use std::sync::OnceLock;

/// A complete snapshot of every kernel setting in this crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KernelCtx {
    /// SIMD backend selection ([`crate::simd::simd_kernel`]).
    pub simd: SimdKernel,
    /// Pool-resident submitted-job cap ([`crate::pool::max_pool_jobs`]);
    /// `usize::MAX` = uncapped.
    pub max_pool_jobs: usize,
}

thread_local! {
    /// The active overlay for this thread, if any.
    static OVERLAY: Cell<Option<KernelCtx>> = const { Cell::new(None) };
}

/// The process defaults, built once and never mutated: `Auto` SIMD (or
/// `Scalar` under `FEDAT_SIMD=scalar`, the CI scalar lane) and uncapped
/// pool jobs. `FEDAT_SIMD` is read here and nowhere else.
#[expect(
    clippy::disallowed_methods,
    reason = "R4: execution default: every SIMD lane is pinned bit-identical to the scalar reference, so the lane cannot change a result bit"
)]
fn defaults() -> KernelCtx {
    static DEFAULTS: OnceLock<KernelCtx> = OnceLock::new();
    *DEFAULTS.get_or_init(|| KernelCtx {
        simd: match std::env::var("FEDAT_SIMD").as_deref() {
            Ok(s) if s.eq_ignore_ascii_case("scalar") => SimdKernel::Scalar,
            _ => SimdKernel::Auto,
        },
        max_pool_jobs: usize::MAX,
    })
}

/// The overlay active on this thread, if one is installed.
pub fn current() -> Option<KernelCtx> {
    OVERLAY.with(Cell::get)
}

/// The effective kernel configuration on this thread: the overlay when one
/// is installed, the process defaults (built-ins, with `FEDAT_SIMD` read
/// once) otherwise.
pub fn snapshot() -> KernelCtx {
    current().unwrap_or_else(defaults)
}

/// Installs `overlay` (including `None`, which *clears* any overlay) on
/// this thread and returns a guard that restores the previous state on
/// drop. This is the propagation primitive: pass exactly what [`current`]
/// returned at capture time.
pub fn set_overlay(overlay: Option<KernelCtx>) -> OverlayGuard {
    let prev = OVERLAY.with(|slot| slot.replace(overlay));
    OverlayGuard { prev }
}

/// Installs `ctx` as this thread's overlay for the guard's lifetime.
pub fn install(ctx: KernelCtx) -> OverlayGuard {
    set_overlay(Some(ctx))
}

/// RAII restore for [`set_overlay`]/[`install`].
pub struct OverlayGuard {
    prev: Option<KernelCtx>,
}

impl Drop for OverlayGuard {
    fn drop(&mut self) {
        OVERLAY.with(|slot| slot.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KernelCtx {
        KernelCtx {
            simd: SimdKernel::Scalar,
            max_pool_jobs: 2,
        }
    }

    #[test]
    fn install_and_restore_nest() {
        assert_eq!(current(), None);
        {
            let _a = install(sample());
            assert_eq!(current(), Some(sample()));
            {
                let mut inner = sample();
                inner.max_pool_jobs = 7;
                let _b = install(inner);
                assert_eq!(current().unwrap().max_pool_jobs, 7);
            }
            assert_eq!(current(), Some(sample()));
        }
        assert_eq!(current(), None);
    }

    #[test]
    fn none_overlay_clears_and_restores() {
        let _a = install(sample());
        {
            let _b = set_overlay(None);
            assert_eq!(current(), None);
        }
        assert_eq!(current(), Some(sample()));
    }

    #[test]
    fn overlay_wins_over_defaults_in_getters() {
        assert_eq!(snapshot(), defaults());
        let _g = install(sample());
        assert_eq!(snapshot(), sample());
        assert_eq!(crate::simd::simd_kernel(), SimdKernel::Scalar);
        assert_eq!(crate::pool::max_pool_jobs(), 2);
    }

    #[test]
    fn overlay_crosses_submitted_jobs() {
        crate::pool::ensure_workers(2);
        let _g = install(sample());
        // The worker (or stealing joiner) sees the submitter's overlay.
        let h = crate::pool::submit(current);
        assert_eq!(h.join(), Some(sample()));
    }

    #[test]
    fn absent_overlay_propagates_as_absent() {
        crate::pool::ensure_workers(1);
        assert_eq!(current(), None);
        let h = crate::pool::submit(|| current().is_none());
        // Steal-on-join under an overlay must still run the job overlay-free.
        let _g = install(sample());
        assert!(h.join());
        assert_eq!(current(), Some(sample()));
    }
}
