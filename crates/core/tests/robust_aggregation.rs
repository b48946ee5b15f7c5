//! Property-based determinism pins for the robust aggregation rules.
//!
//! The guard layer's bit-identity contract says the aggregate is a pure
//! function of the landed updates' *values* in virtual time — so
//! `TrimmedMean` and `CoordinateMedian` must return the same bits on any
//! thread, however many run them at once, and (because the per-coordinate
//! sort imposes a total order) must not care in which order the cohort's
//! updates arrived.

use fedat_core::aggregate::{aggregate_clients_into, AggRule};
use fedat_tensor::ops::AGG_SHARD;
use fedat_tensor::pool;
use fedat_tensor::rng::rng_for;
use proptest::prelude::*;
use rand::RngExt;
use std::sync::Arc;

/// Deterministic pseudo-random cohort: `k` client models of `dim`
/// coordinates with non-uniform sample counts, including the occasional
/// tied coordinate (ties are where an unstable sort could diverge).
fn cohort(dim: usize, k: usize, seed: u64) -> Vec<(Vec<f32>, usize)> {
    let mut rng = rng_for(seed, 3);
    (0..k)
        .map(|_| {
            let w: Vec<f32> = (0..dim)
                .map(|_| {
                    // Quantize one value in four so equal values across
                    // clients actually occur.
                    let v = rng.random::<f32>() * 8.0 - 4.0;
                    if rng.random::<f32>() < 0.25 {
                        (v * 2.0).round() / 2.0
                    } else {
                        v
                    }
                })
                .collect();
            (w, 1 + rng.random_range(0usize..50))
        })
        .collect()
}

fn reduce(rule: AggRule, updates: &[(Vec<f32>, usize)]) -> Vec<f32> {
    let refs: Vec<(&[f32], usize)> = updates.iter().map(|(w, n)| (w.as_slice(), *n)).collect();
    let mut out = Vec::new();
    aggregate_clients_into(rule, &refs, &mut out);
    out
}

/// Both robust rules return the same finite bits for one generated cohort
/// on this thread and as 1, 2, 4 and 8 concurrent pool jobs.
fn assert_worker_count_invariant(
    dim: usize,
    k: usize,
    seed: u64,
    frac: f64,
) -> Result<(), TestCaseError> {
    pool::ensure_workers(8);
    let updates = Arc::new(cohort(dim, k, seed));
    for rule in [AggRule::TrimmedMean { frac }, AggRule::CoordinateMedian] {
        let base = reduce(rule, &updates);
        prop_assert_eq!(base.len(), dim);
        prop_assert!(base.iter().all(|v| v.is_finite()));
        for workers in [1usize, 2, 4, 8] {
            let jobs: Vec<pool::JobHandle<Vec<f32>>> = (0..workers)
                .map(|_| {
                    let updates = Arc::clone(&updates);
                    pool::submit(move || reduce(rule, &updates))
                })
                .collect();
            for out in jobs.into_iter().map(pool::JobHandle::join) {
                prop_assert_eq!(&out, &base, "{:?} diverged at {} workers", rule, workers);
            }
        }
    }
    Ok(())
}

/// The kernel walks the model dimension in `AGG_SHARD` chunks: these
/// dimensions span three and four shards with a ragged tail (the property
/// below stays inside one shard).
#[test]
fn robust_rules_are_bit_identical_across_worker_counts_over_several_shards() {
    for (dim, k, seed, frac) in [
        (2 * AGG_SHARD + 1, 3, 11, 0.34),
        (2 * AGG_SHARD + 1, 10, 12, 0.2),
        (3 * AGG_SHARD + 17, 7, 13, 0.0),
        (3 * AGG_SHARD + 17, 11, 14, 0.45),
    ] {
        assert_worker_count_invariant(dim, k, seed, frac).unwrap();
    }
}

proptest! {
    #[test]
    fn robust_rules_are_bit_identical_across_worker_counts(
        dim in 1usize..96,
        k in 1usize..12,
        seed in 0u64..500,
        frac in 0.0f64..0.49
    ) {
        assert_worker_count_invariant(dim, k, seed, frac)?;
    }

    #[test]
    fn robust_rules_are_invariant_under_update_permutation(
        dim in 1usize..64,
        k in 2usize..12,
        seed in 0u64..500,
        frac in 0.0f64..0.49,
        rot in 1usize..12
    ) {
        // A rotation composed with a swap reaches enough of the symmetric
        // group to catch order-dependence; the weighted mean (checked last)
        // is *also* order-invariant only because its accumulation order is
        // index-stable, so it is deliberately not part of this contract.
        let updates = cohort(dim, k, seed);
        let mut shuffled = updates.clone();
        shuffled.rotate_left(rot % k);
        shuffled.swap(0, k / 2);
        for rule in [AggRule::TrimmedMean { frac }, AggRule::CoordinateMedian] {
            let a = reduce(rule, &updates);
            let b = reduce(rule, &shuffled);
            prop_assert_eq!(&a, &b, "{:?} depends on client arrival order", rule);
        }
    }

    #[test]
    fn trimmed_mean_and_median_lie_in_the_coordinate_hull(
        dim in 1usize..48,
        k in 1usize..10,
        seed in 0u64..500,
        frac in 0.0f64..0.49
    ) {
        let updates = cohort(dim, k, seed);
        for rule in [AggRule::TrimmedMean { frac }, AggRule::CoordinateMedian] {
            let out = reduce(rule, &updates);
            for d in 0..dim {
                let lo = updates.iter().map(|(w, _)| w[d]).fold(f32::INFINITY, f32::min);
                let hi = updates.iter().map(|(w, _)| w[d]).fold(f32::NEG_INFINITY, f32::max);
                prop_assert!(
                    out[d] >= lo - 1e-4 && out[d] <= hi + 1e-4,
                    "{:?} left the hull at coordinate {}: {} not in [{}, {}]",
                    rule, d, out[d], lo, hi
                );
            }
        }
    }
}
