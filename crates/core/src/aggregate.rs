//! Model aggregation: intra-tier `n_k/N_c` averaging (Algorithm 2 inner
//! loop) and the cross-tier weighted heuristic of Eq. (5).
//!
//! The weighted means run [`weighted_sum_into`]; the robust intra-tier rules
//! of [`AggRule`] run [`robust_reduce_into`]. Both kernels walk the model
//! dimension in fixed cache-sized chunks, so every strategy's server-side
//! aggregation scales with cohort size.

use fedat_tensor::ops::{robust_reduce_into, weighted_sum_into, RobustRule};

/// How client updates are combined into a (tier-)round average.
///
/// `WeightedMean` is the paper's `n_k/N_c` rule; the robust rules trade its
/// sample weighting for resistance to corrupted updates (the standard
/// Byzantine-robust estimators are unweighted order statistics). All three
/// are bit-identical across SimdKernel lanes, and the
/// robust rules are additionally invariant under client-update permutation
/// (see `fedat_tensor::ops::robust_reduce_into` for the argument).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum AggRule {
    /// Sample-count-weighted mean (`Σ_k (n_k/N_c) · w_k`) — the default.
    #[default]
    WeightedMean,
    /// Per-coordinate trimmed mean: drop the `⌊frac·k⌋` smallest and
    /// largest values at each coordinate, average the rest.
    TrimmedMean {
        /// Fraction trimmed from *each* end, in `[0, 0.5)`.
        frac: f64,
    },
    /// Per-coordinate median (even counts average the two middle values).
    CoordinateMedian,
}

/// Aggregates client updates under the configured [`AggRule`], written into
/// a reusable buffer.
///
/// `WeightedMean` delegates to [`weighted_client_average_into`]; the robust
/// rules ignore the sample counts and take the per-coordinate order
/// statistic over the raw updates (`TrimmedMean`'s trim count is clamped so
/// at least one value survives per coordinate). A single update passes
/// through every rule unchanged up to rounding (the robust rules return it
/// bitwise).
///
/// # Panics
/// Panics if `updates` is empty or lengths mismatch.
pub fn aggregate_clients_into(rule: AggRule, updates: &[(&[f32], usize)], out: &mut Vec<f32>) {
    assert!(!updates.is_empty(), "cannot aggregate zero client updates");
    let k = updates.len();
    let robust = match rule {
        AggRule::WeightedMean => return weighted_client_average_into(updates, out),
        AggRule::TrimmedMean { frac } => RobustRule::TrimmedMean {
            trim: ((frac.max(0.0) * k as f64).floor() as usize).min((k - 1) / 2),
        },
        AggRule::CoordinateMedian => RobustRule::Median,
    };
    let inputs: Vec<&[f32]> = updates.iter().map(|(w, _)| *w).collect();
    out.clear();
    out.resize(inputs[0].len(), 0.0);
    robust_reduce_into(&inputs, robust, out);
}

/// Sample-count-weighted average of client weight vectors, written into a
/// reusable buffer: `out = Σ_k (n_k / N_c) · w_k` — the FedAvg/TiFL/FedAT
/// intra-tier rule. `out` is resized to the model dimension; strategies keep
/// one buffer per tier and aggregate every round without allocating.
///
/// Guard-layer contract: this function trusts its inputs. Finiteness and
/// magnitude screening happen upstream, per update, as each uplink lands
/// (`GuardPolicy` in the strategy completion path) — a single NaN/Inf or
/// magnitude-exploded update reaching this sum poisons every output
/// coordinate, which is exactly what `AggRule`'s robust alternatives and
/// the guard's reject/clip screens exist to prevent. With the default
/// (inert) guard the caller gets the paper's behavior: whatever the clients
/// sent is averaged verbatim.
///
/// # Panics
/// Panics if `updates` is empty or lengths mismatch.
pub fn weighted_client_average_into(updates: &[(&[f32], usize)], out: &mut Vec<f32>) {
    assert!(!updates.is_empty(), "cannot aggregate zero client updates");
    let total: usize = updates.iter().map(|(_, n)| *n).sum();
    assert!(total > 0, "client updates carry zero samples");
    let dim = updates[0].0.len();
    let inputs: Vec<&[f32]> = updates.iter().map(|(w, _)| *w).collect();
    let weights: Vec<f32> = updates
        .iter()
        .map(|(_, n)| *n as f32 / total as f32)
        .collect();
    out.clear();
    out.resize(dim, 0.0);
    weighted_sum_into(&inputs, &weights, out);
}

/// The FedAT cross-tier weights of Eq. (5).
///
/// With per-tier update counts `T_tier1..T_tierM` (tier 1 = fastest) and
/// `T = Σ T_tierm`, tier `m` receives weight `T_{tier(M+1−m)} / T`: the
/// slowest tier inherits the *fastest* tier's (largest) update count, undoing
/// the frequency bias of asynchronous tier arrivals.
///
/// Before any update has happened (`T = 0`) the weights are uniform.
pub fn cross_tier_weights(update_counts: &[u64]) -> Vec<f32> {
    assert!(!update_counts.is_empty(), "no tiers");
    let m = update_counts.len();
    let total: u64 = update_counts.iter().sum();
    if total == 0 {
        return vec![1.0 / m as f32; m];
    }
    // weight[m] = counts[M+1-m] reversed, normalized.
    let mut w: Vec<f32> = (0..m)
        .map(|i| update_counts[m - 1 - i] as f32 / total as f32)
        .collect();
    // Guard against degenerate all-zero-but-total>0 (cannot happen, but keep
    // the invariant Σw = 1 robust to float error).
    let sum: f32 = w.iter().sum();
    if sum > 0.0 {
        for v in w.iter_mut() {
            *v /= sum;
        }
    } else {
        w = vec![1.0 / m as f32; m];
    }
    w
}

/// Uniform cross-tier weights — the Fig. 6 baseline.
pub fn uniform_tier_weights(num_tiers: usize) -> Vec<f32> {
    assert!(num_tiers > 0, "no tiers");
    vec![1.0 / num_tiers as f32; num_tiers]
}

/// Combines per-tier server models into the global model
/// (`WeightedAverage` in Algorithm 2), written into a reusable buffer —
/// the FedAT server aggregates into its standing global vector every tier
/// round without allocating.
///
/// # Panics
/// Panics on length mismatches.
pub fn aggregate_tiers_into(tier_models: &[Vec<f32>], weights: &[f32], out: &mut Vec<f32>) {
    assert_eq!(
        tier_models.len(),
        weights.len(),
        "one weight per tier model"
    );
    assert!(!tier_models.is_empty(), "no tier models");
    let dim = tier_models[0].len();
    let inputs: Vec<&[f32]> = tier_models.iter().map(|m| m.as_slice()).collect();
    out.clear();
    out.resize(dim, 0.0);
    weighted_sum_into(&inputs, weights, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_average_weights_by_samples() {
        let a = vec![0.0f32; 3];
        let b = vec![4.0f32; 3];
        // 1 sample vs 3 samples → (0·1 + 4·3)/4 = 3.
        let mut avg = Vec::new();
        weighted_client_average_into(&[(&a, 1), (&b, 3)], &mut avg);
        for v in avg {
            assert!((v - 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn client_average_of_identical_is_identity() {
        let w = vec![1.5f32, -2.0, 0.25];
        let mut avg = Vec::new();
        weighted_client_average_into(&[(&w, 7), (&w, 3), (&w, 90)], &mut avg);
        for (x, y) in avg.iter().zip(w.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn cross_tier_weights_reverse_the_counts() {
        // Fast tier updated 30×, slow tier 10× → slow tier gets 30/40,
        // fast tier gets 10/40.
        let w = cross_tier_weights(&[30, 10]);
        assert!((w[0] - 0.25).abs() < 1e-6, "fast-tier weight {w:?}");
        assert!((w[1] - 0.75).abs() < 1e-6, "slow-tier weight {w:?}");
    }

    #[test]
    fn cross_tier_weights_sum_to_one() {
        for counts in [vec![1u64, 2, 3, 4, 5], vec![100, 0, 0, 0, 1], vec![7, 7, 7]] {
            let w = cross_tier_weights(&counts);
            let s: f32 = w.iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "weights {w:?} sum to {s}");
        }
    }

    #[test]
    fn zero_updates_give_uniform() {
        let w = cross_tier_weights(&[0, 0, 0, 0]);
        for v in w {
            assert!((v - 0.25).abs() < 1e-6);
        }
    }

    #[test]
    fn slower_tiers_get_monotonically_larger_weights() {
        // Monotone decreasing update counts (typical: fast tiers update
        // more) must yield monotone increasing weights.
        let w = cross_tier_weights(&[50, 40, 30, 20, 10]);
        for pair in w.windows(2) {
            assert!(pair[0] <= pair[1], "weights not increasing: {w:?}");
        }
    }

    #[test]
    fn uniform_weights_are_uniform() {
        let w = uniform_tier_weights(5);
        assert_eq!(w, vec![0.2; 5]);
    }

    #[test]
    fn tier_aggregation_is_convex_combination() {
        let t1 = vec![0.0f32; 4];
        let t2 = vec![1.0f32; 4];
        let mut g = Vec::new();
        aggregate_tiers_into(&[t1, t2], &[0.25, 0.75], &mut g);
        for v in g {
            assert!((v - 0.75).abs() < 1e-6);
        }
    }

    #[test]
    fn robust_rules_resist_one_hostile_update() {
        let good1 = vec![1.0f32, -1.0, 0.5];
        let good2 = vec![1.2f32, -0.8, 0.4];
        let good3 = vec![0.8f32, -1.2, 0.6];
        let evil = vec![1.0e6f32, -1.0e6, f32::INFINITY];
        let updates: Vec<(&[f32], usize)> =
            vec![(&good1, 10), (&evil, 10), (&good2, 10), (&good3, 10)];
        let mut out = Vec::new();
        aggregate_clients_into(AggRule::CoordinateMedian, &updates, &mut out);
        assert!(
            out.iter().all(|v| v.is_finite() && v.abs() < 2.0),
            "{out:?}"
        );
        aggregate_clients_into(AggRule::TrimmedMean { frac: 0.25 }, &updates, &mut out);
        assert!(
            out.iter().all(|v| v.is_finite() && v.abs() < 2.0),
            "{out:?}"
        );
        // The weighted mean is poisoned — that is the point of the guard.
        aggregate_clients_into(AggRule::WeightedMean, &updates, &mut out);
        assert!(out.iter().any(|v| !v.is_finite() || v.abs() > 1000.0));
    }

    #[test]
    fn robust_rules_pass_a_single_update_through() {
        let w = vec![1.5f32, -2.0, 0.25];
        let updates: Vec<(&[f32], usize)> = vec![(&w, 7)];
        let mut out = Vec::new();
        for rule in [
            AggRule::WeightedMean,
            AggRule::TrimmedMean { frac: 0.4 },
            AggRule::CoordinateMedian,
        ] {
            aggregate_clients_into(rule, &updates, &mut out);
            for (x, y) in out.iter().zip(w.iter()) {
                assert!((x - y).abs() < 1e-6, "{rule:?}");
            }
        }
    }

    #[test]
    fn trimmed_mean_clamps_to_keep_at_least_one_value() {
        // frac 0.49 of k=2 floors to 0 trimmed; k=3 → ⌊1.47⌋ = 1 = (k-1)/2.
        let a = vec![0.0f32];
        let b = vec![1.0f32];
        let c = vec![100.0f32];
        let mut out = Vec::new();
        aggregate_clients_into(
            AggRule::TrimmedMean { frac: 0.49 },
            &[(&a, 1), (&b, 1), (&c, 1)],
            &mut out,
        );
        assert_eq!(out, vec![1.0]);
    }

    #[test]
    fn fedat_reduces_to_plain_average_with_equal_counts() {
        // Equal update counts → uniform weights → same as FedAvg over tiers.
        let w = cross_tier_weights(&[5, 5, 5, 5, 5]);
        for v in w {
            assert!((v - 0.2).abs() < 1e-6);
        }
    }
}
