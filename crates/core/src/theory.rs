//! Empirical verification of the paper's convergence analysis (§5).
//!
//! Theorem 5.1 states that for an L-smooth, μ-strongly-convex central
//! objective with γ-inexact local solves, FedAT's server iterates satisfy
//!
//! ```text
//! E[f(w_T) − f(w*)] ≤ (1 − 2μBησ)^T · (f(w⁰) − f(w*)) + (L/2)η²γ²B²G²c²
//! ```
//!
//! i.e. *geometric decay to a noise ball* whose radius shrinks with the
//! step size. This module builds the exact setting of the analysis — a
//! strongly convex quadratic federation with tiered, asynchronously
//! weighted aggregation — and measures both properties, so the theorem's
//! qualitative content is covered by tests instead of trust.

use crate::aggregate::{aggregate_tiers_into, cross_tier_weights};
use fedat_tensor::ops::dist_sq;

/// A strongly convex quadratic federation:
/// client `k` holds `F_k(w) = ½‖w − aₖ‖²` so the central objective is
/// `f(w) = ½‖w − w*‖² + const` with `w* = Σ (n_k/N)·aₖ` (here `n_k` equal).
pub struct QuadraticFederation {
    /// Per-client optima `aₖ`, grouped by tier: `targets[tier][client]`.
    pub targets: Vec<Vec<Vec<f32>>>,
    /// Problem dimension.
    pub dim: usize,
}

impl QuadraticFederation {
    /// Builds a federation with `tiers × clients_per_tier` quadratic
    /// clients. Client optima are spread around a common non-zero center
    /// (so `w⁰ = 0` starts far from `w*`), with the *same* per-client
    /// offsets in every tier — any convex combination of tier means then
    /// equals `w*`, which is the regime Theorem 5.1's bound describes.
    pub fn new(tiers: usize, clients_per_tier: usize, dim: usize, spread: f32) -> Self {
        let mut targets = Vec::with_capacity(tiers);
        for _t in 0..tiers {
            let mut tier = Vec::with_capacity(clients_per_tier);
            for c in 0..clients_per_tier {
                let a: Vec<f32> = (0..dim)
                    .map(|d| {
                        let center = 2.0 + 0.1 * d as f32;
                        let phase = (c * 7 + d * 3) as f32;
                        center + spread * (phase * 0.7).sin()
                    })
                    .collect();
                tier.push(a);
            }
            targets.push(tier);
        }
        QuadraticFederation { targets, dim }
    }

    /// Adds a per-tier shift to every optimum, creating *tier-correlated*
    /// data: tier means now differ, so the asynchronously weighted global
    /// model converges to a point biased by the tier weights (the `B`-
    /// dependent residual of Theorem 5.1).
    pub fn with_tier_bias(mut self, bias: f32) -> Self {
        for (t, tier) in self.targets.iter_mut().enumerate() {
            for a in tier.iter_mut() {
                for v in a.iter_mut() {
                    *v += bias * t as f32;
                }
            }
        }
        self
    }

    /// The global optimum `w*` (mean of all client optima).
    pub fn optimum(&self) -> Vec<f32> {
        let mut w = vec![0.0f32; self.dim];
        let mut count = 0usize;
        for tier in &self.targets {
            for a in tier {
                for (wi, &ai) in w.iter_mut().zip(a.iter()) {
                    *wi += ai;
                }
                count += 1;
            }
        }
        for wi in w.iter_mut() {
            *wi /= count as f32;
        }
        w
    }

    /// Central suboptimality `f(w) − f(w*) = ½‖w − w*‖²` (up to the
    /// client-variance constant, which cancels in differences).
    pub fn suboptimality(&self, w: &[f32]) -> f64 {
        0.5 * dist_sq(w, &self.optimum()) as f64
    }

    /// One γ-inexact local solve of client `(tier, c)` from `w`: `steps`
    /// gradient-descent steps of size `eta` on
    /// `h(w) = F_k(w) + λ/2‖w − w_global‖²`.
    fn local_solve(
        &self,
        tier: usize,
        c: usize,
        w_global: &[f32],
        eta: f32,
        lambda: f32,
        steps: usize,
    ) -> Vec<f32> {
        let a = &self.targets[tier][c];
        let mut w = w_global.to_vec();
        for _ in 0..steps {
            for d in 0..self.dim {
                let grad = (w[d] - a[d]) + lambda * (w[d] - w_global[d]);
                w[d] -= eta * grad;
            }
        }
        w
    }

    /// Runs `rounds` of tiered FedAT updates: each round, every tier does a
    /// synchronous local solve and the global model is recomputed with the
    /// Eq. 5 weights (tier `t` is assumed to have updated `rounds_so_far`
    /// scaled by its speed factor). Returns the suboptimality trajectory.
    pub fn run_fedat(
        &self,
        rounds: usize,
        eta: f32,
        lambda: f32,
        local_steps: usize,
        tier_speed: &[u64],
    ) -> Vec<f64> {
        assert_eq!(tier_speed.len(), self.targets.len(), "one speed per tier");
        let m = self.targets.len();
        let mut global = vec![0.0f32; self.dim];
        let mut tier_models: Vec<Vec<f32>> = vec![global.clone(); m];
        let mut tier_counts = vec![0u64; m];
        let mut trajectory = Vec::with_capacity(rounds + 1);
        trajectory.push(self.suboptimality(&global));
        for round in 0..rounds {
            for (t, speed) in tier_speed.iter().enumerate() {
                // A tier updates `speed` times per round (fast tiers more).
                for _ in 0..*speed {
                    let clients = self.targets[t].len();
                    let mut avg = vec![0.0f32; self.dim];
                    for c in 0..clients {
                        let w_c = self.local_solve(t, c, &global, eta, lambda, local_steps);
                        for (ai, &wi) in avg.iter_mut().zip(w_c.iter()) {
                            *ai += wi / clients as f32;
                        }
                    }
                    tier_models[t] = avg;
                    tier_counts[t] += 1;
                    let weights = cross_tier_weights(&tier_counts);
                    aggregate_tiers_into(&tier_models, &weights, &mut global);
                }
            }
            let _ = round;
            trajectory.push(self.suboptimality(&global));
        }
        trajectory
    }
}

/// Least-squares slope of `ln(values)` against the index — the empirical
/// geometric decay rate. Values ≤ `floor` are clamped (the noise ball).
pub fn log_slope(values: &[f64], floor: f64) -> f64 {
    let yy: Vec<f64> = values.iter().map(|&v| v.max(floor).ln()).collect();
    let n = yy.len() as f64;
    let mean_x = (yy.len() as f64 - 1.0) / 2.0;
    let mean_y = yy.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &y) in yy.iter().enumerate() {
        let dx = i as f64 - mean_x;
        num += dx * (y - mean_y);
        den += dx * dx;
    }
    num / den
}

#[cfg(test)]
mod tests {
    use super::*;

    fn federation() -> QuadraticFederation {
        QuadraticFederation::new(3, 4, 8, 1.0)
    }

    #[test]
    fn optimum_minimizes_suboptimality() {
        let fed = federation();
        let w_star = fed.optimum();
        assert!(fed.suboptimality(&w_star) < 1e-12);
        let mut off = w_star.clone();
        off[0] += 0.5;
        assert!(fed.suboptimality(&off) > 0.1);
    }

    #[test]
    fn fedat_converges_geometrically_on_strongly_convex_objective() {
        // Theorem 5.1, part 1: the suboptimality trajectory decays
        // geometrically (negative log-slope) until it hits the noise ball.
        let fed = federation();
        let traj = fed.run_fedat(40, 0.1, 0.4, 5, &[4, 2, 1]);
        assert!(
            traj.last().unwrap() < &(traj[0] * 1e-2),
            "did not converge: {} → {}",
            traj[0],
            traj.last().unwrap()
        );
        let slope = log_slope(&traj[..15], 1e-12);
        assert!(slope < -0.1, "no geometric decay: slope {slope}");
    }

    #[test]
    fn smaller_step_size_means_smaller_noise_ball() {
        // Theorem 5.1, part 2: the residual term scales with η², so halving
        // the step size should (weakly) shrink the plateau.
        let fed = federation();
        let plateau = |eta: f32| {
            let traj = fed.run_fedat(80, eta, 0.4, 3, &[4, 2, 1]);
            *traj.last().unwrap()
        };
        let big = plateau(0.4);
        let small = plateau(0.05);
        assert!(
            small <= big * 1.5 + 1e-9,
            "smaller η should not plateau higher: η=0.05 → {small}, η=0.4 → {big}"
        );
    }

    #[test]
    fn prox_term_slows_but_does_not_break_convergence() {
        let fed = federation();
        let free = fed.run_fedat(40, 0.1, 0.0, 5, &[4, 2, 1]);
        let prox = fed.run_fedat(40, 0.1, 2.0, 5, &[4, 2, 1]);
        // Both converge…
        assert!(free.last().unwrap() < &(free[0] * 0.05));
        assert!(prox.last().unwrap() < &(prox[0] * 0.5));
        // …but strong λ cannot be faster than unconstrained on a quadratic.
        assert!(prox.last().unwrap() >= free.last().unwrap());
    }

    #[test]
    fn extreme_tier_imbalance_still_converges() {
        // The B = T_{tier(M+1−m)}/T weights vary per update; even a 20×
        // speed gap between tiers must not prevent convergence (the
        // theorem's bound holds for any B ≤ 1).
        let fed = federation();
        let traj = fed.run_fedat(40, 0.1, 0.4, 5, &[20, 2, 1]);
        assert!(
            traj.last().unwrap() < &(traj[0] * 0.05),
            "imbalanced tiers diverged: {:?}",
            &traj[traj.len() - 3..]
        );
    }

    #[test]
    fn log_slope_of_pure_geometric_series_is_exact() {
        let series: Vec<f64> = (0..20).map(|i| 0.5f64.powi(i)).collect();
        let slope = log_slope(&series, 1e-30);
        assert!((slope - 0.5f64.ln()).abs() < 1e-9);
    }

    #[test]
    fn tier_correlated_data_leaves_a_weight_dependent_bias() {
        // When tier means differ (data correlated with speed), the Eq. 5
        // weights determine the fixed point: the plateau sits away from w*
        // by an amount growing with the tier bias — the B-dependent residual
        // of the theorem, made visible.
        let unbiased = QuadraticFederation::new(3, 4, 8, 1.0);
        let biased = QuadraticFederation::new(3, 4, 8, 1.0).with_tier_bias(1.0);
        let p_unbiased = *unbiased
            .run_fedat(60, 0.1, 0.4, 5, &[4, 2, 1])
            .last()
            .unwrap();
        let p_biased = *biased
            .run_fedat(60, 0.1, 0.4, 5, &[4, 2, 1])
            .last()
            .unwrap();
        assert!(
            p_biased > p_unbiased * 10.0 + 1e-9,
            "tier bias should leave a visible residual: {p_biased} vs {p_unbiased}"
        );
    }
}
