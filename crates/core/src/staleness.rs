//! Staleness-weighting functions for asynchronous aggregation.
//!
//! FedAsync (Xie et al., 2019) attenuates the mixing weight of a client
//! update by how many global versions elapsed since the client downloaded
//! its base model. Of the paper's three families, the two a run selects are
//! provided: polynomial (the baseline's) and constant.

/// `s(t, τ)` families from Xie et al. §3; the mixing weight is
/// `α_t = α · s(staleness)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StalenessFn {
    /// `s = 1`: ignore staleness entirely.
    Constant,
    /// `s = (1 + staleness)^(-a)`: polynomial decay (the FedAsync default,
    /// and what the FedAT paper's baseline uses; `a = 0.5`).
    Polynomial {
        /// Decay exponent `a > 0`.
        exponent: f32,
    },
}

impl StalenessFn {
    /// The attenuation factor `s(staleness) ∈ (0, 1]`.
    pub fn factor(&self, staleness: u64) -> f32 {
        match *self {
            StalenessFn::Constant => 1.0,
            StalenessFn::Polynomial { exponent } => {
                (1.0 + staleness as f32).powf(-exponent.max(0.0))
            }
        }
    }

    /// The FedAsync-paper default used by the baseline.
    pub fn default_polynomial() -> Self {
        StalenessFn::Polynomial { exponent: 0.5 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_ignores_staleness() {
        let f = StalenessFn::Constant;
        assert_eq!(f.factor(0), 1.0);
        assert_eq!(f.factor(1_000_000), 1.0);
    }

    #[test]
    fn polynomial_decays_monotonically() {
        let f = StalenessFn::Polynomial { exponent: 0.5 };
        assert_eq!(f.factor(0), 1.0);
        let mut last = 1.0f32;
        for s in 1..50 {
            let v = f.factor(s);
            assert!(v < last, "not strictly decreasing at {s}");
            assert!(v > 0.0);
            last = v;
        }
        // The documented value at staleness 3: (1+3)^-0.5 = 0.5.
        assert!((f.factor(3) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn all_factors_bounded() {
        for f in [StalenessFn::Constant, StalenessFn::default_polynomial()] {
            for s in [0u64, 1, 10, 1000] {
                let v = f.factor(s);
                assert!((0.0..=1.0).contains(&v), "{f:?} at {s} gave {v}");
            }
        }
    }
}
