//! Availability churn scenarios.
//!
//! The paper's only fault model is §6's one-shot *permanent* dropout. Real
//! federated fleets additionally see transient flaps (mobile clients moving
//! in and out of coverage), correlated storms (a rack, carrier, or region going down at once), and
//! slow compute drift (thermal throttling, background load) that makes a
//! one-shot latency profile stale. This module generates those scenarios as
//! deterministic per-client *down intervals* layered on top of the legacy
//! permanent-dropout draw.
//!
//! Every generator consumes its own seed-tagged RNG stream
//! (`tags::CHURN_*`), so enabling a scenario can never perturb the legacy
//! draws: `ClusterConfig::paper_medium`/`paper_large` reproduce the
//! pre-churn dropout schedule bit-for-bit.

use fedat_tensor::rng::{rng_for, sample_without_replacement, tags, uniform};

/// Transient flapping: a fraction of clients alternates between up and down
/// stretches with the given mean durations (uniform ±50% jitter) until
/// `horizon`, after which they stay up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlapSpec {
    /// Fraction of the fleet that flaps.
    pub fraction: f64,
    /// Mean up-stretch duration (seconds).
    pub mean_up: f64,
    /// Mean down-stretch duration (seconds).
    pub mean_down: f64,
    /// Intervals are generated up to this virtual time.
    pub horizon: f64,
}

impl Default for FlapSpec {
    /// Inert: a zero fraction selects no flappers.
    fn default() -> Self {
        FlapSpec {
            fraction: 0.0,
            mean_up: 300.0,
            mean_down: 30.0,
            horizon: 0.0,
        }
    }
}

/// Correlated dropout storms: `count` events, each knocking a freshly drawn
/// random cohort offline for `duration` seconds at a random start time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StormSpec {
    /// Number of storm events.
    pub count: usize,
    /// Fraction of the fleet hit by each storm.
    pub cohort_fraction: f64,
    /// Outage duration per storm (seconds).
    pub duration: f64,
    /// Storm start times are drawn uniformly from `(0, horizon)`.
    pub horizon: f64,
}

impl Default for StormSpec {
    /// Inert: zero storm events.
    fn default() -> Self {
        StormSpec {
            count: 0,
            cohort_fraction: 0.0,
            duration: 0.0,
            horizon: 0.0,
        }
    }
}

/// Slow compute drift: a fraction of clients gets a per-dispatch-round
/// multiplicative compute slowdown, capped at `max_factor`. Statically
/// profiled tiers become wrong as drifted clients slow down.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftSpec {
    /// Fraction of the fleet whose compute drifts.
    pub fraction: f64,
    /// Mean multiplier growth per dispatch round (each drifting client's
    /// rate is jittered uniformly ±50% around this).
    pub per_round: f64,
    /// Hard cap on the compute multiplier.
    pub max_factor: f64,
}

impl Default for DriftSpec {
    /// Inert: a zero fraction selects no drifting clients.
    fn default() -> Self {
        DriftSpec {
            fraction: 0.0,
            per_round: 0.0,
            max_factor: 1.0,
        }
    }
}

/// How a corrupted uplink mangles the update payload.
///
/// Ordered roughly by nastiness: `NanPoke` is the classic soft-error /
/// serialization-bug failure (non-finite values that poison any mean),
/// `SignFlip` is the model-replacement poisoning primitive, `Scale` is the
/// magnitude-explosion attack (and what unbounded local divergence looks
/// like), `Noise` models a flaky link or quantization bug.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CorruptMode {
    /// Overwrite a deterministic subset of coordinates with NaN/±Inf.
    NanPoke,
    /// Negate every coordinate (sends the update in the worst direction).
    SignFlip,
    /// Multiply every coordinate by `factor`.
    Scale {
        /// Magnitude multiplier (the classic boosted-update attack).
        factor: f32,
    },
    /// Add i.i.d. Gaussian noise with the given standard deviation.
    Noise {
        /// Noise standard deviation.
        sigma: f32,
    },
}

/// Corrupted-uplink scenario: a fixed `fraction` of the fleet is
/// corrupt-capable (drawn once per fleet under `tags::CHURN_CORRUPT`), and
/// each of their uplinks is independently mangled with `probability` at
/// completion time. Corruption touches only the update payload — traffic
/// accounting and the event trace are untouched, exactly as if the bytes
/// went bad in transit.
///
/// The [`Default`] is inert: zero fraction and probability, so no uplink is
/// ever touched and no RNG stream advances differently.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CorruptSpec {
    /// Fraction of the fleet that is corrupt-capable.
    pub fraction: f64,
    /// Per-selection probability that a capable client's uplink is mangled.
    pub probability: f64,
    /// How a mangled payload is transformed.
    pub mode: CorruptMode,
}

impl Default for CorruptSpec {
    /// Inert: no client is corrupt-capable.
    fn default() -> Self {
        CorruptSpec {
            fraction: 0.0,
            probability: 0.0,
            mode: CorruptMode::SignFlip,
        }
    }
}

/// Composable churn scenario configuration. The default (all `None`) is the
/// legacy behavior: permanent dropouts only, no drift.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ChurnConfig {
    /// Transient up/down flapping.
    pub flaps: Option<FlapSpec>,
    /// Correlated dropout storms.
    pub storms: Option<StormSpec>,
    /// Slow compute drift.
    pub drift: Option<DriftSpec>,
    /// Corrupted uplinks.
    pub corrupt: Option<CorruptSpec>,
}

impl ChurnConfig {
    /// A storm-heavy scenario: two mid-run cohort storms plus light
    /// background flapping. Tuned so small default clusters still learn
    /// while every fault-tolerance path (drop, revive, retry) gets
    /// exercised; `fedat-core`'s `experiment` tests run on it, and the
    /// `robust-churn` benchmark workload builds on it.
    pub fn storm_heavy() -> Self {
        ChurnConfig {
            flaps: Some(FlapSpec {
                fraction: 0.15,
                mean_up: 400.0,
                mean_down: 40.0,
                horizon: 4000.0,
            }),
            storms: Some(StormSpec {
                count: 2,
                cohort_fraction: 0.3,
                duration: 120.0,
                horizon: 1500.0,
            }),
            drift: None,
            corrupt: None,
        }
    }

    /// A light corrupted-uplink scenario: 10% of the fleet occasionally
    /// adds mild Gaussian noise to its uplink. Tuned so accuracy and
    /// finiteness assertions keep holding *with the guard at its inert
    /// default* — `fedat-core`'s `experiment` tests run on it to show the
    /// injection path is live and harmless defaults stay harmless, not that
    /// undefended training survives hostile clients (that is the corrupt
    /// acceptance test's job, `fedat-bench` `tests/acceptance.rs`).
    pub fn corrupt_light() -> Self {
        ChurnConfig {
            corrupt: Some(CorruptSpec {
                fraction: 0.1,
                probability: 0.5,
                mode: CorruptMode::Noise { sigma: 0.02 },
            }),
            ..ChurnConfig::default()
        }
    }

    /// Appends this scenario's down intervals to `down` (one `Vec` per
    /// client, unsorted/unmerged — the caller normalizes). Each generator
    /// draws from its own `tags::CHURN_*` stream of `seed`.
    pub(crate) fn generate(&self, n: usize, seed: u64, down: &mut [Vec<(f64, f64)>]) {
        // Hard per-client cap: keeps degenerate specs (tiny means, huge
        // horizons) from hanging the generator.
        const MAX_INTERVALS: usize = 10_000;

        if let Some(spec) = self.flaps {
            let mut rng = rng_for(seed, tags::CHURN_FLAPS);
            let k = count_of(spec.fraction, n);
            let mean_up = spec.mean_up.max(1e-3);
            let mean_down = spec.mean_down.max(1e-3);
            for c in sample_without_replacement(&mut rng, n, k) {
                // Start each flapper with an up stretch so `alive_at(0)`
                // keeps its legacy full-fleet shape.
                let mut t = uniform(&mut rng, 0.0, 2.0 * mean_up).max(1e-6);
                while t < spec.horizon && down[c].len() < MAX_INTERVALS {
                    let d = uniform(&mut rng, 0.5, 1.5) * mean_down;
                    down[c].push((t, t + d));
                    t += d + uniform(&mut rng, 0.5, 1.5) * mean_up;
                }
            }
        }

        if let Some(spec) = self.storms {
            let mut rng = rng_for(seed, tags::CHURN_STORM);
            let k = count_of(spec.cohort_fraction, n);
            for _ in 0..spec.count {
                let t0 = uniform(&mut rng, 0.0, spec.horizon.max(1e-6)).max(1e-6);
                for c in sample_without_replacement(&mut rng, n, k) {
                    down[c].push((t0, t0 + spec.duration.max(0.0)));
                }
            }
        }
    }

    /// Per-client compute-drift rates (multiplier growth per round), or an
    /// empty vector when drift is disabled.
    pub(crate) fn drift_rates(&self, n: usize, seed: u64) -> Vec<f64> {
        let Some(spec) = self.drift else {
            return Vec::new();
        };
        let mut rates = vec![0.0f64; n];
        let mut rng = rng_for(seed, tags::CHURN_DRIFT);
        for c in sample_without_replacement(&mut rng, n, count_of(spec.fraction, n)) {
            rates[c] = spec.per_round * uniform(&mut rng, 0.5, 1.5);
        }
        rates
    }
}

/// Rounds `fraction × n` to a client count, clamped to `[0, n]`.
pub(crate) fn count_of(fraction: f64, n: usize) -> usize {
    ((fraction * n as f64).round().max(0.0) as usize).min(n)
}

/// Sorts and merges raw intervals into disjoint, non-touching `[start, end)`
/// spans (infinite ends mark permanent dropouts).
pub(crate) fn normalize(intervals: &mut Vec<(f64, f64)>) {
    intervals.retain(|&(s, e)| e > s);
    intervals.sort_by(|a, b| a.partial_cmp(b).expect("interval times are never NaN"));
    let mut merged: Vec<(f64, f64)> = Vec::with_capacity(intervals.len());
    for &(s, e) in intervals.iter() {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    *intervals = merged;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_default() {
        assert!(CorruptSpec::default().fraction == 0.0);
    }

    #[test]
    fn normalize_merges_and_sorts() {
        let mut v = vec![(5.0, 7.0), (1.0, 2.0), (6.0, 9.0), (2.0, 3.0), (4.0, 4.0)];
        normalize(&mut v);
        assert_eq!(v, vec![(1.0, 3.0), (5.0, 9.0)]);
    }

    #[test]
    fn normalize_keeps_infinite_tail() {
        let mut v = vec![(10.0, f64::INFINITY), (12.0, 14.0), (1.0, 2.0)];
        normalize(&mut v);
        assert_eq!(v, vec![(1.0, 2.0), (10.0, f64::INFINITY)]);
    }

    #[test]
    fn generators_are_deterministic() {
        let cfg = ChurnConfig {
            flaps: Some(FlapSpec {
                fraction: 0.5,
                mean_up: 50.0,
                mean_down: 10.0,
                horizon: 500.0,
            }),
            storms: Some(StormSpec {
                count: 3,
                cohort_fraction: 0.3,
                duration: 20.0,
                horizon: 400.0,
            }),
            drift: Some(DriftSpec {
                fraction: 0.5,
                per_round: 0.05,
                max_factor: 4.0,
            }),
            corrupt: None,
        };
        let mut a = vec![Vec::new(); 20];
        let mut b = vec![Vec::new(); 20];
        cfg.generate(20, 7, &mut a);
        cfg.generate(20, 7, &mut b);
        assert_eq!(a, b);
        assert!(a.iter().any(|v| !v.is_empty()));
        assert_eq!(cfg.drift_rates(20, 7), cfg.drift_rates(20, 7));
        assert!(cfg.drift_rates(20, 7).iter().any(|&r| r > 0.0));
    }

    #[test]
    fn storms_hit_a_cohort_at_one_instant() {
        let cfg = ChurnConfig {
            storms: Some(StormSpec {
                count: 1,
                cohort_fraction: 0.5,
                duration: 30.0,
                horizon: 100.0,
            }),
            ..ChurnConfig::default()
        };
        let mut down = vec![Vec::new(); 10];
        cfg.generate(10, 3, &mut down);
        let hit: Vec<&(f64, f64)> = down.iter().flatten().collect();
        assert_eq!(hit.len(), 5, "half the fleet is hit");
        assert!(
            hit.windows(2).all(|w| w[0] == w[1]),
            "one storm = one shared interval"
        );
    }
}
