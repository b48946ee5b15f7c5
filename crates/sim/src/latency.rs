//! Client latency modelling: the paper's five delay parts plus compute and
//! transfer costs.

use fedat_tensor::rng::{rng_for, shuffle, tags, uniform};

/// One delay part: per-round injected delay drawn uniformly from
/// `[lo, hi]` seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DelayPart {
    /// Lower bound (seconds).
    pub lo: f64,
    /// Upper bound (seconds).
    pub hi: f64,
}

impl DelayPart {
    /// Midpoint — the expected injected delay, used for latency profiling.
    pub fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

/// The paper's delay scheme: "randomly assign delays of 0s, 0∼5s, 6∼10s,
/// 11∼15s, and 20∼30s to the clients in each part at every round" (§6).
pub fn paper_delay_parts() -> Vec<DelayPart> {
    vec![
        DelayPart { lo: 0.0, hi: 0.0 },
        DelayPart { lo: 0.0, hi: 5.0 },
        DelayPart { lo: 6.0, hi: 10.0 },
        DelayPart { lo: 11.0, hi: 15.0 },
        DelayPart { lo: 20.0, hi: 30.0 },
    ]
}

/// Maps every client to a delay part and draws per-round delays.
#[derive(Clone, Debug)]
pub struct LatencyModel {
    parts: Vec<DelayPart>,
    /// `assignment[client]` = delay-part index (the *ground-truth*
    /// performance class; FedAT's tiering module profiles its own view).
    assignment: Vec<usize>,
    /// Seconds of compute per training sample per epoch.
    per_sample_cost: f64,
    seed: u64,
    /// Per-client compute-drift rate (multiplier growth per dispatch
    /// round); empty = no drift.
    drift_rate: Vec<f64>,
    /// Hard cap on the drift multiplier.
    drift_cap: f64,
}

impl LatencyModel {
    /// Assigns `n_clients` to parts with the given sizes (shuffled client
    /// order, seed-deterministic).
    ///
    /// # Panics
    /// Panics if sizes don't sum to `n_clients` or lengths mismatch.
    pub fn with_sizes(
        n_clients: usize,
        parts: Vec<DelayPart>,
        sizes: &[usize],
        per_sample_cost: f64,
        seed: u64,
    ) -> Self {
        assert_eq!(parts.len(), sizes.len(), "one size per delay part required");
        assert_eq!(
            sizes.iter().sum::<usize>(),
            n_clients,
            "part sizes must sum to the client count"
        );
        let mut order: Vec<usize> = (0..n_clients).collect();
        let mut rng = rng_for(seed, tags::DELAYS);
        shuffle(&mut rng, &mut order);
        let mut assignment = vec![0usize; n_clients];
        let mut cursor = 0usize;
        for (part, &size) in sizes.iter().enumerate() {
            for &client in &order[cursor..cursor + size] {
                assignment[client] = part;
            }
            cursor += size;
        }
        LatencyModel {
            parts,
            assignment,
            per_sample_cost,
            seed,
            drift_rate: Vec::new(),
            drift_cap: 1.0,
        }
    }

    /// Enables compute drift: client `c`'s compute time is multiplied by
    /// `min(1 + rates[c] * round, cap)` at its `round`-th dispatch.
    ///
    /// # Panics
    /// Panics if `rates` doesn't cover every client.
    pub fn set_drift(&mut self, rates: Vec<f64>, cap: f64) {
        assert_eq!(
            rates.len(),
            self.assignment.len(),
            "one drift rate per client required"
        );
        self.drift_rate = rates;
        self.drift_cap = cap.max(1.0);
    }

    /// Compute-drift multiplier for `(client, round)`; 1.0 without drift.
    pub fn drift_factor(&self, client: usize, round: u64) -> f64 {
        if self.drift_rate.is_empty() {
            return 1.0;
        }
        (1.0 + self.drift_rate[client] * round as f64).min(self.drift_cap)
    }

    /// Ground-truth part of a client.
    pub fn part_of(&self, client: usize) -> usize {
        self.assignment[client]
    }

    /// The injected delay for `(client, round)` — a pure function of the
    /// seed, so identical across runs and strategies (the paper fixes the
    /// schedule "to guarantee fair comparison").
    pub fn injected_delay(&self, client: usize, round: u64) -> f64 {
        let part = self.parts[self.assignment[client]];
        if part.hi <= part.lo {
            return part.lo;
        }
        let mut rng = rng_for(
            self.seed ^ ((client as u64) << 32) ^ round.wrapping_mul(0x9E37_79B9),
            tags::DELAYS,
        );
        uniform(&mut rng, part.lo, part.hi)
    }

    /// Local-training compute time for a client with `n_samples` running
    /// `epochs` epochs.
    pub fn compute_time(&self, n_samples: usize, epochs: usize) -> f64 {
        self.per_sample_cost * n_samples as f64 * epochs as f64
    }

    /// Full response latency for one round: (drifted) compute + injected
    /// delay. The drift-free branch keeps the exact legacy float ops so
    /// quiet configs stay bit-identical.
    pub fn response_latency(
        &self,
        client: usize,
        round: u64,
        n_samples: usize,
        epochs: usize,
    ) -> f64 {
        if self.drift_rate.is_empty() {
            self.compute_time(n_samples, epochs) + self.injected_delay(client, round)
        } else {
            self.compute_time(n_samples, epochs) * self.drift_factor(client, round)
                + self.injected_delay(client, round)
        }
    }

    /// Expected response latency (used by profilers): compute + mean delay.
    pub fn expected_latency(&self, client: usize, n_samples: usize, epochs: usize) -> f64 {
        self.compute_time(n_samples, epochs) + self.parts[self.assignment[client]].mean()
    }

    /// Ground-truth part sizes.
    pub fn part_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.parts.len()];
        for &p in &self.assignment {
            sizes[p] += 1;
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The §6 delay parts at `n / 5` clients each (`n` a multiple of 5).
    fn paper_parts(n: usize, per_sample_cost: f64, seed: u64) -> LatencyModel {
        LatencyModel::with_sizes(n, paper_delay_parts(), &[n / 5; 5], per_sample_cost, seed)
    }

    #[test]
    fn custom_sizes_respected() {
        let m =
            LatencyModel::with_sizes(500, paper_delay_parts(), &[50, 50, 100, 100, 200], 0.01, 1);
        assert_eq!(m.part_sizes(), vec![50, 50, 100, 100, 200]);
    }

    #[test]
    fn delays_stay_in_part_range() {
        let m = paper_parts(50, 0.0, 3);
        for client in 0..50 {
            let part = paper_delay_parts()[m.part_of(client)];
            for round in 0..20 {
                let d = m.injected_delay(client, round);
                assert!(
                    d >= part.lo && d <= part.hi,
                    "client {client} round {round}: delay {d} outside [{}, {}]",
                    part.lo,
                    part.hi
                );
            }
        }
    }

    #[test]
    fn delay_schedule_is_deterministic_and_varies_by_round() {
        let m = paper_parts(50, 0.0, 3);
        let m2 = paper_parts(50, 0.0, 3);
        // Pick a client in a nonzero-width part.
        let client = (0..50).find(|&c| m.part_of(c) == 4).unwrap();
        assert_eq!(m.injected_delay(client, 5), m2.injected_delay(client, 5));
        assert_ne!(m.injected_delay(client, 5), m.injected_delay(client, 6));
    }

    #[test]
    fn fastest_part_has_zero_delay() {
        let m = paper_parts(50, 0.0, 9);
        let client = (0..50).find(|&c| m.part_of(c) == 0).unwrap();
        for round in 0..10 {
            assert_eq!(m.injected_delay(client, round), 0.0);
        }
    }

    #[test]
    fn response_latency_adds_compute() {
        let m = paper_parts(10, 0.02, 1);
        let client = (0..10).find(|&c| m.part_of(c) == 0).unwrap();
        let lat = m.response_latency(client, 0, 50, 3);
        assert!((lat - 0.02 * 50.0 * 3.0).abs() < 1e-9);
    }

    #[test]
    fn expected_latency_orders_parts() {
        let m = paper_parts(100, 0.0, 5);
        let by_part: Vec<f64> = (0..5)
            .map(|p| {
                let c = (0..100).find(|&c| m.part_of(c) == p).unwrap();
                m.expected_latency(c, 10, 1)
            })
            .collect();
        for w in by_part.windows(2) {
            assert!(
                w[0] <= w[1],
                "expected latency must grow with part index: {by_part:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must sum")]
    fn bad_sizes_rejected() {
        let _ = LatencyModel::with_sizes(10, paper_delay_parts(), &[1, 1, 1, 1, 1], 0.01, 1);
    }

    #[test]
    fn drift_slows_compute_but_not_the_profile() {
        let mut m = paper_parts(10, 0.02, 1);
        // Zero-delay part: response latency is pure compute.
        let client = (0..10).find(|&c| m.part_of(c) == 0).unwrap();
        let base = m.response_latency(client, 0, 50, 3);
        let expected = m.expected_latency(client, 50, 3);
        m.set_drift(vec![0.1; 10], 2.0);
        assert_eq!(m.drift_factor(client, 0), 1.0);
        assert_eq!(m.response_latency(client, 0, 50, 3), base);
        assert!(m.response_latency(client, 5, 50, 3) > base);
        // The multiplier is capped…
        assert!((m.response_latency(client, 1000, 50, 3) - base * 2.0).abs() < 1e-9);
        // …and the profile-time view never moves.
        assert_eq!(m.expected_latency(client, 50, 3), expected);
    }
}
