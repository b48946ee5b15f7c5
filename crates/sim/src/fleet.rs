//! The simulated client population.

use crate::churn::{count_of, normalize, ChurnConfig, CorruptMode, CorruptSpec};
use crate::latency::{paper_delay_parts, DelayPart, LatencyModel};
use fedat_tensor::rng::{
    rng_for, sample_without_replacement, split_seed, standard_normal, tags, uniform,
};

/// Static description of the simulated cluster, mirroring the paper's
/// testbed (§6).
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of clients (100 on Chameleon, 500 on AWS in the paper).
    pub n_clients: usize,
    /// Injected delay ranges, one per performance part.
    pub delay_parts: Vec<DelayPart>,
    /// Clients per part; `None` = split evenly (the default scheme).
    pub part_sizes: Option<Vec<usize>>,
    /// Seconds of compute per sample per local epoch.
    pub per_sample_cost: f64,
    /// Number of "unstable" clients that permanently drop out (10 in §6).
    pub n_unstable: usize,
    /// Dropout times are drawn uniformly from `(0, dropout_horizon)`.
    pub dropout_horizon: f64,
    /// Master seed for delay schedules and dropout draws.
    pub seed: u64,
    /// Availability churn scenarios layered on top of the permanent
    /// dropouts. The default is quiet (legacy fault model); every scenario
    /// draws from its own seed-tagged stream, so enabling one never
    /// perturbs the legacy dropout schedule.
    pub churn: ChurnConfig,
}

impl ClusterConfig {
    /// The paper's 100-client Chameleon-style configuration.
    ///
    /// `per_sample_cost` is calibrated so local compute (≈10 s for a
    /// typical 48-sample, 3-epoch client round) is comparable to the
    /// injected delays, matching the paper's CPU testbed where training a
    /// CNN round takes tens of seconds. If compute were negligible, the
    /// fast tier would out-update the slow tiers by 20×, which distorts
    /// every tiered method.
    pub fn paper_medium(seed: u64) -> Self {
        ClusterConfig {
            n_clients: 100,
            delay_parts: paper_delay_parts(),
            part_sizes: None,
            per_sample_cost: 0.07,
            n_unstable: 10,
            dropout_horizon: 2000.0,
            seed,
            churn: ChurnConfig::default(),
        }
    }

    /// The paper's 500-client AWS-style configuration.
    pub fn paper_large(seed: u64) -> Self {
        ClusterConfig {
            n_clients: 500,
            ..Self::paper_medium(seed)
        }
    }

    /// Convenience: same config with a different client count.
    pub fn with_clients(mut self, n: usize) -> Self {
        self.n_clients = n;
        self
    }

    /// Convenience: explicit part sizes (Fig. 10 experiments).
    pub fn with_part_sizes(mut self, sizes: Vec<usize>) -> Self {
        self.part_sizes = Some(sizes);
        self
    }

    /// Convenience: disable dropouts.
    pub fn without_dropouts(mut self) -> Self {
        self.n_unstable = 0;
        self
    }

    /// Convenience: attach churn scenarios.
    pub fn with_churn(mut self, churn: ChurnConfig) -> Self {
        self.churn = churn;
        self
    }
}

/// The live fleet: latency model + availability schedule + per-client sizes.
#[derive(Clone, Debug)]
pub struct Fleet {
    latency: LatencyModel,
    /// Training-sample count per client (`n_k`), supplied by the dataset.
    sample_counts: Vec<usize>,
    /// Per-client down intervals `[start, end)`, sorted and disjoint; an
    /// infinite end marks a permanent dropout. A client is alive at `t`
    /// iff `t` lies in no interval — so `is_alive(c, start)` is false and
    /// `is_alive(c, end)` is true, matching the legacy `time < t_drop`
    /// boundary.
    down: Vec<Vec<(f64, f64)>>,
    /// Corrupted-uplink schedule, when the scenario is enabled.
    corrupt: Option<CorruptState>,
}

/// Materialized corrupted-uplink scenario: the spec, the master seed the
/// per-event decisions are keyed on, and the corrupt-capable membership
/// (drawn once under `tags::CHURN_CORRUPT`).
#[derive(Clone, Debug)]
struct CorruptState {
    spec: CorruptSpec,
    seed: u64,
    capable: Vec<bool>,
}

impl Fleet {
    /// Builds the fleet for a cluster config and per-client dataset sizes.
    ///
    /// # Panics
    /// Panics if `sample_counts.len() != config.n_clients` or more unstable
    /// clients than clients are requested.
    pub fn new(config: &ClusterConfig, sample_counts: Vec<usize>) -> Self {
        assert_eq!(
            sample_counts.len(),
            config.n_clients,
            "sample_counts must cover every client"
        );
        assert!(
            config.n_unstable <= config.n_clients,
            "more unstable clients than clients"
        );
        let latency = match &config.part_sizes {
            Some(sizes) => LatencyModel::with_sizes(
                config.n_clients,
                config.delay_parts.clone(),
                sizes,
                config.per_sample_cost,
                config.seed,
            ),
            None => {
                let k = config.delay_parts.len();
                let base = config.n_clients / k;
                let mut sizes = vec![base; k];
                for s in sizes.iter_mut().take(config.n_clients % k) {
                    *s += 1;
                }
                LatencyModel::with_sizes(
                    config.n_clients,
                    config.delay_parts.clone(),
                    &sizes,
                    config.per_sample_cost,
                    config.seed,
                )
            }
        };
        // Unstable clients: chosen uniformly; each gets a dropout time.
        // This draw predates the churn engine and must stay bit-for-bit
        // stable: same stream, same call order, same clamping.
        let mut down = vec![Vec::new(); config.n_clients];
        if config.n_unstable > 0 {
            let mut rng = rng_for(config.seed, tags::UNSTABLE);
            let unstable =
                sample_without_replacement(&mut rng, config.n_clients, config.n_unstable);
            for c in unstable {
                let t_drop = uniform(&mut rng, 0.0, config.dropout_horizon).max(1e-6);
                down[c].push((t_drop, f64::INFINITY));
            }
        }
        // Churn scenarios layer extra intervals from their own streams.
        config
            .churn
            .generate(config.n_clients, config.seed, &mut down);
        for intervals in &mut down {
            normalize(intervals);
        }
        let mut latency = latency;
        if let Some(drift) = config.churn.drift {
            latency.set_drift(
                config.churn.drift_rates(config.n_clients, config.seed),
                drift.max_factor,
            );
        }
        // Corrupt-capable membership: its own tagged stream, so enabling
        // the scenario perturbs no other draw.
        let corrupt = config.churn.corrupt.map(|spec| {
            let mut capable = vec![false; config.n_clients];
            let k = count_of(spec.fraction, config.n_clients);
            let mut rng = rng_for(config.seed, tags::CHURN_CORRUPT);
            for c in sample_without_replacement(&mut rng, config.n_clients, k) {
                capable[c] = true;
            }
            CorruptState {
                spec,
                seed: config.seed,
                capable,
            }
        });
        Fleet {
            latency,
            sample_counts,
            down,
            corrupt,
        }
    }

    /// Number of clients.
    pub fn len(&self) -> usize {
        self.sample_counts.len()
    }

    /// Fleets are never empty.
    pub fn is_empty(&self) -> bool {
        self.sample_counts.is_empty()
    }

    /// The latency model.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Whether `client` is online at `time`.
    pub fn is_alive(&self, client: usize, time: f64) -> bool {
        !self.down[client]
            .iter()
            .any(|&(s, e)| s <= time && time < e)
    }

    /// Permanent-dropout time of `client`: the start of its trailing
    /// infinite down interval, if any.
    pub fn dropout_time(&self, client: usize) -> Option<f64> {
        match self.down[client].last() {
            Some(&(s, e)) if e == f64::INFINITY => Some(s),
            _ => None,
        }
    }

    /// Earliest `t >= from` at which `client` is offline: `from` itself if
    /// the client is down now, the next interval start otherwise, `None`
    /// if it never goes down again.
    pub fn next_down_time(&self, client: usize, from: f64) -> Option<f64> {
        self.down[client]
            .iter()
            .find(|&&(_, e)| e > from)
            .map(|&(s, _)| if s <= from { from } else { s })
    }

    /// Earliest `t >= from` at which `client` is online: `from` itself if
    /// alive now, the current interval's end otherwise, `None` if the
    /// client never returns (permanent dropout).
    pub fn next_up_time(&self, client: usize, from: f64) -> Option<f64> {
        match self.down[client]
            .iter()
            .find(|&&(s, e)| s <= from && from < e)
        {
            None => Some(from),
            Some(&(_, e)) if e.is_finite() => Some(e),
            Some(_) => None,
        }
    }

    /// All availability transitions, sorted by `(time, client)`:
    /// `(time, client, went_down)`. Ground truth for fault logging.
    pub fn availability_transitions(&self) -> Vec<(f64, usize, bool)> {
        let mut out = Vec::new();
        for (c, intervals) in self.down.iter().enumerate() {
            for &(s, e) in intervals {
                out.push((s, c, true));
                if e.is_finite() {
                    out.push((e, c, false));
                }
            }
        }
        out.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("transition times are never NaN")
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
        });
        out
    }

    /// Clients alive at `time`.
    pub fn alive_at(&self, time: f64) -> Vec<usize> {
        (0..self.len())
            .filter(|&c| self.is_alive(c, time))
            .collect()
    }

    /// Response latency of one training round (compute + injected delay).
    pub fn response_latency(&self, client: usize, round: u64, epochs: usize) -> f64 {
        self.latency
            .response_latency(client, round, self.sample_counts[client], epochs)
    }

    /// Expected (mean-delay) latency, for profiling-based tiering. This is
    /// the *profile-time* view: compute drift is deliberately excluded, so
    /// a one-shot profile goes stale as drifted clients slow down.
    pub fn expected_latency(&self, client: usize, epochs: usize) -> f64 {
        self.latency
            .expected_latency(client, self.sample_counts[client], epochs)
    }

    /// Compute-drift multiplier of a client at its `round`-th dispatch
    /// (1.0 when drift is disabled).
    pub fn drift_factor(&self, client: usize, round: u64) -> f64 {
        self.latency.drift_factor(client, round)
    }

    /// Ground-truth delay part of a client.
    pub fn part_of(&self, client: usize) -> usize {
        self.latency.part_of(client)
    }

    /// Whether `client` belongs to the corrupt-capable cohort (always
    /// false when the corrupted-uplink scenario is disabled).
    pub fn is_corrupt_capable(&self, client: usize) -> bool {
        self.corrupt
            .as_ref()
            .is_some_and(|state| state.capable[client])
    }

    /// Applies the corrupted-uplink scenario to one completed update.
    ///
    /// Returns the corruption-mode code when the payload was mangled
    /// (0 = NaN poke, 1 = sign flip, 2 = scale, 3 = noise); `None` means
    /// the uplink is clean. The decision and any noise come from a fresh
    /// RNG keyed on `(seed, client, selection_round)`, so the outcome is a
    /// pure function of the dispatch — independent of event interleaving,
    /// thread count, and every other RNG stream.
    pub fn corrupt_update(
        &self,
        client: usize,
        selection_round: u64,
        weights: &mut [f32],
    ) -> Option<u64> {
        let state = self.corrupt.as_ref()?;
        if !state.capable[client] {
            return None;
        }
        let base = split_seed(state.seed, tags::CHURN_CORRUPT);
        let mut rng = rng_for(split_seed(base, client as u64), selection_round);
        if uniform(&mut rng, 0.0, 1.0) >= state.spec.probability {
            return None;
        }
        match state.spec.mode {
            CorruptMode::NanPoke => {
                // Poke a fixed stride of coordinates with cycling non-finite
                // values: enough to poison any mean, sparse enough that a
                // magnitude screen alone cannot explain the damage.
                for (i, w) in weights.iter_mut().enumerate().step_by(7) {
                    *w = match (i / 7) % 3 {
                        0 => f32::NAN,
                        1 => f32::INFINITY,
                        _ => f32::NEG_INFINITY,
                    };
                }
                Some(0)
            }
            CorruptMode::SignFlip => {
                for w in weights.iter_mut() {
                    *w = -*w;
                }
                Some(1)
            }
            CorruptMode::Scale { factor } => {
                for w in weights.iter_mut() {
                    *w *= factor;
                }
                Some(2)
            }
            CorruptMode::Noise { sigma } => {
                for w in weights.iter_mut() {
                    *w += sigma * standard_normal(&mut rng);
                }
                Some(3)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fleet(n: usize, unstable: usize, seed: u64) -> Fleet {
        let cfg = ClusterConfig {
            n_clients: n,
            n_unstable: unstable,
            ..ClusterConfig::paper_medium(seed)
        };
        Fleet::new(&cfg, vec![48; n])
    }

    #[test]
    fn paper_medium_shape() {
        let f = fleet(100, 10, 7);
        assert_eq!(f.len(), 100);
        let dropouts = (0..100).filter(|&c| f.dropout_time(c).is_some()).count();
        assert_eq!(dropouts, 10);
    }

    #[test]
    fn dropout_is_permanent() {
        let f = fleet(50, 5, 3);
        let victim = (0..50).find(|&c| f.dropout_time(c).is_some()).unwrap();
        let t = f.dropout_time(victim).unwrap();
        assert!(f.is_alive(victim, t - 0.001));
        assert!(!f.is_alive(victim, t));
        assert!(!f.is_alive(victim, t + 1e9));
    }

    #[test]
    fn alive_population_shrinks_over_time() {
        let f = fleet(100, 10, 11);
        let early = f.alive_at(0.0).len();
        let late = f.alive_at(1e9).len();
        assert_eq!(early, 100);
        assert_eq!(late, 90);
    }

    #[test]
    fn zero_unstable_means_everyone_lives() {
        let f = fleet(30, 0, 5);
        assert_eq!(f.alive_at(f64::MAX / 2.0).len(), 30);
    }

    #[test]
    fn fleet_is_deterministic() {
        let a = fleet(60, 6, 9);
        let b = fleet(60, 6, 9);
        for c in 0..60 {
            assert_eq!(a.dropout_time(c), b.dropout_time(c));
            assert_eq!(a.part_of(c), b.part_of(c));
            assert_eq!(a.response_latency(c, 3, 2), b.response_latency(c, 3, 2));
        }
    }

    #[test]
    fn latency_reflects_sample_counts() {
        let cfg = ClusterConfig {
            n_clients: 2,
            n_unstable: 0,
            ..ClusterConfig::paper_medium(1)
        };
        let f = Fleet::new(&cfg, vec![10, 100]);
        // Find round where both have their injected delay fixed; compare
        // compute-only difference via expected latency.
        let e0 = f.latency().compute_time(10, 3);
        let e1 = f.latency().compute_time(100, 3);
        assert!(e1 > e0 * 9.0);
    }

    #[test]
    fn default_parts_split_evenly() {
        assert_eq!(fleet(100, 0, 7).latency().part_sizes(), vec![20; 5]);
        let sizes = fleet(103, 0, 7).latency().part_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 103);
        assert!(sizes.iter().all(|&s| s == 20 || s == 21));
    }

    #[test]
    fn custom_part_sizes_flow_through() {
        let cfg = ClusterConfig::paper_large(1).with_part_sizes(vec![200, 100, 100, 50, 50]);
        let f = Fleet::new(&cfg, vec![40; 500]);
        assert_eq!(f.latency().part_sizes(), vec![200, 100, 100, 50, 50]);
    }

    #[test]
    fn legacy_dropout_maps_to_an_infinite_interval() {
        let f = fleet(50, 5, 3);
        let victim = (0..50).find(|&c| f.dropout_time(c).is_some()).unwrap();
        let t = f.dropout_time(victim).unwrap();
        assert_eq!(f.next_down_time(victim, 0.0), Some(t));
        assert_eq!(f.next_down_time(victim, t + 5.0), Some(t + 5.0));
        assert_eq!(f.next_up_time(victim, t - 0.001), Some(t - 0.001));
        assert_eq!(f.next_up_time(victim, t), None, "never returns");
        let stable = (0..50).find(|&c| f.dropout_time(c).is_none()).unwrap();
        assert_eq!(f.next_down_time(stable, 0.0), None);
        assert_eq!(f.next_up_time(stable, 123.0), Some(123.0));
    }

    #[test]
    fn flapping_clients_come_back() {
        let cfg = ClusterConfig {
            n_clients: 20,
            n_unstable: 0,
            churn: crate::churn::ChurnConfig {
                flaps: Some(crate::churn::FlapSpec {
                    fraction: 1.0,
                    mean_up: 40.0,
                    mean_down: 10.0,
                    horizon: 300.0,
                }),
                ..Default::default()
            },
            ..ClusterConfig::paper_medium(9)
        };
        let f = Fleet::new(&cfg, vec![48; 20]);
        let c = (0..20)
            .find(|&c| f.next_down_time(c, 0.0).is_some())
            .expect("everyone flaps");
        let down = f.next_down_time(c, 0.0).unwrap();
        assert!(!f.is_alive(c, down), "down at the interval start");
        let up = f.next_up_time(c, down).expect("flaps are transient");
        assert!(up > down);
        assert!(f.is_alive(c, up), "alive again at the interval end");
        assert_eq!(f.dropout_time(c), None, "a flap is not a dropout");
        // Past the horizon the client stays up forever.
        assert_eq!(f.next_down_time(c, 1e9), None);
    }

    #[test]
    fn transitions_are_sorted_and_paired() {
        let cfg = ClusterConfig {
            n_clients: 10,
            n_unstable: 2,
            churn: crate::churn::ChurnConfig {
                storms: Some(crate::churn::StormSpec {
                    count: 1,
                    cohort_fraction: 0.5,
                    duration: 25.0,
                    horizon: 100.0,
                }),
                ..Default::default()
            },
            ..ClusterConfig::paper_medium(4)
        };
        let f = Fleet::new(&cfg, vec![48; 10]);
        let tx = f.availability_transitions();
        assert!(tx.windows(2).all(|w| w[0].0 <= w[1].0), "time-sorted");
        let downs = tx.iter().filter(|t| t.2).count();
        let ups = tx.iter().filter(|t| !t.2).count();
        // 2 permanent dropouts never come back; 5 storm victims do (any
        // overlap between the two sets merges intervals, reducing counts).
        assert!(downs >= ups);
        assert!(ups >= 3);
    }

    #[test]
    fn churn_never_perturbs_the_legacy_draws() {
        let quiet = fleet(100, 10, 7);
        let mut cfg = ClusterConfig::paper_medium(7);
        cfg.churn = crate::churn::ChurnConfig::storm_heavy();
        let churned = Fleet::new(&cfg, vec![48; 100]);
        for c in 0..100 {
            // The legacy draws are unchanged: the same clients drop out
            // permanently, and never later than their legacy time (an
            // overlapping storm can only *extend* an outage backwards).
            match quiet.dropout_time(c) {
                Some(t) => {
                    let t2 = churned.dropout_time(c).expect("still unstable");
                    assert!(t2 <= t);
                    assert_eq!(churned.next_up_time(c, t), None);
                }
                None => assert_eq!(churned.dropout_time(c), None),
            }
            assert_eq!(quiet.part_of(c), churned.part_of(c));
            assert_eq!(
                quiet.response_latency(c, 3, 2),
                churned.response_latency(c, 3, 2)
            );
        }
    }

    #[test]
    fn corrupt_scenario_never_perturbs_the_legacy_draws() {
        let quiet = fleet(100, 10, 7);
        let mut cfg = ClusterConfig::paper_medium(7);
        cfg.churn = crate::churn::ChurnConfig::corrupt_light();
        let f = Fleet::new(&cfg, vec![48; 100]);
        for c in 0..100 {
            assert_eq!(quiet.dropout_time(c), f.dropout_time(c));
            assert_eq!(quiet.part_of(c), f.part_of(c));
            assert_eq!(quiet.response_latency(c, 3, 2), f.response_latency(c, 3, 2));
            assert!(!quiet.is_corrupt_capable(c), "quiet fleet has no cohort");
        }
        let capable = (0..100).filter(|&c| f.is_corrupt_capable(c)).count();
        assert_eq!(capable, 10, "fraction 0.1 of 100 clients");
    }

    #[test]
    fn corrupt_update_is_a_pure_function_of_the_dispatch() {
        let mut cfg = ClusterConfig::paper_medium(5).with_clients(20);
        cfg.n_unstable = 0;
        cfg.churn = crate::churn::ChurnConfig {
            corrupt: Some(crate::churn::CorruptSpec {
                fraction: 0.5,
                probability: 0.5,
                mode: crate::churn::CorruptMode::Noise { sigma: 0.1 },
            }),
            ..Default::default()
        };
        let f = Fleet::new(&cfg, vec![48; 20]);
        let c = (0..20).find(|&c| f.is_corrupt_capable(c)).unwrap();
        // Same (client, round) → same decision and same noise, regardless
        // of what other calls happened in between.
        let mut a = vec![1.0f32; 16];
        let r_a = f.corrupt_update(c, 3, &mut a);
        let mut scratch = vec![2.0f32; 16];
        for round in 0..10 {
            f.corrupt_update(c, round, &mut scratch);
        }
        let mut b = vec![1.0f32; 16];
        let r_b = f.corrupt_update(c, 3, &mut b);
        assert_eq!(r_a, r_b);
        assert_eq!(a, b);
        // With probability 0.5, 64 selection rounds corrupt at least once
        // and stay clean at least once.
        let hits = (0..64)
            .filter(|&r| f.corrupt_update(c, r, &mut scratch).is_some())
            .count();
        assert!(hits > 0 && hits < 64, "got {hits}/64 corruptions");
        // Non-capable clients are never touched.
        let clean = (0..20).find(|&c| !f.is_corrupt_capable(c)).unwrap();
        let mut w = vec![1.0f32; 16];
        for round in 0..64 {
            assert_eq!(f.corrupt_update(clean, round, &mut w), None);
        }
        assert_eq!(w, vec![1.0f32; 16]);
    }

    #[test]
    fn corrupt_modes_transform_the_payload() {
        let spec = |mode| crate::churn::ChurnConfig {
            corrupt: Some(crate::churn::CorruptSpec {
                fraction: 1.0,
                probability: 1.0,
                mode,
            }),
            ..Default::default()
        };
        let build = |mode| {
            let mut cfg = ClusterConfig::paper_medium(2).with_clients(4);
            cfg.n_unstable = 0;
            cfg.churn = spec(mode);
            Fleet::new(&cfg, vec![48; 4])
        };

        let f = build(crate::churn::CorruptMode::SignFlip);
        let mut w = vec![1.0f32, -2.0, 3.0];
        assert_eq!(f.corrupt_update(0, 0, &mut w), Some(1));
        assert_eq!(w, vec![-1.0, 2.0, -3.0]);

        let f = build(crate::churn::CorruptMode::Scale { factor: 10.0 });
        let mut w = vec![1.0f32, -2.0];
        assert_eq!(f.corrupt_update(1, 5, &mut w), Some(2));
        assert_eq!(w, vec![10.0, -20.0]);

        let f = build(crate::churn::CorruptMode::NanPoke);
        let mut w = vec![1.0f32; 15];
        assert_eq!(f.corrupt_update(2, 1, &mut w), Some(0));
        assert!(w.iter().any(|v| !v.is_finite()), "pokes landed");
        assert!(w.iter().any(|v| v.is_finite()), "pokes are sparse");

        let f = build(crate::churn::CorruptMode::Noise { sigma: 0.5 });
        let mut w = vec![0.0f32; 32];
        assert_eq!(f.corrupt_update(3, 2, &mut w), Some(3));
        assert!(w.iter().all(|v| v.is_finite()));
        assert!(w.iter().any(|v| *v != 0.0));
    }
}
