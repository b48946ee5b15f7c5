//! Property-based tests for aggregation and tiering invariants.

use fedat_core::aggregate::{
    aggregate_tiers_into, cross_tier_weights, uniform_tier_weights, weighted_client_average_into,
};
use fedat_core::tiering::TierAssignment;
use fedat_sim::fleet::{ClusterConfig, Fleet};
use proptest::prelude::*;

proptest! {
    #[test]
    fn cross_tier_weights_form_distribution(counts in prop::collection::vec(0u64..1000, 1..10)) {
        let w = cross_tier_weights(&counts);
        prop_assert_eq!(w.len(), counts.len());
        let s: f32 = w.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-4, "weights sum to {}", s);
        prop_assert!(w.iter().all(|&v| (0.0..=1.0 + 1e-6).contains(&v)));
    }

    #[test]
    fn cross_tier_weights_are_reversed_counts(counts in prop::collection::vec(1u64..1000, 2..8)) {
        let w = cross_tier_weights(&counts);
        let total: u64 = counts.iter().sum();
        let m = counts.len();
        for i in 0..m {
            let expect = counts[m - 1 - i] as f32 / total as f32;
            prop_assert!((w[i] - expect).abs() < 1e-5);
        }
    }

    #[test]
    fn mistier_never_empties_or_loses_clients(
        n in 2usize..60,
        m_frac in 0.0f64..1.0,
        fraction in 0.0f64..1.0,
        seed in 0u64..1000
    ) {
        // The "never empties a tier" contract of `TierAssignment::mistier`,
        // swept over cohort size, tier count and mis-tiering fraction
        // (the unit test only pins n=10/m=5). An empty tier would deadlock
        // that tier's round loop in FedAT and TiFL.
        let m = 2 + ((n - 2) as f64 * m_frac) as usize; // 2..=n
        let cfg = ClusterConfig::paper_medium(seed).with_clients(n).without_dropouts();
        let fleet = Fleet::new(&cfg, vec![48; n]);
        let mut tiers = TierAssignment::profile(&fleet, m, 3);
        tiers.mistier(fraction, seed ^ 0x9E37);
        prop_assert_eq!(tiers.num_clients(), n, "mis-tiering lost clients");
        for t in 0..m {
            prop_assert!(
                !tiers.tier(t).is_empty(),
                "tier {}/{} emptied at n={} fraction={}",
                t, m, n, fraction
            );
        }
    }

    #[test]
    fn client_average_is_convex(dim in 1usize..32, k in 1usize..8, seed in 0u64..100) {
        // The weighted average must lie inside the coordinate-wise hull.
        use fedat_tensor::rng::rng_for;
        use rand::RngExt;
        let mut rng = rng_for(seed, 1);
        let updates: Vec<(Vec<f32>, usize)> = (0..k)
            .map(|_| {
                let w: Vec<f32> = (0..dim).map(|_| rng.random::<f32>() * 4.0 - 2.0).collect();
                (w, 1 + rng.random_range(0usize..50))
            })
            .collect();
        let refs: Vec<(&[f32], usize)> = updates.iter().map(|(w, n)| (w.as_slice(), *n)).collect();
        let mut avg = Vec::new();
        weighted_client_average_into(&refs, &mut avg);
        for d in 0..dim {
            let lo = updates.iter().map(|(w, _)| w[d]).fold(f32::INFINITY, f32::min);
            let hi = updates.iter().map(|(w, _)| w[d]).fold(f32::NEG_INFINITY, f32::max);
            prop_assert!(avg[d] >= lo - 1e-4 && avg[d] <= hi + 1e-4);
        }
    }

    #[test]
    fn tier_aggregation_with_uniform_weights_is_mean(tiers in 1usize..6, dim in 1usize..16) {
        let models: Vec<Vec<f32>> = (0..tiers)
            .map(|t| vec![t as f32; dim])
            .collect();
        let mut g = Vec::new();
        aggregate_tiers_into(&models, &uniform_tier_weights(tiers), &mut g);
        let mean = (0..tiers).map(|t| t as f32).sum::<f32>() / tiers as f32;
        for v in g {
            prop_assert!((v - mean).abs() < 1e-5);
        }
    }

    #[test]
    fn tiering_partitions_exactly(n in 5usize..120, m in 1usize..6, seed in 0u64..50) {
        prop_assume!(m <= n);
        let cfg = ClusterConfig::paper_medium(seed).with_clients(n).without_dropouts();
        let fleet = Fleet::new(&cfg, vec![20; n]);
        let t = TierAssignment::profile(&fleet, m, 3);
        prop_assert_eq!(t.num_tiers(), m);
        prop_assert_eq!(t.num_clients(), n);
        let mut all: Vec<usize> = (0..m).flat_map(|i| t.tier(i).to_vec()).collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        // Sizes differ by at most one.
        let sizes = t.tier_sizes();
        let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(hi - lo <= 1);
    }

    #[test]
    fn mistiering_preserves_population(n in 10usize..80, frac in 0.0f64..1.0, seed in 0u64..50) {
        let cfg = ClusterConfig::paper_medium(seed).with_clients(n).without_dropouts();
        let fleet = Fleet::new(&cfg, vec![20; n]);
        let mut t = TierAssignment::profile(&fleet, 5.min(n), 3);
        t.mistier(frac, seed);
        prop_assert_eq!(t.num_clients(), n, "clients lost or duplicated");
        for i in 0..t.num_tiers() {
            prop_assert!(!t.tier(i).is_empty(), "tier {} emptied", i);
        }
    }
}

#[test]
fn fedat_equals_fedavg_in_degenerate_setting() {
    // Paper §4.1: "with λ = 0, and all clients share the same latency, we
    // get one tier and FedAT becomes FedAvg." With a single tier, identical
    // delays, *equal client sizes* (so the latency-sorted tier order matches
    // FedAvg's id order and both sample the same clients), no dropouts and
    // λ=0, both methods perform bit-identical synchronous rounds.
    use fedat_compress::codec::CodecKind;
    use fedat_core::prelude::*;
    use fedat_data::federated::FederatedDataset;
    use fedat_data::partition::Partitioner;
    use fedat_data::suite::FedTask;
    use fedat_data::synth::{synth_features, FeatureSynthSpec};
    use fedat_nn::models::ModelSpec;
    use fedat_sim::latency::DelayPart;
    use fedat_tensor::rng::rng_for;

    // 12 clients × exactly 40 samples each.
    let spec = FeatureSynthSpec {
        features: 8,
        classes: 2,
        separation: 0.4,
        noise: 1.0,
    };
    let pool = synth_features(&mut rng_for(55, 1), &spec, 480);
    let parts = Partitioner::Iid.partition(&pool, 12, &mut rng_for(55, 2));
    let task = FedTask {
        name: "equal-sized".into(),
        fed: FederatedDataset::from_partitions(parts, 55),
        model: ModelSpec::Logistic {
            input: 8,
            classes: 2,
        },
        target_accuracy: 0.6,
    };
    let mut cluster = ClusterConfig::paper_medium(55)
        .with_clients(12)
        .without_dropouts();
    cluster.delay_parts = vec![DelayPart { lo: 0.0, hi: 0.0 }];
    cluster.part_sizes = Some(vec![12]);
    let cfg = |strategy| {
        ExperimentConfig::builder()
            .strategy(strategy)
            .rounds(12)
            .clients_per_round(4)
            .local_epochs(1)
            .lambda(0.0)
            .num_tiers(1)
            .codec(CodecKind::None)
            .eval_every(1)
            .seed(55)
            .cluster(cluster.clone())
            .build()
    };
    let avg = fedat_core::run_experiment(&task, &cfg(StrategyKind::FedAvg));
    let fat = fedat_core::run_experiment(&task, &cfg(StrategyKind::FedAt));
    assert_eq!(
        avg.final_weights, fat.final_weights,
        "one-tier λ=0 FedAT must reduce to FedAvg exactly"
    );
    assert_eq!(avg.trace.points.len(), fat.trace.points.len());
    for (a, b) in avg.trace.points.iter().zip(fat.trace.points.iter()) {
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.up_bytes, b.up_bytes);
    }
}
