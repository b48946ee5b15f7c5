//! Identities between methods: where the paper's definitions make two
//! methods the same algorithm, the two runs must agree bit for bit.
//!
//! Checked on the whole outcome (`first_difference`):
//!
//! * FedProx with λ = 0 and `E` = 1 is FedAvg: the proximal term vanishes
//!   and the capability-dependent epoch count bottoms out at 1 for every
//!   device — with and without dropouts, under storm churn, and under
//!   storm churn with deadlines and retries firing.
//! * FedAT with one tier, λ = 0 and one shared latency is FedAvg (paper
//!   §4.1).

mod common;

use common::first_difference;
use fedat_core::config::{ExperimentConfig, FaultPolicy, StrategyKind};
use fedat_data::suite;
use fedat_sim::churn::ChurnConfig;
use fedat_sim::fault::FaultKind;
use fedat_sim::fleet::ClusterConfig;

const CLIENTS: usize = 20;
const SEED: u64 = 83;

#[test]
fn fedprox_without_prox_term_at_one_epoch_is_fedavg() {
    let task = suite::sent140_like(CLIENTS, SEED);
    let medium = ClusterConfig::paper_medium(SEED).with_clients(CLIENTS);
    let storm = medium.clone().with_churn(ChurnConfig::storm_heavy());
    let deadlines = FaultPolicy {
        deadline_multiplier: Some(1.05),
        ..FaultPolicy::default()
    };
    let rows = [
        ("dropouts", medium.clone(), FaultPolicy::default()),
        (
            "no dropouts",
            medium.without_dropouts(),
            FaultPolicy::default(),
        ),
        ("storm", storm.clone(), FaultPolicy::default()),
        ("storm + deadlines", storm, deadlines),
    ];
    for (row, cluster, fault) in rows {
        let run = |strategy| {
            let cfg = ExperimentConfig::builder()
                .strategy(strategy)
                .rounds(24)
                .clients_per_round(4)
                .local_epochs(1)
                .lambda(0.0)
                .seed(SEED)
                .cluster(cluster.clone())
                .fault(fault)
                .build();
            fedat_core::run_experiment(&task, &cfg)
        };
        let (avg, prox) = (run(StrategyKind::FedAvg), run(StrategyKind::FedProx));
        let diff = first_difference(&prox, &avg);
        assert_eq!(diff, None, "{row}: FedProx left FedAvg");
        if fault.deadline_multiplier.is_some() {
            let timeouts = avg.faults.count(FaultKind::Timeout);
            assert!(timeouts > 0, "{row}: no deadline fired");
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
    let mut fat = fedat_core::run_experiment(&task, &cfg(StrategyKind::FedAt));
    // FedAT counts its one tier's updates; FedAvg has no tiers to count.
    assert_eq!(fat.tier_updates.take(), Some(vec![12]));
    let diff = first_difference(&fat, &avg);
    assert_eq!(diff, None, "one-tier λ = 0 FedAT left FedAvg");
}
