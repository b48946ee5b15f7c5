//! Identities between methods: where the paper's definitions make two
//! methods the same algorithm, the two runs must agree bit for bit.
//!
//! FedProx with λ = 0 and `E` = 1 is FedAvg: the proximal term vanishes and
//! the capability-dependent epoch count bottoms out at 1 for every device.
//! Checked on the whole outcome (`first_difference`), with and without
//! dropouts, under storm churn, and under storm churn with deadlines and
//! retries firing.

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
