//! Bit-exact pins for every strategy on three scenarios — the net under any
//! change to the server state machines in `strategies/`.
//!
//! Each of the 18 cells (six [`StrategyKind`]s × scenarios A/B/C) folds the
//! *whole* observable outcome into one FNV-1a digest: final weights, every
//! field of every trace point, every fault-log row, the log's count of each
//! server-side kind, per-tier update counts, the global update count, the
//! simulator's end time, event count and stop reason, the final per-client
//! accuracies and Table 1's accuracy variance. A single moved bit anywhere —
//! a reordered RNG draw, a `Quorum` row with a different tier label, one
//! extra evaluation, a variance over `n − 1` — changes the literal.
//!
//! * **A** — default policies on a `paper_medium` cluster with permanent
//!   dropouts: the paper's own setting, fault layer and guard inert.
//! * **B** — everything the fault layer reacts to, at once: flaps,
//!   fleet-wide storms (so barrier servers park and revive), compute drift
//!   and 25 % `Scale` corruption, against tight deadlines with retries, a
//!   strict quorum, dynamic re-tiering, the finite check and norm-clip
//!   screen, trimmed-mean aggregation, a staleness bound and a 4-bit delta
//!   uplink. No quarantine.
//! * **C** — corruption against a reject-mode screen with quarantine, no
//!   deadlines.
//!
//! B and C never combine quarantine with deadlines: that combination is
//! where the deadline-retry path used to hand slots to quarantined clients
//! (`retry_never_dispatches_a_quarantined_client` in
//! `corrupt_robustness.rs`), the one behaviour allowed to move.
//!
//! A run's result depends on its config alone, so the literals hold under
//! `FEDAT_SIMD=scalar` and `FEDAT_EXEC=inline` alike. They fold in libm's
//! `exp`/`ln` through the training loss, so they are pinned to the
//! reference host's libm, like `codec_pin.rs`.

use fedat_compress::codec::CodecKind;
use fedat_core::aggregate::AggRule;
use fedat_core::config::{
    default_codec, ExperimentConfig, FaultPolicy, GuardPolicy, NormScreen, RetierPolicy,
    StrategyKind,
};
use fedat_core::Outcome;
use fedat_data::suite;
use fedat_sim::churn::{ChurnConfig, CorruptMode, CorruptSpec, DriftSpec, FlapSpec, StormSpec};
use fedat_sim::fault::FaultKind;
use fedat_sim::fleet::ClusterConfig;

const CLIENTS: usize = 20;
const SEED: u64 = 83;

#[derive(Clone, Copy, Debug)]
enum Scenario {
    A,
    B,
    C,
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100000001b3);
    }
}

/// Folds an optional index as `index + 1`, `None` as 0.
fn fnv_opt(h: &mut u64, v: Option<usize>) {
    fnv(h, &v.map_or(0u64, |x| x as u64 + 1).to_le_bytes());
}

/// The ten kinds a strategy logs, in the order the digest folds their
/// counts.
const SERVER_KINDS: [FaultKind; 10] = [
    FaultKind::Timeout,
    FaultKind::Retry,
    FaultKind::Quorum,
    FaultKind::Retier,
    FaultKind::Revive,
    FaultKind::Corrupt,
    FaultKind::Reject,
    FaultKind::Clip,
    FaultKind::Stale,
    FaultKind::Quarantine,
];

/// Everything a run reports that is independent of the execution mode
/// (`Outcome::speculation` is the one field that is not).
fn digest(out: &Outcome) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for w in &out.final_weights {
        fnv(&mut h, &w.to_bits().to_le_bytes());
    }
    for p in &out.trace.points {
        fnv(&mut h, &p.time.to_bits().to_le_bytes());
        fnv(&mut h, &p.round.to_le_bytes());
        fnv(&mut h, &p.accuracy.to_bits().to_le_bytes());
        fnv(&mut h, &p.loss.to_bits().to_le_bytes());
        fnv(&mut h, &p.up_bytes.to_le_bytes());
        fnv(&mut h, &p.down_bytes.to_le_bytes());
    }
    for e in out.faults.events() {
        fnv(&mut h, &e.time.to_bits().to_le_bytes());
        fnv(&mut h, e.kind.to_string().as_bytes());
        fnv_opt(&mut h, e.client);
        fnv_opt(&mut h, e.tier);
        fnv(&mut h, &e.detail.to_le_bytes());
    }
    for kind in SERVER_KINDS {
        fnv(&mut h, &(out.faults.count(kind) as u64).to_le_bytes());
    }
    fnv_opt(&mut h, out.tier_updates.as_ref().map(Vec::len));
    for &u in out.tier_updates.iter().flatten() {
        fnv(&mut h, &u.to_le_bytes());
    }
    fnv(&mut h, &out.global_updates.to_le_bytes());
    fnv(&mut h, &out.report.end_time.to_bits().to_le_bytes());
    fnv(&mut h, &out.report.events.to_le_bytes());
    fnv(&mut h, format!("{:?}", out.report.reason).as_bytes());
    fnv(
        &mut h,
        &(out.per_client_accuracy.len() as u64).to_le_bytes(),
    );
    for a in &out.per_client_accuracy {
        fnv(&mut h, &a.to_bits().to_le_bytes());
    }
    fnv(&mut h, &out.accuracy_variance.to_bits().to_le_bytes());
    h
}

fn scale_attack(probability: f64) -> CorruptSpec {
    CorruptSpec {
        fraction: 0.25,
        probability,
        mode: CorruptMode::Scale { factor: 5.0 },
    }
}

fn screen(clip: bool) -> NormScreen {
    NormScreen {
        alpha: 0.2,
        threshold: 2.0,
        clip,
    }
}

fn config(scenario: Scenario, strategy: StrategyKind) -> ExperimentConfig {
    let quiet = ClusterConfig::paper_medium(SEED)
        .with_clients(CLIENTS)
        .without_dropouts();
    // A FedAT update waits for one tier, not for the slowest of a cross-tier
    // cohort: give it the budget to live through as much virtual time (and
    // so as many outages and quarantine releases) as the barrier baselines.
    let rounds = |n: u64| match strategy {
        StrategyKind::FedAt => 12 * n,
        _ => n,
    };
    let base = ExperimentConfig::builder()
        .strategy(strategy)
        .clients_per_round(4)
        .local_epochs(1)
        .eval_every(4)
        .seed(SEED);
    match scenario {
        Scenario::A => {
            let mut cluster = ClusterConfig::paper_medium(SEED).with_clients(CLIENTS);
            cluster.n_unstable = 4;
            base.rounds(rounds(48))
                .cluster(cluster)
                .codec(default_codec(strategy))
                .build()
        }
        Scenario::B => {
            let churn = ChurnConfig {
                flaps: Some(FlapSpec {
                    fraction: 0.3,
                    mean_up: 250.0,
                    mean_down: 50.0,
                    horizon: 4000.0,
                }),
                // Fleet-wide: every barrier server finds nobody to select,
                // parks, and comes back on a revival timer.
                storms: Some(StormSpec {
                    count: 3,
                    cohort_fraction: 1.0,
                    duration: 90.0,
                    horizon: 900.0,
                }),
                drift: Some(DriftSpec {
                    fraction: 0.4,
                    per_round: 0.05,
                    max_factor: 4.0,
                }),
                corrupt: Some(scale_attack(0.5)),
            };
            base.rounds(rounds(120))
                .max_time(6000.0)
                .cluster(quiet.with_churn(churn))
                .codec(CodecKind::Quantized { bits: 4 })
                .fault(FaultPolicy {
                    deadline_multiplier: Some(1.05),
                    quorum: 0.9,
                    retier: Some(RetierPolicy {
                        check_every: 8,
                        drift_threshold: 0.05,
                    }),
                })
                .guard(GuardPolicy {
                    finite_check: true,
                    norm_screen: Some(screen(true)),
                    max_staleness: Some(6),
                    agg_rule: AggRule::TrimmedMean { frac: 0.25 },
                    ..GuardPolicy::default()
                })
                .build()
        }
        Scenario::C => {
            let churn = ChurnConfig {
                corrupt: Some(scale_attack(1.0)),
                ..ChurnConfig::default()
            };
            base.rounds(rounds(60))
                .cluster(quiet.with_churn(churn))
                .codec(CodecKind::None)
                .guard(GuardPolicy {
                    finite_check: true,
                    norm_screen: Some(screen(false)),
                    quarantine_after: Some(2),
                    quarantine_secs: 60.0,
                    ..GuardPolicy::default()
                })
                .build()
        }
    }
}

fn check(scenario: Scenario, strategy: StrategyKind, want: u64) {
    let task = suite::sent140_like(CLIENTS, SEED);
    let out = fedat_core::run_experiment(&task, &config(scenario, strategy));
    let n = |kind| out.faults.count(kind);
    let counts = SERVER_KINDS.map(|kind| (kind, n(kind)));
    let name = strategy.name();
    assert!(out.global_updates > 0, "{name}/{scenario:?}: no progress");
    let barrier = !matches!(strategy, StrategyKind::FedAsync | StrategyKind::AsoFed);
    match scenario {
        Scenario::A => {}
        // The scenario must keep firing every path it claims to pin.
        Scenario::B => {
            use FaultKind::*;
            assert!(n(Revive) > 0 && n(Clip) > 0, "{name}/B: {counts:?}");
            if barrier {
                let fired = n(Timeout) > 0 && n(Retry) > 0 && n(Quorum) > 0;
                assert!(fired, "{name}/B: {counts:?}");
            } else {
                assert!(n(Stale) > 0, "{name}/B: {counts:?}");
                // The wait-free contract: no deadline and no quorum, even
                // under a deadline multiplier, and a revival is a client
                // going back to work.
                let barrier_rows = n(Timeout) + n(Retry) + n(Quorum);
                assert_eq!(barrier_rows, 0, "{name}/B: {counts:?}");
                let mut revives = out.faults.events().iter().filter(|e| e.kind == Revive);
                assert!(
                    revives.all(|e| e.client.is_some()),
                    "{name}/B: a Revive row names no client"
                );
            }
            if strategy == StrategyKind::FedAt {
                assert!(n(Retier) > 0, "{name}/B: {counts:?}");
            }
        }
        Scenario::C => {
            use FaultKind::*;
            assert!(n(Reject) > 0 && n(Quarantine) > 0, "{name}/C: {counts:?}");
        }
    }
    let got = digest(&out);
    assert_eq!(
        got, want,
        "{name}/{scenario:?}: outcome moved — digest {got:#018x}, pinned {want:#018x} ({counts:?}, \
         {} updates, end {})",
        out.global_updates, out.report.end_time
    );
}

macro_rules! pins {
    ($($test:ident: $scenario:ident, $strategy:ident => $digest:literal;)*) => {
        $(#[test]
        fn $test() {
            check(Scenario::$scenario, StrategyKind::$strategy, $digest);
        })*
    };
}

pins! {
    a_fedavg: A, FedAvg => 0xd089cfd9f86ae9f5;
    a_fedprox: A, FedProx => 0xfa8b2ae4c5cb6879;
    a_tifl: A, TiFL => 0x487a115ee89cb2d5;
    a_fedasync: A, FedAsync => 0x6fd4ac3e8b929e37;
    a_asofed: A, AsoFed => 0x96dcccc75e3b9942;
    a_fedat: A, FedAt => 0x008bbccadefb8621;
    b_fedavg: B, FedAvg => 0x5ddc7dc4bfa8e01d;
    b_fedprox: B, FedProx => 0x677ec239085c7e61;
    b_tifl: B, TiFL => 0xc2386ffc9c222c01;
    b_fedasync: B, FedAsync => 0x0746750d121392ce;
    b_asofed: B, AsoFed => 0xd1d647616b95e9cd;
    b_fedat: B, FedAt => 0x9c1ef031edae40a2;
    c_fedavg: C, FedAvg => 0x1c9eedc84013070c;
    c_fedprox: C, FedProx => 0x80442557928c65cd;
    c_tifl: C, TiFL => 0x1bf24d12844706e9;
    c_fedasync: C, FedAsync => 0x9fd33d6fc5103c5c;
    c_asofed: C, AsoFed => 0x440172f7c775c468;
    c_fedat: C, FedAt => 0xa4eec388fb0d4713;
}
