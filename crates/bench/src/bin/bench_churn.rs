//! Robustness benchmark: FedAT under availability churn (flaps + correlated
//! storms) and compute drift, with and without the server-side fault layer.
//!
//! Three FedAT variants share one drift+storm scenario:
//!
//! * **static** — the legacy server: one-shot latency profile, no
//!   deadlines. Drifted stragglers stay in fast tiers and every round they
//!   are picked for runs at straggler speed.
//! * **timeouts** — per-dispatch deadlines with bounded re-dispatch and
//!   quorum degradation, but the initial tier assignment is kept.
//! * **dynamic** — timeouts plus EWMA-driven re-tiering: drifted clients
//!   migrate to slower tiers, so the fast tiers recover their cadence.
//!
//! Reported per variant: time-to-target-accuracy, best accuracy, global
//! updates, per-tier update counts and the fault counters — written to
//! `BENCH_churn.json`. The run asserts the ISSUE acceptance criteria:
//! the fault-tolerant variants stall no tier and actually exercise the
//! timeout/retry path, dynamic re-tiering adopts at least one migration
//! and does not lose time-to-accuracy versus the static server, and the
//! dynamic run is bit-identical across ExecMode × SimdKernel × kernel-pool
//! worker counts {1, 2, 4, 8}.
//!
//! ```text
//! cargo run --release -p fedat-bench --bin bench_churn -- \
//!     [--out FILE] [--seed N] [--clients N] [--rounds N] [--threads N] [--no-sweep]
//! ```
//!
//! See `docs/ROBUSTNESS.md` for the fault model and how to read the output.

use fedat_core::config::{ExperimentConfig, FaultPolicy, RetierPolicy, StrategyKind};
use fedat_core::exec::ExecMode;
use fedat_core::run_experiment_shared;
use fedat_data::suite::{self, FedTask};
use fedat_sim::churn::{ChurnConfig, DriftSpec, FlapSpec, StormSpec};
use fedat_sim::fault::FaultKind;
use fedat_sim::fleet::ClusterConfig;
use fedat_tensor::pool;
use fedat_tensor::simd::SimdKernel;
use std::sync::Arc;

/// The benchmark scenario: light flapping, two ~30% correlated storms, and
/// compute drift on half the fleet (up to 10× slower), on top of the
/// paper-medium latency parts.
fn churn_scenario() -> ChurnConfig {
    ChurnConfig {
        flaps: Some(FlapSpec {
            fraction: 0.25,
            mean_up: 300.0,
            mean_down: 60.0,
            horizon: 4000.0,
        }),
        storms: Some(StormSpec {
            count: 2,
            cohort_fraction: 0.3,
            duration: 150.0,
            horizon: 1500.0,
        }),
        // Severe drift: half the fleet degrades 30% per selection round, up
        // to 10× — a drifted fast-tier client ends up slower than the
        // slowest injected-delay part, so a static tier assignment pins the
        // fast tier's cadence to its worst straggler.
        drift: Some(DriftSpec {
            fraction: 0.5,
            per_round: 0.3,
            max_factor: 10.0,
        }),
        ..ChurnConfig::default()
    }
}

fn cfg(variant: &str, rounds: u64, seed: u64, clients: usize) -> ExperimentConfig {
    let cluster = ClusterConfig::paper_medium(seed)
        .with_clients(clients)
        .without_dropouts()
        .with_churn(churn_scenario());
    let fault = match variant {
        "static" => FaultPolicy::default(),
        "timeouts" => FaultPolicy {
            deadline_multiplier: Some(3.0),
            max_retries: 2,
            backoff: 1.5,
            quorum: 0.9,
            retier: None,
        },
        "dynamic" => FaultPolicy {
            deadline_multiplier: Some(3.0),
            max_retries: 2,
            backoff: 1.5,
            quorum: 0.9,
            retier: Some(RetierPolicy {
                alpha: 0.3,
                check_every: 10,
                drift_threshold: 0.05,
            }),
        },
        other => panic!("unknown variant {other}"),
    };
    ExperimentConfig::builder()
        .strategy(StrategyKind::FedAt)
        .rounds(rounds)
        .clients_per_round(3)
        .local_epochs(1)
        .eval_every(10)
        .max_time(8_000.0)
        .seed(seed)
        .cluster(cluster)
        .fault(fault)
        .build()
}

struct VariantResult {
    name: &'static str,
    outcome: fedat_core::Outcome,
    tta: Option<f64>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_churn.json");
    let mut seed = 37u64;
    let mut clients = 30usize;
    // Generous round budget: the shared `max_time` horizon is the binding
    // stopping rule (the paper's methodology), so a faster server cadence
    // earns proportionally more global updates.
    let mut rounds = 20_000u64;
    let mut threads = 4usize;
    let mut sweep = true;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args[i].clone();
            }
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("--seed takes an integer");
            }
            "--clients" => {
                i += 1;
                clients = args[i].parse().expect("--clients takes an integer");
            }
            "--rounds" => {
                i += 1;
                rounds = args[i].parse().expect("--rounds takes an integer");
            }
            "--threads" => {
                i += 1;
                threads = args[i].parse().expect("--threads takes an integer");
            }
            "--no-sweep" => sweep = false,
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    eprintln!("[bench_churn] building the {clients}-client sentiment task ...");
    let task: Arc<FedTask> = Arc::new(suite::sent140_like(clients, seed));
    let target = task.target_accuracy;
    pool::ensure_workers(threads.max(1));

    let run_variant = |name: &'static str| -> VariantResult {
        eprintln!("[bench_churn] running FedAT/{name} under drift + storms ...");
        let c = cfg(name, rounds, seed, clients);
        let outcome = run_experiment_shared(&task, &c);
        let tta = outcome.trace.time_to_accuracy(target);
        VariantResult { name, outcome, tta }
    };

    let results = [
        run_variant("static"),
        run_variant("timeouts"),
        run_variant("dynamic"),
    ];
    let [ref stat, ref tmo, ref dynr] = results;
    let horizon = 8_000.0f64;

    // Write the artifact before asserting acceptance, so a failed criterion
    // in CI still leaves the numbers behind.
    let fmt_tta = |t: Option<f64>| {
        t.map(|t| format!("{t:.1}"))
            .unwrap_or_else(|| "null".into())
    };
    let mut rows = String::new();
    for (i, r) in results.iter().enumerate() {
        let fc = r.outcome.fault_counters;
        let tiers = r
            .outcome
            .tier_updates
            .as_ref()
            .map(|t| {
                t.iter()
                    .map(|u| u.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            })
            .unwrap_or_default();
        rows.push_str(&format!(
            "    {{ \"variant\": \"{}\", \"best_accuracy\": {:.4}, \"time_to_target\": {}, \"global_updates\": {}, \"tier_updates\": [{}], \"timeouts\": {}, \"retries\": {}, \"quorum_rounds\": {}, \"retier_events\": {}, \"fault_rows\": {} }}{}\n",
            r.name,
            r.outcome.best_accuracy(),
            fmt_tta(r.tta),
            r.outcome.global_updates,
            tiers,
            fc.timeouts,
            fc.retries,
            fc.quorum_rounds,
            fc.retier_events,
            r.outcome.faults.events().len(),
            if i + 1 < results.len() { "," } else { "" },
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"churn\",\n  \"seed\": {seed},\n  \"clients\": {clients},\n  \"rounds\": {rounds},\n  \"target_accuracy\": {target:.2},\n  \"horizon\": {horizon:.1},\n  \"scenario\": \"25% flapping (up~300s/down~60s), 2 storms of 30% for 150s, 50% compute drift to 10x\",\n  \"determinism_sweep\": {},\n  \"variants\": [\n{rows}  ]\n}}\n",
        if sweep {
            "\"ExecMode x SimdKernel x workers {1,2,4,8}: asserted bit-identical\""
        } else {
            "\"skipped (--no-sweep)\""
        },
    );
    std::fs::write(&out_path, &json).expect("writing benchmark record");
    println!("{json}");
    println!(
        "time-to-{target:.2}: static {} vs timeouts {} vs dynamic {}",
        fmt_tta(stat.tta),
        fmt_tta(tmo.tta),
        fmt_tta(dynr.tta)
    );
    eprintln!("[bench_churn] wrote {out_path}");

    // Acceptance: the fault-tolerant servers ride out the scenario with no
    // stalled tier and genuinely exercise the timeout/re-dispatch path.
    for r in [tmo, dynr] {
        let fc = r.outcome.fault_counters;
        assert!(fc.timeouts > 0, "{}: no deadline fired ({fc:?})", r.name);
        assert!(
            fc.retries > 0,
            "{}: no re-dispatch happened ({fc:?})",
            r.name
        );
        let tiers = r
            .outcome
            .tier_updates
            .as_ref()
            .expect("FedAT reports tier updates");
        for (t, &u) in tiers.iter().enumerate() {
            assert!(u > 0, "{}: tier {t} stalled ({tiers:?})", r.name);
        }
        for kind in [FaultKind::Down, FaultKind::Timeout, FaultKind::Retry] {
            assert!(
                r.outcome.faults.count(kind) > 0,
                "{}: fault kind {kind} missing from the log",
                r.name
            );
        }
    }
    assert!(
        dynr.outcome.fault_counters.retier_events > 0,
        "dynamic re-tiering never adopted a migration: {:?}",
        dynr.outcome.fault_counters
    );
    // Time-to-accuracy: dynamic must not lose to the static server (an
    // unreached target counts as the full horizon).
    let stat_tta = stat.tta.unwrap_or(horizon);
    let dyn_tta = dynr.tta.unwrap_or(horizon);
    assert!(
        dyn_tta <= stat_tta,
        "dynamic re-tiering lost time-to-accuracy: {dyn_tta:.1}s vs static {stat_tta:.1}s"
    );

    // Determinism sweep: the dynamic variant — the one exercising every
    // fault path — must be bit-identical across execution mode, SIMD
    // kernel, and kernel-pool width.
    if sweep {
        eprintln!("[bench_churn] determinism sweep: ExecMode x SimdKernel x workers ...");
        pool::ensure_workers(8);
        let mut c = cfg("dynamic", rounds, seed, clients);
        for mode in [ExecMode::Speculative, ExecMode::Inline] {
            for kernel in [SimdKernel::Auto, SimdKernel::Scalar] {
                for workers in [1usize, 2, 4, 8] {
                    c.exec.mode = Some(mode);
                    c.exec.simd = Some(kernel);
                    c.exec.max_pool_jobs = Some(workers - 1);
                    let out = run_experiment_shared(&task, &c);
                    assert_eq!(
                        out.final_weights, dynr.outcome.final_weights,
                        "weights diverged under {mode:?}/{kernel:?}/{workers} workers"
                    );
                    assert_eq!(
                        out.fault_counters, dynr.outcome.fault_counters,
                        "fault counters diverged under {mode:?}/{kernel:?}/{workers} workers"
                    );
                }
            }
        }
        eprintln!("[bench_churn] sweep ok: 16/16 bit-identical");
    }
    eprintln!("[bench_churn] all acceptance criteria hold");
}
