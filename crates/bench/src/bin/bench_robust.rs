//! Robustness benchmark: corrupted client updates vs the deterministic
//! guard layer and the robust aggregation rules.
//!
//! One FedAvg scenario — a 24-client sentiment federation where a fraction
//! of clients uplink additive-noise garbage on every selection — is run at
//! 0/10/20/30% corrupt clients under four server postures:
//!
//! * **undefended** — the legacy server: weighted mean, no screening.
//! * **clip** — per-update finite check + L2-norm screen against a
//!   deterministic EWMA of accepted norms, clipping over-limit updates
//!   down to the threshold.
//! * **trimmed** — finite check + coordinate-wise trimmed mean (drop the
//!   top and bottom 25% of client values per coordinate).
//! * **median** — finite check + coordinate-wise median.
//!
//! Written to `BENCH_robust.json`: the accuracy-vs-corrupt-fraction curve
//! per posture plus the guard/fault counters. The run asserts the ISSUE
//! acceptance criteria: the undefended server collapses (or goes
//! non-finite) at ≥20% corrupt clients while every defended posture stays
//! within 2% of the clean baseline, and a guard-on corruption-active run
//! is bit-identical across ExecMode × SimdKernel × kernel-pool worker
//! counts {1, 2, 4, 8}.
//!
//! ```text
//! cargo run --release -p fedat-bench --bin bench_robust -- \
//!     [--out FILE] [--seed N] [--clients N] [--rounds N] [--threads N] [--no-sweep]
//! ```
//!
//! See `docs/ROBUSTNESS.md` ("Corrupted updates") for the threat model and
//! how to read the output.

use fedat_core::aggregate::AggRule;
use fedat_core::config::{ExperimentConfig, GuardPolicy, NormScreen, StrategyKind};
use fedat_core::exec::ExecMode;
use fedat_core::run_experiment_shared;
use fedat_data::suite::{self, FedTask};
use fedat_sim::churn::{ChurnConfig, CorruptMode, CorruptSpec};
use fedat_sim::fault::FaultKind;
use fedat_sim::fleet::ClusterConfig;
use fedat_tensor::pool;
use fedat_tensor::simd::SimdKernel;
use std::sync::Arc;

/// The corrupt fractions of the curve (share of clients that mangle every
/// uplink).
const FRACTIONS: [f64; 4] = [0.0, 0.1, 0.2, 0.3];

/// The attack: a corrupt-capable client uplinks its trained weights scaled
/// 5× on 60% of its selections — a magnitude attack that preserves the
/// update's direction but inflates every aggregate it reaches, compounding
/// round over round until the undefended model saturates and freezes.
fn attack(fraction: f64) -> Option<CorruptSpec> {
    if fraction == 0.0 {
        return None;
    }
    Some(CorruptSpec {
        fraction,
        probability: 0.5,
        mode: CorruptMode::Scale { factor: 5.0 },
    })
}

fn guard(posture: &str) -> GuardPolicy {
    match posture {
        "undefended" => GuardPolicy::default(),
        "clip" => GuardPolicy {
            finite_check: true,
            norm_screen: Some(NormScreen {
                alpha: 0.2,
                threshold: 2.0,
                clip: true,
            }),
            ..GuardPolicy::default()
        },
        "trimmed" => GuardPolicy {
            finite_check: true,
            agg_rule: AggRule::TrimmedMean { frac: 0.45 },
            ..GuardPolicy::default()
        },
        "median" => GuardPolicy {
            finite_check: true,
            agg_rule: AggRule::CoordinateMedian,
            ..GuardPolicy::default()
        },
        other => panic!("unknown posture {other}"),
    }
}

fn cfg(posture: &str, fraction: f64, rounds: u64, seed: u64, clients: usize) -> ExperimentConfig {
    let churn = ChurnConfig {
        corrupt: attack(fraction),
        ..ChurnConfig::default()
    };
    let cluster = ClusterConfig::paper_medium(seed)
        .with_clients(clients)
        .without_dropouts()
        .with_churn(churn);
    ExperimentConfig::builder()
        .strategy(StrategyKind::FedAvg)
        .rounds(rounds)
        // A 12-wide cohort keeps the per-round corrupt count concentrated
        // near its mean: with 30% corrupt clients firing half the time,
        // rounds that breach the order statistics' 6-of-12 breakdown point
        // are ~0.02% instead of the ~2% an 8-wide cohort sees.
        .clients_per_round(12)
        .local_epochs(1)
        .eval_every(5)
        .max_time(6_000.0)
        .seed(seed)
        .cluster(cluster)
        .guard(guard(posture))
        .build()
}

struct Cell {
    posture: &'static str,
    fraction: f64,
    outcome: fedat_core::Outcome,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_robust.json");
    let mut seed = 41u64;
    let mut clients = 24usize;
    let mut rounds = 200u64;
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

    eprintln!("[bench_robust] building the {clients}-client sentiment task ...");
    let task: Arc<FedTask> = Arc::new(suite::sent140_like(clients, seed));
    pool::ensure_workers(threads.max(1));

    const POSTURES: [&str; 4] = ["undefended", "clip", "trimmed", "median"];
    let mut cells: Vec<Cell> = Vec::new();
    for &fraction in &FRACTIONS {
        for posture in POSTURES {
            // The clean column is identical across postures except for the
            // aggregation rule; run it per posture anyway — it doubles as
            // the inert-guard sanity row for each rule.
            eprintln!(
                "[bench_robust] {posture} @ {:.0}% corrupt ...",
                fraction * 100.0
            );
            let c = cfg(posture, fraction, rounds, seed, clients);
            let outcome = run_experiment_shared(&task, &c);
            cells.push(Cell {
                posture,
                fraction,
                outcome,
            });
        }
    }

    let clean_best = cells
        .iter()
        .find(|c| c.posture == "undefended" && c.fraction == 0.0)
        .expect("clean baseline ran")
        .outcome
        .best_accuracy();

    // Write the artifact before asserting acceptance, so a failed criterion
    // in CI still leaves the numbers behind.
    let mut rows = String::new();
    for (i, c) in cells.iter().enumerate() {
        let fc = c.outcome.fault_counters;
        let finite = c.outcome.final_weights.iter().all(|w| w.is_finite());
        rows.push_str(&format!(
            "    {{ \"posture\": \"{}\", \"corrupt_fraction\": {:.2}, \"best_accuracy\": {:.4}, \"final_finite\": {}, \"global_updates\": {}, \"corrupt\": {}, \"rejects\": {}, \"clips\": {}, \"quarantines\": {}, \"fault_rows\": {} }}{}\n",
            c.posture,
            c.fraction,
            c.outcome.best_accuracy(),
            finite,
            c.outcome.global_updates,
            fc.corrupt,
            fc.rejects,
            fc.clips,
            fc.quarantines,
            c.outcome.faults.events().len(),
            if i + 1 < cells.len() { "," } else { "" },
        ));
    }
    let json = format!(
        "{{\n  \"bench\": \"robust\",\n  \"seed\": {seed},\n  \"clients\": {clients},\n  \"rounds\": {rounds},\n  \"clean_baseline\": {clean_best:.4},\n  \"attack\": \"scale-by-5, probability 0.5 per selection\",\n  \"determinism_sweep\": {},\n  \"cells\": [\n{rows}  ]\n}}\n",
        if sweep {
            "\"ExecMode x SimdKernel x workers {1,2,4,8}: asserted bit-identical\""
        } else {
            "\"skipped (--no-sweep)\""
        },
    );
    std::fs::write(&out_path, &json).expect("writing benchmark record");
    println!("{json}");
    eprintln!("[bench_robust] wrote {out_path}");

    let cell = |posture: &str, fraction: f64| -> &Cell {
        cells
            .iter()
            .find(|c| c.posture == posture && c.fraction == fraction)
            .expect("cell ran")
    };

    // Acceptance (a): the undefended server collapses at >=20% corrupt
    // clients — accuracy well below the clean baseline, or a non-finite
    // model — while every defended posture stays within 2% of clean.
    for fraction in [0.2, 0.3] {
        let u = cell("undefended", fraction);
        let finite = u.outcome.final_weights.iter().all(|w| w.is_finite());
        let collapsed = !finite || u.outcome.best_accuracy() < clean_best - 0.05;
        assert!(
            collapsed,
            "undefended @ {fraction}: expected collapse, got best {:.3} vs clean {clean_best:.3}",
            u.outcome.best_accuracy()
        );
        for posture in ["clip", "trimmed", "median"] {
            let d = cell(posture, fraction);
            assert!(
                d.outcome.final_weights.iter().all(|w| w.is_finite()),
                "{posture} @ {fraction}: non-finite final model"
            );
            assert!(
                d.outcome.best_accuracy() >= clean_best - 0.02,
                "{posture} @ {fraction}: best {:.3} fell more than 2% below clean {clean_best:.3}",
                d.outcome.best_accuracy()
            );
        }
    }
    // The observability surfaces must actually see the attack: ground-truth
    // corrupt events land in the log, and the clip posture clips.
    for fraction in [0.1, 0.2, 0.3] {
        let c = cell("clip", fraction);
        assert!(
            c.outcome.fault_counters.corrupt > 0,
            "clip @ {fraction}: no corrupt event recorded"
        );
        assert!(
            c.outcome.faults.count(FaultKind::Corrupt) > 0,
            "clip @ {fraction}: FaultKind::Corrupt missing from the log"
        );
        assert!(
            c.outcome.fault_counters.clips > 0,
            "clip @ {fraction}: the norm screen never clipped"
        );
    }

    // Acceptance (b): determinism sweep — guard on, corruption active —
    // must be bit-identical across execution mode, SIMD kernel, and
    // kernel-pool width.
    if sweep {
        eprintln!("[bench_robust] determinism sweep: ExecMode x SimdKernel x workers ...");
        pool::ensure_workers(8);
        let baseline = cell("clip", 0.3);
        let mut c = cfg("clip", 0.3, rounds, seed, clients);
        for mode in [ExecMode::Speculative, ExecMode::Inline] {
            for kernel in [SimdKernel::Auto, SimdKernel::Scalar] {
                for workers in [1usize, 2, 4, 8] {
                    c.exec.mode = Some(mode);
                    c.exec.simd = Some(kernel);
                    c.exec.max_pool_jobs = Some(workers - 1);
                    let out = run_experiment_shared(&task, &c);
                    assert_eq!(
                        out.final_weights, baseline.outcome.final_weights,
                        "weights diverged under {mode:?}/{kernel:?}/{workers} workers"
                    );
                    assert_eq!(
                        out.fault_counters, baseline.outcome.fault_counters,
                        "fault counters diverged under {mode:?}/{kernel:?}/{workers} workers"
                    );
                }
            }
        }
        eprintln!("[bench_robust] sweep ok: 16/16 bit-identical");
    }
    eprintln!("[bench_robust] all acceptance criteria hold");
}
