//! Wall-clock benchmark of the federated-round hot path.
//!
//! Runs a quick-scale experiment per strategy under library-default
//! execution and records rounds/sec in `BENCH_fl_round.json`. Every timed
//! repeat is asserted bit-identical to the warm-up run.
//!
//! `--threads-sweep` additionally measures the speculative executor's
//! client-level scaling on the 500-client cohort: FedAT rounds/sec at
//! {1, 2, 4, 8} workers (speculative) against the 1-worker inline
//! baseline, with bit-identity asserted on every timed run. Inner kernels
//! run serially during the sweep so whole-client task parallelism is the
//! only lever measured.
//!
//! ```text
//! cargo run --release -p fedat-bench --bin bench_fl_round -- \
//!     [--out FILE] [--seed N] [--threads-sweep] [--leaf-dir DIR]
//! ```
//!
//! `--leaf-dir` swaps the synthetic CNN task for a LEAF-format directory
//! (FEMNIST featurizer) loaded from disk, so the round hot path can be
//! measured on real natural-partition corpora.
//!
//! See `docs/PERF.md` for how to read the output.

use fedat_bench::experiments::large_cohort_task;
use fedat_core::config::ExecOverrides;
use fedat_core::exec::ExecMode;
use fedat_core::{run_experiment_shared, ExperimentConfig, StrategyKind};
use fedat_data::leaf::LeafBenchmark;
use fedat_data::suite::{self, FedTask};
use fedat_sim::fleet::ClusterConfig;
use fedat_tensor::pool;
use std::sync::Arc;
use std::time::Instant;

struct Sample {
    strategy: &'static str,
    rounds: u64,
    secs: f64,
}

impl Sample {
    fn rounds_per_sec(&self) -> f64 {
        self.rounds as f64 / self.secs.max(1e-9)
    }
}

fn quick_cfg(strategy: StrategyKind, seed: u64, n_clients: usize) -> ExperimentConfig {
    let rounds = match strategy {
        // FedAT tier rounds are ~5× cheaper than full synchronous rounds;
        // equalize total local work instead of round counts.
        StrategyKind::FedAt => 50,
        _ => 10,
    };
    ExperimentConfig::builder()
        .strategy(strategy)
        .rounds(rounds)
        .clients_per_round(5)
        .local_epochs(1)
        // The benchmark measures the *round* hot path; keep the (mode-
        // independent) evaluation cadence out of the measurement.
        .eval_every(10_000)
        .eval_subset(64)
        .seed(seed)
        .cluster(
            ClusterConfig::paper_medium(seed)
                .with_clients(n_clients)
                .without_dropouts(),
        )
        .build()
}

fn timed_run(task: &Arc<FedTask>, cfg: &ExperimentConfig) -> (f64, u64, Vec<f32>) {
    let started = Instant::now();
    // Shared entry: the task (possibly a multi-MB --leaf-dir corpus) must
    // not be cloned inside the timed window.
    let out = run_experiment_shared(task, cfg);
    // Speculative jobs abandoned at the rounds cutoff (dispatched clients
    // whose completions never fired) are part of this run's cost and must
    // not bleed into the next measurement: drain them inside the timing.
    pool::quiesce();
    (
        started.elapsed().as_secs_f64(),
        out.global_updates,
        out.final_weights,
    )
}

/// Timed repeats per mode; the minimum is reported (noise-robust, like
/// criterion's best-estimate for short benches).
const REPEATS: usize = 3;

/// Best-of-[`REPEATS`] wall time of `cfg`, asserting every repeat
/// reproduces `(rounds, weights)` of `reference` bit for bit.
fn best_secs(task: &Arc<FedTask>, cfg: &ExperimentConfig, reference: &(u64, Vec<f32>)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let (secs, rounds, weights) = timed_run(task, cfg);
        let exec = cfg.exec;
        assert_eq!(rounds, reference.0, "{exec:?} changed the schedule");
        assert_eq!(
            weights, reference.1,
            "{exec:?} must be bit-identical to the reference run"
        );
        best = best.min(secs);
    }
    best
}

fn bench_strategy(
    strategy: StrategyKind,
    seed: u64,
    n_clients: usize,
    task: &Arc<FedTask>,
) -> Sample {
    let cfg = quick_cfg(strategy, seed, n_clients);
    // Warm the kernel pool and the scratch arenas so the run is measured
    // at steady state (how a long-lived server actually runs). The warm-up
    // doubles as the bit-identity reference for every timed repeat.
    let (_, rounds, weights) = timed_run(task, &cfg);
    Sample {
        strategy: strategy.name(),
        rounds,
        secs: best_secs(task, &cfg, &(rounds, weights)),
    }
}

/// One measured point of the thread-scaling sweep.
struct SweepPoint {
    workers: usize,
    mode: &'static str,
    secs: f64,
    rounds: u64,
}

impl SweepPoint {
    fn rounds_per_sec(&self) -> f64 {
        self.rounds as f64 / self.secs.max(1e-9)
    }
}

/// FedAT on the 500-client cohort, speculative at {1, 2, 4, 8} workers vs
/// the 1-worker inline baseline. "W workers" = the event-loop thread plus
/// W − 1 pool helpers (emulated by the pool-job cap on a pool grown to 7
/// real helper threads, so the sweep shape is identical on every host —
/// though on machines with fewer cores the extra workers oversubscribe and
/// the curve honestly flattens). Bit-identity with the inline run is
/// asserted on every timed repeat of every configuration.
fn threads_sweep(seed: u64) -> Vec<SweepPoint> {
    const SWEEP: [usize; 4] = [1, 2, 4, 8];
    let n_clients = 500;
    let task = Arc::new(large_cohort_task(n_clients, seed));
    let cluster = fedat_sim::fleet::ClusterConfig::paper_large(seed)
        .with_clients(n_clients)
        .without_dropouts();
    let cfg = ExperimentConfig::builder()
        .strategy(StrategyKind::FedAt)
        .rounds(40)
        .clients_per_round(10)
        .local_epochs(1)
        .eval_every(10_000) // keep the (mode-independent) eval cadence out
        .eval_subset(64)
        .seed(seed)
        .cluster(cluster)
        .build();

    // Whole-client task parallelism is the lever under test: inner kernels
    // stay serial so the sweep measures the speculative executor alone.
    let cfg_for = |mode, workers: usize| {
        let mut c = cfg.clone();
        c.exec = ExecOverrides {
            mode: Some(mode),
            max_threads: Some(1),
            max_pool_jobs: Some(workers - 1),
            ..ExecOverrides::default()
        };
        c
    };
    pool::ensure_workers(SWEEP[SWEEP.len() - 1] - 1);

    // Identity gate: the inline warm-up is the reference, and `best_secs`
    // asserts every timed repeat of every configuration reproduces its
    // bits — a divergence panics before any record is written.
    let inline = cfg_for(ExecMode::Inline, 1);
    let (_, rounds, weights) = timed_run(&task, &inline);
    let reference = (rounds, weights);

    let mut points = vec![SweepPoint {
        workers: 1,
        mode: "inline",
        secs: best_secs(&task, &inline, &reference),
        rounds,
    }];
    for &w in &SWEEP {
        points.push(SweepPoint {
            workers: w,
            mode: "speculative",
            secs: best_secs(&task, &cfg_for(ExecMode::Speculative, w), &reference),
            rounds,
        });
    }
    points
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_fl_round.json");
    let mut seed = 9u64;
    let mut with_sweep = false;
    let mut leaf_dir: Option<String> = None;
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
            "--threads-sweep" => {
                with_sweep = true;
            }
            "--leaf-dir" => {
                i += 1;
                leaf_dir = Some(args[i].clone());
            }
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    let host_cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    if host_cores == 1 {
        eprintln!(
            "[bench_fl_round] WARNING: single-core host — kernel fan-out, the \
             persistent pool, and speculative execution have no parallelism to \
             exploit, so the record measures the serial regime only. It \
             carries host_cores = 1."
        );
    }

    // Default: the CNN task, the compute-heavy representative (conv kernels
    // cross the parallel threshold, models are large enough for codec/build
    // costs to register). `--leaf-dir` benches a disk-loaded LEAF corpus
    // under its natural partition instead.
    let task = Arc::new(match &leaf_dir {
        Some(d) => FedTask::from_leaf_dir(d, LeafBenchmark::femnist(), seed)
            .unwrap_or_else(|e| panic!("loading LEAF directory {d}: {e}")),
        None => suite::cifar10_like(30, 2, seed),
    });
    let n_clients = task.fed.num_clients();

    let samples: Vec<Sample> = [
        StrategyKind::FedAvg,
        StrategyKind::TiFL,
        StrategyKind::FedAt,
    ]
    .into_iter()
    .map(|s| {
        eprintln!("[bench_fl_round] running {} ...", s.name());
        bench_strategy(s, seed, n_clients, &task)
    })
    .collect();

    let sweep = if with_sweep {
        eprintln!("[bench_fl_round] thread-scaling sweep (500-client FedAT) ...");
        Some(threads_sweep(seed))
    } else {
        None
    };

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"fl_round\",\n");
    json.push_str("  \"scale\": \"quick\",\n");
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"clients\": {n_clients},\n"));
    json.push_str(&format!("  \"task\": \"{}\",\n", task.name));
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    if host_cores == 1 {
        json.push_str(
            "  \"host_warning\": \"single-core host: no parallelism for the pool or speculative executor to exploit; speedups reflect the serial regime only\",\n",
        );
    }
    json.push_str(&format!(
        "  \"kernel_threads\": {},\n",
        fedat_tensor::parallel::max_threads()
    ));
    json.push_str(&format!(
        "  \"simd_backend\": \"{}\",\n",
        fedat_tensor::simd::backend_name()
    ));
    json.push_str("  \"strategies\": [\n");
    for (i, s) in samples.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"name\": \"{}\", \"rounds\": {}, \"secs\": {:.4}, \"rounds_per_sec\": {:.3} }}{}\n",
            s.strategy,
            s.rounds,
            s.secs,
            s.rounds_per_sec(),
            if i + 1 < samples.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]");
    if let Some(points) = &sweep {
        let baseline = points
            .iter()
            .find(|p| p.mode == "inline")
            .map(|p| p.rounds_per_sec())
            .unwrap_or(f64::NAN);
        json.push_str(",\n  \"threads_sweep\": {\n");
        json.push_str("    \"task\": \"large-cohort(500)\",\n");
        json.push_str("    \"strategy\": \"FedAT\",\n");
        json.push_str(&format!("    \"host_cores\": {host_cores},\n"));
        json.push_str(&format!(
            "    \"pool_workers\": {},\n",
            pool::worker_count()
        ));
        json.push_str(
            "    \"note\": \"inner kernels serial; workers = event-loop thread + (W-1) pool helpers; bit-identity with inline asserted on every timed run; scaling requires >= W physical cores\",\n",
        );
        json.push_str("    \"points\": [\n");
        for (i, p) in points.iter().enumerate() {
            json.push_str(&format!(
                "      {{ \"workers\": {}, \"mode\": \"{}\", \"rounds\": {}, \"secs\": {:.4}, \"rounds_per_sec\": {:.3}, \"speedup_vs_inline_1w\": {:.3} }}{}\n",
                p.workers,
                p.mode,
                p.rounds,
                p.secs,
                p.rounds_per_sec(),
                p.rounds_per_sec() / baseline.max(1e-12),
                if i + 1 < points.len() { "," } else { "" }
            ));
        }
        json.push_str("    ]\n  }");
    }
    json.push_str("\n}\n");
    std::fs::write(&out_path, &json).expect("writing benchmark record");

    println!("{json}");
    for s in &samples {
        println!(
            "{:<8} {:>4} rounds  {:>8.2} r/s",
            s.strategy,
            s.rounds,
            s.rounds_per_sec()
        );
    }
    if let Some(points) = &sweep {
        for p in points {
            println!(
                "sweep {:>11} {:>2}w  {:>8.2} r/s",
                p.mode,
                p.workers,
                p.rounds_per_sec()
            );
        }
    }
    eprintln!("[bench_fl_round] wrote {out_path}");
}
