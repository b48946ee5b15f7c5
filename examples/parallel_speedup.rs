//! Speculative-vs-inline wall-clock comparison on the large cohort.
//!
//! Demonstrates the speculative client executor outside the bench harness:
//! the same FedAT run is executed twice — once with training launched at
//! dispatch on the kernel pool (`ExecMode::Speculative`, the default) and
//! once with train-at-completion (`ExecMode::Inline`) — and the
//! wall-clock ratio is printed together with proof that the two produced
//! bit-identical results. The win scales with physical cores: the
//! event-loop thread joins finished results while pool workers train the
//! other in-flight clients of the cohort.
//!
//! By default runs a 100-client slice; pass `--full` for the 500-client
//! cohort, `--workers N` to pin the worker count (the bench-sweep
//! convention: N = the event-loop thread + N − 1 pool helpers; default:
//! the host's `cores − 1` helpers, uncapped).
//!
//! ```text
//! cargo run --release --example parallel_speedup [-- --full] [-- --workers N]
//! ```

// This example *measures* wall-clock time — that is its whole point — so the
// R4 clippy mirror (docs/LINTS.md) does not apply here.
#![allow(clippy::disallowed_methods)]

use fedat::core::exec::ExecMode;
use fedat::core::prelude::*;
use fedat::sim::fleet::ClusterConfig;
use fedat::tensor::pool;
use fedat_bench::experiments::large_cohort_task;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let full = args.iter().any(|a| a == "--full");
    let workers = args
        .iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok());
    let clients = if full { 500 } else { 100 };
    let rounds = if full { 60 } else { 40 };

    // Same convention as the bench sweep: "W workers" = the event-loop
    // thread + W − 1 pool helpers.
    let job_cap = workers.filter(|&w| w > 0).map(|w| w - 1);
    if let Some(cap) = job_cap {
        pool::ensure_workers(cap);
    }
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    println!(
        "host: {cores} core(s), {} pool worker(s), pool-job cap {}",
        pool::worker_count(),
        job_cap.map_or("uncapped".to_string(), |n| n.to_string())
    );

    let task = large_cohort_task(clients, 21);
    let mut cluster = ClusterConfig::paper_large(21).with_clients(clients);
    cluster.n_unstable = cluster.n_unstable.min(clients / 10);
    let cfg = ExperimentConfig::builder()
        .strategy(StrategyKind::FedAt)
        .rounds(rounds)
        .clients_per_round(10)
        .local_epochs(1)
        .eval_every(20)
        .eval_subset(256)
        .seed(21)
        .cluster(cluster)
        // Client-level task parallelism is the lever on display: keep each
        // client's inner kernels serial so the two runs differ only in
        // *where* whole training jobs execute.
        .max_threads(1)
        .build();

    let timed = |mode: ExecMode| {
        let mut cfg = cfg.clone();
        cfg.exec.mode = Some(mode);
        cfg.exec.max_pool_jobs = job_cap;
        let started = std::time::Instant::now();
        let out = run_experiment(&task, &cfg);
        // Jobs abandoned at the rounds cutoff are this run's cost; drain
        // them before stopping the clock.
        pool::quiesce();
        (started.elapsed().as_secs_f64(), out)
    };

    // Warm the pool, caches and arenas so both timed runs are steady-state.
    let _ = timed(ExecMode::Speculative);

    let (spec_secs, spec) = timed(ExecMode::Speculative);
    let (inline_secs, inline) = timed(ExecMode::Inline);

    assert_eq!(
        spec.final_weights, inline.final_weights,
        "speculative execution must be bit-identical to inline"
    );
    assert_eq!(spec.global_updates, inline.global_updates);

    println!(
        "task: {} — {} clients, {} global updates per run",
        task.name, clients, spec.global_updates
    );
    println!(
        "inline       {inline_secs:>7.2}s wall  ({:.1} updates/s)",
        inline.global_updates as f64 / inline_secs.max(1e-9)
    );
    println!(
        "speculative  {spec_secs:>7.2}s wall  ({:.1} updates/s)",
        spec.global_updates as f64 / spec_secs.max(1e-9)
    );
    println!(
        "speedup: {:.2}x  (bit-identical: final weights match exactly)",
        inline_secs / spec_secs.max(1e-9)
    );
    let s = spec.speculation;
    println!(
        "speculation: {} jobs launched, {} discarded on dropout ({:.1}% wasted work)",
        s.launches,
        s.discards,
        100.0 * s.discards as f64 / s.launches.max(1) as f64
    );
    if cores == 1 {
        println!(
            "note: single-core host — speculation cannot overlap work here; \
             expect ~1.0x (the ratio above is the overhead floor)"
        );
    }
}
