//! Reproduction CLI: regenerates every table and figure of the FedAT paper.
//!
//! ```text
//! repro <experiment-id> [--quick] [--seed N] [--threads N] [--out DIR]
//! ```

use fedat_bench::experiments::{self, Ctx};
use fedat_bench::harness::Scale;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = |id: &&String| experiments::IDS.contains(&id.as_str());
    let Some(id) = args.first().filter(known).cloned() else {
        eprintln!("usage: repro <experiment-id> [--quick] [--seed N] [--threads N] [--out DIR]");
        eprintln!("ids: {}", experiments::IDS.join(" "));
        eprintln!("     (leaf reads FEDAT_LEAF_DIR / FEDAT_LEAF_BENCH, or generates a fixture)");
        std::process::exit(2);
    };
    let mut scale = Scale::Full;
    let mut seed = 9u64;
    let mut threads = 0usize;
    let mut out = PathBuf::from("results");
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => scale = Scale::Quick,
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("--seed takes an integer");
            }
            "--threads" => {
                i += 1;
                threads = args[i].parse().expect("--threads takes an integer");
            }
            "--out" => {
                i += 1;
                out = PathBuf::from(&args[i]);
            }
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let started = std::time::Instant::now();
    let ctx = Ctx {
        scale,
        out,
        seed,
        threads,
    };
    if let Err(e) = experiments::run(&id, &ctx) {
        eprintln!("[repro {id}] {e}");
        std::process::exit(1);
    }
    eprintln!(
        "[repro {id}] done in {:.1}s",
        started.elapsed().as_secs_f64()
    );
}
