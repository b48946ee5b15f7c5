//! Reproduction CLI: regenerates every table and figure of the FedAT paper.
//!
//! ```text
//! repro <experiment-id> [--quick] [--seed N] [--threads N] [--out DIR]
//! ```
//!
//! Exits 2 with the usage text on a bad id, flag or flag value, and 1 when
//! an experiment fails (a write, or loading LEAF data), naming the path or
//! value.

use fedat_bench::experiments::{self, Ctx};
use fedat_bench::harness::Scale;
use std::path::PathBuf;
use std::str::FromStr;

/// Prints `problem` and the usage text to stderr and exits 2.
fn usage(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!("usage: repro <experiment-id> [--quick] [--seed N] [--threads N] [--out DIR]");
    eprintln!("ids: {}", experiments::IDS.join(" "));
    eprintln!("     (leaf reads FEDAT_LEAF_DIR / FEDAT_LEAF_BENCH, or generates a fixture)");
    std::process::exit(2);
}

/// `flag`'s value, which must parse as an integer.
fn integer<T: FromStr>(flag: &str, value: String) -> T {
    value
        .parse()
        .unwrap_or_else(|_| usage(&format!("{flag} takes an integer, got `{value}`")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let id = match args.next() {
        Some(id) if experiments::IDS.contains(&id.as_str()) => id,
        Some(id) => usage(&format!("unknown experiment id `{id}`")),
        None => usage("missing experiment id"),
    };
    let mut scale = Scale::Full;
    let mut seed = 9u64;
    let mut threads = 0usize;
    let mut out = PathBuf::from("results");
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} takes a value")))
        };
        match flag.as_str() {
            "--quick" => scale = Scale::Quick,
            "--seed" => seed = integer(&flag, value()),
            "--threads" => threads = integer(&flag, value()),
            "--out" => out = PathBuf::from(value()),
            _ => usage(&format!("unknown flag: {flag}")),
        }
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
