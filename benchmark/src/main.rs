//! The repository benchmark: four federated-learning workloads, end-to-end
//! metrics (the paper's own and the simulator's wall-clock cost) and an
//! outside-in profile of the layers. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! fedat-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! fedat-benchmark --report [--seed 9] [--runs 3] [--seconds 25] [--quick] [--out FILE]
//! fedat-benchmark --check A.json B.json
//! fedat-benchmark --manifest
//! ```
//!
//! The first form is one measurement and prints one JSON object as its last
//! line of standard output; `--report` runs it as a child process for every
//! workload, prints every metric by name with its unit and writes the
//! results with a host block; `--check` compares two such files.

mod calibrate;
mod check;
mod end_to_end;
mod layers;
mod manifest;
mod output;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::process::ExitCode;
use workloads::Workload;

/// One measurement, as the driver asks for it.
struct Measure {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

enum Command {
    Measure(Measure),
    Report(report::Options),
    Check(String, String),
    Manifest,
}

const USAGE: &str = "usage:
  fedat-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
  fedat-benchmark --report [--seed N] [--runs N] [--seconds S] [--quick] [--out FILE]
  fedat-benchmark --check A.json B.json
  fedat-benchmark --manifest";

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = value.ok_or_else(|| format!("{flag} takes a value"))?;
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot read `{value}`"))
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut runs, mut out) = (None, None);
    let (mut quick, mut report) = (false, false);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--workload" => {
                let name: String = parse(&flag, args.next())?;
                let known = Workload::from_name(&name)
                    .ok_or_else(|| format!("unknown workload `{name}`"))?;
                workload = Some(known);
            }
            "--seed" => seed = Some(parse::<u64>(&flag, args.next())?),
            "--seconds" => {
                let s: f64 = parse(&flag, args.next())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match parse::<u8>(&flag, args.next())? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--runs" => {
                let n: usize = parse(&flag, args.next())?;
                if n == 0 {
                    return Err("--runs must be positive".to_string());
                }
                runs = Some(n);
            }
            "--out" => out = Some(parse::<String>(&flag, args.next())?),
            "--quick" => quick = true,
            "--report" => report = true,
            "--manifest" => return Ok(Command::Manifest),
            "--check" => {
                return match (args.next(), args.next()) {
                    (Some(a), Some(b)) => Ok(Command::Check(a, b)),
                    _ => Err("--check takes two result files".to_string()),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let default_seconds = if quick {
        1.0
    } else {
        manifest::RUN_SECONDS as f64
    };
    if report {
        return Ok(Command::Report(report::Options {
            seed: seed.unwrap_or(9),
            runs: runs.unwrap_or(if quick { 1 } else { 3 }),
            seconds: seconds.unwrap_or(default_seconds),
            quick,
            out: out.unwrap_or_else(|| "results/benchmark_report.json".to_string()),
        }));
    }
    match (workload, seed, trace) {
        (Some(workload), Some(seed), Some(trace)) => Ok(Command::Measure(Measure {
            workload,
            seed,
            seconds: seconds.unwrap_or(default_seconds),
            trace,
            quick,
        })),
        _ => Err("a measurement needs --workload, --seed and --trace".to_string()),
    }
}

/// Removes every `FEDAT_*` variable, so no environment toggle (codec, churn
/// overlay, execution mode, SIMD backend, pool size) reaches the code under
/// measurement. Returns what was removed. Called before any thread exists.
fn scrub_environment() -> Vec<String> {
    let scrubbed: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FEDAT_"))
        .collect();
    for key in &scrubbed {
        std::env::remove_var(key);
    }
    scrubbed
}

/// Runs one measurement and prints its result object. An incorrect result is
/// still a result: it is printed, `correct` says so, and the exit code is 0.
fn measure(m: &Measure) -> std::io::Result<()> {
    let pass = if m.trace {
        let (pass, tracer) = layers::run(m.workload, m.seed, m.seconds, m.quick);
        std::fs::create_dir_all("results")?;
        let path = format!("results/benchmark_trace_{}.jsonl", m.workload.name());
        tracer.write_jsonl(std::io::BufWriter::new(std::fs::File::create(path)?))?;
        pass
    } else {
        end_to_end::run(m.workload, m.seed, m.seconds, m.quick)
    };
    for problem in &pass.problems {
        eprintln!("{}: {problem}", m.workload.name());
    }
    println!("{}", output::render_result(&pass));
    Ok(())
}

fn main() -> ExitCode {
    let scrubbed = scrub_environment();
    let command = match parse_args(std::env::args().skip(1)) {
        Ok(command) => command,
        Err(why) => {
            eprintln!("{why}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command {
        Command::Measure(m) => measure(&m).map(|()| true).map_err(|e| e.to_string()),
        Command::Report(options) => report::run(&options, &scrubbed),
        Command::Check(a, b) => check::run(&a, &b),
        Command::Manifest => {
            print!("{}", manifest::render());
            Ok(true)
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("error: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> impl Iterator<Item = String> + '_ {
        line.split_whitespace().map(str::to_string)
    }

    #[test]
    fn driver_command_line_parses() {
        let cmd = parse_args(args(
            "--workload robust-churn --seed 7 --seconds 12 --trace 1",
        ));
        match cmd {
            Ok(Command::Measure(m)) => {
                assert_eq!(m.workload, Workload::RobustChurn);
                assert_eq!(
                    (m.seed, m.seconds, m.trace, m.quick),
                    (7, 12.0, true, false)
                );
            }
            _ => panic!("expected a measurement"),
        }
    }

    #[test]
    fn bad_command_lines_are_rejected() {
        for line in [
            "",
            "--workload nope --seed 1 --trace 0",
            "--workload table1-cnn --seed x --trace 0",
            "--workload table1-cnn --seed 1 --trace 2",
            "--workload table1-cnn --seed 1 --trace 0 --seconds 0",
            "--workload table1-cnn --seed 1",
            "--check only-one.json",
            "--report --runs 0",
            "--frobnicate",
        ] {
            assert!(parse_args(args(line)).is_err(), "accepted `{line}`");
        }
    }

    #[test]
    fn report_defaults() {
        match parse_args(args("--report --quick")) {
            Ok(Command::Report(o)) => {
                assert_eq!((o.seed, o.runs, o.quick), (9, 1, true));
            }
            _ => panic!("expected a report"),
        }
    }
}
