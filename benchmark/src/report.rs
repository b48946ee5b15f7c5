//! `--report`: every workload, both passes, every metric by name with its
//! unit — and a results file with the host it was measured on.
//!
//! Each measurement is a child process running the driver's own command
//! line (`--workload W --seed N --seconds S --trace T`), one at a time, so
//! `peak_rss_mb` is a child's own high-water mark and the report measures
//! exactly what the driver measures. Runs are interleaved across workloads
//! (run 0 of every workload, then run 1, …): a noisy-neighbour burst costs
//! one run of each workload, not every run of one. Run `r` uses seed
//! `--seed + r`.

use crate::manifest::{Better, END_TO_END, PER_LAYER};
use crate::output::{number, parse_result};
use crate::stats::{max, median, min, spread};
use crate::workloads::{self, Workload, CLIENTS_PER_ROUND, SUB_SEEDS};
use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, Stdio};

/// What `--report` was asked to do.
pub struct Options {
    /// Seed of run 0.
    pub seed: u64,
    /// Measurements per workload and pass.
    pub runs: usize,
    /// Measuring window of one child.
    pub seconds: f64,
    /// Smoke mode: tenth-size runs, no target, bounds not applied.
    pub quick: bool,
    /// Where the results file goes.
    pub out: String,
}

/// Samples of every metric of one workload, plus its operation counts.
#[derive(Default)]
struct Samples {
    values: BTreeMap<String, Vec<f64>>,
    attempted: u64,
    failed: u64,
}

/// Runs one measurement as a child process and folds its result in.
fn child(
    workload: Workload,
    seed: u64,
    trace: bool,
    options: &Options,
    into: &mut Samples,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if options.quick {
        command.arg("--quick");
    }
    // `output` waits for the child: no process outlives this call.
    let output = command
        .output()
        .map_err(|e| format!("cannot start a measurement: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "{} (trace {}) ended with {}",
            workload.name(),
            u8::from(trace),
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    let result = parse_result(line).map_err(|e| format!("{}: {e}", workload.name()))?;
    into.attempted += result.attempted;
    into.failed += result.failed;
    for (name, value, _unit) in result.metrics {
        into.values.entry(name).or_default().push(value);
    }
    Ok(result.correct)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' | '\\' => {
                out.push('\\');
                out.push(c);
            }
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// What every earlier `BENCH_*.json` record lacks: where and how the
/// numbers were measured.
fn host_block(options: &Options, scrubbed: &[String]) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    let scrubbed: Vec<String> = scrubbed.iter().map(|s| json_string(s)).collect();
    let fields = [
        ("host_cores", cores.to_string()),
        (
            "pool_workers",
            fedat_tensor::pool::worker_count().to_string(),
        ),
        (
            "kernel_threads",
            fedat_tensor::parallel::max_threads().to_string(),
        ),
        (
            "simd_backend",
            json_string(fedat_tensor::simd::backend_name()),
        ),
        ("rustc", json_string(&command_line("rustc", &["--version"]))),
        (
            "profile",
            json_string(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        (
            "git_rev",
            json_string(&command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", options.seed.to_string()),
        ("runs", options.runs.to_string()),
        ("seconds", number(options.seconds)),
        ("quick", options.quick.to_string()),
        ("scrubbed_env", format!("[{}]", scrubbed.join(", "))),
    ];
    let rows: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("    \"{k}\": {v}"))
        .collect();
    format!("{{\n{}\n  }}", rows.join(",\n"))
}

fn sizes_block(w: Workload, quick: bool) -> String {
    let task = w.task(0);
    format!(
        "{{\"clients\": {}, \"train_rows\": {}, \"model_weights\": {}, \"rounds\": {}, \
         \"clients_per_round\": {CLIENTS_PER_ROUND}, \"local_epochs\": {}, \"sub_seeds\": {}, \
         \"target_accuracy\": {}}}",
        task.fed.num_clients(),
        task.fed.total_train_samples(),
        task.model.num_params(),
        w.rounds(quick),
        w.local_epochs(),
        if quick { 2 } else { SUB_SEEDS },
        if quick { 0.0 } else { w.target() },
    )
}

fn metric_block(name: &str, unit: &str, better: Better, bound: Option<f64>, v: &[f64]) -> String {
    let values: Vec<String> = v.iter().map(|x| number(*x)).collect();
    let bound = bound.map_or(String::new(), |b| format!("\"bound\": {b}, "));
    format!(
        "\"{name}\": {{\"unit\": \"{unit}\", \"better\": \"{}\", {bound}\"median\": {}, \
         \"min\": {}, \"max\": {}, \"n\": {}, \"values\": [{}]}}",
        better.name(),
        number(median(v)),
        number(min(v)),
        number(max(v)),
        v.len(),
        values.join(", ")
    )
}

fn print_row(name: &str, unit: &str, bound: Option<f64>, v: &[f64]) {
    let mut row = format!("  {name:<34} {:>16.6} {unit:<8}", median(v));
    if v.len() >= 2 {
        row.push_str(&format!(
            " [{:.6} .. {:.6}, n {}, spread {:.1}%]",
            min(v),
            max(v),
            v.len(),
            100.0 * spread(v)
        ));
    }
    if let Some(b) = bound {
        row.push_str(&format!(" bound {:.0}%", 100.0 * b));
    }
    println!("{row}");
}

/// Runs the whole report. `Ok(false)` when any measurement was incorrect.
///
/// # Errors
/// Fails when a child cannot run or the results file cannot be written.
pub fn run(options: &Options, scrubbed: &[String]) -> Result<bool, String> {
    let mut samples: Vec<Samples> = workloads::ALL.iter().map(|_| Samples::default()).collect();
    let mut all_correct = true;
    for r in 0..options.runs {
        for (w, into) in workloads::ALL.iter().zip(samples.iter_mut()) {
            for trace in [false, true] {
                eprintln!(
                    "run {}/{}: {} (trace {})",
                    r + 1,
                    options.runs,
                    w.name(),
                    u8::from(trace)
                );
                all_correct &= child(*w, options.seed + r as u64, trace, options, into)?;
            }
        }
    }

    let mut blocks = Vec::new();
    for (w, s) in workloads::ALL.iter().zip(&samples) {
        println!(
            "{} — ops attempted {}, failed {}",
            w.name(),
            s.attempted,
            s.failed
        );
        let mut e2e = Vec::new();
        for m in &END_TO_END {
            let v = &s.values[m.name];
            print_row(m.name, m.unit, Some(m.bound), v);
            e2e.push(metric_block(m.name, m.unit, m.better, Some(m.bound), v));
        }
        let mut layers = Vec::new();
        for m in &PER_LAYER {
            let v = &s.values[m.name];
            print_row(m.name, m.unit, None, v);
            layers.push(metric_block(m.name, m.unit, m.better, None, v));
        }
        blocks.push(format!(
            "    \"{}\": {{\n      \"sizes\": {},\n      \"ops_attempted\": {},\n      \
             \"ops_failed\": {},\n      \"end_to_end\": {{\n        {}\n      }},\n      \
             \"per_layer\": {{\n        {}\n      }}\n    }}",
            w.name(),
            sizes_block(*w, options.quick),
            s.attempted,
            s.failed,
            e2e.join(",\n        "),
            layers.join(",\n        ")
        ));
    }
    let document = format!(
        "{{\n  \"host\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        host_block(options, scrubbed),
        blocks.join(",\n")
    );
    let path = std::path::Path::new(&options.out);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::File::create(path)
        .and_then(|mut f| f.write_all(document.as_bytes()))
        .map_err(|e| format!("{}: {e}", options.out))?;
    println!("wrote {}", options.out);
    if options.quick {
        println!("quick mode: tenth-size runs, no accuracy target; bounds do not apply");
    }
    Ok(all_correct)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::parse_json;

    #[test]
    fn blocks_are_valid_json() {
        let options = Options {
            seed: 9,
            runs: 2,
            seconds: 25.0,
            quick: false,
            out: String::new(),
        };
        let host = parse_json(&host_block(&options, &["FEDAT_\"EXEC".to_string()])).unwrap();
        assert_eq!(host.get("runs").and_then(|v| v.as_f64()), Some(2.0));
        assert!(host.get("simd_backend").and_then(|v| v.as_str()).is_some());
        assert_eq!(
            host.get("scrubbed_env")
                .and_then(|v| v.as_array())
                .map(<[_]>::len),
            Some(1)
        );
        let sizes = parse_json(&sizes_block(Workload::AsyncOverhead, false)).unwrap();
        assert_eq!(sizes.get("clients").and_then(|v| v.as_f64()), Some(2000.0));
        assert_eq!(
            sizes.get("model_weights").and_then(|v| v.as_f64()),
            Some(330.0)
        );
        let block = format!(
            "{{{}}}",
            metric_block("cpu_s", "s", Better::Lower, Some(0.1), &[1.5, 2.5, 2.0])
        );
        let metric = parse_json(&block).unwrap();
        let cpu = metric.get("cpu_s").unwrap();
        assert_eq!(cpu.get("median").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(cpu.get("n").and_then(|v| v.as_f64()), Some(3.0));
        assert_eq!(cpu.get("bound").and_then(|v| v.as_f64()), Some(0.1));
    }
}
