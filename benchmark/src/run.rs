//! One measured experiment run, its health check, and the process probes
//! (CPU time, peak resident set) behind the end-to-end metrics.

use fedat_core::{run_experiment_shared, ExperimentConfig, Outcome};
use fedat_data::suite::FedTask;
use fedat_sim::runtime::StopReason;
use fedat_tensor::pool;
use std::sync::Arc;
use std::time::Instant;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`): 100 on
/// every Linux ABI, whatever the kernel's internal tick.
const USER_HZ: f64 = 100.0;

/// A finished run with what it cost.
pub struct Measured {
    /// What the run produced.
    pub outcome: Outcome,
    /// Wall-clock seconds, including draining abandoned speculative jobs.
    pub wall_s: f64,
    /// Process CPU seconds (user + system, all threads) over the same span.
    pub cpu_s: f64,
}

/// Runs one experiment under the library-default execution context
/// (speculative launches, `cores − 1` pool workers, one kernel thread) and
/// waits for the pool to drain, so work a run abandons is charged to it.
pub fn measured(task: &Arc<FedTask>, cfg: &ExperimentConfig) -> Measured {
    let cpu_before = cpu_seconds();
    let started = Instant::now();
    let outcome = run_experiment_shared(task, cfg);
    pool::quiesce();
    let wall_s = started.elapsed().as_secs_f64();
    Measured {
        outcome,
        wall_s,
        cpu_s: cpu_seconds() - cpu_before,
    }
}

/// Why a run's output is not acceptable, if it is not: it must have run its
/// whole update budget and left a finite model.
pub fn health(outcome: &Outcome) -> Result<(), String> {
    if outcome.report.reason != StopReason::Finished {
        return Err(format!(
            "stopped with {:?} after {} updates",
            outcome.report.reason, outcome.global_updates
        ));
    }
    if !outcome.final_weights.iter().all(|w| w.is_finite()) {
        return Err("non-finite weight in the final model".to_string());
    }
    Ok(())
}

/// User + system CPU seconds this process has consumed, or 0 where
/// `/proc/self/stat` is unavailable (the metric then reads 0 and the
/// correctness gate in `main` rejects the run).
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|stat| parse_stat_ticks(&stat))
        .map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

/// `utime + stime` from a `/proc/<pid>/stat` line. The command name (field
/// 2) may contain spaces and parentheses, so fields are counted from the
/// last `)`.
fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // after_comm starts at field 3 (state); utime and stime are 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| parse_vm_hwm_kb(&status))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_hostile_command_name_parses() {
        let stat = "1234 (fedat) bench) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 99 1 2";
        assert_eq!(parse_stat_ticks(stat), Some(300));
        assert_eq!(parse_stat_ticks("garbage"), None);
    }

    #[test]
    fn vm_hwm_parses_in_kilobytes() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn probes_read_this_process() {
        assert!(peak_rss_mb() > 0.0);
        // Burn a little CPU so the counter is past zero on any tick size.
        let started = Instant::now();
        while started.elapsed().as_millis() < 30 {
            std::hint::black_box((0..10_000u64).sum::<u64>());
        }
        assert!(cpu_seconds() > 0.0);
    }
}
