//! Report files under `results/` — text reports, CSV tables, traces and
//! fault logs, each write failing with an error that names its path — and
//! the cell formatters the printers share.

use fedat_sim::trace::Trace;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Prefixes an I/O error with the path it happened at.
fn at(path: &Path) -> impl FnOnce(io::Error) -> io::Error + '_ {
    move |e| io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

/// `create_dir_all` whose error names the directory.
pub(crate) fn create_dir(dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir).map_err(at(dir))
}

/// Creates `<dir>/<file>` (and `dir`), hands `body` a buffered writer and
/// flushes it; any error names the path.
fn write_file(
    dir: &Path,
    file: &str,
    body: impl FnOnce(&mut BufWriter<fs::File>) -> io::Result<()>,
) -> io::Result<()> {
    create_dir(dir)?;
    let path = dir.join(file);
    fs::File::create(&path)
        .and_then(|f| {
            let mut w = BufWriter::new(f);
            body(&mut w)?;
            w.flush()
        })
        .map_err(at(&path))
}

/// Writes finished text — a report or a CSV table — as `<dir>/<file>`.
pub(crate) fn write_text(dir: &Path, file: &str, text: &str) -> io::Result<()> {
    write_file(dir, file, |w| w.write_all(text.as_bytes()))
}

/// Writes a trace (smoothed like the paper's figures) as
/// `<dir>/<name>.csv`.
pub fn write_trace(dir: &Path, name: &str, trace: &Trace, smooth_window: usize) -> io::Result<()> {
    write_file(dir, &format!("{name}.csv"), |w| {
        trace.smoothed(smooth_window).write_csv(w)
    })
}

/// Writes a run's fault log as `<dir>/<name>_faults.csv` — one row per
/// timeout/retry/corruption/rejection/... event, for post-hoc forensics.
pub fn write_fault_log(
    dir: &Path,
    name: &str,
    faults: &fedat_sim::fault::FaultLog,
) -> io::Result<()> {
    write_file(dir, &format!("{name}_faults.csv"), |w| faults.write_csv(w))
}

/// Sanitizes a label into a file-name-safe slug.
pub fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Formats an optional time-to-accuracy.
pub fn fmt_tta(t: Option<f64>) -> String {
    match t {
        Some(t) => format!("{t:.0}s"),
        None => "—".to_string(),
    }
}

/// Formats an optional byte count as MB (10⁶ B, like the paper's Table 2).
pub fn fmt_mb(b: Option<u64>) -> String {
    match b {
        Some(b) => format!("{:.2}", b as f64 / 1e6),
        None => "—".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedat_sim::trace::TracePoint;

    #[test]
    fn slug_is_filesystem_safe() {
        assert_eq!(slug("FedAT @ cifar10-like(#2)"), "FedAT___cifar10-like__2_");
    }

    #[test]
    fn trace_csv_written() {
        let dir = std::env::temp_dir().join("fedat_report_test");
        let mut t = Trace::new("x");
        t.push(TracePoint {
            time: 1.0,
            round: 1,
            accuracy: 0.5,
            loss: 1.0,
            up_bytes: 10,
            down_bytes: 5,
        });
        write_trace(&dir, "t", &t, 1).unwrap();
        let content = std::fs::read_to_string(dir.join("t.csv")).unwrap();
        assert!(content.contains("time,round"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn uncreatable_out_dir_is_an_error_naming_the_path() {
        // A directory cannot be created underneath a regular file.
        let file = std::env::temp_dir().join(format!("fedat_report_file_{}", std::process::id()));
        fs::write(&file, "x").unwrap();
        let dir = file.join("churn");
        let shown = dir.display().to_string();
        let errs = [
            create_dir(&dir),
            write_text(&dir, "churn.txt", "=== t ===\n"),
            write_text(&dir, "churn.csv", "a,b\n"),
            write_trace(&dir, "t", &Trace::new("x"), 1),
            write_fault_log(&dir, "t", &fedat_sim::fault::FaultLog::default()),
        ];
        for e in errs {
            let msg = e.expect_err("nothing can be written there").to_string();
            assert!(msg.contains(&shown), "`{msg}` does not name {shown}");
        }
        fs::remove_file(&file).unwrap();
    }

    #[test]
    fn formatters() {
        assert_eq!(fmt_tta(Some(123.4)), "123s");
        assert_eq!(fmt_tta(None), "—");
        assert_eq!(fmt_mb(Some(2_500_000)), "2.50");
    }
}
