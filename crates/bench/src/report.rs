//! Report formatting: aligned text tables and CSV/trace files under
//! `results/`.

use fedat_sim::trace::Trace;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};

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

/// A simple aligned text table that is also echoed to a `.txt` file.
pub struct TextReport {
    title: String,
    lines: Vec<String>,
}

impl TextReport {
    /// Starts a report with a title line.
    pub fn new(title: impl Into<String>) -> Self {
        TextReport {
            title: title.into(),
            lines: Vec::new(),
        }
    }

    /// Appends one line.
    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Appends a blank line.
    pub fn blank(&mut self) {
        self.lines.push(String::new());
    }

    /// Renders to a string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("=== {} ===\n", self.title));
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    /// Prints to stdout and writes `<dir>/<name>.txt`.
    pub fn emit(&self, dir: &Path, name: &str) -> io::Result<()> {
        let text = self.render();
        print!("{text}");
        io::stdout().flush()?;
        write_file(dir, &format!("{name}.txt"), |w| {
            w.write_all(text.as_bytes())
        })
    }
}

/// Writes a finished CSV table as `<dir>/<name>.csv`.
pub(crate) fn write_csv(dir: &Path, name: &str, csv: &str) -> io::Result<()> {
    write_file(dir, &format!("{name}.csv"), |w| w.write_all(csv.as_bytes()))
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

/// Resolves the output directory for an experiment id.
pub fn out_dir(base: &Path, id: &str) -> PathBuf {
    base.join(id)
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
    fn report_renders_title_and_lines() {
        let mut r = TextReport::new("Table 1");
        r.line("row");
        let s = r.render();
        assert!(s.contains("=== Table 1 ==="));
        assert!(s.contains("row"));
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
        let dir = out_dir(&file, "churn");
        let shown = dir.display().to_string();
        let errs = [
            create_dir(&dir),
            TextReport::new("t").emit(&dir, "churn"),
            write_csv(&dir, "churn", "a,b\n"),
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
