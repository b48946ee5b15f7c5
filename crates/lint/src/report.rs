//! Findings and the machine-readable report.
//!
//! The JSON writer is hand-rolled (the linter is dependency-free) and emits
//! no timestamps or absolute paths, so `LINT_REPORT.json` is byte-identical
//! across runs on a clean tree — the report itself honours the determinism
//! contract it audits.

/// A rule violation at a specific source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (`R1`..`R4`, or `LINT` for malformed suppressions).
    pub rule: &'static str,
    /// Human-readable rationale.
    pub message: String,
}

/// A violation that was acknowledged with `// lint: allow(RX, reason = ..)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suppressed {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number of the violation.
    pub line: usize,
    /// Rule id.
    pub rule: &'static str,
    /// The audited justification from the allow comment.
    pub reason: String,
}

/// The full result of a workspace scan.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Number of files scanned.
    pub files_scanned: usize,
    /// Unsuppressed violations. Non-empty ⇒ the lint gate fails.
    pub findings: Vec<Finding>,
    /// Acknowledged violations, kept visible for audit.
    pub suppressed: Vec<Suppressed>,
}

impl Report {
    /// Sorts both lists by (file, line, rule) for deterministic output.
    pub fn normalize(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.suppressed
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Human-readable summary for the terminal.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                f.file, f.line, f.rule, f.message
            ));
        }
        out.push_str(&format!(
            "fedat-lint: {} file(s) scanned, {} finding(s), {} suppressed\n",
            self.files_scanned,
            self.findings.len(),
            self.suppressed.len()
        ));
        out
    }

    /// Machine-readable JSON (stable key order, no timestamps).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"message\": {}}}",
                json_str(&f.file),
                f.line,
                json_str(f.rule),
                json_str(&f.message)
            ));
        }
        if self.findings.is_empty() {
            s.push_str("],\n");
        } else {
            s.push_str("\n  ],\n");
        }
        s.push_str("  \"suppressed\": [");
        for (i, f) in self.suppressed.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"reason\": {}}}",
                json_str(&f.file),
                f.line,
                json_str(f.rule),
                json_str(&f.reason)
            ));
        }
        if self.suppressed.is_empty() {
            s.push_str("]\n");
        } else {
            s.push_str("\n  ]\n");
        }
        s.push_str("}\n");
        s
    }
}

/// Escapes a string for JSON.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_stable_and_escaped() {
        let mut r = Report {
            files_scanned: 2,
            findings: vec![Finding {
                file: "crates/x/src/lib.rs".into(),
                line: 3,
                rule: "R1",
                message: "uses \"HashMap\"".into(),
            }],
            suppressed: vec![],
        };
        r.normalize();
        let j = r.to_json();
        assert!(j.contains("\\\"HashMap\\\""));
        assert!(j.contains("\"files_scanned\": 2"));
        assert!(j.ends_with("}\n"));
    }

    #[test]
    fn normalize_orders_by_file_then_line() {
        let mut r = Report::default();
        r.findings.push(Finding {
            file: "b.rs".into(),
            line: 1,
            rule: "R1",
            message: String::new(),
        });
        r.findings.push(Finding {
            file: "a.rs".into(),
            line: 9,
            rule: "R2",
            message: String::new(),
        });
        r.normalize();
        assert_eq!(r.findings[0].file, "a.rs");
    }
}
