//! fedat-lint: the workspace determinism linter.
//!
//! FedAT's headline claim is a *bit-identity contract*: the same experiment
//! config and seed produce byte-identical metrics regardless of thread
//! count, SIMD backend, or execution mode. The contract is enforced
//! dynamically by the determinism test suites — this crate enforces it
//! *statically*, by scanning workspace source for the constructs that have
//! historically broken it:
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | R1   | no `HashMap`/`HashSet` in gated library code (RandomState order) |
//! | R2   | no fused multiply-add outside the pinned lanes of `tensor/src/simd.rs` |
//! | R3   | every `unsafe` carries a `// SAFETY:` rationale |
//! | R4   | no wall-clock or ad-hoc thread spawns in gated library code |
//!
//! Deliberate exceptions are acknowledged in-source with
//! `// lint: allow(RX, reason = "..")` and surface in the report's
//! `suppressed` list, so every escape hatch stays auditable.
//!
//! The crate has **zero dependencies** — a hand-rolled lexer in [`scan`]
//! rather than `syn` — so it can audit the vendored stubs' consumers without
//! ever being broken by them, and it runs both as a binary
//! (`cargo run -p fedat-lint`) and as a test gate
//! (`crates/lint/tests/workspace_clean.rs`), making `cargo test` fail on
//! violations.

pub mod report;
pub mod rules;
pub mod scan;
pub mod workspace;

use report::{Finding, Report, Suppressed};
use rules::FileContext;
use std::path::Path;

/// Lints one file's source text under the classification derived from its
/// workspace-relative path. Returns `None` when the path is outside the
/// linted layout (fixtures, vendor, non-crate files).
pub fn lint_source(rel: &str, source: &str) -> Option<(Vec<Finding>, Vec<Suppressed>)> {
    let (crate_name, kind) = workspace::classify(rel)?;
    let lines = scan::scan(source);
    let ctx = FileContext {
        rel,
        crate_name: &crate_name,
        kind,
    };
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    for raw in rules::run_all(&ctx, &lines) {
        let lineno = raw.line_idx + 1;
        let allow = rules::allows_for_line(&lines, raw.line_idx)
            .into_iter()
            .find(|a| a.reason.is_some() && a.rules.iter().any(|r| r == raw.rule));
        match allow {
            Some(a) => suppressed.push(Suppressed {
                file: rel.to_string(),
                line: lineno,
                rule: raw.rule,
                reason: a.reason.unwrap_or_default(),
            }),
            None => findings.push(Finding {
                file: rel.to_string(),
                line: lineno,
                rule: raw.rule,
                message: raw.message,
            }),
        }
    }
    Some((findings, suppressed))
}

/// Scans the whole workspace under `root` and returns the normalized report.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    for file in workspace::discover(root)? {
        let source = std::fs::read_to_string(&file.path)?;
        if let Some((findings, suppressed)) = lint_source(&file.rel, &source) {
            report.files_scanned += 1;
            report.findings.extend(findings);
            report.suppressed.extend(suppressed);
        }
    }
    report.normalize();
    Ok(report)
}

/// The workspace root, resolved from this crate's manifest directory at
/// compile time (`crates/lint` → two levels up). Works from any cwd, which
/// is what the test gate and CI both need.
pub fn workspace_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/lint sits two levels below the workspace root")
        .to_path_buf()
}
