//! Workspace discovery: walks `crates/*` and classifies every `.rs` file.

use std::io;
use std::path::{Path, PathBuf};

/// What kind of target a source file belongs to. Rules scope themselves to
/// kinds: library code carries the bit-identity contract, test code may
/// exercise toggles through guards, benches are out of contract entirely.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FileKind {
    /// `src/**` — library code shipped to every consumer.
    Lib,
    /// `tests/**` — integration tests.
    Test,
    /// `benches/**` — wall-clock benchmarks (out of the determinism contract).
    Bench,
    /// `examples/**`.
    Example,
    /// `src/bin/**` — binaries (CLIs may read clocks and spawn threads).
    Bin,
}

impl FileKind {
    /// Stable lowercase name for reports.
    pub fn name(self) -> &'static str {
        match self {
            FileKind::Lib => "lib",
            FileKind::Test => "test",
            FileKind::Bench => "bench",
            FileKind::Example => "example",
            FileKind::Bin => "bin",
        }
    }
}

/// One source file slated for scanning.
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Absolute path on disk.
    pub path: PathBuf,
    /// Path relative to the workspace root, with `/` separators.
    pub rel: String,
    /// Crate directory name under `crates/` (e.g. `core`, `tensor`).
    pub crate_name: String,
    /// Target classification.
    pub kind: FileKind,
}

/// Classifies a workspace-relative path (`crates/<name>/...`), or returns
/// `None` for files the linter does not scan (fixtures, non-target dirs).
pub fn classify(rel: &str) -> Option<(String, FileKind)> {
    let rest = rel.strip_prefix("crates/")?;
    let (crate_name, inside) = rest.split_once('/')?;
    if !inside.ends_with(".rs") {
        return None;
    }
    // Lint-rule fixtures are deliberate violations; never scan them.
    if inside.contains("tests/fixtures/") {
        return None;
    }
    let kind = if let Some(src_rest) = inside.strip_prefix("src/") {
        if src_rest.starts_with("bin/") {
            FileKind::Bin
        } else {
            FileKind::Lib
        }
    } else if inside.starts_with("tests/") {
        FileKind::Test
    } else if inside.starts_with("benches/") {
        FileKind::Bench
    } else if inside.starts_with("examples/") {
        FileKind::Example
    } else {
        return None;
    };
    Some((crate_name.to_string(), kind))
}

/// Walks `root/crates/*` and returns every classifiable `.rs` file, sorted
/// by workspace-relative path so reports are deterministic.
pub fn discover(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    let mut stack = vec![crates_dir];
    while let Some(dir) = stack.pop() {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            Err(_) => continue,
        };
        for entry in entries {
            let entry = entry?;
            let path = entry.path();
            if path.is_dir() {
                let name = entry.file_name();
                if name != "target" {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy())
                    .collect::<Vec<_>>()
                    .join("/");
                if let Some((crate_name, kind)) = classify(&rel) {
                    files.push(SourceFile {
                        path,
                        rel,
                        crate_name,
                        kind,
                    });
                }
            }
        }
    }
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(files)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_cargo_target_layout() {
        assert_eq!(
            classify("crates/core/src/lib.rs"),
            Some(("core".into(), FileKind::Lib))
        );
        assert_eq!(
            classify("crates/core/src/strategies/fedasync.rs"),
            Some(("core".into(), FileKind::Lib))
        );
        assert_eq!(
            classify("crates/core/src/bin/fedat.rs"),
            Some(("core".into(), FileKind::Bin))
        );
        assert_eq!(
            classify("crates/tensor/tests/pool_determinism.rs"),
            Some(("tensor".into(), FileKind::Test))
        );
        assert_eq!(
            classify("crates/tensor/benches/matmul.rs"),
            Some(("tensor".into(), FileKind::Bench))
        );
    }

    #[test]
    fn fixtures_and_foreign_files_are_skipped() {
        assert_eq!(classify("crates/lint/tests/fixtures/r1_violation.rs"), None);
        assert_eq!(classify("vendor/rand/src/lib.rs"), None);
        assert_eq!(classify("crates/core/README.md"), None);
        assert_eq!(classify("src/lib.rs"), None);
    }
}
