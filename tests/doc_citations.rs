//! Doc citations stay true: every `` `docs/X.md`, "Section" `` pointer in
//! `crates/**/*.rs` and `docs/*.md` names a heading X has, every
//! backticked `*.rs` file name in `docs/*.md` is a file of the tree, and
//! every backticked snake_case name with two or more underscores in
//! `docs/*.md` (a test, function or metric) occurs in some `.rs` file or
//! `Cargo.toml`, and every backticked `Type::member` path in `docs/*.md`
//! names a `struct`, `enum` or `trait` the code declares and a member (a
//! `fn`, `const`, field or variant) the code defines somewhere.

use std::fs::{read_dir, read_to_string};
use std::path::Path;

/// Every file under `dir`, as a path relative to the repository root.
fn walk(root: &Path, dir: &str, out: &mut Vec<String>) {
    for entry in read_dir(root.join(dir)).unwrap().map(Result::unwrap) {
        let rel = format!("{dir}/{}", entry.file_name().to_string_lossy());
        match entry.file_type().unwrap().is_dir() {
            true if !rel.ends_with("/target") => walk(root, &rel, out),
            _ => out.push(rel),
        }
    }
}

#[test]
fn every_doc_citation_names_a_heading_and_every_cited_file_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut tree = vec!["Cargo.toml".to_string()];
    for dir in ["crates", "docs", "src", "tests", "examples", "benchmark"] {
        walk(root, dir, &mut tree);
    }
    let is_doc = |f: &str| f.starts_with("docs/") && f.ends_with(".md");
    let code: String = tree
        .iter()
        .filter(|f| f.ends_with(".rs") || f.ends_with("Cargo.toml"))
        .map(|f| read_to_string(root.join(f)).unwrap())
        .collect();
    let cites = tree
        .iter()
        .filter(|f| f.ends_with(".rs") && f.starts_with("crates/") || is_doc(f));
    for file in cites {
        // One line, comment markers dropped: a wrapped citation reads whole.
        let text = read_to_string(root.join(file)).unwrap();
        // Odd pieces of a split on backticks are backticked spans.
        for name in text.split('`').skip(1).step_by(2).filter(|_| is_doc(file)) {
            let snake = name.starts_with(|c: char| c.is_ascii_lowercase())
                && name
                    .chars()
                    .all(|c| matches!(c, 'a'..='z' | '0'..='9' | '_'));
            let cited = snake && name.matches('_').count() >= 2;
            assert!(
                !cited || code.contains(name),
                "{file}: no code names `{name}`"
            );
            let path = name.strip_suffix("()").unwrap_or(name).split_once("::");
            let Some((ty, member)) = path.filter(|(ty, member)| {
                let ident = |s: &str| s.chars().all(|c| c.is_alphanumeric() || c == '_');
                ty.starts_with(|c: char| c.is_ascii_uppercase()) && ident(ty) && ident(member)
            }) else {
                continue;
            };
            let declared = ["struct", "enum", "trait"].iter().any(|kw| {
                let decl = format!("{kw} {ty}");
                code.match_indices(&decl).any(|(i, _)| {
                    !code[i + decl.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
                })
            });
            let defined = [
                "fn {}(",
                "fn {}<",
                "const {}:",
                " {}: ",
                " {},",
                " {} {",
                " {}(",
            ]
            .iter()
            .any(|form| code.contains(&form.replace("{}", member)));
            assert!(
                declared && defined,
                "{file}: no code declares `{ty}` and defines `{member}`"
            );
        }
        let lines = text
            .lines()
            .map(|l| l.trim().trim_start_matches(['/', '!']).trim());
        let text = lines.collect::<Vec<_>>().join(" ");
        for rest in text.split("`docs/").skip(1) {
            let (doc, after) = rest.split_once('`').unwrap();
            let cited = after.strip_prefix(", \"").and_then(|s| s.split_once('"'));
            let Some((section, _)) = cited else { continue };
            let body = read_to_string(root.join("docs").join(doc)).expect(doc);
            let mut fenced = false;
            let found = body.lines().any(|l| {
                fenced ^= l.starts_with("```");
                !fenced && l.starts_with('#') && l.trim_start_matches('#').trim() == section
            });
            assert!(found, "{file}: `docs/{doc}` has no heading {section:?}");
        }
        for (end, _) in text.match_indices(".rs`").filter(|_| is_doc(file)) {
            let start = text[..end].rfind(|c: char| !(c.is_alphanumeric() || "_./-".contains(c)));
            let (start, name) = (start.unwrap(), &text[start.unwrap() + 1..end + 3]);
            let exists = tree
                .iter()
                .any(|f| format!("/{f}").ends_with(&format!("/{name}")));
            let cited = text[start..].starts_with('`');
            assert!(!cited || exists, "{file}: no file `{name}`");
        }
    }
}
