//! The determinism rules (R1–R4, R6) and the suppression grammar.
//!
//! Every rule is a pure function over the lexed lines of one file plus its
//! workspace classification. Rules report *raw* findings; the driver in
//! [`crate::lint_source`] then matches them against `lint: allow(..)`
//! suppressions found on the same line or in the contiguous comment block
//! above.

use crate::scan::{has_call, has_token, Line};
use crate::workspace::FileKind;

/// Crates that carry the bit-identity contract. `bench` is deliberately
/// absent: wall-clock benchmarks measure time, so they may read clocks and
/// spawn threads freely.
pub const GATED_CRATES: &[&str] = &["core", "sim", "tensor", "nn", "compress"];

/// Wall-clock and threading APIs banned from library code by [R4].
const R4_PATTERNS: &[&str] = &[
    "Instant::now",
    "SystemTime",
    "thread::spawn",
    "thread::scope",
    "thread::Builder",
    "thread::sleep",
];

/// Fused-multiply token stems banned by [R2]. `_pd` variants are legal only
/// inside the pinned lane framework of `crates/tensor/src/simd.rs`, where the
/// f64 products of f32 inputs are exact and fusing cannot change a bit.
const FUSED_STEMS: &[&str] = &["fmadd", "fmsub", "fnmadd", "fnmsub"];

/// The one file where `_pd` fused intrinsics are exact-by-construction.
pub const FMA_SANCTUARY: &str = "crates/tensor/src/simd.rs";

/// A rule violation before suppression matching (0-based line index).
#[derive(Clone, Debug)]
pub struct RawFinding {
    /// 0-based index into the lexed lines.
    pub line_idx: usize,
    /// Rule id.
    pub rule: &'static str,
    /// Rationale shown to the developer.
    pub message: String,
}

/// Classification of one file being linted.
#[derive(Clone, Copy, Debug)]
pub struct FileContext<'a> {
    /// Workspace-relative path.
    pub rel: &'a str,
    /// Crate directory name under `crates/`.
    pub crate_name: &'a str,
    /// Target kind.
    pub kind: FileKind,
}

fn gated(ctx: &FileContext) -> bool {
    GATED_CRATES.contains(&ctx.crate_name)
}

/// Runs every rule over one file.
pub fn run_all(ctx: &FileContext, lines: &[Line]) -> Vec<RawFinding> {
    let mut out = Vec::new();
    rule_r1(ctx, lines, &mut out);
    rule_r2(ctx, lines, &mut out);
    rule_r3(ctx, lines, &mut out);
    rule_r4(ctx, lines, &mut out);
    rule_r6(ctx, lines, &mut out);
    rule_malformed_allows(ctx, lines, &mut out);
    out
}

/// R1: no `HashMap`/`HashSet` in library code of gated crates. Their
/// `RandomState` hasher is seeded per process, so iteration order — and any
/// float accumulation that follows it — varies run to run.
fn rule_r1(ctx: &FileContext, lines: &[Line], out: &mut Vec<RawFinding>) {
    if !gated(ctx) || ctx.kind != FileKind::Lib {
        return;
    }
    for (i, line) in lines.iter().enumerate() {
        for ty in ["HashMap", "HashSet"] {
            if has_token(&line.code, ty) {
                out.push(RawFinding {
                    line_idx: i,
                    rule: "R1",
                    message: format!(
                        "{ty} iterates in RandomState order; use BTreeMap/BTreeSet so \
                         aggregation order is pinned (bit-identity contract)"
                    ),
                });
            }
        }
    }
}

/// R2: no fused multiply-add outside the pinned lanes of
/// [`FMA_SANCTUARY`]. `f32::mul_add` and `_ps` fused intrinsics round once
/// where the scalar reference rounds twice, so results diverge from the
/// pinned trace; `_pd` fusion over f32 inputs is exact and allowed only in
/// the sanctuary where the lane structure is part of the contract.
fn rule_r2(ctx: &FileContext, lines: &[Line], out: &mut Vec<RawFinding>) {
    if !gated(ctx) {
        return;
    }
    for (i, line) in lines.iter().enumerate() {
        if has_call(&line.code, "mul_add") {
            out.push(RawFinding {
                line_idx: i,
                rule: "R2",
                message: "mul_add fuses the intermediate rounding step; write `a * b + c` so \
                          scalar and SIMD lanes round identically"
                    .into(),
            });
        }
        for stem in FUSED_STEMS {
            let mut from = 0;
            while let Some(rel_pos) = line.code[from..].find(stem) {
                let at = from + rel_pos;
                from = at + stem.len();
                // Expand to the full identifier around the stem.
                let bytes = line.code.as_bytes();
                let mut lo = at;
                while lo > 0 && (bytes[lo - 1].is_ascii_alphanumeric() || bytes[lo - 1] == b'_') {
                    lo -= 1;
                }
                let mut hi = at + stem.len();
                while hi < bytes.len() && (bytes[hi].is_ascii_alphanumeric() || bytes[hi] == b'_') {
                    hi += 1;
                }
                let ident = &line.code[lo..hi];
                let exact_pd = ident.ends_with("_pd");
                if exact_pd && ctx.rel == FMA_SANCTUARY {
                    continue;
                }
                out.push(RawFinding {
                    line_idx: i,
                    rule: "R2",
                    message: format!(
                        "fused intrinsic `{ident}` outside the pinned-lane sanctuary \
                         ({FMA_SANCTUARY}); fusion changes rounding vs the scalar reference"
                    ),
                });
            }
        }
    }
}

/// R3: every `unsafe` keyword in a gated crate must carry a `// SAFETY:`
/// rationale on the same line or in the contiguous comment block above.
fn rule_r3(ctx: &FileContext, lines: &[Line], out: &mut Vec<RawFinding>) {
    if !gated(ctx) {
        return;
    }
    for (i, line) in lines.iter().enumerate() {
        if !has_token(&line.code, "unsafe") {
            continue;
        }
        if comment_block_above(lines, i)
            .iter()
            .any(|c| c.contains("SAFETY:"))
        {
            continue;
        }
        out.push(RawFinding {
            line_idx: i,
            rule: "R3",
            message: "unsafe without a `// SAFETY:` comment; state the invariant that makes \
                      this sound"
                .into(),
        });
    }
}

/// R4: no wall-clock reads or ad-hoc thread spawns in library code of gated
/// crates. Simulated time comes from the event queue; real threads belong to
/// the audited kernel pool.
fn rule_r4(ctx: &FileContext, lines: &[Line], out: &mut Vec<RawFinding>) {
    if !gated(ctx) || ctx.kind != FileKind::Lib {
        return;
    }
    for (i, line) in lines.iter().enumerate() {
        for pat in R4_PATTERNS {
            if let Some(at) = line.code.find(pat) {
                // Reject matches that extend an identifier on the left
                // (e.g. `my_thread::spawn`).
                let ok = at == 0 || {
                    let b = line.code.as_bytes()[at - 1];
                    !(b.is_ascii_alphanumeric() || b == b'_')
                };
                if ok {
                    out.push(RawFinding {
                        line_idx: i,
                        rule: "R4",
                        message: format!(
                            "`{pat}` in library code; simulated time comes from the event \
                             queue and threads from the kernel pool"
                        ),
                    });
                }
            }
        }
    }
}

/// R6: config structs in the serde-facing config files — the experiment
/// config (`crates/core/src/config.rs`, home of `FaultPolicy` and
/// `GuardPolicy`) and the churn scenario specs (`crates/sim/src/churn.rs`,
/// home of `CorruptSpec` and friends) — that derive `Deserialize` must
/// carry container-level `#[serde(default)]`, so configs written by older
/// binaries keep loading when fields are added.
fn rule_r6(ctx: &FileContext, lines: &[Line], out: &mut Vec<RawFinding>) {
    if ctx.rel != "crates/core/src/config.rs" && ctx.rel != "crates/sim/src/churn.rs" {
        return;
    }
    for (i, line) in lines.iter().enumerate() {
        if !(line.code.contains("derive(") && has_token(&line.code, "Deserialize")) {
            continue;
        }
        let mut has_default = line.code.contains("serde(default)");
        let mut j = i + 1;
        while j < lines.len() {
            let code = lines[j].code.trim();
            if code.is_empty() || code.starts_with("#[") || code.starts_with("#!") {
                if code.contains("serde(default)") {
                    has_default = true;
                }
                j += 1;
            } else {
                break;
            }
        }
        if j >= lines.len() {
            continue;
        }
        let item = lines[j].code.trim();
        if has_token(item, "struct") && !has_default {
            out.push(RawFinding {
                line_idx: j,
                rule: "R6",
                message: "config struct derives Deserialize without container-level \
                          #[serde(default)]; old on-disk configs must keep loading when \
                          fields are added"
                    .into(),
            });
        }
    }
}

/// LINT: a `lint: allow(..)` without a `reason = ".."` is itself a finding —
/// unexplained suppressions rot. Scoped to gated crates: that is where
/// suppressions have effect (and where all of them live).
fn rule_malformed_allows(ctx: &FileContext, lines: &[Line], out: &mut Vec<RawFinding>) {
    if !gated(ctx) {
        return;
    }
    for (i, line) in lines.iter().enumerate() {
        for allow in parse_allows(&line.comment) {
            if allow.rules.is_empty() {
                out.push(RawFinding {
                    line_idx: i,
                    rule: "LINT",
                    message: "malformed suppression: `lint: allow(..)` names no rule".into(),
                });
            } else if allow.reason.is_none() {
                out.push(RawFinding {
                    line_idx: i,
                    rule: "LINT",
                    message: format!(
                        "suppression for {} carries no reason; write \
                         `lint: allow({}, reason = \"..\")`",
                        allow.rules.join(", "),
                        allow.rules.join(", ")
                    ),
                });
            }
        }
    }
}

/// A parsed `lint: allow(R.., reason = "..")` marker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allow {
    /// Rule ids named by the marker.
    pub rules: Vec<String>,
    /// The justification string, if present (required for the marker to
    /// actually suppress anything).
    pub reason: Option<String>,
}

/// Extracts every `lint: allow(..)` marker from one comment string.
pub fn parse_allows(comment: &str) -> Vec<Allow> {
    const MARKER: &str = "lint: allow(";
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(pos) = rest.find(MARKER) {
        let mut s = &rest[pos + MARKER.len()..];
        rest = s;
        let mut rules = Vec::new();
        let mut reason = None;
        loop {
            s = s.trim_start_matches([' ', ',']);
            if s.is_empty() || s.starts_with(')') {
                break;
            }
            if let Some(r) = s.strip_prefix("reason") {
                let r = r.trim_start();
                let r = r.strip_prefix('=').unwrap_or(r).trim_start();
                if let Some(body) = r.strip_prefix('"') {
                    if let Some(end) = body.find('"') {
                        reason = Some(body[..end].to_string());
                        s = &body[end + 1..];
                        continue;
                    }
                }
                break; // malformed reason → treated as absent
            }
            let end = s.find([',', ')', ' ']).unwrap_or(s.len());
            if end == 0 {
                break;
            }
            rules.push(s[..end].to_string());
            s = &s[end..];
        }
        out.push(Allow { rules, reason });
    }
    out
}

/// Comment text applicable to line `i`: its own comment plus the contiguous
/// block of comment-only / attribute-only lines directly above. A fully
/// blank line (no code, no comment) breaks the block, keeping rationales
/// tightly associated with the code they justify. Assignment continuations
/// (`let x =` split across lines by rustfmt) are passed through so a
/// rationale above the statement covers its whole right-hand side.
pub fn comment_block_above(lines: &[Line], i: usize) -> Vec<&str> {
    let mut block = vec![lines[i].comment.as_str()];
    let mut j = i;
    while j > 0 {
        j -= 1;
        let code = lines[j].code.trim();
        let comment = &lines[j].comment;
        if code.is_empty() && comment.is_empty() {
            break; // blank line
        }
        if code.is_empty()
            || code.starts_with("#[")
            || code.starts_with("#!")
            || code.ends_with('=')
        {
            block.push(comment.as_str());
        } else {
            break;
        }
    }
    block
}

/// Allows applicable to line `i` (same line + contiguous block above).
pub fn allows_for_line(lines: &[Line], i: usize) -> Vec<Allow> {
    comment_block_above(lines, i)
        .into_iter()
        .flat_map(parse_allows)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allow_parsing_extracts_rules_and_reason() {
        let a = parse_allows("// lint: allow(R4, reason = \"audited home\")");
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].rules, vec!["R4"]);
        assert_eq!(a[0].reason.as_deref(), Some("audited home"));
    }

    #[test]
    fn allow_parsing_handles_multiple_rules_and_parens_in_reason() {
        let a = parse_allows("// lint: allow(R1, R4, reason = \"x (y) z\")");
        assert_eq!(a[0].rules, vec!["R1", "R4"]);
        assert_eq!(a[0].reason.as_deref(), Some("x (y) z"));
    }

    #[test]
    fn allow_without_reason_is_parsed_but_reasonless() {
        let a = parse_allows("// lint: allow(R2)");
        assert_eq!(a[0].rules, vec!["R2"]);
        assert!(a[0].reason.is_none());
    }

    #[test]
    fn token_position_is_boundary_aware() {
        use crate::scan::token_position;
        assert!(token_position("let m: HashMap<u8, u8>;", "HashMap").is_some());
        assert!(token_position("let m: MyHashMapLike;", "HashMap").is_none());
    }
}
