//! Fixture-based self-tests: one violating, one clean, and one suppressed
//! case per rule. Fixture sources live under `tests/fixtures/` — a path the
//! workspace walker deliberately skips — and are replayed through
//! [`fedat_lint::lint_source`] under pretend workspace paths, so each rule's
//! scoping (crate, target kind, special files) is exercised exactly as in a
//! real scan.

use fedat_lint::lint_source;
use fedat_lint::report::{Finding, Suppressed};

fn lint(rel: &str, src: &str) -> (Vec<Finding>, Vec<Suppressed>) {
    lint_source(rel, src).expect("fixture path must classify")
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn r1_flags_hash_containers_in_lib_code() {
    let (f, _) = lint(
        "crates/core/src/table.rs",
        include_str!("fixtures/r1_violation.rs"),
    );
    assert_eq!(rules_of(&f), ["R1", "R1"], "use + field type: {f:?}");
}

#[test]
fn r1_ignores_ordered_containers_comments_and_strings() {
    let (f, s) = lint(
        "crates/core/src/table.rs",
        include_str!("fixtures/r1_clean.rs"),
    );
    assert!(f.is_empty(), "clean fixture flagged: {f:?}");
    assert!(s.is_empty());
}

#[test]
fn r1_is_out_of_scope_in_tests_and_ungated_crates() {
    let src = include_str!("fixtures/r1_violation.rs");
    let (f, _) = lint("crates/core/tests/table.rs", src);
    assert!(f.is_empty(), "R1 must not apply to test code: {f:?}");
    let (f, _) = lint("crates/bench/src/lib.rs", src);
    assert!(f.is_empty(), "R1 must not apply to the bench crate: {f:?}");
}

#[test]
fn r1_suppression_moves_the_finding_to_the_audit_list() {
    let (f, s) = lint(
        "crates/core/src/table.rs",
        include_str!("fixtures/r1_suppressed.rs"),
    );
    assert!(f.is_empty(), "suppressed fixture still flagged: {f:?}");
    assert_eq!(s.len(), 1);
    assert_eq!(s[0].rule, "R1");
    assert!(s[0].reason.contains("diagnostic cache"));
}

#[test]
fn r2_flags_mul_add_and_ps_fusion_anywhere_gated() {
    let (f, _) = lint(
        "crates/nn/src/layers.rs",
        include_str!("fixtures/r2_violation.rs"),
    );
    let rules = rules_of(&f);
    assert!(rules.contains(&"R2"), "expected R2 findings: {f:?}");
    assert_eq!(rules.iter().filter(|r| **r == "R2").count(), 2);
}

#[test]
fn r2_allows_unfused_arithmetic_and_trait_definitions() {
    let (f, _) = lint(
        "crates/nn/src/layers.rs",
        include_str!("fixtures/r2_clean.rs"),
    );
    assert!(f.is_empty(), "clean fixture flagged: {f:?}");
}

#[test]
fn r2_pd_fusion_is_legal_only_in_the_sanctuary() {
    let src = "// SAFETY: fixture.\npub unsafe fn lane() {\n    let _ = _mm256_fmadd_pd();\n}\n";
    let (f, _) = lint(fedat_lint::rules::FMA_SANCTUARY, src);
    assert!(f.is_empty(), "_pd in the sanctuary flagged: {f:?}");
    let (f, _) = lint("crates/tensor/src/ops.rs", src);
    assert_eq!(rules_of(&f), ["R2"], "_pd outside the sanctuary: {f:?}");
}

#[test]
fn r2_suppression_is_honoured() {
    let (f, s) = lint(
        "crates/nn/src/layers.rs",
        include_str!("fixtures/r2_suppressed.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
    assert_eq!(s.len(), 1);
    assert_eq!(s[0].rule, "R2");
}

#[test]
fn r3_flags_unsafe_without_rationale() {
    let (f, _) = lint(
        "crates/tensor/src/ops.rs",
        include_str!("fixtures/r3_violation.rs"),
    );
    assert_eq!(rules_of(&f), ["R3"], "{f:?}");
}

#[test]
fn r3_accepts_safety_across_attributes_and_split_assignments() {
    let (f, _) = lint(
        "crates/tensor/src/ops.rs",
        include_str!("fixtures/r3_clean.rs"),
    );
    assert!(f.is_empty(), "clean fixture flagged: {f:?}");
}

#[test]
fn r3_suppression_is_honoured() {
    let (f, s) = lint(
        "crates/tensor/src/ops.rs",
        include_str!("fixtures/r3_suppressed.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
    assert_eq!(s.len(), 1);
    assert_eq!(s[0].rule, "R3");
}

#[test]
fn r4_flags_clocks_and_adhoc_threads_in_lib_code() {
    let (f, _) = lint(
        "crates/sim/src/runtime.rs",
        include_str!("fixtures/r4_violation.rs"),
    );
    let r4 = f.iter().filter(|f| f.rule == "R4").count();
    // Instant::now, SystemTime (use + call), thread::spawn, thread::sleep,
    // env::var.
    assert!(r4 >= 5, "expected ≥5 R4 findings, got {f:?}");
    let env: Vec<_> = f
        .iter()
        .filter(|f| f.message.contains("env::var"))
        .collect();
    assert_eq!(env.len(), 1, "one environment read: {f:?}");
    assert_eq!(env[0].rule, "R4");
    assert_eq!(env[0].line, 14);
    assert!(
        env[0].message.contains("config alone"),
        "the environment read carries its own rationale: {f:?}"
    );
}

#[test]
fn r4_permits_durations_and_is_lib_only() {
    let (f, _) = lint(
        "crates/sim/src/runtime.rs",
        include_str!("fixtures/r4_clean.rs"),
    );
    assert!(f.is_empty(), "clean fixture flagged: {f:?}");
    let (f, _) = lint(
        "crates/sim/tests/runtime.rs",
        include_str!("fixtures/r4_violation.rs"),
    );
    assert!(f.is_empty(), "R4 must not apply to test code: {f:?}");
}

#[test]
fn r4_suppression_is_honoured() {
    let (f, s) = lint(
        "crates/sim/src/runtime.rs",
        include_str!("fixtures/r4_suppressed.rs"),
    );
    assert!(f.is_empty(), "{f:?}");
    assert_eq!(
        s.len(),
        2,
        "the thread site and the environment read: {s:?}"
    );
    assert!(s.iter().all(|s| s.rule == "R4"));
    assert!(s[1].reason.contains("bit-identical"));
}

#[test]
fn reasonless_allows_are_themselves_findings() {
    let src = "pub fn f() {\n    // lint: allow(R3)\n    unsafe { core::hint::unreachable_unchecked() }\n}\n";
    let (f, s) = lint("crates/core/src/x.rs", src);
    let rules = rules_of(&f);
    assert!(
        rules.contains(&"LINT"),
        "reasonless allow not flagged: {f:?}"
    );
    assert!(
        rules.contains(&"R3"),
        "reasonless allow must not suppress: {f:?}"
    );
    assert!(s.is_empty());
}

#[test]
fn fixture_paths_are_invisible_to_the_workspace_walker() {
    assert!(
        fedat_lint::workspace::classify("crates/lint/tests/fixtures/r1_violation.rs").is_none()
    );
}
