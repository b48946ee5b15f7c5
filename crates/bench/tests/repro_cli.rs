//! `repro` on bad input exits with a message, never a panic: a missing or
//! malformed flag value is a usage error (exit 2, like an unknown id), a
//! LEAF directory or bench name that does not load is a failed experiment
//! (exit 1) naming it. The env is set on the child only.

use std::process::{Command, Output};

fn repro(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .envs(env.iter().copied())
        .output()
        .expect("spawning repro")
}

fn assert_fails(out: &Output, code: i32, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(code), "stderr:\n{stderr}");
    assert!(
        stderr.contains(needle),
        "`{needle}` missing from:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn a_missing_or_malformed_flag_value_is_a_usage_error() {
    let cases: [&[&str]; 6] = [
        &["churn", "--seed"],
        &["churn", "--seed", "x"],
        &["churn", "--threads"],
        &["churn", "--threads", "-1"],
        &["churn", "--out"],
        &["churn", "--quick", "--bogus"],
    ];
    for args in cases {
        let out = repro(args, &[]);
        assert_fails(&out, 2, "usage: repro <experiment-id>");
    }
    assert_fails(&repro(&["churn", "--seed", "x"], &[]), 2, "`x`");
    assert_fails(&repro(&["nope"], &[]), 2, "ids: table1 ");
}

#[test]
fn a_leaf_source_that_does_not_load_is_an_error_naming_it() {
    let out = std::env::temp_dir().join(format!("fedat_repro_cli_{}", std::process::id()));
    let missing = out.join("no-such-leaf-dir");
    let (out_arg, dir) = (out.to_str().unwrap(), missing.to_str().unwrap());
    let args = ["leaf", "--quick", "--out", out_arg];

    let run = repro(
        &args,
        &[("FEDAT_LEAF_DIR", dir), ("FEDAT_LEAF_BENCH", "femnist")],
    );
    assert_fails(&run, 1, dir);
    let run = repro(
        &args,
        &[("FEDAT_LEAF_DIR", dir), ("FEDAT_LEAF_BENCH", "mnist")],
    );
    assert_fails(
        &run,
        1,
        "FEDAT_LEAF_BENCH must be femnist|sent140|reddit, got `mnist`",
    );
    std::fs::remove_dir_all(&out).ok();
}
