//! The three claims of the robustness and wire-codec work that nothing else
//! in tier-1 holds, asserted on the job lists `repro churn|corrupt|codec`
//! print (`fedat_bench::experiments`), at the sizes and seeds the thresholds
//! were calibrated at:
//!
//! * dynamic re-tiering does not lose time-to-target to the static server
//!   under flaps + storms + drift (30 clients, seed 37),
//! * the undefended server collapses at ≥ 20% corrupt clients while every
//!   defended posture stays within two points of clean (24 clients, seed 41),
//! * some codec gives FedAT ≥ 4× fewer uplink bytes within one accuracy
//!   point, and the lossless delta trains bit-identically (16 clients,
//!   seed 11).
//!
//! Every failure message carries the measured rows; run with `--nocapture`
//! to see them on a pass.
//!
//! One more test pins a known gap rather than a claim: at quick scale the
//! strategy × dataset matrix compares budgets, not time — every run on the
//! sent140-like row (seed 9) stops on its round budget before the shared
//! horizon. Making the horizon end every run flips it, on purpose.

use fedat_bench::experiments::{
    best_codec_within_a_point, churn_jobs, codec_jobs, corrupt_curve_jobs, jobs, Ctx, CHURN_HORIZON,
};
use fedat_bench::grid::run_grid;
use fedat_bench::harness::{Job, JobResult, Scale};
use fedat_core::config::StrategyKind;
use fedat_data::suite;
use fedat_sim::fault::FaultKind;
use fedat_sim::runtime::StopReason;
use std::path::PathBuf;
use std::sync::Arc;

fn cell<'a>(results: &'a [JobResult], label: &str) -> &'a JobResult {
    results
        .iter()
        .find(|r| r.label == label)
        .unwrap_or_else(|| panic!("no job labelled `{label}`"))
}

/// One line per run: what `repro` prints, at full precision.
fn table(results: &[JobResult]) -> String {
    let mut out = String::new();
    for r in results {
        let n = |kind| r.outcome.faults.count(kind);
        out.push_str(&format!(
            "{:<24} best {:.4}  t→{:.2} {:?}  updates {}  tiers {:?}  up {} B  finite {}  \
             timeouts {} retries {} quorum {} re-tiers {} corrupt {} clips {} fault rows {}\n",
            r.label,
            r.outcome.best_accuracy(),
            r.target_accuracy,
            r.outcome.trace.time_to_accuracy(r.target_accuracy),
            r.outcome.global_updates,
            r.outcome.tier_updates.as_deref().unwrap_or_default(),
            r.up_bytes(),
            r.final_finite(),
            n(FaultKind::Timeout),
            n(FaultKind::Retry),
            n(FaultKind::Quorum),
            n(FaultKind::Retier),
            n(FaultKind::Corrupt),
            n(FaultKind::Clip),
            r.outcome.faults.events().len(),
        ));
    }
    println!("{out}");
    out
}

// No scenario here is swept over job caps and SIMD lanes: fedat-core's
// `common::sweep` is the one execution-settings sweep, and its rows
// `timeout_paths_are_bit_identical_across_exec_modes_and_workers`,
// `guarded_corruption_is_bit_identical_across_exec_modes_and_workers` and
// `delta_rle_fedat_is_bit_identical_across_exec_settings` cover the churn,
// corrupt and lossless-codec paths.

#[test]
fn dynamic_retiering_does_not_lose_time_to_target_under_churn() {
    let task = Arc::new(suite::sent140_like(30, 37));
    let results = run_grid(churn_jobs(&task, 37), 0);
    let rows = table(&results);

    // The fault-tolerant servers ride out the scenario with no stalled tier
    // and genuinely exercise the timeout / re-dispatch path.
    let dynamic = cell(&results, "FedAT dynamic re-tier");
    for r in [cell(&results, "FedAT timeouts"), dynamic] {
        let tiers = r
            .outcome
            .tier_updates
            .as_ref()
            .expect("FedAT reports tiers");
        assert!(
            tiers.iter().all(|&u| u > 0),
            "{}: a tier stalled\n{rows}",
            r.label
        );
        for kind in [FaultKind::Down, FaultKind::Timeout, FaultKind::Retry] {
            assert!(
                r.outcome.faults.count(kind) > 0,
                "{}: fault kind {kind} missing from the log\n{rows}",
                r.label
            );
        }
    }
    assert!(
        dynamic.outcome.faults.count(FaultKind::Retier) > 0,
        "dynamic re-tiering never adopted a migration\n{rows}"
    );
    // An unreached target counts as the full horizon.
    let tta = |r: &JobResult| {
        r.outcome
            .trace
            .time_to_accuracy(r.target_accuracy)
            .unwrap_or(CHURN_HORIZON)
    };
    let (dyn_tta, static_tta) = (tta(dynamic), tta(cell(&results, "FedAT static")));
    assert!(
        dyn_tta <= static_tta,
        "dynamic re-tiering lost time-to-target: {dyn_tta:.1} s vs static {static_tta:.1} s\n{rows}"
    );
}

#[test]
fn undefended_server_collapses_under_corruption_and_every_defence_holds() {
    let task = Arc::new(suite::sent140_like(24, 41));
    let results = run_grid(corrupt_curve_jobs(&task, 41), 0);
    let rows = table(&results);
    let at = |posture: &str, pct: u32| cell(&results, &format!("FedAvg {posture} {pct}%"));
    let clean = at("undefended", 0).outcome.best_accuracy();

    for pct in [20, 30] {
        let u = at("undefended", pct);
        assert!(
            !u.final_finite() || u.outcome.best_accuracy() < clean - 0.05,
            "undefended @ {pct}%: expected collapse, got best {:.4} vs clean {clean:.4}\n{rows}",
            u.outcome.best_accuracy()
        );
        for posture in ["clip", "trimmed", "median"] {
            let d = at(posture, pct);
            assert!(
                d.final_finite(),
                "{posture} @ {pct}%: non-finite model\n{rows}"
            );
            assert!(
                d.outcome.best_accuracy() >= clean - 0.02,
                "{posture} @ {pct}%: best {:.4} fell more than two points below clean \
                 {clean:.4}\n{rows}",
                d.outcome.best_accuracy()
            );
        }
    }
    // The observability surfaces must actually see the attack: ground-truth
    // corrupt events land in the log, and the clip posture clips.
    for pct in [10, 20, 30] {
        let c = at("clip", pct);
        assert!(
            c.outcome.faults.count(FaultKind::Corrupt) > 0,
            "clip @ {pct}%: FaultKind::Corrupt missing from the log\n{rows}"
        );
        assert!(
            c.outcome.faults.count(FaultKind::Clip) > 0,
            "clip @ {pct}%: the norm screen never clipped\n{rows}"
        );
    }
}

#[test]
fn a_codec_cuts_fedat_uplink_fourfold_and_the_lossless_delta_is_bit_identical() {
    let task = Arc::new(suite::sent140_like(16, 11));
    let jobs: Vec<Job> = codec_jobs(&task, 11)
        .into_iter()
        .filter(|j| j.cfg.strategy == StrategyKind::FedAt)
        .collect();
    let results = run_grid(jobs, 0);
    let rows = table(&results);

    let (best, ratio, loss) = best_codec_within_a_point(&results)
        .unwrap_or_else(|| panic!("no codec stayed within one point\n{rows}"));
    println!("accepted: {} at {ratio:.2}x, loss {loss:.4}", best.label);
    assert!(
        ratio >= 4.0,
        "best qualifying codec {} only reached {ratio:.2}x (loss {loss:.4})\n{rows}",
        best.label
    );

    // The lossless delta is bitwise-identical training: the uncompressed
    // run's final model, from fewer uplink bytes.
    let (none, rle) = (
        cell(&results, "FedAT none"),
        cell(&results, "FedAT delta-rle"),
    );
    assert_eq!(
        rle.outcome.final_weights, none.outcome.final_weights,
        "delta-rle diverged from the uncompressed run\n{rows}"
    );
    assert!(
        rle.up_bytes() < none.up_bytes(),
        "delta-rle saved nothing\n{rows}"
    );
}

#[test]
fn quick_matrix_runs_stop_on_their_budget_before_the_horizon() {
    let ctx = Ctx {
        scale: Scale::Quick,
        out: PathBuf::new(),
        seed: 9,
        threads: 0,
    };
    let matrix = jobs("table1", &ctx).expect("table1 runs the matrix");
    let row: Vec<Job> = matrix
        .into_iter()
        .filter(|j| j.task.name == "sent140-like")
        .collect();
    assert_eq!(row.len(), 5, "one run per Table 1 strategy");
    let results = run_grid(row, 0);
    let rows = table(&results);
    for r in &results {
        let report = &r.outcome.report;
        assert_eq!(report.reason, StopReason::Finished, "{}:\n{rows}", r.label);
        assert!(
            report.end_time < r.max_time,
            "{} ended at {} s, its horizon is {} s:\n{rows}",
            r.label,
            report.end_time,
            r.max_time
        );
    }
}
