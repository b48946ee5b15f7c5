//! `--check A.json B.json`: is B a regression against A?
//!
//! Both files are `--report` outputs. Every end-to-end metric's bound,
//! direction and samples are read from the files themselves, so an old
//! report stays checkable after the tables change. For each workload:
//!
//! * a metric whose median is worse in B than in A by more than its bound is
//!   a **breach**;
//! * otherwise, a metric whose min–max spread exceeds its bound in either
//!   file is **unresolved** — the runs cannot tell "unchanged" from "moved";
//! * the four virtual metrics are exact functions of the seed: when both
//!   files measured the same seeds they must be *equal*, and any difference
//!   is a breach (the program's behaviour changed);
//! * a rise in `ops_failed / ops_attempted` is a breach.
//!
//! Bounds are not applied to `--quick` reports (tenth-size runs time a few
//! hundred milliseconds): only equality and the failure rate are checked.

use crate::output::{members, number_at, parse_json};
use fedat_data::leaf::json::JsonValue;

/// End-to-end metrics that are exact for a given seed: simulated time,
/// bytes and accuracy do not depend on the host or on scheduling.
const EXACT_FOR_A_SEED: [&str; 4] = [
    "vtime_to_target_s",
    "mb_to_target",
    "best_accuracy",
    "accuracy_variance",
];

/// How one metric of one workload compares.
#[derive(Clone, Debug, PartialEq)]
enum Verdict {
    Ok,
    Unresolved(String),
    Breach(String),
}

fn samples(metric: &JsonValue) -> Result<Vec<f64>, String> {
    metric
        .get("values")
        .and_then(JsonValue::as_array)
        .ok_or("missing `values`")?
        .iter()
        .map(|v| v.as_f64().ok_or_else(|| "non-numeric sample".to_string()))
        .collect()
}

/// Min–max spread as a share of the median.
fn range_share(metric: &JsonValue) -> Result<f64, String> {
    let median = number_at(metric, "median")?;
    Ok((number_at(metric, "max")? - number_at(metric, "min")?) / median.abs())
}

fn compare(
    name: &str,
    a: &JsonValue,
    b: &JsonValue,
    same_seeds: bool,
    quick: bool,
) -> Result<Verdict, String> {
    let bound = number_at(a, "bound")?;
    let (med_a, med_b) = (number_at(a, "median")?, number_at(b, "median")?);
    let higher_is_better = a.get("better").and_then(JsonValue::as_str) == Some("higher");
    let worse_by = if higher_is_better {
        (med_a - med_b) / med_a.abs()
    } else {
        (med_b - med_a) / med_a.abs()
    };
    if same_seeds && EXACT_FOR_A_SEED.contains(&name) && samples(a)? != samples(b)? {
        return Ok(Verdict::Breach(format!(
            "exact for a seed, yet {med_a} became {med_b}"
        )));
    }
    if quick {
        return Ok(Verdict::Ok);
    }
    if worse_by > bound {
        return Ok(Verdict::Breach(format!(
            "median {med_a} -> {med_b}: worse by {:.1}%, bound {:.1}%",
            100.0 * worse_by,
            100.0 * bound
        )));
    }
    let widest = range_share(a)?.max(range_share(b)?);
    if widest > bound {
        return Ok(Verdict::Unresolved(format!(
            "min-max spread {:.1}% exceeds the bound {:.1}%",
            100.0 * widest,
            100.0 * bound
        )));
    }
    Ok(Verdict::Ok)
}

fn failure_rate(workload: &JsonValue) -> Result<f64, String> {
    let attempted = number_at(workload, "ops_attempted")?;
    Ok(number_at(workload, "ops_failed")? / attempted.max(1.0))
}

/// Compares two parsed reports; returns one line per finding and whether
/// any of them is a breach.
fn check_documents(a: &JsonValue, b: &JsonValue) -> Result<(Vec<String>, bool), String> {
    let host = |doc: &JsonValue, key: &str| doc.get("host").and_then(|h| h.get(key)).cloned();
    let same_seeds = ["seed", "runs", "quick"]
        .iter()
        .all(|k| host(a, k).is_some() && host(a, k) == host(b, k));
    let quick = [a, b]
        .iter()
        .any(|doc| host(doc, "quick") == Some(JsonValue::Bool(true)));
    let mut findings = Vec::new();
    let mut breached = false;
    let workloads_a = a.get("workloads").ok_or("A: missing `workloads`")?;
    let workloads_b = b.get("workloads").ok_or("B: missing `workloads`")?;
    for (workload, wa) in members(workloads_a, "A.workloads")? {
        let Some(wb) = workloads_b.get(workload) else {
            findings.push(format!("{workload}: BREACH: missing from B"));
            breached = true;
            continue;
        };
        let (rate_a, rate_b) = (failure_rate(wa)?, failure_rate(wb)?);
        if rate_b > rate_a {
            findings.push(format!(
                "{workload}: BREACH: failed operations rose from {rate_a} to {rate_b} of attempted"
            ));
            breached = true;
        }
        let metrics_a = wa.get("end_to_end").ok_or("A: missing `end_to_end`")?;
        for (name, ma) in members(metrics_a, "A.end_to_end")? {
            let verdict = match wb.get("end_to_end").and_then(|m| m.get(name)) {
                Some(mb) => compare(name, ma, mb, same_seeds, quick)
                    .map_err(|e| format!("{workload}/{name}: {e}"))?,
                None => Verdict::Breach("missing from B".to_string()),
            };
            match verdict {
                Verdict::Ok => {}
                Verdict::Unresolved(why) => {
                    findings.push(format!("{workload}/{name}: unresolved: {why}"));
                }
                Verdict::Breach(why) => {
                    findings.push(format!("{workload}/{name}: BREACH: {why}"));
                    breached = true;
                }
            }
        }
    }
    Ok((findings, breached))
}

/// Checks report `b_path` against report `a_path`. `Ok(false)` on a breach.
///
/// # Errors
/// Fails when a file cannot be read or is not a report.
pub fn run(a_path: &str, b_path: &str) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| parse_json(&text).map_err(|e| format!("{path}: {e}")))
    };
    let (findings, breached) = check_documents(&read(a_path)?, &read(b_path)?)?;
    for line in &findings {
        println!("{line}");
    }
    println!(
        "{}: {} finding(s)",
        if breached { "BREACH" } else { "ok" },
        findings.len()
    );
    Ok(!breached)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(seed: u64, failed: u64, rate: [f64; 3], vtime: [f64; 3]) -> JsonValue {
        report_in_mode(false, seed, failed, rate, vtime)
    }

    fn report_in_mode(
        quick: bool,
        seed: u64,
        failed: u64,
        rate: [f64; 3],
        vtime: [f64; 3],
    ) -> JsonValue {
        let block = |name: &str, better: &str, bound: f64, v: [f64; 3]| {
            let mut sorted = v;
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
            format!(
                "\"{name}\": {{\"unit\": \"x\", \"better\": \"{better}\", \"bound\": {bound}, \
                 \"median\": {}, \"min\": {}, \"max\": {}, \"n\": 3, \"values\": [{}, {}, {}]}}",
                sorted[1], sorted[0], sorted[2], v[0], v[1], v[2]
            )
        };
        parse_json(&format!(
            "{{\"host\": {{\"seed\": {seed}, \"runs\": 3, \"quick\": {quick}}}, \"workloads\": \
             {{\"w\": {{\"ops_attempted\": 30, \"ops_failed\": {failed}, \"end_to_end\": {{{}, {}}}}}}}}}",
            block("client_rounds_per_s", "higher", 0.1, rate),
            block("vtime_to_target_s", "lower", 0.25, vtime),
        ))
        .unwrap()
    }

    const RATE: [f64; 3] = [100.0, 101.0, 99.0];
    const VTIME: [f64; 3] = [50.0, 51.0, 52.0];

    #[test]
    fn identical_reports_pass() {
        let a = report(9, 0, RATE, VTIME);
        assert_eq!(check_documents(&a, &a).unwrap(), (Vec::new(), false));
    }

    #[test]
    fn slower_beyond_the_bound_is_a_breach_and_faster_is_not() {
        let a = report(9, 0, RATE, VTIME);
        let slower = report(9, 0, [85.0, 86.0, 84.0], VTIME);
        let (findings, breached) = check_documents(&a, &slower).unwrap();
        assert!(breached && findings.len() == 1, "{findings:?}");
        assert!(findings[0].starts_with("w/client_rounds_per_s: BREACH"));
        let faster = report(9, 0, [150.0, 151.0, 149.0], VTIME);
        assert!(!check_documents(&a, &faster).unwrap().1);
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        let a = report(9, 0, RATE, VTIME);
        let noisy = report(9, 0, [80.0, 100.0, 120.0], VTIME);
        let (findings, breached) = check_documents(&a, &noisy).unwrap();
        assert!(!breached);
        assert!(findings[0].contains("unresolved"), "{findings:?}");
    }

    #[test]
    fn exact_metrics_must_be_equal_on_the_same_seeds_only() {
        let a = report(9, 0, RATE, VTIME);
        let moved = report(9, 0, RATE, [50.0, 51.0, 52.5]);
        let (findings, breached) = check_documents(&a, &moved).unwrap();
        assert!(breached && findings[0].contains("exact for a seed"));
        // Other seeds: the bound applies instead.
        let other_seed = report(10, 0, RATE, [50.0, 51.0, 52.5]);
        assert!(!check_documents(&a, &other_seed).unwrap().1);
    }

    #[test]
    fn quick_reports_are_checked_for_equality_only() {
        let a = report_in_mode(true, 9, 0, RATE, VTIME);
        let slower = report_in_mode(true, 9, 0, [50.0, 51.0, 49.0], VTIME);
        assert_eq!(check_documents(&a, &slower).unwrap(), (Vec::new(), false));
        let moved = report_in_mode(true, 9, 0, RATE, [50.0, 51.0, 52.5]);
        assert!(check_documents(&a, &moved).unwrap().1);
    }

    #[test]
    fn more_failed_operations_is_a_breach() {
        let a = report(9, 0, RATE, VTIME);
        let failing = report(9, 2, RATE, VTIME);
        let (findings, breached) = check_documents(&a, &failing).unwrap();
        assert!(breached && findings[0].contains("failed operations rose"));
        assert!(!check_documents(&failing, &a).unwrap().1);
    }
}
