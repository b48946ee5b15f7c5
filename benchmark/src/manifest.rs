//! The benchmark's contract: the metric tables behind `BENCHMARK.json`.
//!
//! `--manifest` prints the file from these tables and a unit test keeps the
//! committed copy equal to them, so the names a run reports and the names
//! the file declares cannot drift apart.

use crate::workloads;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 25;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric a user of the system would see, with its regression bound.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// A metric of a single layer (no bound).
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    /// Metric name, prefixed with the layer (crate or module) it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

/// End-to-end metrics, reported with `--trace 0`.
///
/// A bound has to cover the spread between runs on different seeds, and 0.25
/// is the most the contract allows. The time metrics still move by 4–15%
/// between 25 s windows on the shared 2-vCPU reference host after correction
/// for host speed; the virtual metrics are exact for a given seed and spread
/// by 3–15% across seeds, `table1-cnn` the widest (README.md).
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("client_rounds_per_s", "1/s", Better::Higher, 0.25),
    e2e("cpu_s", "s", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
    e2e("vtime_to_target_s", "s", Better::Lower, 0.25),
    e2e("mb_to_target", "MB", Better::Lower, 0.25),
    e2e("best_accuracy", "fraction", Better::Higher, 0.25),
    e2e("accuracy_variance", "1", Better::Lower, 0.25),
];

/// Per-layer metrics, reported with `--trace 1`.
pub const PER_LAYER: [PerLayer; 33] = [
    layer("data.task_build_ms", "ms", Better::Lower),
    layer("data.batch_gather_us", "us", Better::Lower),
    layer("tensor.matmul_nn_gflops", "GFLOP/s", Better::Higher),
    layer("tensor.matmul_tn_gflops", "GFLOP/s", Better::Higher),
    layer("tensor.matmul_nt_gflops", "GFLOP/s", Better::Higher),
    layer("tensor.robust_reduce_melems_s", "Melem/s", Better::Higher),
    layer("tensor.weighted_sum_gbs", "GB/s", Better::Higher),
    layer("tensor.pool_roundtrip_us", "us", Better::Lower),
    layer("nn.forward_us", "us", Better::Lower),
    layer("nn.train_batch_us", "us", Better::Lower),
    layer("nn.bwd_optim_us", "us", Better::Lower),
    layer("nn.weights_roundtrip_us", "us", Better::Lower),
    layer("nn.eval_rows_per_s", "1/s", Better::Higher),
    layer("compress.encode_mb_s", "MB/s", Better::Higher),
    layer("compress.decode_mb_s", "MB/s", Better::Higher),
    layer("compress.wire_ratio", "x", Better::Higher),
    layer("sim.event_ns", "ns", Better::Lower),
    layer("sim.fleet_build_ms", "ms", Better::Lower),
    layer("core.tiering.profile_ms", "ms", Better::Lower),
    layer("core.local.train_client_us", "us", Better::Lower),
    layer("core.aggregate.intra_us", "us", Better::Lower),
    layer("core.aggregate.cross_us", "us", Better::Lower),
    layer("core.eval.global_ms", "ms", Better::Lower),
    layer("core.eval.per_client_ms", "ms", Better::Lower),
    layer("core.exec.speculative_speedup", "x", Better::Higher),
    layer("core.exec.inline_wall_s", "s", Better::Lower),
    layer("share.train", "fraction", Better::Lower),
    layer("share.codec", "fraction", Better::Lower),
    layer("share.aggregate", "fraction", Better::Lower),
    layer("share.eval", "fraction", Better::Lower),
    layer("share.sim", "fraction", Better::Lower),
    layer("core.strategies.residual_share", "fraction", Better::Lower),
    layer("bench.grid_efficiency", "x", Better::Higher),
];

/// The driver's command line, without the per-run arguments it appends.
const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// Renders `BENCHMARK.json`.
pub fn render() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"command\": [{}],\n", quoted(&COMMAND)));
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = workloads::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.name(),
                m.bound
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.name()
            )
        })
        .collect();
    s.push_str(&rows.join(",\n"));
    s.push_str("\n  ]\n}\n");
    s
}

/// The unit of metric `name`, whichever table declares it.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut seen = BTreeSet::new();
        let names = workloads::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(well_formed(name, 64, "_.-"), "bad name {name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(seen.insert(name), "duplicate name {name}");
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(well_formed(unit, 16, "_/%.-"), "bad unit {unit}");
        }
        for w in workloads::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains(['\n', '"']));
        }
    }

    #[test]
    fn bounds_and_limits_meet_the_contract() {
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!((2..=8).contains(&workloads::ALL.len()));
        assert!(render().len() <= 64 * 1024);
    }

    #[test]
    fn committed_manifest_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, render(), "regenerate with `--manifest`");
    }
}
