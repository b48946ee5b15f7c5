//! Pins the job list behind every `repro` id, built at `Scale::Quick` with
//! seed 9 and run nothing: one FNV-1a digest per id over each job's label,
//! task name and `Debug` config. The registry refactor that introduced this
//! pin was proven byte-identical to its parent by `diff -r` of `repro all`'s
//! output; the pin keeps that equivalence for the next change to a builder.
//! A moved digest prints every moved id's new value. The digests moved
//! five times with no job moving, each time because a deleted config
//! field dropped its text from every `Debug` config: `max_threads: None, `
//! (`ExecOverrides::max_threads`), `diurnal: None, `
//! (`ChurnConfig::diurnal`), `bandwidth_bytes_per_sec: None, `
//! (`ClusterConfig::bandwidth_bytes_per_sec`, in every config with an
//! explicit cluster), `, simd: None, max_pool_jobs: None`
//! (`ExecOverrides::{simd, max_pool_jobs}`), and `max_retries: 2, backoff:
//! 1.5, ` plus `alpha: 0.3, ` (`FaultPolicy::{max_retries, backoff}` and
//! `RetierPolicy::alpha`, now constants). Each time the parent's digests
//! over its configs with that text removed are the ones below.

use fedat_bench::experiments::{jobs, leaf_jobs, Ctx, IDS};
use fedat_bench::harness::{Job, Scale};
use fedat_data::leaf::writer;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

/// `(id, digest)` for every registry id, in registry order.
const PINS: [(&str, u64); 18] = [
    ("table1", 0x464522dfcb3cb5cd),
    ("table2", 0x464522dfcb3cb5cd),
    ("fig2", 0x464522dfcb3cb5cd),
    ("fig3", 0x464522dfcb3cb5cd),
    ("fig4", 0x464522dfcb3cb5cd),
    ("fig5", 0x22d1f15be5717fdd),
    ("fig6", 0x1a65425debaafbb9),
    ("fig7", 0x48f52bd9b5302a45),
    ("fig8", 0x0c769a503ecec095),
    ("fig9", 0x06b47f3f5cc2713d),
    ("fig10", 0xe41258f7b27fc58a),
    ("leaf", 0x661d6c4e0eced7f3),
    ("churn", 0x4a8087187db935e7),
    ("corrupt", 0x8655779fa16bf291),
    ("codec", 0xb1899d73bfc3e94a),
    ("ablate-mistier", 0x9b7ca8ef0a1b3d45),
    ("ablate-lambda", 0xd0fc1fc02bc7f525),
    ("ablate-delta", 0xbb57730556656679),
];

fn digest(jobs: &[Job]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for j in jobs {
        for field in [&j.label, &j.task.name, &format!("{:?}", j.cfg)] {
            // 0xff never occurs in UTF-8: it separates the fields.
            for b in field.bytes().chain([0xff]) {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

#[test]
fn every_experiment_builds_its_pinned_jobs() {
    let ctx = Ctx {
        scale: Scale::Quick,
        out: PathBuf::new(),
        seed: 9,
        threads: 0,
    };
    // `leaf`'s task comes from disk; this is the one `--quick` writes.
    let leaf_task = Arc::new(writer::synth_femnist_task(10, 16, 9));
    let mut moved = Vec::new();
    for (id, pin) in PINS {
        let jobs = match id {
            "leaf" => leaf_jobs(&ctx, &leaf_task),
            _ => jobs(id, &ctx).unwrap_or_else(|| panic!("`{id}` builds no jobs")),
        };
        let labels: BTreeSet<&str> = jobs.iter().map(|j| j.label.as_str()).collect();
        assert_eq!(labels.len(), jobs.len(), "`{id}` repeats a label");
        let got = digest(&jobs);
        if got != pin {
            moved.push(format!("(\"{id}\", {got:#018x}), // {} jobs", jobs.len()));
        }
    }
    assert!(moved.is_empty(), "moved job lists:\n{}", moved.join("\n"));
}

#[test]
fn ids_are_the_registry_plus_matrix_and_all() {
    let registry = PINS.map(|(id, _)| id);
    assert_eq!(IDS[..registry.len()], registry);
    assert_eq!(IDS[registry.len()..], ["matrix", "all"]);
}
