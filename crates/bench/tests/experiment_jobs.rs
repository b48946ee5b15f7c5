//! Pins the job list behind every `repro` id, built at `Scale::Quick` with
//! seed 9 and run nothing: one FNV-1a digest per id over each job's label,
//! task name and `Debug` config. The registry refactor that introduced this
//! pin was proven byte-identical to its parent by `diff -r` of `repro all`'s
//! output; the pin keeps that equivalence for the next change to a builder.
//! A moved digest prints every moved id's new value. The digests moved
//! three times with no job moving, each time because a deleted config
//! field dropped its text from every `Debug` config: `max_threads: None, `
//! (`ExecOverrides::max_threads`), `diurnal: None, `
//! (`ChurnConfig::diurnal`) and `bandwidth_bytes_per_sec: None, `
//! (`ClusterConfig::bandwidth_bytes_per_sec`, in every config with an
//! explicit cluster). Each time the parent's digests over its configs with
//! that text removed are the ones below.

use fedat_bench::experiments::{jobs, leaf_jobs, Ctx, IDS};
use fedat_bench::harness::{Job, Scale};
use fedat_data::leaf::writer;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

/// `(id, digest)` for every registry id, in registry order.
const PINS: [(&str, u64); 18] = [
    ("table1", 0x4e86aebf843f9de5),
    ("table2", 0x4e86aebf843f9de5),
    ("fig2", 0x4e86aebf843f9de5),
    ("fig3", 0x4e86aebf843f9de5),
    ("fig4", 0x4e86aebf843f9de5),
    ("fig5", 0x421eac3cd075b881),
    ("fig6", 0x866fe2643551ec7f),
    ("fig7", 0x6d7e1fed4fa1f81b),
    ("fig8", 0xf09513a42ec07def),
    ("fig9", 0x309dc778b5faf4fd),
    ("fig10", 0xb2d17bfa8f41573c),
    ("leaf", 0x94a3ab538593ce7b),
    ("churn", 0x13f147c1150645c6),
    ("corrupt", 0x7e1b94a98878aebb),
    ("codec", 0x825f28500d57474e),
    ("ablate-mistier", 0x1700a2329ea8b3ef),
    ("ablate-lambda", 0x81344a465b4bda25),
    ("ablate-delta", 0x9b34face89691081),
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
