//! Pins the job list behind every `repro` id, built at `Scale::Quick` with
//! seed 9 and run nothing: one FNV-1a digest per id over each job's label,
//! task name and `Debug` config. The registry refactor that introduced this
//! pin was proven byte-identical to its parent by `diff -r` of `repro all`'s
//! output; the pin keeps that equivalence for the next change to a builder.
//! A moved digest prints every moved id's new value. The digests moved
//! twice with no job moving, each time because a deleted config field
//! dropped its text from every `Debug` config: `max_threads: None, `
//! (`ExecOverrides::max_threads`) and `diurnal: None, `
//! (`ChurnConfig::diurnal`). Each time the parent's digests over its
//! configs with that text removed are the ones below.

use fedat_bench::experiments::{jobs, leaf_jobs, Ctx, IDS};
use fedat_bench::harness::{Job, Scale};
use fedat_data::leaf::writer;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

/// `(id, digest)` for every registry id, in registry order.
const PINS: [(&str, u64); 18] = [
    ("table1", 0x8b6174ee63607720),
    ("table2", 0x8b6174ee63607720),
    ("fig2", 0x8b6174ee63607720),
    ("fig3", 0x8b6174ee63607720),
    ("fig4", 0x8b6174ee63607720),
    ("fig5", 0x2e3df80dde1b0b34),
    ("fig6", 0x5b8b9fd9c5842833),
    ("fig7", 0x9e659c72feaa1961),
    ("fig8", 0x00bc03436208fce0),
    ("fig9", 0x487897dda6065b1d),
    ("fig10", 0xd52f8f2495abd30e),
    ("leaf", 0xdb61a55dc665bc4a),
    ("churn", 0xe270f46a3faff3e9),
    ("corrupt", 0xbd9eb62c4ccc041e),
    ("codec", 0x825f28500d57474e),
    ("ablate-mistier", 0x30e455a28ba3243b),
    ("ablate-lambda", 0x87ebf7400a8f1bc5),
    ("ablate-delta", 0xe904a89bccdb5dc1),
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
