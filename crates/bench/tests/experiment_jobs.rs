//! Pins the job list behind every `repro` id, built at `Scale::Quick` with
//! seed 9 and run nothing: one FNV-1a digest per id over each job's label,
//! task name and `Debug` config. The registry refactor that introduced this
//! pin was proven byte-identical to its parent by `diff -r` of `repro all`'s
//! output; the pin keeps that equivalence for the next change to a builder.
//! A moved digest prints every moved id's new value. The digests moved
//! once with no job moving: deleting `ExecOverrides::max_threads` dropped
//! `max_threads: None, ` from every `Debug` config, and the parent's
//! digests over its configs with that text removed are the ones below.

use fedat_bench::experiments::{jobs, leaf_jobs, Ctx, IDS};
use fedat_bench::harness::{Job, Scale};
use fedat_data::leaf::writer;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

/// `(id, digest)` for every registry id, in registry order.
const PINS: [(&str, u64); 18] = [
    ("table1", 0xf58f78d233180f45),
    ("table2", 0xf58f78d233180f45),
    ("fig2", 0xf58f78d233180f45),
    ("fig3", 0xf58f78d233180f45),
    ("fig4", 0xf58f78d233180f45),
    ("fig5", 0xc2d331c3ef258e59),
    ("fig6", 0xf643fa41a8b812cb),
    ("fig7", 0x233417fb9f4f1c1f),
    ("fig8", 0x94713341328b301b),
    ("fig9", 0x574a19d0a2dece1d),
    ("fig10", 0x30aebd20a2e3d41c),
    ("leaf", 0xc5f4074e88f66c1f),
    ("churn", 0xf5c4402ed7272782),
    ("corrupt", 0x7da5d69ced5546b3),
    ("codec", 0x825f28500d57474e),
    ("ablate-mistier", 0xdca261d46d283b23),
    ("ablate-lambda", 0x229e00e52bb39161),
    ("ablate-delta", 0x489af233948c6d25),
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
