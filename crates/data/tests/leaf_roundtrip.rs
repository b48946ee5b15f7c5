//! Round-trip property tests for the LEAF subsystem: arbitrary small
//! `FedTask`s → `leaf::writer` → `leaf` parser → **bitwise-equal**
//! features, labels, train/test split and user order, swept over all three
//! featurizers. Plus the fixture lane CI drives (`FEDAT_LEAF_FIXTURE_DIR`).
#![expect(
    clippy::disallowed_methods,
    reason = "R4: the fixture lane takes its directory from FEDAT_LEAF_FIXTURE_DIR"
)]

use fedat_data::dataset::Dataset;
use fedat_data::federated::{ClientData, FederatedDataset};
use fedat_data::leaf::{writer, LeafBenchmark};
use fedat_data::suite::FedTask;
use fedat_nn::models::ModelSpec;
use fedat_tensor::rng::{fill_normal, rng_for};
use fedat_tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngExt};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

struct TempDir(PathBuf);

impl TempDir {
    fn new(label: &str) -> Self {
        static N: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "fedat-leaf-rt-{label}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path).expect("temp dir");
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bits(d: &Dataset) -> Vec<u32> {
    d.x.data().iter().map(|v| v.to_bits()).collect()
}

/// Asserts the loaded task reproduces the original bitwise: user order,
/// per-user train/test features and labels, schema, and the pooled test.
fn assert_roundtrip(orig: &FedTask, loaded: &FedTask) {
    assert_eq!(loaded.fed.num_clients(), orig.fed.num_clients());
    assert_eq!(loaded.fed.classes, orig.fed.classes);
    assert_eq!(loaded.fed.features, orig.fed.features);
    assert_eq!(loaded.fed.targets_per_row, orig.fed.targets_per_row);
    for (i, (a, b)) in loaded
        .fed
        .clients
        .iter()
        .zip(orig.fed.clients.iter())
        .enumerate()
    {
        assert_eq!(bits(&a.train), bits(&b.train), "client {i} train features");
        assert_eq!(a.train.y, b.train.y, "client {i} train labels");
        assert_eq!(bits(&a.test), bits(&b.test), "client {i} test features");
        assert_eq!(a.test.y, b.test.y, "client {i} test labels");
    }
    assert_eq!(
        bits(&loaded.fed.global_test),
        bits(&orig.fed.global_test),
        "pooled test set"
    );
    assert_eq!(loaded.fed.global_test.y, orig.fed.global_test.y);
}

/// Builds one client's pre-split data from the seeded RNG.
fn client<R: Rng + ?Sized>(
    rng: &mut R,
    train_rows: usize,
    test_rows: usize,
    make: &mut impl FnMut(&mut R, usize) -> Dataset,
) -> ClientData {
    ClientData {
        train: make(rng, train_rows),
        test: make(rng, test_rows),
    }
}

fn task_from_clients(name: &str, clients: Vec<ClientData>, model: ModelSpec) -> FedTask {
    FedTask {
        name: name.to_string(),
        fed: FederatedDataset::from_client_splits(clients),
        model,
        target_accuracy: 0.5,
    }
}

proptest! {
    #[test]
    fn femnist_roundtrip_is_bitwise(
        n_clients in 1usize..4,
        classes in 2usize..6,
        seed in 0u64..40,
    ) {
        let mut rng = rng_for(seed, 71);
        let mut make = |rng: &mut StdRng, rows: usize| {
            let mut xs = vec![0.0f32; rows * 16];
            fill_normal(rng, &mut xs, 0.0, 2.0);
            // Exercise the formatter's corners: signed zero, subnormals,
            // near-max magnitudes, exact integers.
            xs[0] = -0.0;
            if xs.len() > 4 {
                xs[1] = 1.0e-40;
                xs[2] = 3.0e38;
                xs[3] = -17.0;
            }
            let ys = (0..rows).map(|r| (r % classes) as u32).collect();
            Dataset::new(Tensor::from_vec(xs, &[rows, 16]), ys, classes)
        };
        let clients: Vec<ClientData> = (0..n_clients)
            .map(|_| {
                let train_rows = 2 + (rng.random_range(0..3usize));
                let test_rows = 1 + (rng.random_range(0..2usize));
                client(&mut rng, train_rows, test_rows, &mut make)
            })
            .collect();
        let bench = LeafBenchmark::Femnist { height: 4, width: 4, classes };
        let orig = task_from_clients(
            "femnist-leaf",
            clients,
            ModelSpec::CnnLite { channels: 1, height: 4, width: 4, classes },
        );
        let tmp = TempDir::new("femnist");
        writer::write_leaf_task(&orig, &bench, &tmp.0).expect("write");
        let loaded = FedTask::from_leaf_dir(&tmp.0, bench, seed).expect("parse");
        assert_roundtrip(&orig, &loaded);
    }

    #[test]
    fn sent140_roundtrip_is_bitwise(
        n_clients in 1usize..4,
        features in 2usize..6,
        seed in 0u64..40,
    ) {
        let mut rng = rng_for(seed, 72);
        let mut make = |rng: &mut StdRng, rows: usize| {
            let xs: Vec<f32> = (0..rows * features)
                .map(|_| rng.random_range(0..4) as f32)
                .collect();
            let ys = (0..rows).map(|_| rng.random_range(0..2) as u32).collect();
            Dataset::new(Tensor::from_vec(xs, &[rows, features]), ys, 2)
        };
        let clients: Vec<ClientData> = (0..n_clients)
            .map(|_| {
                let train_rows = 2 + (rng.random_range(0..3usize));
                let test_rows = 1 + (rng.random_range(0..2usize));
                client(&mut rng, train_rows, test_rows, &mut make)
            })
            .collect();
        let orig = task_from_clients(
            "sent140-leaf",
            clients,
            ModelSpec::Logistic { input: features, classes: 2 },
        );
        let tmp = TempDir::new("sent140");
        writer::write_leaf_task(&orig, &LeafBenchmark::sent140(), &tmp.0).expect("write");
        // The writer's vocab.json sidecar carries the feature order, so the
        // bag-of-words featurizer reproduces the count matrix exactly.
        let loaded = FedTask::from_leaf_dir(&tmp.0, LeafBenchmark::sent140(), seed).expect("parse");
        assert_roundtrip(&orig, &loaded);
    }

    #[test]
    fn reddit_roundtrip_is_bitwise(
        n_clients in 1usize..4,
        vocab in 4usize..9,
        seq in 2usize..5,
        seed in 0u64..40,
    ) {
        let mut rng = rng_for(seed, 73);
        let mut make = |rng: &mut StdRng, rows: usize| {
            let xs: Vec<f32> = (0..rows * seq)
                .map(|_| rng.random_range(0..vocab) as f32)
                .collect();
            let ys: Vec<u32> = (0..rows * seq)
                .map(|_| rng.random_range(0..vocab) as u32)
                .collect();
            Dataset::with_stride(Tensor::from_vec(xs, &[rows, seq]), ys, vocab, seq)
        };
        let clients: Vec<ClientData> = (0..n_clients)
            .map(|_| {
                let train_rows = 2 + (rng.random_range(0..3usize));
                let test_rows = 1 + (rng.random_range(0..2usize));
                client(&mut rng, train_rows, test_rows, &mut make)
            })
            .collect();
        let bench = LeafBenchmark::Reddit { vocab };
        let orig = task_from_clients(
            "reddit-leaf",
            clients,
            ModelSpec::LstmLm { vocab, embed: 16, hidden: 24 },
        );
        let tmp = TempDir::new("reddit");
        writer::write_leaf_task(&orig, &bench, &tmp.0).expect("write");
        let loaded = FedTask::from_leaf_dir(&tmp.0, bench, seed).expect("parse");
        assert_roundtrip(&orig, &loaded);
        // The inference path (`vocab: 0`) recovers max_token + 1 instead.
        let inferred =
            FedTask::from_leaf_dir(&tmp.0, LeafBenchmark::reddit(), seed).expect("infer");
        prop_assert!(inferred.fed.classes <= vocab, "inferred vocab too large");
    }
}

/// The CI fixture lane: `FEDAT_LEAF_FIXTURE_DIR` points at a directory the
/// writer example generated; without it the test generates its own, so
/// `cargo test` stays hermetic.
#[test]
fn fixture_dir_loads_end_to_end() {
    let (dir, _guard) = match std::env::var_os("FEDAT_LEAF_FIXTURE_DIR") {
        Some(d) => (PathBuf::from(d), None),
        None => {
            let tmp = TempDir::new("fixture");
            writer::write_femnist_fixture(&tmp.0, 6, 12, 3).expect("generate fixture");
            (tmp.0.clone(), Some(tmp))
        }
    };
    let task = FedTask::from_leaf_dir(&dir, LeafBenchmark::femnist(), 3)
        .unwrap_or_else(|e| panic!("fixture under {} failed to load: {e}", dir.display()));
    assert_eq!(task.fed.classes, 62);
    assert_eq!(task.fed.features, 784);
    assert!(task.fed.num_clients() >= 2, "fixture should be federated");
    let sizes = task.fed.client_sizes();
    assert!(sizes.iter().all(|&s| s >= 1));
    // The natural partition must carry real imbalance (the whole point of
    // loading LEAF-shaped data): Dirichlet-skewed writers never come out
    // exactly uniform.
    assert!(
        sizes.iter().max() > sizes.iter().min(),
        "per-user sizes are uniform: {sizes:?}"
    );
    assert!(task.fed.global_test.len() >= task.fed.num_clients());
}

/// Loading the same directory twice is bit-identical (pure function of the
/// bytes on disk) — the loader-side determinism guarantee DATA.md states.
#[test]
fn loading_is_deterministic() {
    let tmp = TempDir::new("determinism");
    writer::write_femnist_fixture(&tmp.0, 4, 10, 11).expect("generate");
    let a = FedTask::from_leaf_dir(&tmp.0, LeafBenchmark::femnist(), 11).expect("first");
    let b = FedTask::from_leaf_dir(&tmp.0, LeafBenchmark::femnist(), 11).expect("second");
    assert_eq!(a.fed.global_test.x.data(), b.fed.global_test.x.data());
    for (x, y) in a.fed.clients.iter().zip(b.fed.clients.iter()) {
        assert_eq!(x.train.x.data(), y.train.x.data());
        assert_eq!(x.train.y, y.train.y);
    }
}

/// Without a `vocab.json` sidecar the Sentiment140 vocabulary is built from
/// the training corpus: descending count order, ties broken by the token
/// itself, capped at `max_vocab`.
#[test]
fn sent140_vocab_builds_deterministically_from_corpus() {
    let tmp = TempDir::new("vocab");
    std::fs::create_dir_all(tmp.0.join("train")).unwrap();
    std::fs::create_dir_all(tmp.0.join("test")).unwrap();
    let train = r#"{"users": ["u"], "num_samples": [3],
        "user_data": {"u": {"x": ["bb aa", "aa bb cc", "bb"], "y": [0, 1, 0]}}}"#;
    let test = r#"{"users": ["u"], "num_samples": [1],
        "user_data": {"u": {"x": ["cc aa zz"], "y": [1]}}}"#;
    std::fs::write(tmp.0.join("train").join("data.json"), train).unwrap();
    std::fs::write(tmp.0.join("test").join("data.json"), test).unwrap();
    // Counts over *train* only: bb=3, aa=2, cc=1 → vocab [bb, aa, cc].
    let task = FedTask::from_leaf_dir(&tmp.0, LeafBenchmark::sent140(), 0).expect("load");
    assert_eq!(task.fed.features, 3);
    let u = &task.fed.clients[0];
    assert_eq!(u.train.x.row(0), &[1.0, 1.0, 0.0]); // "bb aa"
    assert_eq!(u.train.x.row(1), &[1.0, 1.0, 1.0]); // "aa bb cc"
    assert_eq!(u.train.x.row(2), &[1.0, 0.0, 0.0]); // "bb"
                                                    // Test-split tokens use the same map; "zz" is out-of-vocabulary.
    assert_eq!(u.test.x.row(0), &[0.0, 1.0, 1.0]);
    // The cap truncates the ranked list.
    let capped =
        FedTask::from_leaf_dir(&tmp.0, LeafBenchmark::Sent140 { max_vocab: 2 }, 0).expect("cap");
    assert_eq!(capped.fed.features, 2);
}

/// The flat (un-split) layout goes through the suite's seeded 80/20 split —
/// same totals, seed-deterministic.
#[test]
fn flat_layout_splits_80_20_with_the_seed() {
    let tmp = TempDir::new("flat");
    let px: Vec<String> = (0..16).map(|i| format!("{}.5", i)).collect();
    let row = px.join(", ");
    let rows: Vec<String> = (0..10).map(|_| format!("[{row}]")).collect();
    let doc = format!(
        r#"{{"users": ["solo"], "num_samples": [10],
            "user_data": {{"solo": {{"x": [{}], "y": [0,1,2,0,1,2,0,1,2,0]}}}}}}"#,
        rows.join(", ")
    );
    std::fs::write(tmp.0.join("corpus.json"), doc).unwrap();
    let bench = LeafBenchmark::Femnist {
        height: 4,
        width: 4,
        classes: 3,
    };
    let a = FedTask::from_leaf_dir(&tmp.0, bench.clone(), 5).expect("load");
    assert_eq!(a.fed.num_clients(), 1);
    let c = &a.fed.clients[0];
    assert_eq!(c.train.len() + c.test.len(), 10);
    assert_eq!(c.train.len(), 8, "80/20 split");
    let b = FedTask::from_leaf_dir(&tmp.0, bench, 5).expect("reload");
    assert_eq!(a.fed.clients[0].train.y, b.fed.clients[0].train.y);
}
