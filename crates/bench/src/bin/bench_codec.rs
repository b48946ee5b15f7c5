//! Wire-codec benchmark: compression ratio vs accuracy across the Table-1
//! strategies, plus codec throughput and the lossless bit-identity sweep.
//!
//! Every Table-1 strategy runs the same sentiment federation once per wire
//! codec — the full two-phase path, so downlink broadcasts and
//! reference-aware uplinks both charge the traffic meter what the codec
//! actually produces. Written to `BENCH_codec.json`:
//!
//! * per-cell best accuracy, uplink/downlink bytes, and the uplink ratio
//!   vs the uncompressed run of the same strategy,
//! * encode/decode throughput per codec on a trained model: the final
//!   weights of the grid's own uncompressed FedAT cell against the global
//!   model one update earlier, both tiled to a million weights,
//! * the FedAT acceptance row: the best codec achieving ≥4× uplink
//!   reduction at ≤1 accuracy-point loss.
//!
//! The run asserts the ISSUE acceptance criteria after writing the record:
//! FedAT uplink bytes drop ≥4× at ≤1% accuracy loss; the lossless
//! `delta-rle` run reproduces the uncompressed run's final model
//! bit-for-bit with fewer uplink bytes; and that lossless run is
//! bit-identical across ExecMode × SimdKernel × kernel-pool worker counts
//! {1, 2, 4, 8}.
//!
//! ```text
//! cargo run --release -p fedat-bench --bin bench_codec -- \
//!     [--out FILE] [--seed N] [--clients N] [--rounds N] [--threads N] [--no-sweep]
//! ```
//!
//! See `docs/PERF.md` ("Compressed transport") for how to read the output.

use fedat_compress::codec::{codec_for, CodecKind};
use fedat_core::config::{ExperimentConfig, StrategyKind};
use fedat_core::exec::ExecMode;
use fedat_core::run_experiment_shared;
use fedat_data::suite::{self, FedTask};
use fedat_tensor::pool;
use fedat_tensor::simd::SimdKernel;
use std::sync::Arc;
use std::time::Instant;

/// The codec column of the grid: the uncompressed baseline, the paper's
/// polyline codec at two precisions, the lossless delta, the 8/4-bit
/// quantized deltas, and the sparse top-5% delta.
const CODECS: [(&str, CodecKind); 7] = [
    ("none", CodecKind::None),
    (
        "polyline-p3",
        CodecKind::Polyline {
            precision: 3,
            delta: true,
        },
    ),
    (
        "polyline-p4",
        CodecKind::Polyline {
            precision: 4,
            delta: true,
        },
    ),
    ("delta-rle", CodecKind::DeltaRle),
    ("quantized8", CodecKind::Quantized { bits: 8 }),
    ("quantized4", CodecKind::Quantized { bits: 4 }),
    ("topk-50pm", CodecKind::TopK { per_mille: 50 }),
];

fn cfg(strategy: StrategyKind, kind: CodecKind, rounds: u64, seed: u64) -> ExperimentConfig {
    ExperimentConfig::builder()
        .strategy(strategy)
        .rounds(rounds)
        .clients_per_round(4)
        .local_epochs(1)
        .eval_every(10)
        .max_time(6_000.0)
        .codec(kind)
        .seed(seed)
        .build()
}

struct Cell {
    strategy: StrategyKind,
    codec: &'static str,
    kind: CodecKind,
    outcome: fedat_core::Outcome,
}

impl Cell {
    fn up_bytes(&self) -> u64 {
        self.outcome
            .trace
            .points
            .last()
            .map(|p| p.up_bytes)
            .unwrap_or(0)
    }
    fn down_bytes(&self) -> u64 {
        self.outcome
            .trace
            .points
            .last()
            .map(|p| p.down_bytes)
            .unwrap_or(0)
    }
}

/// Weights in the throughput payload.
const PAYLOAD_WEIGHTS: usize = 1_000_000;

/// Repeats a (small) model end to end up to the payload size.
fn tiled(model: &[f32]) -> Vec<f32> {
    model
        .iter()
        .copied()
        .cycle()
        .take(PAYLOAD_WEIGHTS)
        .collect()
}

/// Encode/decode throughput of one codec over a model-sized payload with a
/// nearby reference (the uplink situation), in MB/s of raw f32 input.
fn throughput(kind: CodecKind, weights: &[f32], reference: &[f32]) -> (f64, f64, f64) {
    let codec = codec_for(kind);
    let reps = 5u32;
    let mb = (weights.len() * 4) as f64 / 1e6;
    // Warm once so pool workers and scratch arenas exist before timing.
    let blob = codec.encode_with_ref(weights, Some(reference));
    let ratio = (weights.len() * 4) as f64 / blob.wire_bytes() as f64;
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(codec.encode_with_ref(
            std::hint::black_box(weights),
            Some(std::hint::black_box(reference)),
        ));
    }
    let enc = mb * reps as f64 / t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(codec.decode_with_ref(
            std::hint::black_box(&blob),
            Some(std::hint::black_box(reference)),
        ));
    }
    let dec = mb * reps as f64 / t1.elapsed().as_secs_f64();
    (enc, dec, ratio)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = String::from("BENCH_codec.json");
    let mut seed = 11u64;
    let mut clients = 16usize;
    let mut rounds = 100u64;
    let mut threads = 4usize;
    let mut sweep = true;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--out" => {
                i += 1;
                out_path = args[i].clone();
            }
            "--seed" => {
                i += 1;
                seed = args[i].parse().expect("--seed takes an integer");
            }
            "--clients" => {
                i += 1;
                clients = args[i].parse().expect("--clients takes an integer");
            }
            "--rounds" => {
                i += 1;
                rounds = args[i].parse().expect("--rounds takes an integer");
            }
            "--threads" => {
                i += 1;
                threads = args[i].parse().expect("--threads takes an integer");
            }
            "--no-sweep" => sweep = false,
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    eprintln!("[bench_codec] building the {clients}-client sentiment task ...");
    let task: Arc<FedTask> = Arc::new(suite::sent140_like(clients, seed));
    pool::ensure_workers(threads.max(1));

    // The strategy × codec grid through the full wire path.
    let mut cells: Vec<Cell> = Vec::new();
    for strategy in StrategyKind::all() {
        for (name, kind) in CODECS {
            eprintln!("[bench_codec] {} x {name} ...", strategy.name());
            let c = cfg(strategy, kind, rounds, seed);
            let outcome = run_experiment_shared(&task, &c);
            cells.push(Cell {
                strategy,
                codec: name,
                kind,
                outcome,
            });
        }
    }

    let cell = |strategy: StrategyKind, codec: &str| -> &Cell {
        cells
            .iter()
            .find(|c| c.strategy == strategy && c.codec == codec)
            .expect("cell ran")
    };

    let fedat_none = cell(StrategyKind::FedAt, "none");

    // Codec throughput on what the wire actually carries: a trained model
    // (not a smooth synthetic curve, whose neighbouring weights sit a few
    // lattice steps apart and flatter every delta coder) against the nearby
    // model both endpoints hold — the global model one update earlier, from
    // the same cell stopped one update short.
    eprintln!("[bench_codec] codec throughput ...");
    let previous = run_experiment_shared(
        &task,
        &cfg(
            StrategyKind::FedAt,
            CodecKind::None,
            rounds.saturating_sub(1),
            seed,
        ),
    );
    let payload = tiled(&fedat_none.outcome.final_weights);
    let payload_ref = tiled(&previous.final_weights);
    let mut thr_rows = String::new();
    for (k, (name, kind)) in CODECS.iter().enumerate() {
        let (enc, dec, ratio) = throughput(*kind, &payload, &payload_ref);
        eprintln!("[bench_codec]   {name}: enc {enc:.0} MB/s, dec {dec:.0} MB/s, {ratio:.2}x");
        thr_rows.push_str(&format!(
            "    {{ \"codec\": \"{name}\", \"encode_mb_per_s\": {enc:.1}, \"decode_mb_per_s\": {dec:.1}, \"payload_ratio\": {ratio:.2} }}{}\n",
            if k + 1 < CODECS.len() { "," } else { "" },
        ));
    }

    // FedAT acceptance row: the best uplink ratio among lossy codecs whose
    // accuracy stays within one point of the uncompressed run.
    let baseline_best = fedat_none.outcome.best_accuracy();
    let baseline_up = fedat_none.up_bytes();
    let mut accepted: Option<(&Cell, f64, f64)> = None;
    for c in cells
        .iter()
        .filter(|c| c.strategy == StrategyKind::FedAt && c.codec != "none")
    {
        let ratio = baseline_up as f64 / c.up_bytes().max(1) as f64;
        let loss = (baseline_best - c.outcome.best_accuracy()) as f64;
        if loss <= 0.01 && accepted.as_ref().is_none_or(|(_, r, _)| ratio > *r) {
            accepted = Some((c, ratio, loss));
        }
    }

    // Write the artifact before asserting acceptance, so a failed criterion
    // in CI still leaves the numbers behind.
    let mut rows = String::new();
    for (i, c) in cells.iter().enumerate() {
        let base_up = cell(c.strategy, "none").up_bytes();
        rows.push_str(&format!(
            "    {{ \"strategy\": \"{}\", \"codec\": \"{}\", \"best_accuracy\": {:.4}, \"up_bytes\": {}, \"down_bytes\": {}, \"uplink_ratio\": {:.2}, \"global_updates\": {} }}{}\n",
            c.strategy.name(),
            c.codec,
            c.outcome.best_accuracy(),
            c.up_bytes(),
            c.down_bytes(),
            base_up as f64 / c.up_bytes().max(1) as f64,
            c.outcome.global_updates,
            if i + 1 < cells.len() { "," } else { "" },
        ));
    }
    let acceptance = match &accepted {
        Some((c, ratio, loss)) => format!(
            "{{ \"codec\": \"{}\", \"uplink_ratio\": {ratio:.2}, \"accuracy_loss\": {loss:.4}, \"baseline_best\": {baseline_best:.4} }}",
            c.codec
        ),
        None => "null".to_string(),
    };
    let json = format!(
        "{{\n  \"bench\": \"codec\",\n  \"seed\": {seed},\n  \"clients\": {clients},\n  \"rounds\": {rounds},\n  \"throughput_payload_weights\": {PAYLOAD_WEIGHTS},\n  \"throughput_payload\": \"final weights of the FedAT/none cell vs the global model one update earlier, {} weights tiled\",\n  \"throughput\": [\n{thr_rows}  ],\n  \"fedat_acceptance\": {acceptance},\n  \"lossless_sweep\": {},\n  \"cells\": [\n{rows}  ]\n}}\n",
        fedat_none.outcome.final_weights.len(),
        if sweep {
            "\"delta-rle under ExecMode x SimdKernel x workers {1,2,4,8}: asserted bit-identical\""
        } else {
            "\"skipped (--no-sweep)\""
        },
    );
    std::fs::write(&out_path, &json).expect("writing benchmark record");
    println!("{json}");
    eprintln!("[bench_codec] wrote {out_path}");

    // Acceptance (a): >=4x FedAT uplink reduction at <=1 point of accuracy.
    let (acc_cell, acc_ratio, acc_loss) = accepted.expect("no codec stayed within 1% of baseline");
    assert!(
        acc_ratio >= 4.0,
        "best qualifying codec {} only reached {acc_ratio:.2}x (loss {acc_loss:.4})",
        acc_cell.codec
    );
    eprintln!(
        "[bench_codec] acceptance: {} @ {acc_ratio:.2}x uplink reduction, {acc_loss:.4} loss",
        acc_cell.codec
    );

    // Acceptance (b): the lossless delta run is bitwise-identical training —
    // same final model as uncompressed, fewer uplink bytes.
    let rle = cell(StrategyKind::FedAt, "delta-rle");
    assert_eq!(
        rle.outcome.final_weights, fedat_none.outcome.final_weights,
        "delta-rle diverged from the uncompressed run"
    );
    assert!(
        rle.up_bytes() < baseline_up,
        "delta-rle saved nothing: {} vs {baseline_up}",
        rle.up_bytes()
    );

    // Acceptance (c): lossless bit-identity across execution mode, SIMD
    // kernel, and kernel-pool width.
    if sweep {
        eprintln!("[bench_codec] lossless sweep: ExecMode x SimdKernel x workers ...");
        pool::ensure_workers(8);
        let mut c = cfg(StrategyKind::FedAt, rle.kind, rounds, seed);
        for mode in [ExecMode::Speculative, ExecMode::Inline] {
            for kernel in [SimdKernel::Auto, SimdKernel::Scalar] {
                for workers in [1usize, 2, 4, 8] {
                    c.exec.mode = Some(mode);
                    c.exec.simd = Some(kernel);
                    c.exec.max_pool_jobs = Some(workers - 1);
                    let out = run_experiment_shared(&task, &c);
                    assert_eq!(
                        out.final_weights, rle.outcome.final_weights,
                        "weights diverged under {mode:?}/{kernel:?}/{workers} workers"
                    );
                    let up = out.trace.points.last().map(|p| p.up_bytes).unwrap_or(0);
                    assert_eq!(
                        up,
                        rle.up_bytes(),
                        "wire bytes diverged under {mode:?}/{kernel:?}/{workers} workers"
                    );
                }
            }
        }
        eprintln!("[bench_codec] sweep ok: 16/16 bit-identical");
    }
    eprintln!("[bench_codec] all acceptance criteria hold");
}
