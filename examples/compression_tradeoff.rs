//! The accuracy-vs-communication tradeoff of the wire codecs
//! (paper §7.2): codec-level ratios and errors, then a small FedAT run per
//! codec driving the full two-phase wire path — reference-aware uplink
//! encoding included — so the table shows what the codecs do to a real
//! training run, not just to a static payload.
//!
//! ```text
//! cargo run --release --example compression_tradeoff
//! ```

use fedat::compress::codec::{CodecKind, NoCompression, PolylineCodec};
use fedat::compress::stats::measure;
use fedat::compress::{DeltaRleCodec, QuantizedCodec, TopKCodec};
use fedat::core::prelude::*;
use fedat::data::suite;

fn main() {
    // Codec-level view: a realistic trained-weight payload.
    let task = suite::fmnist_like(20, 2, 5);
    let weights = task.model.build(5).weights();
    println!("=== codec level ({} weights) ===", weights.len());
    println!(
        "{:<14} {:>9} {:>10} {:>12}",
        "codec", "ratio", "max err", "mean err"
    );
    for report in [
        ("none", measure(&NoCompression, &weights)),
        ("polyline-p3", measure(&PolylineCodec::new(3), &weights)),
        ("polyline-p4", measure(&PolylineCodec::new(4), &weights)),
        ("polyline-p6", measure(&PolylineCodec::new(6), &weights)),
        ("delta-rle", measure(&DeltaRleCodec, &weights)),
        ("quantized8", measure(&QuantizedCodec::new(8), &weights)),
        ("quantized4", measure(&QuantizedCodec::new(4), &weights)),
        ("topk-50pm", measure(&TopKCodec::new(50), &weights)),
    ] {
        println!(
            "{:<14} {:>8.2}× {:>10.2e} {:>12.2e}",
            report.0, report.1.ratio, report.1.max_abs_error, report.1.mean_abs_error
        );
    }

    // End-to-end view: FedAT through the full wire path with each codec on
    // the same federation. Uplink bytes are what the transport actually
    // charged (delta-family codecs encode against the broadcast reference).
    println!("\n=== end to end (FedAT, 120 tier updates) ===");
    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>8}",
        "codec", "best acc", "up (MB)", "down (MB)", "up ratio"
    );
    let mut raw_up = 0u64;
    for (name, kind) in [
        ("no-compression", CodecKind::None),
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
    ] {
        let cfg = ExperimentConfig::builder()
            .strategy(StrategyKind::FedAt)
            .rounds(120)
            .clients_per_round(4)
            .eval_every(10)
            .codec(kind)
            .seed(5)
            .build();
        let out = run_experiment(&task, &cfg);
        let last = out.trace.points.last();
        let up = last.map(|p| p.up_bytes).unwrap_or(0);
        let down = last.map(|p| p.down_bytes).unwrap_or(0);
        if kind == CodecKind::None {
            raw_up = up;
        }
        println!(
            "{:<16} {:>10.4} {:>12.2} {:>12.2} {:>7.2}×",
            name,
            out.best_accuracy(),
            up as f64 / 1e6,
            down as f64 / 1e6,
            raw_up as f64 / up.max(1) as f64
        );
    }
}
