//! Inert-default pin for the wire codec (same discipline as the
//! `FaultPolicy`/`GuardPolicy` pins): an explicit `CodecKind::None` run and a
//! default-codec run must keep reproducing the exact traffic totals and
//! model bits they produced before the reference-aware codec layer grew.
//! The literals below were captured on the pre-codec tree — if one moves,
//! the "inert default" contract broke.

use fedat_compress::codec::CodecKind;
use fedat_core::config::{ExperimentConfig, StrategyKind};
use fedat_data::suite;

/// Order-sensitive FNV-1a over the weight bit patterns: any single-bit
/// divergence anywhere in the model changes the digest.
fn weight_digest(w: &[f32]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for v in w {
        for b in v.to_bits().to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    }
    h
}

fn pin_cfg(strategy: StrategyKind, codec: Option<CodecKind>) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::builder()
        .strategy(strategy)
        .rounds(40)
        .clients_per_round(3)
        .seed(7)
        .build();
    cfg.codec = codec;
    cfg
}

struct Pin {
    up_bytes: u64,
    down_bytes: u64,
    best_bits: u32,
    digest: u64,
    updates: u64,
}

fn run_pin(strategy: StrategyKind, codec: Option<CodecKind>, expect: Pin) {
    let task = suite::sent140_like(12, 7).scaled(0.4);
    let cfg = pin_cfg(strategy, codec);
    let out = fedat_core::run_experiment(&task, &cfg);
    let last = out.trace.points.last().unwrap();
    assert_eq!(last.up_bytes, expect.up_bytes, "uplink bytes moved");
    assert_eq!(last.down_bytes, expect.down_bytes, "downlink bytes moved");
    assert_eq!(
        out.trace.best_accuracy().to_bits(),
        expect.best_bits,
        "best accuracy bits moved"
    );
    assert_eq!(
        weight_digest(&out.final_weights),
        expect.digest,
        "final model bits moved"
    );
    assert_eq!(out.global_updates, expect.updates, "update count moved");
}

/// `CodecKind::None` reproduces the pre-codec-layer trace exactly —
/// including every byte the traffic meter charged. The uncompressed path
/// is the inert default the whole regression suite stands on.
#[test]
fn none_codec_matches_pre_codec_trace_bit_for_bit() {
    run_pin(
        StrategyKind::FedAt,
        Some(CodecKind::None),
        Pin {
            up_bytes: 31640,
            down_bytes: 33320,
            best_bits: 0x3eefa8da,
            digest: 0x9586ad710164b363,
            updates: 40,
        },
    );
}

/// The baselines default to the uncompressed codec; their traces must not
/// move either (FedAvg stands in for the family).
#[test]
fn baseline_default_codec_is_unchanged() {
    run_pin(
        StrategyKind::FedAvg,
        None,
        Pin {
            up_bytes: 33600,
            down_bytes: 33600,
            best_bits: 0x3f393105,
            digest: 0xf766694d65ae1d92,
            updates: 40,
        },
    );
}

/// FedAT's default polyline uplink is absolute (reference-ignoring), so
/// threading the broadcast reference through the new uplink path must not
/// change its trace either.
#[test]
fn fedat_default_polyline_is_unchanged() {
    run_pin(
        StrategyKind::FedAt,
        None,
        Pin {
            up_bytes: 23369,
            down_bytes: 24578,
            best_bits: 0x3eefa8da,
            digest: 0xd4be6d0abaa19bea,
            updates: 40,
        },
    );
}
