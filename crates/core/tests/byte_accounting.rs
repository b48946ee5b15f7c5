//! What the traffic meter charges is what the wire format weighs.
//!
//! The transport never builds a blob: every leg is one in-place
//! `WireCodec::roundtrip`. This test runs the real round driver over tier
//! lanes with the proximal term on — FedAT's shape — under a policy that
//! keeps its own books. For every round it re-encodes the model being
//! broadcast, and for every landed update it re-trains the client from that
//! broadcast (`train_client` is a pure function of the dispatch), encodes
//! the result with `encode_with_ref` and decodes it again. The decoded
//! values must be the ones the driver hands to `mix`, bit for bit — they
//! are the same updates — and at every trace point the meter's uplink and
//! downlink totals must equal the sums of those blobs' `wire_bytes()`.
//!
//! Links are infinitely fast: a round trip is one completion event, and
//! its upload is charged as the update lands, never earlier. So a trace
//! point counts exactly the uplinks that landed before it — also when many
//! round trips finish at one virtual instant, which the FedAsync
//! test below pins.

use fedat_compress::codec::{codec_for, CodecKind, WireCodec};
use fedat_compress::topk::ErrorFeedback;
use fedat_core::config::{ExperimentConfig, StrategyKind};
use fedat_core::local::train_client;
use fedat_core::strategies::round::{aggregate_received, RoundPolicy, RoundServer, ServerView};
use fedat_core::tiering::TierAssignment;
use fedat_core::transport::is_delta_family;
use fedat_core::{aggregate::AggRule, run_experiment_with};
use fedat_data::suite::{self, FedTask};
use fedat_sim::fleet::ClusterConfig;
use fedat_sim::latency::DelayPart;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// `(uplink, downlink)` bytes the wire format says were sent so far.
type Totals = (u64, u64);

struct Bookkeeper {
    task: Arc<FedTask>,
    cfg: ExperimentConfig,
    up_codec: Box<dyn WireCodec>,
    down_codec: Box<dyn WireCodec>,
    tiers: TierAssignment,
    /// Per lane: the decoded broadcast its current round trains from.
    broadcast: Vec<Arc<[f32]>>,
    /// Per lane: this round's landed updates as the replay decodes them,
    /// in `received` order.
    landed: Vec<Vec<(Vec<f32>, usize)>>,
    /// Per client: dispatches so far, and the ordinal of the current one.
    dispatches: Vec<u64>,
    selection_round: Vec<u64>,
    /// Top-k's per-client residuals, as the transport carries them.
    feedback: BTreeMap<usize, ErrorFeedback>,
    sent: Totals,
    /// `sent` after every `mix` — one entry per trace point past the first.
    at_each_update: Arc<Mutex<Vec<Totals>>>,
}

impl RoundPolicy for Bookkeeper {
    fn lanes(&self) -> usize {
        self.tiers.num_tiers()
    }

    fn select(
        &mut self,
        lane: usize,
        view: &mut ServerView,
        pool: &mut Vec<usize>,
    ) -> Option<usize> {
        // No more members than `clients_per_round` and nobody ever down:
        // the driver dispatches the whole tier, from this very model.
        pool.extend_from_slice(self.tiers.tier(lane));
        let blob = self.down_codec.encode(view.global);
        self.sent.1 += (blob.wire_bytes() * pool.len()) as u64;
        self.broadcast[lane] = self.down_codec.decode(&blob).into();
        for &c in pool.iter() {
            self.selection_round[c] = self.dispatches[c];
            self.dispatches[c] += 1;
        }
        Some(lane)
    }

    fn use_prox(&self) -> bool {
        true
    }

    fn on_landed(&mut self, client: usize, _latency: f64) {
        let lane = self.tiers.tier_of(client);
        let reference = &self.broadcast[lane];
        let (epochs, round) = (self.cfg.local_epochs, self.selection_round[client]);
        let update = train_client(
            &self.task, client, reference, &self.cfg, epochs, round, true,
        );
        let mut trained = update.weights;
        let mut feedback = matches!(self.cfg.codec, Some(CodecKind::TopK { .. }))
            .then(|| self.feedback.entry(client).or_default());
        if let Some(fb) = feedback.as_mut() {
            trained = fb.compensate(&trained);
        }
        let blob = self.up_codec.encode_with_ref(&trained, Some(reference));
        self.sent.0 += blob.wire_bytes() as u64;
        let decoded = self.up_codec.decode_with_ref(&blob, Some(reference));
        if let Some(fb) = feedback {
            fb.absorb(&trained, &decoded);
        }
        self.landed[lane].push((decoded, update.n_samples));
    }

    fn mix(
        &mut self,
        lane: usize,
        received: &[(Vec<f32>, usize)],
        _staleness: u64,
        global: &mut Vec<f32>,
        rule: AggRule,
    ) -> bool {
        let replayed = std::mem::take(&mut self.landed[lane]);
        let bits = |w: &[f32]| w.iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        assert_eq!(replayed.len(), received.len());
        for ((decoded, n), (seen, n_seen)) in replayed.iter().zip(received) {
            assert_eq!(n, n_seen);
            assert!(
                bits(decoded) == bits(seen),
                "lane {lane}: the driver mixed an update the replay did not produce"
            );
        }
        self.at_each_update.lock().unwrap().push(self.sent);
        aggregate_received(rule, received, global);
        true
    }
}

fn charges_match_the_wire_format(kind: CodecKind) {
    let n = 12;
    let seed = 31;
    let task = Arc::new(suite::sent140_like(n, seed).scaled(0.4));
    let cluster = ClusterConfig::paper_medium(seed)
        .with_clients(n)
        .without_dropouts();
    let cfg = ExperimentConfig::builder()
        .strategy(StrategyKind::FedAt)
        .codec(kind)
        .rounds(12)
        .clients_per_round(n)
        .local_epochs(1)
        .eval_every(1)
        .seed(seed)
        .cluster(cluster)
        .build();
    let at_each_update = Arc::new(Mutex::new(Vec::new()));
    let out = run_experiment_with(&task, &cfg, |fleet| {
        let tiers = TierAssignment::profile(fleet, 3, cfg.local_epochs);
        let down_kind = if is_delta_family(kind) {
            CodecKind::None
        } else {
            kind
        };
        let books = Bookkeeper {
            task: Arc::clone(&task),
            cfg: cfg.clone(),
            up_codec: codec_for(kind),
            down_codec: codec_for(down_kind),
            broadcast: vec![Vec::new().into(); tiers.num_tiers()],
            landed: vec![Vec::new(); tiers.num_tiers()],
            tiers,
            dispatches: vec![0; n],
            selection_round: vec![0; n],
            feedback: BTreeMap::new(),
            sent: (0, 0),
            at_each_update: Arc::clone(&at_each_update),
        };
        Box::new(RoundServer::new(Arc::clone(&task), &cfg, books))
    });
    let expected = at_each_update.lock().unwrap();
    assert_eq!(out.global_updates, 12);
    // Point 0 is the round-0 baseline; then one point per global update,
    // its totals snapshotted right after that update's `mix`.
    assert_eq!(out.trace.points.len(), expected.len() + 1);
    assert_eq!(
        (out.trace.points[0].up_bytes, out.trace.points[0].down_bytes),
        (0, 0)
    );
    for (point, &(up, down)) in out.trace.points[1..].iter().zip(expected.iter()) {
        assert_eq!(
            point.up_bytes, up,
            "{kind:?}: uplink at update {}",
            point.round
        );
        assert_eq!(
            point.down_bytes, down,
            "{kind:?}: downlink at update {}",
            point.round
        );
    }
    assert!(expected
        .last()
        .is_some_and(|&(up, down)| up > 0 && down > 0));
}

#[test]
fn meter_totals_equal_the_sum_of_blob_sizes_on_both_legs() {
    for kind in [
        CodecKind::Polyline {
            precision: 4,
            delta: true,
        },
        CodecKind::Quantized { bits: 4 },
        CodecKind::None,
        CodecKind::DeltaRle,
        CodecKind::TopK { per_mille: 50 },
    ] {
        charges_match_the_wire_format(kind);
    }
}

/// Every round trip takes zero virtual time, so the whole run is one burst
/// of tied completions at `t = 0` and every eval point falls inside it. A
/// trace point taken after `round` FedAsync updates has seen exactly
/// `round` uplinks land — none still queued behind it.
#[test]
fn uplinks_are_counted_when_they_land_even_in_a_burst_of_ties() {
    let n = 20;
    let seed = 7;
    let task = suite::sent140_like(n, seed).scaled(0.4);
    let mut cluster = ClusterConfig::paper_medium(seed)
        .with_clients(n)
        .without_dropouts();
    cluster.delay_parts = vec![DelayPart { lo: 0.0, hi: 0.0 }];
    cluster.per_sample_cost = 0.0;
    let cfg = ExperimentConfig::builder()
        .strategy(StrategyKind::FedAsync)
        .codec(CodecKind::None)
        .rounds(2)
        .clients_per_round(4)
        .local_epochs(1)
        .eval_every(2)
        .seed(seed)
        .cluster(cluster)
        .build();
    let out = fedat_core::run_experiment(&task, &cfg);
    let blob = codec_for(CodecKind::None).encode(&out.final_weights);
    assert!(out.trace.points.len() > 2);
    for point in &out.trace.points {
        assert_eq!(point.time, 0.0);
        assert_eq!(
            point.up_bytes,
            point.round * blob.wire_bytes() as u64,
            "uplink at update {}",
            point.round
        );
    }
}
