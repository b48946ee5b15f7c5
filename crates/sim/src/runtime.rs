//! The discrete-event loop driving a federated-learning strategy.
//!
//! A strategy implements [`EventHandler`]: it dispatches client round trips
//! via [`SimCtx::dispatch`], each of which resolves in exactly one
//! [`Completion`] (landed or dropped), and reacts to those and to its own
//! timers. The runtime advances virtual time, honours dropout schedules,
//! and enforces safety limits.

use crate::event::EventQueue;
use crate::fault::{FaultEvent, FaultKind, FaultLog};
use crate::fleet::Fleet;
use crate::network::TrafficMeter;
use fedat_tensor::rng::{rng_for, tags};
use rand::rngs::StdRng;

/// A finished (or aborted) client round trip.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// Client id.
    pub client: usize,
    /// Caller-defined tag (strategies encode tier/round here).
    pub tag: u64,
    /// True if the client dropped out before finishing; no model update is
    /// available in that case.
    pub dropped: bool,
}

/// Everything the event loop can deliver: a dispatch's completion or a
/// caller-scheduled timer (deadlines, tier revivals, …).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    Completion(Completion),
    Timer { tag: u64 },
}

/// Mutable simulation state shared with the handler during callbacks.
pub struct SimCtx<'a> {
    /// The client population (latency + availability schedules).
    pub fleet: &'a Fleet,
    /// Traffic accounting; strategies charge uploads/downloads here.
    pub traffic: &'a mut TrafficMeter,
    /// Seeded RNG for client sampling decisions.
    pub rng: &'a mut StdRng,
    /// Fault log; the runtime emits ground-truth down/up transitions here
    /// and strategies record every other row (see [`FaultKind`]).
    pub faults: &'a mut FaultLog,
    now: f64,
    queue: &'a mut EventQueue<Event>,
    dispatch_counts: &'a mut [u64],
}

impl SimCtx<'_> {
    /// Current virtual time (seconds).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Clients alive right now.
    pub fn alive_clients(&self) -> Vec<usize> {
        self.fleet.alive_at(self.now)
    }

    /// Dispatches one local-training round on `client`: one round trip —
    /// download, training and upload, whose transfer time the injected
    /// delays already include — resolved by exactly one completion.
    ///
    /// Returns the scheduled completion time. If the client will drop out
    /// mid-round, a `dropped` completion is delivered at the outage start
    /// instead (a flap loses the round even if the client returns before
    /// it would have finished: local training state is gone).
    ///
    /// # Panics
    /// Panics if the client is already offline — strategies must select
    /// among [`SimCtx::alive_clients`].
    pub fn dispatch(&mut self, client: usize, tag: u64, epochs: usize) -> f64 {
        assert!(
            self.fleet.is_alive(client, self.now),
            "dispatch to offline client {client} at t={}",
            self.now
        );
        let round = self.dispatch_counts[client];
        self.dispatch_counts[client] += 1;
        let done_at = self.now + self.fleet.response_latency(client, round, epochs);
        // Alive now, so any outage starts strictly later.
        let (at, dropped) = match self.fleet.next_down_time(client, self.now) {
            Some(t_down) if t_down <= done_at => (t_down, true),
            _ => (done_at, false),
        };
        let completion = Completion {
            client,
            tag,
            dropped,
        };
        self.queue.push(at, Event::Completion(completion));
        at
    }

    /// Number of training rounds this client has been dispatched so far.
    pub fn dispatches_of(&self, client: usize) -> u64 {
        self.dispatch_counts[client]
    }

    /// Schedules a timer that fires `on_timer(tag)` at `at` (clamped to
    /// `now`). Timers carry no client and are never dropped; strategies
    /// use them for dispatch deadlines and tier/client revivals.
    pub fn schedule_timer(&mut self, at: f64, tag: u64) -> f64 {
        let at = at.max(self.now);
        self.queue.push(at, Event::Timer { tag });
        at
    }
}

/// A federated-learning strategy drivable by the event loop.
pub trait EventHandler {
    /// Called once at `t = 0`; must dispatch initial work.
    fn on_start(&mut self, ctx: &mut SimCtx);

    /// Called for every completion, in virtual-time order.
    fn on_completion(&mut self, ctx: &mut SimCtx, completion: Completion);

    /// Called when a timer scheduled via [`SimCtx::schedule_timer`] fires.
    /// Default: ignore (handlers that schedule no timers never see one).
    fn on_timer(&mut self, _ctx: &mut SimCtx, _tag: u64) {}

    /// When true, the run stops before processing further events.
    fn finished(&self) -> bool;
}

/// Safety limits for a run.
#[derive(Clone, Copy, Debug)]
pub struct RunLimits {
    /// Hard cap on virtual seconds.
    pub max_time: f64,
    /// Hard cap on processed events.
    pub max_events: u64,
}

impl Default for RunLimits {
    fn default() -> Self {
        RunLimits {
            max_time: 1e9,
            max_events: 50_000_000,
        }
    }
}

/// Why a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The handler reported completion.
    Finished,
    /// No events pending but the handler was not finished (usually every
    /// remaining client dropped out).
    Starved,
    /// A [`RunLimits`] cap fired.
    LimitReached,
}

/// Summary of a completed run.
#[derive(Clone, Copy, Debug)]
pub struct SimReport {
    /// Final virtual time.
    pub end_time: f64,
    /// Number of completions processed.
    pub events: u64,
    /// Why the loop exited.
    pub reason: StopReason,
}

/// Runs `handler` to completion over `fleet`.
///
/// `seed` feeds the client-sampling RNG (strategies draw their random
/// client subsets from `ctx.rng`), independent of the delay/dropout
/// streams inside the fleet.
pub fn run(
    handler: &mut dyn EventHandler,
    fleet: &Fleet,
    seed: u64,
    limits: RunLimits,
) -> SimReport {
    run_logged(handler, fleet, seed, limits).0
}

/// Like [`run`], additionally returning the run's [`FaultLog`]: ground-truth
/// down/up transitions emitted by the loop as virtual time passes them,
/// interleaved with whatever the handler recorded via `ctx.faults`.
pub fn run_logged(
    handler: &mut dyn EventHandler,
    fleet: &Fleet,
    seed: u64,
    limits: RunLimits,
) -> (SimReport, FaultLog) {
    let mut queue = EventQueue::new();
    let mut traffic = TrafficMeter::default();
    let mut rng = rng_for(seed, tags::SAMPLING);
    let mut faults = FaultLog::new();
    let mut dispatch_counts = vec![0u64; fleet.len()];
    let mut now = 0.0f64;
    let mut events = 0u64;

    let transitions = fleet.availability_transitions();
    let mut next_transition = 0usize;
    let mut emit_transitions = |log: &mut FaultLog, upto: f64| {
        while let Some(&(t, client, went_down)) = transitions.get(next_transition) {
            if t > upto {
                break;
            }
            log.record(FaultEvent {
                time: t,
                kind: if went_down {
                    FaultKind::Down
                } else {
                    FaultKind::Up
                },
                client: Some(client),
                tier: None,
                detail: 0,
            });
            next_transition += 1;
        }
    };

    emit_transitions(&mut faults, now);
    {
        let mut ctx = SimCtx {
            fleet,
            traffic: &mut traffic,
            rng: &mut rng,
            faults: &mut faults,
            now,
            queue: &mut queue,
            dispatch_counts: &mut dispatch_counts,
        };
        handler.on_start(&mut ctx);
    }

    let reason = loop {
        if handler.finished() {
            break StopReason::Finished;
        }
        let Some((t, event)) = queue.pop() else {
            break StopReason::Starved;
        };
        if t > limits.max_time || events >= limits.max_events {
            break StopReason::LimitReached;
        }
        now = t;
        events += 1;
        emit_transitions(&mut faults, now);
        let mut ctx = SimCtx {
            fleet,
            traffic: &mut traffic,
            rng: &mut rng,
            faults: &mut faults,
            now,
            queue: &mut queue,
            dispatch_counts: &mut dispatch_counts,
        };
        match event {
            Event::Completion(completion) => handler.on_completion(&mut ctx, completion),
            Event::Timer { tag } => handler.on_timer(&mut ctx, tag),
        }
    };

    (
        SimReport {
            end_time: now,
            events,
            reason,
        },
        faults,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::ClusterConfig;

    /// Uncompressed wire size of the toy strategy's 246-weight model:
    /// 16 B blob header + 4 B per weight = 1000 B — the same formula the
    /// transport's `CodecKind::None` path charges, so the fixture's traffic
    /// stays consistent with the real wire accounting.
    const TOY_MODEL_BYTES: usize = 16 + 4 * 246;

    /// A toy synchronous strategy: each round select the first `k` alive
    /// clients, wait for all, count rounds.
    struct ToySync {
        k: usize,
        rounds_done: u64,
        target_rounds: u64,
        outstanding: usize,
        round_start: f64,
        observed_round_times: Vec<f64>,
        final_up_bytes: u64,
        final_down_bytes: u64,
    }

    impl ToySync {
        fn start_round(&mut self, ctx: &mut SimCtx) {
            let alive = ctx.alive_clients();
            let picks: Vec<usize> = alive.into_iter().take(self.k).collect();
            self.outstanding = picks.len();
            self.round_start = ctx.now();
            for c in picks {
                ctx.traffic.record_download(TOY_MODEL_BYTES);
                ctx.dispatch(c, self.rounds_done, 3);
            }
        }
    }

    impl EventHandler for ToySync {
        fn on_start(&mut self, ctx: &mut SimCtx) {
            self.start_round(ctx);
        }

        fn on_completion(&mut self, ctx: &mut SimCtx, c: Completion) {
            if !c.dropped {
                ctx.traffic.record_upload(TOY_MODEL_BYTES);
            }
            self.final_up_bytes = ctx.traffic.uplink_bytes();
            self.final_down_bytes = ctx.traffic.downlink_bytes();
            self.outstanding -= 1;
            if self.outstanding == 0 {
                self.observed_round_times.push(ctx.now() - self.round_start);
                self.rounds_done += 1;
                if self.rounds_done < self.target_rounds {
                    self.start_round(ctx);
                }
            }
        }

        fn finished(&self) -> bool {
            self.rounds_done >= self.target_rounds
        }
    }

    fn toy(k: usize, rounds: u64) -> ToySync {
        ToySync {
            k,
            rounds_done: 0,
            target_rounds: rounds,
            outstanding: 0,
            round_start: 0.0,
            observed_round_times: Vec::new(),
            final_up_bytes: 0,
            final_down_bytes: 0,
        }
    }

    #[test]
    fn synchronous_rounds_advance_time_by_max_latency() {
        let cfg = ClusterConfig::paper_medium(3).without_dropouts();
        let fleet = Fleet::new(&cfg, vec![48; 100]);
        let mut h = toy(100, 2);
        let report = run(&mut h, &fleet, 1, RunLimits::default());
        assert_eq!(report.reason, StopReason::Finished);
        assert_eq!(h.rounds_done, 2);
        // With all 100 clients, a round takes at least the slowest part's
        // minimum injected delay (20 s).
        for &rt in &h.observed_round_times {
            assert!(rt >= 20.0, "full-participation round took only {rt}s");
        }
        assert_eq!(report.events, 200);
        // Traffic: 100 clients × 2 rounds × one model each way.
        assert_eq!(h.final_down_bytes, 100 * 2 * TOY_MODEL_BYTES as u64);
        assert_eq!(h.final_up_bytes, 100 * 2 * TOY_MODEL_BYTES as u64);
        assert_eq!(h.observed_round_times.len(), 2);
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = ClusterConfig::paper_medium(5);
        let fleet = Fleet::new(&cfg, vec![48; 100]);
        let r1 = run(&mut toy(10, 20), &fleet, 9, RunLimits::default());
        let r2 = run(&mut toy(10, 20), &fleet, 9, RunLimits::default());
        assert_eq!(r1.end_time, r2.end_time);
        assert_eq!(r1.events, r2.events);
    }

    #[test]
    fn dropped_clients_deliver_dropped_completions() {
        // All clients unstable with a tiny horizon: every dispatch that
        // outlives its client must come back dropped.
        let cfg = ClusterConfig {
            n_clients: 10,
            n_unstable: 10,
            dropout_horizon: 5.0,
            ..ClusterConfig::paper_medium(7)
        };
        let fleet = Fleet::new(&cfg, vec![200; 10]); // 200 samples → slow compute
        struct DropCounter {
            drops: usize,
            done: usize,
            started: bool,
        }
        impl EventHandler for DropCounter {
            fn on_start(&mut self, ctx: &mut SimCtx) {
                for c in ctx.alive_clients() {
                    ctx.dispatch(c, 0, 3);
                }
                self.started = true;
            }
            fn on_completion(&mut self, _ctx: &mut SimCtx, c: Completion) {
                if c.dropped {
                    self.drops += 1;
                } else {
                    self.done += 1;
                }
            }
            fn finished(&self) -> bool {
                self.started && self.drops + self.done == 10
            }
        }
        let mut h = DropCounter {
            drops: 0,
            done: 0,
            started: false,
        };
        let report = run(&mut h, &fleet, 3, RunLimits::default());
        assert_eq!(report.reason, StopReason::Finished);
        // Compute time = 200 × 3 × 0.01 = 6 s > horizon 5 s, so every client
        // drops before finishing.
        assert_eq!(h.drops, 10);
        assert_eq!(h.done, 0);
    }

    #[test]
    fn timers_fire_in_time_order_and_count_as_events() {
        let cfg = ClusterConfig::paper_medium(1).without_dropouts();
        let fleet = Fleet::new(&cfg, vec![10; 100]);
        struct Timed {
            fired: Vec<(f64, u64)>,
            completions: usize,
        }
        impl EventHandler for Timed {
            fn on_start(&mut self, ctx: &mut SimCtx) {
                ctx.schedule_timer(5.0, 7);
                ctx.schedule_timer(1.0, 3);
                ctx.dispatch(0, 0, 1); // compute 0.1 s + zero delay (part 0 unknown)
            }
            fn on_completion(&mut self, _ctx: &mut SimCtx, _c: Completion) {
                self.completions += 1;
            }
            fn on_timer(&mut self, ctx: &mut SimCtx, tag: u64) {
                self.fired.push((ctx.now(), tag));
            }
            fn finished(&self) -> bool {
                self.fired.len() == 2 && self.completions == 1
            }
        }
        let mut h = Timed {
            fired: Vec::new(),
            completions: 0,
        };
        let report = run(&mut h, &fleet, 1, RunLimits::default());
        assert_eq!(report.reason, StopReason::Finished);
        assert_eq!(h.fired, vec![(1.0, 3), (5.0, 7)]);
        assert_eq!(report.events, 3, "timers count toward the event total");
    }

    #[test]
    fn past_timers_clamp_to_now() {
        let cfg = ClusterConfig::paper_medium(1)
            .without_dropouts()
            .with_clients(10);
        let fleet = Fleet::new(&cfg, vec![10; 10]);
        struct Clamper {
            fired_at: Option<f64>,
            started: bool,
        }
        impl EventHandler for Clamper {
            fn on_start(&mut self, ctx: &mut SimCtx) {
                ctx.dispatch(0, 0, 1);
                self.started = true;
            }
            fn on_completion(&mut self, ctx: &mut SimCtx, _c: Completion) {
                let at = ctx.schedule_timer(ctx.now() - 100.0, 1);
                assert_eq!(at, ctx.now());
            }
            fn on_timer(&mut self, ctx: &mut SimCtx, _tag: u64) {
                self.fired_at = Some(ctx.now());
            }
            fn finished(&self) -> bool {
                self.fired_at.is_some()
            }
        }
        let mut h = Clamper {
            fired_at: None,
            started: false,
        };
        let report = run(&mut h, &fleet, 1, RunLimits::default());
        assert_eq!(report.reason, StopReason::Finished);
        assert_eq!(h.fired_at, Some(report.end_time));
    }

    #[test]
    fn flaps_drop_inflight_dispatches_and_are_logged() {
        // Every client flaps constantly; long compute guarantees each
        // dispatch crosses a down edge and comes back dropped.
        let cfg = ClusterConfig {
            n_clients: 8,
            n_unstable: 0,
            churn: crate::churn::ChurnConfig {
                flaps: Some(crate::churn::FlapSpec {
                    fraction: 1.0,
                    mean_up: 4.0,
                    mean_down: 2.0,
                    horizon: 1000.0,
                }),
                ..Default::default()
            },
            ..ClusterConfig::paper_medium(13)
        };
        let fleet = Fleet::new(&cfg, vec![500; 8]); // 500×3×0.07 ≈ 105 s compute
        struct DropWatch {
            drops: usize,
            done: usize,
            started: bool,
        }
        impl EventHandler for DropWatch {
            fn on_start(&mut self, ctx: &mut SimCtx) {
                for c in ctx.alive_clients() {
                    ctx.dispatch(c, 0, 3);
                }
                self.started = true;
            }
            fn on_completion(&mut self, ctx: &mut SimCtx, c: Completion) {
                assert!(
                    c.dropped || ctx.fleet.is_alive(c.client, ctx.now()),
                    "a non-dropped completion landed while client {} was down",
                    c.client
                );
                if c.dropped {
                    self.drops += 1;
                } else {
                    self.done += 1;
                }
            }
            fn finished(&self) -> bool {
                self.started && self.drops + self.done == self.dispatched()
            }
        }
        impl DropWatch {
            fn dispatched(&self) -> usize {
                8
            }
        }
        let mut h = DropWatch {
            drops: 0,
            done: 0,
            started: false,
        };
        let (report, faults) = run_logged(&mut h, &fleet, 3, RunLimits::default());
        assert_eq!(report.reason, StopReason::Finished);
        assert_eq!(
            h.drops, 8,
            "105 s of compute cannot survive 4 s up-stretches"
        );
        // Ground truth appears in the log, and every Down that happened
        // before the end has been emitted in time order.
        assert!(faults.count(crate::fault::FaultKind::Down) > 0);
        assert!(faults.count(crate::fault::FaultKind::Up) > 0);
        let times: Vec<f64> = faults.events().iter().map(|e| e.time).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        assert!(times.last().copied().unwrap_or(0.0) <= report.end_time);
    }

    #[test]
    fn starvation_is_reported() {
        let cfg = ClusterConfig::paper_medium(1).without_dropouts();
        let fleet = Fleet::new(&cfg, vec![10; 100]);
        struct Lazy;
        impl EventHandler for Lazy {
            fn on_start(&mut self, _ctx: &mut SimCtx) {} // dispatches nothing
            fn on_completion(&mut self, _ctx: &mut SimCtx, _c: Completion) {}
            fn finished(&self) -> bool {
                false
            }
        }
        let report = run(&mut Lazy, &fleet, 1, RunLimits::default());
        assert_eq!(report.reason, StopReason::Starved);
        assert_eq!(report.events, 0);
    }

    #[test]
    fn event_limit_stops_runaway_handlers() {
        let cfg = ClusterConfig::paper_medium(2).without_dropouts();
        let fleet = Fleet::new(&cfg, vec![10; 100]);
        struct Forever;
        impl EventHandler for Forever {
            fn on_start(&mut self, ctx: &mut SimCtx) {
                ctx.dispatch(0, 0, 1);
            }
            fn on_completion(&mut self, ctx: &mut SimCtx, _c: Completion) {
                ctx.dispatch(0, 0, 1);
            }
            fn finished(&self) -> bool {
                false
            }
        }
        let report = run(
            &mut Forever,
            &fleet,
            1,
            RunLimits {
                max_time: 1e12,
                max_events: 100,
            },
        );
        assert_eq!(report.reason, StopReason::LimitReached);
        assert_eq!(report.events, 100);
    }

    #[test]
    fn dispatch_counts_feed_per_round_delays() {
        let cfg = ClusterConfig::paper_medium(11).without_dropouts();
        let fleet = Fleet::new(&cfg, vec![10; 100]);
        // Client in the 20–30 s part: two consecutive dispatches should see
        // different injected delays (the per-round schedule).
        let slow = (0..100).find(|&c| fleet.part_of(c) == 4).unwrap();
        struct TwoShots {
            client: usize,
            times: Vec<f64>,
        }
        impl EventHandler for TwoShots {
            fn on_start(&mut self, ctx: &mut SimCtx) {
                ctx.dispatch(self.client, 0, 1);
            }
            fn on_completion(&mut self, ctx: &mut SimCtx, _c: Completion) {
                self.times.push(ctx.now());
                if self.times.len() < 2 {
                    ctx.dispatch(self.client, 0, 1);
                }
            }
            fn finished(&self) -> bool {
                self.times.len() >= 2
            }
        }
        let mut h = TwoShots {
            client: slow,
            times: Vec::new(),
        };
        run(&mut h, &fleet, 1, RunLimits::default());
        let d1 = h.times[0];
        let d2 = h.times[1] - h.times[0];
        assert_ne!(d1, d2, "per-round delays should differ");
    }
}
