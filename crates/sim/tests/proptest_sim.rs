//! Property-based tests for the simulator substrate.

use fedat_sim::churn::{ChurnConfig, FlapSpec, StormSpec};
use fedat_sim::event::EventQueue;
use fedat_sim::fleet::{ClusterConfig, Fleet};
use fedat_sim::latency::{paper_delay_parts, DelayPart, LatencyModel};
use fedat_sim::runtime::{run, Completion, EventHandler, RunLimits, SimCtx};
use fedat_sim::trace::{Trace, TracePoint};
use proptest::prelude::*;

/// A load generator that keeps every client busy and records any completion
/// that lands (non-dropped) while its client is inside a down interval.
struct ChurnProbe {
    violations: Vec<(usize, f64)>,
    budget: usize,
}

impl EventHandler for ChurnProbe {
    fn on_start(&mut self, ctx: &mut SimCtx) {
        for c in ctx.alive_clients() {
            ctx.dispatch(c, c as u64, 1);
            self.budget = self.budget.saturating_sub(1);
        }
    }

    fn on_completion(&mut self, ctx: &mut SimCtx, c: Completion) {
        let alive = ctx.fleet.is_alive(c.client, ctx.now());
        if !c.dropped && !alive {
            self.violations.push((c.client, ctx.now()));
        }
        if alive && self.budget > 0 {
            ctx.dispatch(c.client, c.tag, 1);
            self.budget -= 1;
        }
    }

    fn finished(&self) -> bool {
        false
    }
}

proptest! {
    #[test]
    fn event_queue_pops_sorted(times in prop::collection::vec(0.0f64..1e6, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
        }
        let mut last = f64::NEG_INFINITY;
        let mut count = 0;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last, "out of order: {} after {}", t, last);
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn equal_times_preserve_fifo(n in 1usize..100) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.push(1.0, i);
        }
        for i in 0..n {
            prop_assert_eq!(q.pop().map(|(_, v)| v), Some(i));
        }
    }

    #[test]
    fn delays_always_in_range(seed in 0u64..1000, client in 0usize..50, round in 0u64..100) {
        let m = LatencyModel::with_sizes(50, paper_delay_parts(), &[10; 5], 0.01, seed);
        let part = paper_delay_parts()[m.part_of(client)];
        let d = m.injected_delay(client, round);
        prop_assert!(d >= part.lo - 1e-9 && d <= part.hi + 1e-9, "{} outside [{}, {}]", d, part.lo, part.hi);
    }

    #[test]
    fn arbitrary_part_sizes_are_respected(sizes in prop::collection::vec(1usize..40, 2..6), seed in 0u64..100) {
        let n: usize = sizes.iter().sum();
        let parts: Vec<DelayPart> = (0..sizes.len())
            .map(|i| DelayPart { lo: i as f64, hi: i as f64 + 1.0 })
            .collect();
        let m = LatencyModel::with_sizes(n, parts, &sizes, 0.01, seed);
        prop_assert_eq!(m.part_sizes(), sizes);
    }

    #[test]
    fn dropout_count_matches_config(n in 10usize..80, unstable_frac in 0usize..10, seed in 0u64..100) {
        let unstable = (n * unstable_frac / 10).min(n);
        let cfg = ClusterConfig {
            n_clients: n,
            n_unstable: unstable,
            ..ClusterConfig::paper_medium(seed)
        };
        let fleet = Fleet::new(&cfg, vec![10; n]);
        let dropped_eventually = (0..n).filter(|&c| fleet.dropout_time(c).is_some()).count();
        prop_assert_eq!(dropped_eventually, unstable);
        prop_assert_eq!(fleet.alive_at(0.0).len(), n);
    }

    #[test]
    fn response_latency_monotone_in_samples(seed in 0u64..100, s1 in 1usize..100, extra in 1usize..100) {
        let cfg = ClusterConfig::paper_medium(seed).with_clients(2).without_dropouts();
        let fleet = Fleet::new(&cfg, vec![s1, s1 + extra]);
        // Same client id comparison is invalid (different parts); compare
        // compute time directly, which is what sample counts feed.
        let lat = fleet.latency();
        prop_assert!(lat.compute_time(s1 + extra, 3) > lat.compute_time(s1, 3));
    }

    #[test]
    fn smoothing_preserves_length_and_range(accs in prop::collection::vec(0.0f32..1.0, 1..100), window in 1usize..20) {
        let mut t = Trace::new("p");
        for (i, &a) in accs.iter().enumerate() {
            t.push(TracePoint {
                time: i as f64,
                round: i as u64,
                accuracy: a,
                loss: 1.0 - a,
                up_bytes: i as u64,
                down_bytes: i as u64,
            });
        }
        let s = t.smoothed(window);
        prop_assert_eq!(s.points.len(), t.points.len());
        let (lo, hi) = accs.iter().fold((1.0f32, 0.0f32), |(l, h), &a| (l.min(a), h.max(a)));
        for p in &s.points {
            prop_assert!(p.accuracy >= lo - 1e-5 && p.accuracy <= hi + 1e-5);
        }
    }

    #[test]
    fn completions_never_land_while_their_client_is_down(
        seed in 0u64..200,
        frac in 0.1f64..1.0,
        mean_up in 20.0f64..200.0,
        mean_down in 5.0f64..100.0,
        storms in 0usize..3,
        unstable in 0usize..8,
    ) {
        let churn = ChurnConfig {
            flaps: Some(FlapSpec { fraction: frac, mean_up, mean_down, horizon: 2000.0 }),
            storms: (storms > 0).then_some(StormSpec {
                count: storms,
                cohort_fraction: 0.5,
                duration: 50.0,
                horizon: 1500.0,
            }),
            ..ChurnConfig::default()
        };
        let n = 16;
        let mut cfg = ClusterConfig::paper_medium(seed)
            .with_clients(n)
            .with_churn(churn);
        cfg.n_unstable = unstable; // mix permanent dropouts into the flaps
        let fleet = Fleet::new(&cfg, vec![40; n]);
        let mut probe = ChurnProbe { violations: Vec::new(), budget: 600 };
        run(
            &mut probe,
            &fleet,
            seed,
            RunLimits { max_time: 2000.0, max_events: 100_000 },
        );
        prop_assert!(
            probe.violations.is_empty(),
            "completions landed inside a down interval: {:?}",
            probe.violations
        );
    }

    #[test]
    fn time_to_accuracy_consistent_with_best(accs in prop::collection::vec(0.0f32..1.0, 1..60), target in 0.0f32..1.0) {
        let mut t = Trace::new("p");
        for (i, &a) in accs.iter().enumerate() {
            t.push(TracePoint { time: i as f64, round: i as u64, accuracy: a, loss: 0.0, up_bytes: 0, down_bytes: 0 });
        }
        match t.time_to_accuracy(target) {
            Some(_) => prop_assert!(t.best_accuracy() >= target),
            None => prop_assert!(t.best_accuracy() < target),
        }
    }
}
