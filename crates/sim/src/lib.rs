//! # fedat-sim — a discrete-event federated-learning cluster simulator
//!
//! The paper evaluates on a 100-client Chameleon cluster and a 500-client
//! AWS cluster, *simulating* heterogeneity by injecting random per-round
//! delays (0 / 0–5 / 6–10 / 11–15 / 20–30 s across five equal parts) and by
//! making 10 "unstable" clients drop out permanently at random times
//! (§6 *Simulating Different Performance Tiers*). This crate reproduces that
//! exact testbed as a deterministic discrete-event simulation:
//!
//! * [`event`] — a seeded, tie-stable event queue over virtual seconds,
//! * [`churn`] — availability scenarios beyond the paper's permanent
//!   dropout: flaps, correlated storms, compute drift, corrupted uplinks,
//! * [`fault`] — a time-ordered log of down/up transitions and server
//!   fault-tolerance actions (timeouts, retries, quorum, re-tiers),
//! * [`latency`] — the paper's delay-part model plus arbitrary tier-size
//!   distributions (Fig. 10) and per-sample compute costs,
//! * [`fleet`] — the client population: sizes, delay parts, availability
//!   (down intervals),
//! * [`network`] — uplink/downlink byte accounting with cumulative history
//!   (the x-axis of Fig. 4/5/7 and the numbers in Table 2),
//! * [`runtime`] — the event loop driving an [`EventHandler`]
//!   (implemented by every FL strategy in `fedat-core`),
//! * [`trace`] — accuracy/loss/bytes time series with smoothing and
//!   time-to-target queries.
//!
//! Virtual time makes runs bit-reproducible and lets a 500-client day-long
//! experiment finish in seconds while preserving every time-to-accuracy
//! ratio (the delays *are* the paper's workload model, §6 of the paper).

pub mod churn;
pub mod event;
pub mod fault;
pub mod fleet;
pub mod latency;
pub mod network;
pub mod runtime;
pub mod trace;

pub use churn::{ChurnConfig, CorruptMode, CorruptSpec, DriftSpec, FlapSpec, StormSpec};
pub use event::EventQueue;
pub use fault::{FaultEvent, FaultKind, FaultLog};
pub use fleet::{ClusterConfig, Fleet};
pub use latency::{DelayPart, LatencyModel};
pub use network::TrafficMeter;
pub use runtime::{Completion, EventHandler, SimCtx, SimReport};
pub use trace::{Trace, TracePoint};
