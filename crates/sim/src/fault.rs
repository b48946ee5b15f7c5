//! Fault observability: a time-ordered log of availability transitions and
//! server-side fault-tolerance actions — a run's one fault record.
//!
//! The runtime emits ground-truth [`FaultKind::Down`]/[`FaultKind::Up`]
//! transitions as virtual time passes them. Strategies record the other
//! ten kinds through [`crate::SimCtx`]: the ground-truth
//! [`FaultKind::Corrupt`] injections, and their own decisions —
//! [`FaultKind::Timeout`], [`FaultKind::Retry`], [`FaultKind::Quorum`],
//! [`FaultKind::Retier`], [`FaultKind::Revive`], [`FaultKind::Reject`],
//! [`FaultKind::Clip`], [`FaultKind::Stale`] and [`FaultKind::Quarantine`].
//! How often an action fired is [`FaultLog::count`] of its kind; `repro
//! churn` and `repro corrupt` write the rows next to their reports.

use std::fmt;

/// What happened.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A client went offline (ground truth, emitted by the runtime).
    Down,
    /// A client came back online (ground truth, emitted by the runtime).
    Up,
    /// A dispatch blew its deadline and was cancelled by the server.
    Timeout,
    /// A timed-out slot was re-dispatched to a replacement client.
    Retry,
    /// A round/tier concluded below quorum (degraded or skipped).
    Quorum,
    /// Tier membership was re-assigned from observed latencies.
    Retier,
    /// A revival timer restarted a parked tier or put a returned client
    /// back to work.
    Revive,
    /// A client's uplink payload was mangled in transit (ground truth,
    /// emitted at injection — the server never sees this row's cause).
    Corrupt,
    /// The guard layer rejected an update (non-finite or over the norm
    /// screen with clipping disabled).
    Reject,
    /// The guard layer clipped an over-norm update to the screen threshold.
    Clip,
    /// An async strategy discarded an update older than `max_staleness`
    /// model versions.
    Stale,
    /// A repeat offender was quarantined out of the dispatch pool.
    Quarantine,
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::Down => "down",
            FaultKind::Up => "up",
            FaultKind::Timeout => "timeout",
            FaultKind::Retry => "retry",
            FaultKind::Quorum => "quorum",
            FaultKind::Retier => "retier",
            FaultKind::Revive => "revive",
            FaultKind::Corrupt => "corrupt",
            FaultKind::Reject => "reject",
            FaultKind::Clip => "clip",
            FaultKind::Stale => "stale",
            FaultKind::Quarantine => "quarantine",
        };
        f.write_str(s)
    }
}

/// One fault-log row.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    /// Virtual time of the event.
    pub time: f64,
    /// Event kind.
    pub kind: FaultKind,
    /// Client involved, when the event is client-scoped.
    pub client: Option<usize>,
    /// Tier/group involved, when the event is tier-scoped.
    pub tier: Option<usize>,
    /// Kind-specific detail: retry attempt number, updates received at a
    /// quorum check, clients moved by a re-tier.
    pub detail: u64,
}

/// Append-only fault log for one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultLog {
    events: Vec<FaultEvent>,
}

impl FaultLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event.
    pub fn record(&mut self, event: FaultEvent) {
        self.events.push(event);
    }

    /// All events, in emission order (time-ordered per source).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events of a given kind.
    pub fn count(&self, kind: FaultKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }

    /// Total number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Writes the log as CSV (`time,kind,client,tier,detail`).
    pub fn write_csv<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        writeln!(w, "time,kind,client,tier,detail")?;
        for e in &self.events {
            writeln!(
                w,
                "{:.6},{},{},{},{}",
                e.time,
                e.kind,
                e.client.map_or(String::new(), |c| c.to_string()),
                e.tier.map_or(String::new(), |t| t.to_string()),
                e.detail
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(time: f64, kind: FaultKind) -> FaultEvent {
        FaultEvent {
            time,
            kind,
            client: Some(3),
            tier: None,
            detail: 1,
        }
    }

    #[test]
    fn counts_by_kind() {
        let mut log = FaultLog::new();
        log.record(ev(1.0, FaultKind::Down));
        log.record(ev(2.0, FaultKind::Up));
        log.record(ev(3.0, FaultKind::Down));
        assert_eq!(log.count(FaultKind::Down), 2);
        assert_eq!(log.count(FaultKind::Up), 1);
        assert_eq!(log.count(FaultKind::Timeout), 0);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn csv_shape() {
        let mut log = FaultLog::new();
        log.record(FaultEvent {
            time: 4.5,
            kind: FaultKind::Retry,
            client: Some(7),
            tier: Some(2),
            detail: 1,
        });
        let mut out = Vec::new();
        log.write_csv(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("time,kind,client,tier,detail\n"));
        assert!(text.contains("4.500000,retry,7,2,1"));
    }
}
