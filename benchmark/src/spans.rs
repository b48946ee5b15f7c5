//! In-memory spans recorded from the benchmark's side of each layer call.
//!
//! The traced pass wraps every call into a layer in a span
//! `{name, start, end, parent}`; nothing inside the program is instrumented
//! and the timed (end-to-end) pass records no span at all, so tracing
//! overhead on the end-to-end metrics is zero by construction. Spans live in
//! memory and are written out once, when the pass ends.

use std::io::{self, Write};
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Start of the call.
    pub start_ns: u64,
    /// End of the call; equals `start_ns` while the span is open.
    pub end_ns: u64,
    /// The span that caused this one (`None` for the root).
    pub parent: Option<usize>,
}

/// Append-only span store; a span's id is its index.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a pass is shorter than 584 years")
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        (span.end_ns - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span; returns its result and the span's duration in
    /// seconds.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.open(name, parent);
        let result = f();
        (result, self.close(id))
    }

    /// Every span recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span: `id`, `name`, `start_ns`, `end_ns`,
    /// `parent`.
    pub fn write_jsonl(&self, mut w: impl Write) -> io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new();
        let root = t.open("root", None);
        let ((), inner) = t.time("child", Some(root), || {
            std::hint::black_box((0..1000).sum::<u64>());
        });
        let outer = t.close(root);
        assert!(outer >= inner && inner >= 0.0);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with("{\"id\":0,\"name\":\"root\""));
        assert!(text.lines().nth(1).unwrap().ends_with("\"parent\":0}"));
    }
}
