//! Spans recorded around the calls a traced replay makes into each layer.
//!
//! Every span has a name, a start, an end, the span that contains it and
//! the update (log line or served request) it belongs to. Spans stay in
//! memory until the run ends; [`Recorder::write_jsonl`] then writes one
//! JSON object per line.

use std::fmt::Write as _;
use std::time::Instant;

use rtic_core::{StepEvent, StepObserver};
use rtic_obs::MetricsRegistry;

/// Index of a span in its [`Recorder`].
pub type SpanId = u32;

/// One timed call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `history.parse`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// The update this span worked on.
    pub update: u32,
}

impl Span {
    /// Length of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span store with one clock origin.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that ends at the matching [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, update: u32) -> SpanId {
        let start_ns = self.now();
        self.record(name, start_ns, start_ns, parent, update)
    }

    /// Ends a span opened with [`Recorder::open`].
    pub fn close(&mut self, id: SpanId) {
        let end = self.now();
        self.spans[id as usize].end_ns = end;
    }

    /// Stores a span whose bounds the caller measured.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        update: u32,
    ) -> SpanId {
        let id = SpanId::try_from(self.spans.len()).expect("fewer than 2^32 spans per run");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            update,
        });
        id
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Seconds spent in top-level spans (no parent) called `name`.
    pub fn root_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name && s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Seconds spent in spans called `child` whose parent is called
    /// `parent` (e.g. observer calls made from inside a step).
    pub fn nested_s(&self, child: &str, parent: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == child)
            .filter(|s| {
                s.parent
                    .is_some_and(|p| self.spans[p as usize].name == parent)
            })
            .map(Span::duration_ns)
            .sum();
        ns as f64 / 1e9
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"update\":{}}}",
                s.name, s.start_ns, s.end_ns, s.update
            );
        }
        std::fs::write(path, text)
    }
}

/// The benchmark's observer: forwards every event to the run's
/// [`MetricsRegistry`] (as the CLI's observer stack does) and records an
/// `obs.observe` span around each call.
pub struct TimedObserver<'a> {
    /// Where events go.
    pub registry: &'a mut MetricsRegistry,
    /// Where spans go.
    pub recorder: &'a mut Recorder,
    /// The span the observed call happens inside.
    pub parent: Option<SpanId>,
    /// The update being processed.
    pub update: u32,
}

impl StepObserver for TimedObserver<'_> {
    fn observe(&mut self, event: &StepEvent<'_>) {
        let start = self.recorder.now();
        self.registry.observe(event);
        let end = self.recorder.now();
        self.recorder
            .record("obs.observe", start, end, self.parent, self.update);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_time_counts_only_children_of_the_named_parent() {
        let mut rec = Recorder::new();
        let step = rec.record("core.step", 0, 100, None, 0);
        rec.record("obs.observe", 10, 20, Some(step), 0);
        let sample = rec.record("core.sample", 100, 200, None, 0);
        rec.record("obs.observe", 110, 150, Some(sample), 0);
        assert_eq!(rec.nested_s("obs.observe", "core.step"), 10e-9);
        assert_eq!(rec.total_s("obs.observe"), 50e-9);
        assert_eq!(rec.count("obs.observe"), 2);
    }
}
