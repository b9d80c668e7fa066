//! In-memory spans around the calls the staged replay makes into each layer.
//!
//! The replay runs on one thread, so the open spans form a stack: a span's
//! parent is whatever was open when it began. Spans live in a vector sized
//! before the replay starts and are written out only when it has ended.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call (or group of calls) into a layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<stage>`, e.g. `nn.forward`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// Simulation id on the producer side, batch index on the learner side.
    pub trace_id: u64,
}

/// Records spans, or nothing at all while disabled — the disabled recorder
/// reads no clock, so the turns of a replay that run with it measure what the
/// others pay for tracing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    /// Turns recording on or off; only between spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "a span is open");
        self.enabled = enabled;
    }

    pub fn is_on(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, trace_id: u64) {
        if !self.enabled {
            return;
        }
        let index = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(index);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trace_id,
        });
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("end() without a matching begin()");
        self.spans[index as usize].end_ns = end_ns;
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span was left open");
        self.spans
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children. The open spans of one thread form a stack, so children lie inside
/// their parent and never overlap each other.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent as usize] -= span.end_ns - span.start_ns;
        }
    }
    own
}

/// Total self time in nanoseconds and span count, by span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, usize)> {
    let mut totals = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let entry = totals.entry(span.name).or_insert((0, 0));
        entry.0 += self_ns;
        entry.1 += 1;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            trace_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_adjacent_children_once() {
        let spans = [
            span("batch", 0, 100, None),
            span("fill", 10, 30, Some(0)),
            span("forward", 30, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn self_time_with_nested_children_only_counts_direct_ones() {
        let spans = [
            span("replay", 0, 1000, None),
            span("batch", 100, 600, Some(0)),
            span("forward", 200, 500, Some(1)),
            span("gemm", 250, 300, Some(2)),
        ];
        // replay: 1000 − 500; batch: 500 − 300; forward: 300 − 50.
        assert_eq!(self_times(&spans), vec![500, 200, 250, 50]);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = [
            span("batch", 0, 50, None),
            span("fill", 0, 10, Some(0)),
            span("batch", 50, 100, None),
            span("fill", 50, 70, Some(2)),
        ];
        let totals = self_time_by_name(&spans);
        assert_eq!(totals["fill"], (30, 2));
        assert_eq!(totals["batch"], (70, 2));
    }

    #[test]
    fn tracer_nests_by_open_order_and_disabled_records_nothing() {
        let mut tracer = Tracer::new(true, 8);
        tracer.begin("outer", 7);
        tracer.begin("inner", 7);
        tracer.end();
        tracer.end();
        tracer.begin("next", 8);
        tracer.end();
        let spans = tracer.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);

        let mut off = Tracer::new(false, 8);
        off.begin("outer", 0);
        off.end();
        assert!(off.into_spans().is_empty());
    }
}
