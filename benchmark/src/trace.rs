//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Spans live in memory during the run and are written out once at its
//! end. A span names its parent by index; spans of one detection interval
//! share that interval's number.

use serde::Serialize;
use std::time::Instant;

/// One timed stretch of work.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Span {
    /// Layer-qualified name, e.g. `agent.end_interval`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The detection interval this span belongs to.
    pub interval: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Collects spans while enabled; free when disabled.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off (the traced run alternates per pass).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Nanoseconds from the origin to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span from two instants; returns its index for children.
    pub fn span(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        interval: u64,
    ) -> Option<usize> {
        let (start, end) = (self.ns(start), self.ns(end));
        self.span_ns(name, start, end, parent, interval)
    }

    /// Records a span from nanosecond offsets.
    pub fn span_ns(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
        interval: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            interval,
        });
        Some(self.spans.len() - 1)
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (overlapping children are not counted twice, and
/// a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let (start, end) = (s.start.max(spans[p].start), s.end.min(spans[p].end));
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, span.start);
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration() - covered
        })
        .collect()
}

/// Durations in milliseconds of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64 / 1e6)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            interval: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("cycle", 0, 100, None),
            span("record", 0, 30, Some(0)),
            span("close", 30, 90, Some(0)),
            span("agent", 30, 50, Some(2)),
            // Overlaps `agent` by 10: the union covers 30..70.
            span("ingest", 40, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![10, 30, 20, 20, 30]);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span("parent", 10, 20, None), span("child", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(t.span("x", now, now, None, 0), None);
        t.set_enabled(true);
        assert_eq!(t.span("x", now, now, None, 0), Some(0));
        assert_eq!(t.spans().len(), 1);
        assert_eq!(durations_ms(t.spans(), "x"), vec![0.0]);
    }
}
