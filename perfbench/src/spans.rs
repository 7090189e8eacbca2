//! In-memory host spans for the traced run.
//!
//! The benchmark wraps its own spans around the public call into each
//! layer; nothing inside the program is instrumented. Spans stay in memory
//! until the run ends, then fold into per-layer self times.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    duration: Duration,
}

/// A flat list of spans linked to their parents.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans::default()
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        let start = Instant::now();
        let result = f();
        let id = self.record(name, parent, start.elapsed());
        (result, id)
    }

    /// Record a span whose duration was measured elsewhere, e.g. a phase
    /// time a layer reports about itself.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        duration: Duration,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            parent,
            duration,
        });
        self.spans.len() - 1
    }

    /// Set the duration of a span opened with [`record`](Self::record)
    /// before its children ran.
    pub fn set_duration(&mut self, id: SpanId, duration: Duration) {
        self.spans[id].duration = duration;
    }

    /// Total duration of every span named `name`, in ms.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ms(s.duration))
            .sum()
    }

    /// Number of spans named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time per span name, in ms: each span's duration minus the part
    /// its children cover, summed over spans of that name.
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration;
            }
        }
        let mut out = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            *out.entry(span.name).or_insert(0.0) += ms(span.duration) - ms(covered);
        }
        out
    }

    /// The per-name summary written to stderr at the end of a traced run.
    pub fn summary(&self) -> String {
        let mut out = String::from("span                      count    total_ms     self_ms\n");
        for (name, self_ms) in self.self_ms() {
            out.push_str(&format!(
                "{name:<24} {:>7} {:>11.3} {:>11.3}\n",
                self.count(name),
                self.total_ms(name),
                self_ms
            ));
        }
        out
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::new();
        let root = spans.record("root", None, Duration::from_millis(10));
        spans.record("child", Some(root), Duration::from_millis(3));
        spans.record("child", Some(root), Duration::from_millis(2));
        let self_ms = spans.self_ms();
        assert!((self_ms["root"] - 5.0).abs() < 1e-9);
        assert!((self_ms["child"] - 5.0).abs() < 1e-9);
        assert_eq!(spans.count("child"), 2);
        assert!((spans.total_ms("root") - 10.0).abs() < 1e-9);
    }
}
