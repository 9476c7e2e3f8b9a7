//! In-memory spans recorded by the benchmark around its calls into each
//! layer (spans inside the simulator are a later issue). A span names
//! the layer it entered and the span that caused it; a layer's *self
//! time* is its span minus the part its children cover.

use std::time::Instant;

use crate::json::Value;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the log, if any.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn seconds(&self) -> f64 {
        self.duration_ns() as f64 / 1e9
    }
}

pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    /// Returns `f`'s result and the span's index.
    pub fn scope<R>(
        &mut self,
        name: &str,
        layer: &'static str,
        f: impl FnOnce(&mut SpanLog) -> R,
    ) -> (R, usize) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, id)
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self, workload: &str) -> Vec<Value> {
        self.spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::obj()
                    .with("name", s.name.as_str())
                    .with("layer", s.layer)
                    .with("workload", workload)
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("self_ns", self_time_ns(&self.spans, i))
                    .with("parent", s.parent.map_or(Value::Null, Value::from))
            })
            .collect()
    }
}

/// A span's duration minus the part of it its direct children cover.
/// Children never overlap one another (the benchmark is single-threaded
/// where it records spans), so their durations simply add.
pub fn self_time_ns(spans: &[Span], id: usize) -> u64 {
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::duration_ns)
        .sum();
    spans[id].duration_ns().saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            layer: "test",
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, 1000, None),
            span(100, 400, Some(0)),
            span(500, 900, Some(0)),
            span(150, 250, Some(1)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 1000 - 300 - 400);
        assert_eq!(self_time_ns(&spans, 1), 300 - 100);
        assert_eq!(self_time_ns(&spans, 2), 400);
        assert_eq!(self_time_ns(&spans, 3), 100);
    }

    #[test]
    fn scopes_nest_and_record_their_parent() {
        let mut log = SpanLog::new();
        let ((), outer) = log.scope("run", "nim-core", |log| {
            log.scope("chunk", "nim-core", |_| {});
            log.scope("chunk", "nim-core", |_| {});
        });
        assert_eq!(log.spans().len(), 3);
        assert_eq!(log.span(outer).parent, None);
        assert_eq!(log.span(1).parent, Some(outer));
        assert_eq!(log.span(2).parent, Some(outer));
        assert!(log.span(outer).end_ns >= log.span(2).end_ns);
        assert!(log.span(1).end_ns <= log.span(2).start_ns);
        let json = log.to_json("cell_sim");
        assert_eq!(json.len(), 3);
        assert_eq!(json[1].get("parent").and_then(Value::as_f64), Some(0.0));
        assert_eq!(json[0].get("parent"), Some(&Value::Null));
    }
}
