//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span is a name, a start and end (ns since the recorder's origin), the
//! span that caused it and the op it belongs to. Spans live in a
//! preallocated vector and are written out, if at all, when the run ends;
//! spans *inside* the library are a later change (ROADMAP "paths that
//! explain themselves").

use crate::json::Value;
use std::time::Instant;

/// Index of a span in its recorder; `NO_PARENT` for a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub op: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span buffer. Threads record separately against a shared
/// origin and are merged with [`Recorder::absorb`] at the end.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(origin: Instant, capacity: usize) -> Self {
        Recorder { origin, spans: Vec::with_capacity(capacity) }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, op: u32) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, op });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records a span around `f`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, op);
        let out = f();
        self.close(id);
        out
    }

    /// Records an already-measured interval (a stage duration read from a
    /// report struct), laid out from `start_ns`.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        op: u32,
        start_ns: u64,
        duration_ns: u64,
    ) -> SpanId {
        self.spans.push(Span { name, start_ns, end_ns: start_ns + duration_ns, parent, op });
        (self.spans.len() - 1) as SpanId
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Self time of every span called `name`: its duration minus the part
    /// of that interval its direct children cover.
    pub fn self_times_ns(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                let p = &self.spans[s.parent as usize];
                let covered = s.end_ns.min(p.end_ns).saturating_sub(s.start_ns.max(p.start_ns));
                child_ns[s.parent as usize] += covered;
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &c)| s.duration_ns().saturating_sub(c) as f64)
            .collect()
    }

    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::object([
                        ("id", Value::Number(id as f64)),
                        ("name", Value::String(s.name.into())),
                        ("start_ns", Value::Number(s.start_ns as f64)),
                        ("end_ns", Value::Number(s.end_ns as f64)),
                        (
                            "parent",
                            if s.parent == NO_PARENT {
                                Value::Null
                            } else {
                                Value::Number(s.parent as f64)
                            },
                        ),
                        ("op", Value::Number(s.op as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(Instant::now(), 8);
        let root = r.record("root", NO_PARENT, 0, 0, 100);
        r.record("a", root, 0, 10, 30);
        r.record("b", root, 0, 50, 20);
        // A child overhanging its parent only counts for the overlap.
        r.record("c", root, 0, 90, 40);
        assert_eq!(r.self_times_ns("root"), vec![100.0 - 30.0 - 20.0 - 10.0]);
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin, 4);
        a.record("x", NO_PARENT, 0, 0, 1);
        let mut b = Recorder::new(origin, 4);
        let root = b.record("y", NO_PARENT, 1, 0, 10);
        b.record("z", root, 1, 2, 3);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, 1);
        assert_eq!(a.self_times_ns("y"), vec![7.0]);
    }
}
