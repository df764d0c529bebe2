//! In-memory spans, written out once when a traced run ends.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public function (spans inside the server are a later change). A span has a
//! name, a start and an end in nanoseconds since the tracer was created, the
//! id of the span that caused it (0 for none), and the index of the op it
//! served, which spans of one request share. Spans, and the durations
//! [`Tracer::close`] and [`Tracer::rung`] hand back for the per-layer metrics,
//! are wall-clock as measured.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Start a span now; returns its id (ids count from 1).
    pub fn open(&mut self, name: &'static str, parent: u32, op: u64) -> u32 {
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, op });
        let id = self.spans.len() as u32;
        // Stamp last, so pushing (and a reallocation) is outside the span.
        self.spans[id as usize - 1].start_ns = self.ns(Instant::now());
        id
    }

    /// End span `id` now; returns its duration in microseconds.
    pub fn close(&mut self, id: u32) -> f64 {
        let end = self.ns(Instant::now());
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e3
    }

    /// Record a span measured elsewhere (a connection thread's own clock
    /// reads); returns its id.
    pub fn add(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        from: Instant,
        to: Instant,
    ) -> u32 {
        let (start_ns, end_ns) = (self.ns(from), self.ns(to));
        self.spans.push(Span { name, start_ns, end_ns, parent, op });
        self.spans.len() as u32
    }

    /// Time `call` once per item under one parent span; microseconds each.
    pub fn rung<T, R>(
        &mut self,
        name: &'static str,
        items: &[T],
        mut call: impl FnMut(&T) -> R,
    ) -> Vec<f64> {
        let parent = self.open("rung", 0, 0);
        let mut us = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let id = self.open(name, parent, i as u64);
            let out = call(item);
            us.push(self.close(id));
            std::hint::black_box(out);
        }
        self.close(parent);
        us
    }

    /// The trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"spans\": [");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "\n" } else { ",\n" };
            let _ = write!(
                out,
                "{sep}{{\"id\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"op\": {}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.op
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_render() {
        let mut tr = Tracer::new();
        let us = tr.rung("layer.call", &[1u64, 2, 3], |x| x * 2);
        assert_eq!(us.len(), 3);
        assert_eq!(tr.spans.len(), 4);
        assert_eq!(tr.spans[0].name, "rung");
        for (i, s) in tr.spans[1..].iter().enumerate() {
            assert_eq!((s.name, s.parent, s.op), ("layer.call", 1, i as u64));
            assert!(s.start_ns >= tr.spans[0].start_ns && s.end_ns <= tr.spans[0].end_ns);
            assert!(s.end_ns >= s.start_ns);
        }
        let json = tr.to_json("w", 9);
        assert!(json.starts_with("{\"workload\": \"w\", \"seed\": 9, \"spans\": ["));
        assert_eq!(json.matches("\"name\": \"layer.call\"").count(), 3);
        assert!(json.trim_end().ends_with("]}"));
    }
}
