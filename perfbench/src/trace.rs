//! The benchmark's own spans, recorded around calls into each layer of
//! the program: name, start, end, parent span and request id. Spans are
//! kept in memory and written out when the run ends; a disabled tracer
//! records nothing.

use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

impl Tracer {
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: SpanId) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, request);
        let out = f();
        self.end(id);
        out
    }

    /// Wraps the already-recorded span `child` in a new parent span
    /// of the same request.
    pub fn adopt(&mut self, child: SpanId, name: &'static str, start_ns: u64, end_ns: u64) {
        let Some(c) = child else { return };
        let request = self.spans[c].request;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            request,
        });
        self.spans[c].parent = Some(self.spans.len() - 1);
    }

    /// Appends another tracer's spans (same epoch), keeping their
    /// parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per span, one per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.request
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let id = t.begin("a", None, 0);
        t.end(id);
        assert_eq!(id, None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn spans_nest_and_serialize() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("outer", None, 7);
        t.span("inner", outer, 7, || ());
        t.end(outer);
        let text = t.to_jsonl();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"inner\"") && text.contains("\"parent\":0"));
        assert_eq!(t.durations("inner").len(), 1);
    }

    #[test]
    fn adopted_and_absorbed_spans_keep_their_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.span("x", None, 1, || ());
        let mut b = Tracer::new(true, epoch);
        let wire = b.begin("wire", None, 9);
        b.end(wire);
        b.adopt(wire, "request", 0, 5);
        a.absorb(b);
        let text = a.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[1].contains("\"name\":\"wire\"") && lines[1].contains("\"parent\":2"));
        assert!(lines[2].contains("\"name\":\"request\"") && lines[2].contains("\"request\":9"));
    }
}
