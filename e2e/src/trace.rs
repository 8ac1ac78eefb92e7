//! Span recorder for the traced run. Spans are recorded by the
//! benchmark around its calls into each layer, kept in memory, and
//! written once at the end as Chrome trace events.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One closed (or still open) span.
pub struct Span {
    pub name: &'static str,
    /// Operation the span belongs to (shared by all spans of one
    /// product or request).
    pub op: u64,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, op: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            dur_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration, ns.
    pub fn end(&mut self, id: SpanId) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.dur_ns = now - span.start_ns;
        span.dur_ns
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Durations of every span called `name`, ms, in recording order.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns as f64 / 1e6)
            .collect()
    }

    /// Share of the time of the spans called `root` that none of their
    /// direct children covers.
    pub fn unattributed(&self, root: &str) -> f64 {
        let mut total = 0u64;
        let mut covered = 0u64;
        for (id, s) in self.spans.iter().enumerate() {
            if s.name == root {
                total += s.dur_ns;
                covered += self
                    .spans
                    .iter()
                    .skip(id + 1)
                    .take_while(|c| c.start_ns < s.start_ns + s.dur_ns)
                    .filter(|c| c.parent == Some(id))
                    .map(|c| c.dur_ns)
                    .sum::<u64>();
            }
        }
        if total == 0 {
            return 0.0;
        }
        1.0 - covered as f64 / total as f64
    }

    /// Writes every span as a Chrome trace "complete" event, with the
    /// operation id, span id and parent span in `args`.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        out.write_all(b"{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{},\"dur\":{},\
                 \"args\":{{\"op\":{},\"span\":{},\"parent\":{}}}}}",
                if id == 0 { "" } else { "," },
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.op,
                id,
                parent
            )?;
        }
        out.write_all(b"]}\n")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_cover_their_parent() {
        let mut tr = Tracer::new();
        let root = tr.begin("product", 1, None);
        tr.span("prepare", 1, Some(root), || std::hint::black_box(1 + 1));
        tr.span("execute", 1, Some(root), || std::hint::black_box(2 + 2));
        tr.end(root);
        tr.span("check", 1, None, || ());
        assert_eq!(tr.ms("prepare").len(), 1);
        let u = tr.unattributed("product");
        assert!((0.0..=1.0).contains(&u), "unattributed share {u}");
        assert_eq!(tr.unattributed("missing"), 0.0);
    }
}
