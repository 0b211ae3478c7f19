//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around calls into
//! each layer's public functions: name, start, end, the enclosing span, and
//! the operation (one solve, one apply, one wire request) they belong to.
//! Nothing is written until the run ends. A disabled tracer runs the wrapped
//! closures directly and records nothing, which is how the untraced run
//! measures the end-to-end metrics.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span on the tracer's clock.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified span name, e.g. `shard.repair`.
    pub name: &'static str,
    /// The operation the span belongs to (shared by all spans of one solve,
    /// apply or request).
    pub op: u64,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Records spans from one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now; `enabled == false` records nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new operation: spans recorded from now on carry its id.
    pub fn begin_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    fn nanos(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`; spans `f` opens nest under it.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.nanos(Instant::now());
        self.spans.push(Span {
            name,
            op: self.op,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.nanos(Instant::now());
        out
    }

    /// Records an interval measured elsewhere (on a worker thread, or by a
    /// client thread) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let span = Span {
            name,
            op: self.op,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per operation, the summed duration (ms) of every span named `name`;
    /// operations without such a span are skipped.
    pub fn per_op_ms(&self, name: &str) -> Vec<f64> {
        let mut by_op: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_op.entry(s.op).or_insert(0.0) += s.ms();
        }
        by_op.into_values().collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.op, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_group_by_op() {
        let mut tr = Tracer::new(true);
        tr.begin_op();
        tr.span("outer", |tr| {
            tr.span("inner", |_| ());
            tr.span("inner", |_| ());
        });
        tr.begin_op();
        tr.span("inner", |_| ());
        let spans = tr.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!(tr.per_op_ms("inner").len(), 2);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.begin_op();
        assert_eq!(tr.span("outer", |tr| tr.span("inner", |_| 7)), 7);
        tr.record("x", Instant::now(), Instant::now());
        assert!(tr.spans().is_empty());
    }
}
