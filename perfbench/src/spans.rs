//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions. The program's own recorder stays off; these
//! spans live entirely in the benchmark.
//!
//! A span carries a name, start, end, its parent span and the id of the
//! operation it belongs to. A layer's self time is its duration minus the
//! time its child spans cover (children are sequential on one thread, so
//! that is the sum of their durations).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer name, e.g. `ic.tokyo`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation (compile job, evaluation, request) it belongs to.
    pub op: u64,
}

/// Per-name totals over every closed span.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus children), nanoseconds.
    pub self_ns: u64,
}

impl LayerTotals {
    /// Mean self time per span, microseconds (0 when none were recorded).
    pub fn self_us_mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent: self.open.last().copied(),
            op,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one. Returns
    /// its duration in nanoseconds.
    pub fn exit(&mut self, id: usize) -> u64 {
        let end = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id];
        span.end_ns = end.max(span.start_ns);
        span.end_ns - span.start_ns
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let duration = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += duration;
            entry.self_ns += duration.saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON line (`name`, `start_ns`, `end_ns`,
    /// `parent`, `op`).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 1);
        let inner = t.enter("inner", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        let totals = t.totals();
        let outer = totals["outer"];
        let inner = totals["inner"];
        assert_eq!(outer.count, 1);
        assert!(inner.total_ns >= 2_000_000);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        assert_eq!(t.spans()[1].parent, Some(0));
    }
}
