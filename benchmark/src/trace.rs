//! Spans around the calls the benchmark makes into each layer.
//!
//! A span is `{id, parent, name, start_ns, end_ns, count}`: `parent` is
//! the span that was open when this one began (0 = none), `count` is a
//! work counter read at the same boundary (pods solved in this tick,
//! messages delivered in this tick, …). Spans are kept in memory and
//! written out once, after the measured region; a disabled tracer costs
//! one predictable branch per call, which is how the untraced pass runs
//! the same workload code.

use std::io::Write;
use std::time::Instant;

use crate::host;

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// 1-based identifier, unique within a trace.
    pub id: u32,
    /// The span open when this one began; 0 for a root.
    pub parent: u32,
    /// `layer.operation`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Work counted at the boundary (meaning depends on `name`).
    pub count: u64,
}

impl Span {
    /// The span's duration, nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when enabled; a no-op otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            origin: host::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records every span, with room for `capacity` of them
    /// so that recording does not allocate inside the measured region.
    pub fn on(capacity: usize) -> Self {
        Tracer {
            enabled: true,
            origin: host::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    /// Opens a span; pass the returned token to [`Tracer::end`].
    #[inline]
    pub fn begin(&mut self, name: &'static str) -> u32 {
        if !self.enabled {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        let start_ns = host::now().duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the span `id`, attaching `count`.
    #[inline]
    pub fn end(&mut self, id: u32, count: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = host::now().duration_since(self.origin).as_nanos() as u64;
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = end_ns;
        span.count = count;
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Total duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Self time (ns) of every span called `name`: duration minus the part
    /// its direct children cover.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.dur_ns();
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns().saturating_sub(child_ns[s.id as usize]))
            .sum()
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.count
            )?;
        }
        out.flush()
    }
}
