//! Span recording at the layer boundaries the benchmark calls into.
//!
//! A span is `(id, parent, op, name, start, end)`: `op` identifies the
//! benchmark operation (one trial, one churn update, one plan pass) the
//! span belongs to, and `parent` is the span that caused it. Spans are
//! kept in memory and written out once the run ends. With tracing off,
//! [`Tracer::begin`] and [`Tracer::end`] read no clock and store
//! nothing, so the untraced end-to-end figures pay one branch per call.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span (times are nanoseconds since the tracer's epoch).
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, closed by [`Tracer::end`]. Inert when tracing is off.
#[must_use]
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<u32>);

/// The in-memory span recorder.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens span `name` of operation `op` under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: Open, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: parent.0,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Open(Some(id))
    }

    /// Closes an open span and returns its duration in nanoseconds.
    pub fn end(&mut self, open: Open) -> u64 {
        match open.0 {
            Some(id) => {
                let end = self.now_ns();
                let span = &mut self.spans[id as usize];
                span.end_ns = end;
                span.dur_ns()
            }
            None => 0,
        }
    }

    /// The root of a span tree (no parent).
    pub fn root() -> Open {
        Open(None)
    }

    /// Per span name: (count, total ns, self ns). A span's self time is
    /// its duration minus the part its child spans cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(child_ns[s.id as usize]);
        }
        out
    }

    /// Total duration of every span called `name`, in milliseconds, or
    /// `None` when no such span was recorded.
    pub fn total_ms(&self, name: &str) -> Option<f64> {
        let (count, ns) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(c, t), s| (c + 1, t + s.dur_ns()));
        (count > 0).then_some(ns as f64 / 1e6)
    }

    /// Mean duration of the spans called `name`, in milliseconds.
    pub fn mean_ms(&self, name: &str) -> Option<f64> {
        let count = self.spans.iter().filter(|s| s.name == name).count();
        self.total_ms(name).map(|t| t / count as f64)
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}
