//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, the span it was opened inside, and its start and end
//! offsets.  Spans stay in memory; the per-layer metrics are read off them
//! when the run ends, and [`Tracer::summary`] prints each name's count,
//! total and self time (its duration minus the part its child spans cover).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

/// A span recorder; a disabled one records nothing and reads no clock.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span inside the innermost open one.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span; returns its duration in seconds
    /// (0 when disabled).
    pub fn end(&mut self) -> f64 {
        if !self.enabled {
            return 0.0;
        }
        let Some(i) = self.open.pop() else {
            return 0.0;
        };
        let end = self.now();
        self.spans[i].end = end;
        end - self.spans[i].start
    }

    /// Close every open span, after a seed was abandoned midway.
    pub fn reset_stack(&mut self) {
        while !self.open.is_empty() {
            self.end();
        }
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed duration of the spans called `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.end - s.start).sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// One line per span name: count, total seconds and self seconds.
    pub fn summary(&self) -> String {
        let mut child_time = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_time[p] += s.end - s.start;
            }
        }
        let mut by_name: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(&child_time) {
            let entry = by_name.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.end - s.start;
            entry.2 += s.end - s.start - children;
        }
        let mut out = format!(
            "{:>20} {:>8} {:>12} {:>12}\n",
            "span", "count", "total_s", "self_s"
        );
        for (name, (count, total, own)) in by_name {
            let _ = writeln!(out, "{name:>20} {count:>8} {total:>12.6} {own:>12.6}");
        }
        out
    }
}
