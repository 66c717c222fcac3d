//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer's public function: its name,
//! start and end (nanoseconds from the recorder's origin) and the span
//! that caused it. Spans stay in memory and are written out as JSON
//! lines when the run ends.
//!
//! `Engine::advance` is called millions of times a second near silence,
//! too often for one stored span per call. Each call is still timed; the
//! durations are kept in memory for the length of one engine run and
//! folded into that run's span (`exact` / `batch` counts and totals)
//! when the run ends.

use crate::clock::Stamp;
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;

const NO_PARENT: usize = usize::MAX;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: usize,
    /// Counts recorded at the same boundary, written out with the span.
    pub attrs: Vec<(&'static str, f64)>,
}

pub struct Tracer {
    origin: Stamp,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Stamp::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span whose parent is the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = Stamp::now().ns_since(self.origin);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            attrs: Vec::new(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id` (the innermost open one).
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = Stamp::now().ns_since(self.origin);
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    pub fn attr(&mut self, id: usize, key: &'static str, value: f64) {
        self.spans[id].attrs.push((key, value));
    }

    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].end_ns - self.spans[id].start_ns
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Write every span as one JSON object per line, with its self time:
    /// its duration minus the time its direct children cover (children
    /// of one parent never overlap).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = write!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"self_ns\": {}",
                s.name,
                s.start_ns,
                s.end_ns,
                (s.end_ns - s.start_ns).saturating_sub(child_ns[id])
            );
            for (k, v) in &s.attrs {
                let _ = write!(out, ", \"{k}\": {v}");
            }
            out.push_str("}\n");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}
