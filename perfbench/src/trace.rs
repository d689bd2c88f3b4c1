//! In-memory spans recorded by the benchmark around its calls into each
//! layer's public functions.
//!
//! A span has a name (`<layer>.<call>`, e.g. `algo.execute`), start and
//! end times relative to the tracer's epoch, and an optional parent.
//! Spans stay in memory until the run ends and are then written out as
//! JSON lines. A disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Identifies an open span (see [`Tracer::start`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// The span recorder of one run phase.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn start(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            parent: parent.map(|p| p.0),
            start_ns,
            end_ns: start_ns,
        });
        SpanId(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::start`].
    pub fn end(&self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans.lock().expect("span list poisoned")[id.0].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> T) -> T {
        let id = self.start(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Durations, in milliseconds, of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span list poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total milliseconds of the spans whose name starts with `prefix`.
    pub fn total_ms(&self, prefix: &str) -> f64 {
        let spans = self.spans.lock().expect("span list poisoned");
        spans
            .iter()
            .filter(|s| s.name.starts_with(prefix))
            .map(Span::ms)
            .sum()
    }

    /// Self time per layer, in milliseconds: each span's duration minus
    /// its children's durations, summed by layer (the name up to the
    /// first `.`). Children run one after another on their parent's
    /// thread.
    pub fn self_ms_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let layer = |name: &'static str| name.split('.').next().unwrap_or(name);
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = BTreeMap::new();
        for s in spans.iter() {
            *out.entry(layer(s.name)).or_insert(0.0) += s.ms();
            if let Some(p) = s.parent {
                *out.entry(layer(spans[p].name)).or_insert(0.0) -= s.ms();
            }
        }
        out
    }

    /// Appends every span as one JSON line, tagged with `phase`.
    ///
    /// # Errors
    ///
    /// Propagates write errors.
    pub fn write_jsonl(&self, phase: &str, w: &mut impl Write) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"phase\": \"{phase}\", \"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Writes the spans of several phases to `path` (JSON lines).
///
/// # Errors
///
/// Propagates file errors.
pub fn write_spans(path: &Path, phases: &[(&str, &Tracer)]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (phase, tracer) in phases {
        tracer.write_jsonl(phase, &mut w)?;
    }
    w.flush()
}
