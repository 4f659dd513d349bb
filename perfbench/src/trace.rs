//! Spans and counters of the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer's public functions: name, start, end, the enclosing span and, for
//! the serve workload, the request id. They stay in memory and are written
//! out once, when the run ends. Counters are filled by the workloads over a
//! deterministic prefix of their work, so two runs on one seed agree on
//! them exactly.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.alg5`.
    pub name: &'static str,
    /// Start, in microseconds since the tracer was created.
    pub start_us: f64,
    /// End, in microseconds since the tracer was created.
    pub end_us: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Serve request id, when the span belongs to one request.
    pub request: Option<u64>,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// Span recorder; a disabled tracer records nothing.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: Option<u64>,
    counters: BTreeMap<&'static str, f64>,
}

/// Handle of an open span (meaningless when tracing is off).
#[derive(Clone, Copy)]
pub struct SpanId(usize);

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: None,
            counters: BTreeMap::new(),
        }
    }

    /// Whether spans and counters are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if !self.on {
            return;
        }
        self.spans[id.0].end_us = self.now_us();
        self.open.retain(|&s| s != id.0);
    }

    /// Records a span whose duration was measured by the caller, ending
    /// now (used for work timed inside a layer, such as a solve's own
    /// clock).
    pub fn record(&mut self, name: &'static str, ms: f64) {
        if !self.on {
            return;
        }
        let end = self.now_us();
        self.spans.push(Span {
            name,
            start_us: end - ms * 1e3,
            end_us: end,
            parent: self.open.last().copied(),
            request: self.request,
        });
    }

    /// Tags the spans opened from now on with a serve request id.
    pub fn set_request(&mut self, request: Option<u64>) {
        self.request = request;
    }

    /// Adds `v` to a counter.
    pub fn add(&mut self, name: &'static str, v: f64) {
        if self.on {
            *self.counters.entry(name).or_insert(0.0) += v;
        }
    }

    /// Raises a counter to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        if self.on {
            let c = self.counters.entry(name).or_insert(v);
            *c = c.max(v);
        }
    }

    /// A counter's value (0 when never set).
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Whether a counter has been set.
    pub fn has(&self, name: &str) -> bool {
        self.counters.contains_key(name)
    }

    /// Durations in milliseconds of every span with this name.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Writes the spans as JSON lines.
    ///
    /// # Errors
    ///
    /// File-system errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |o: Option<u64>| o.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"request\":{}}}",
                s.name,
                s.start_us,
                s.end_us,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            )?;
        }
        out.flush()
    }
}
