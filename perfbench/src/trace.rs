//! In-memory span recorder. Spans are taken in the benchmark's own code,
//! around calls into the reproduction's public API (one span per layer
//! boundary), kept in memory, and written out once the run ends.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: name, start and end (seconds since the trace began),
/// the span that caused it, the request it belongs to, and an optional
/// work count (MACs, operand pairs, cycles...) done inside it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
    pub count: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Runs `f`, as a span named `name` under `parent` when there is a trace
/// and directly when there is none, so traced and untraced runs share
/// one code path.
pub fn timed<R>(
    trace: Option<&Trace>,
    name: &str,
    parent: Option<usize>,
    f: impl FnOnce() -> R,
) -> R {
    match trace {
        Some(t) => t.time(name, parent, f),
        None => f(),
    }
}

#[derive(Debug)]
pub struct Trace {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64()
    }

    /// Records a span measured elsewhere; returns its id.
    pub fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: Option<u64>,
        count: f64,
    ) -> usize {
        let span = Span {
            name: name.to_string(),
            start: self.at(start),
            end: self.at(end),
            parent,
            request,
            count,
        };
        let mut spans = self
            .spans
            .lock()
            .expect("trace lock is never held across a panic");
        spans.push(span);
        spans.len() - 1
    }

    /// Times `f` as a span named `name` under `parent`; `f` returns its
    /// result and the work count to attach.
    pub fn span<R>(&self, name: &str, parent: Option<usize>, f: impl FnOnce() -> (R, f64)) -> R {
        let start = Instant::now();
        let (r, count) = f();
        self.record(name, start, Instant::now(), parent, None, count);
        r
    }

    /// Times `f` as a span with no work count.
    pub fn time<R>(&self, name: &str, parent: Option<usize>, f: impl FnOnce() -> R) -> R {
        self.span(name, parent, || (f(), 0.0))
    }

    /// Opens a parent span now; close it with [`Trace::close`].
    pub fn open(&self, name: &str) -> usize {
        let now = Instant::now();
        self.record(name, now, now, None, None, 0.0)
    }

    pub fn close(&self, id: usize) {
        let end = self.at(Instant::now());
        self.spans
            .lock()
            .expect("trace lock is never held across a panic")[id]
            .end = end;
    }

    /// Every span named exactly `name`.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans
            .lock()
            .expect("trace lock is never held across a panic")
            .iter()
            .filter(|s| s.name == name)
            .cloned()
            .collect()
    }

    /// Durations in seconds of every span named `name`.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.named(name).iter().map(Span::secs).collect()
    }

    /// Work count per second over every span named `name`.
    pub fn rate(&self, name: &str) -> f64 {
        let spans = self.named(name);
        let count: f64 = spans.iter().map(|s| s.count).sum();
        let secs: f64 = spans.iter().map(Span::secs).sum();
        count / secs
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self
            .spans
            .lock()
            .expect("trace lock is never held across a panic")
            .iter()
            .enumerate()
        {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{},\
                 \"request\":{},\"count\":{}}}",
                crate::util::esc(&s.name),
                s.start,
                s.end,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request.map_or("null".to_string(), |r| r.to_string()),
                s.count
            )?;
        }
        out.flush()
    }
}
