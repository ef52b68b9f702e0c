//! In-memory spans recorded around calls into the layers' public functions.
//!
//! Spans are kept in memory while the run measures and written out once at
//! the end, so writing them costs nothing inside a timed pass. A disabled
//! tracer records nothing; the difference between a traced and an untraced
//! pass of the same code is the tracing overhead.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The layer call, e.g. `parser` or `exec.bounded`.
    pub name: &'static str,
    /// When the call started.
    pub start: Instant,
    /// When the call returned.
    pub end: Instant,
    /// The enclosing span, by index.
    pub parent: Option<usize>,
    /// The input (request) the span served.
    pub request: u64,
}

impl Span {
    /// The span's duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// A span recorder shared by the threads of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    /// The spans currently open on the nesting thread (see [`Tracer::scope`]).
    open: Mutex<Vec<usize>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::default(),
            open: Mutex::default(),
        }
    }

    /// Run `f` inside a span nested under the innermost open scope. Scopes
    /// nest on one thread only; concurrent spans use [`Tracer::record`].
    pub fn scope<T>(&self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let parent = self.open.lock().expect("span stack").last().copied();
        let start = Instant::now();
        let index = {
            let mut spans = self.spans.lock().expect("span list");
            spans.push(Span {
                name,
                start,
                end: start,
                parent,
                request,
            });
            spans.len() - 1
        };
        self.open.lock().expect("span stack").push(index);
        let out = f();
        let end = Instant::now();
        self.open.lock().expect("span stack").pop();
        self.spans.lock().expect("span list")[index].end = end;
        out
    }

    /// Record a span measured by the caller (a call made on another thread,
    /// or an interval such as submit-until-wait-returns).
    pub fn record(&self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if self.enabled {
            self.spans.lock().expect("span list").push(Span {
                name,
                start,
                end,
                parent: None,
                request,
            });
        }
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list").clone()
    }

    /// Self time per span name in milliseconds, summed over `spans`: each
    /// span's duration minus the durations of its direct children.
    pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
        let mut child_ms = vec![0.0; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                child_ms[parent] += span.ms();
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in spans.iter().zip(child_ms) {
            *totals.entry(span.name).or_insert(0.0) += span.ms() - children;
        }
        totals
    }

    /// Write every span as one JSON object per line (times in microseconds
    /// since the tracer was made).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let micros = |at: Instant| (at - self.origin).as_secs_f64() * 1e6;
        for (id, span) in self.spans().iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{parent},\"request\":{}}}",
                span.name,
                micros(span.start),
                micros(span.end),
                span.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let tracer = Tracer::new(true);
        tracer.scope("outer", 0, || {
            tracer.scope("inner", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        let totals = Tracer::self_times(&spans);
        assert!(totals["inner"] >= 5.0);
        assert!(totals["outer"] < totals["inner"]);
        let off = Tracer::new(false);
        assert_eq!(off.scope("x", 0, || 7), 7);
        assert!(off.spans().is_empty());
    }
}
