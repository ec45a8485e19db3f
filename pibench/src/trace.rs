//! In-memory span recorder.
//!
//! Spans are recorded from the benchmark's own files around the calls it
//! makes into each layer: workload → pass → establishment / decision →
//! protocol phase → SRDS call. Each span keeps its name, start, end and
//! parent; the whole set is written out once, when the run ends.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was created.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span name (`decision`, `phase.coin`, `srds.verify`, …).
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start time.
    pub start_ns: u64,
    /// End time (0 while the span is open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Collects spans for one benchmark process. Single-threaded: the
/// protocol calls into the SRDS scheme only from the thread that drives
/// the service, so interior mutability through `RefCell` suffices.
pub struct Tracer {
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                name,
                parent: self.open.borrow().last().copied(),
                start_ns: self.ns(Instant::now()),
                end_ns: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        let end = self.ns(Instant::now());
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = end;
        out
    }

    /// Records an already-finished span under the innermost open span.
    pub fn leaf(&self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            name,
            parent: self.open.borrow().last().copied(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.borrow_mut().push(span);
    }

    /// Number of spans recorded so far: the `from` cursor of
    /// [`Tracer::total_ms`] and [`Tracer::uncovered_ms`].
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total milliseconds of the spans named `name` recorded at or after
    /// cursor `from`.
    pub fn total_ms(&self, from: usize, name: &str) -> f64 {
        self.spans.borrow()[from..]
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |total, s| total + s.ms())
    }

    /// Self time of the spans named `name` recorded at or after `from`:
    /// their summed durations minus what their direct children whose
    /// names start with `child_prefix` cover.
    pub fn uncovered_ms(&self, from: usize, name: &str, child_prefix: &str) -> f64 {
        let spans = self.spans.borrow();
        let mut total = 0.0;
        for (id, span) in spans.iter().enumerate().skip(from) {
            if span.name != name {
                continue;
            }
            let covered: f64 = spans[id + 1..]
                .iter()
                .filter(|c| c.parent == Some(id) && c.name.starts_with(child_prefix))
                .map(Span::ms)
                .sum();
            total += span.ms() - covered;
        }
        total
    }

    /// Writes every span as one JSON object per line:
    /// `{"id":…,"parent":…,"name":…,"start_ns":…,"end_ns":…}`.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (id, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let tracer = Tracer::new();
        tracer.span("decision", || {
            tracer.span("phase.a", || {
                let now = Instant::now();
                tracer.leaf("srds.verify", now, now);
            });
            tracer.span("other", || {});
        });
        let spans = tracer.spans.borrow().clone();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        let phases = tracer.total_ms(0, "phase.a");
        let other = tracer.total_ms(0, "other");
        let uncovered = tracer.uncovered_ms(0, "decision", "phase.");
        assert!((uncovered - (spans[0].ms() - phases)).abs() < 1e-9);
        assert!(uncovered >= other);
    }
}
