//! The benchmark's own span recorder.
//!
//! Spans are recorded only around calls into the program's public API:
//! name, start, end, parent span and a request id (one per served
//! request, sweep point or replayed scenario). They stay in memory while
//! the workload runs and are written out as JSONL once it has finished,
//! so recording never does I/O inside a measured interval.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u64 = 0;

/// One closed span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(ROOT + 1),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Allocates a span id without recording anything yet, so children
    /// can name their parent before the parent closes.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span timed by the caller, under a pre-allocated `id`.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            request,
            start_ns: self.nanos(start),
            end_ns: self.nanos(end),
        };
        self.spans.lock().expect("span log poisoned").push(span);
    }

    /// Records a span timed by the caller and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.id();
        self.record_as(id, name, parent, request, start, end);
        id
    }

    /// Runs `f` inside a span; `f` receives the span id to parent
    /// nested spans on.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        self.record_as(id, name, parent, request, start, Instant::now());
        out
    }

    /// Every recorded span, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(Span::seconds)
            .collect()
    }

    /// Summed duration, in seconds, of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Duration, in seconds, of the span with id `id` (0 if unknown).
    pub fn total_of(&self, id: u64) -> f64 {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .find(|s| s.id == id)
            .map_or(0.0, Span::seconds)
    }

    /// A span's self time: its duration minus the part of it that its
    /// direct children cover.
    pub fn self_time(&self, id: u64) -> f64 {
        let spans = self.spans();
        let Some(span) = spans.iter().find(|s| s.id == id) else {
            return 0.0;
        };
        let mut children: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent == id)
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut cursor = span.start_ns;
        for (start, end) in children {
            let start = start.max(cursor);
            let end = end.min(span.end_ns);
            if end > start {
                covered += end - start;
                cursor = end;
            }
        }
        (span.end_ns - span.start_ns - covered) as f64 * 1e-9
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.request, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_children() {
        let t = Tracer::default();
        let base = Instant::now();
        let at = |ms| base + Duration::from_millis(ms);
        let root = t.id();
        t.record("child", root, 0, at(10), at(30));
        t.record("child", root, 0, at(20), at(50));
        t.record_as(root, "root", ROOT, 0, at(0), at(100));
        let self_s = t.self_time(root);
        assert!((self_s - 0.060).abs() < 1e-9, "{self_s}");
        assert!((t.total("child") - 0.050).abs() < 1e-9);
    }
}
