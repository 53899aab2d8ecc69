//! In-memory spans for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer:
//! its name, start and end (ns since the tracer was made), the span that
//! caused it, and the request it belongs to. Spans stay in memory and are
//! written out once, as JSON lines, when the run ends. Untraced runs pass
//! no tracer and record nothing.

use std::io::Write as _;
use std::path::Path;
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `core.sketch`.
    pub name: String,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// Index of the causing span.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in microseconds.
    #[must_use]
    pub fn micros(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// The span store.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { epoch: Instant::now(), spans: Mutex::new(Vec::new()) }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // Spans are appended whole; a panicking recorder leaves them valid.
        self.spans.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now();
        let mut spans = self.lock();
        spans.push(Span { name: name.to_owned(), start_ns, end_ns: 0, parent, request });
        spans.len() - 1
    }

    /// Close span `id`.
    pub fn close(&self, id: usize) {
        let end_ns = self.now();
        if let Some(span) = self.lock().get_mut(id) {
            span.end_ns = end_ns;
        }
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Write every span to `path` as one JSON object per line.
    ///
    /// # Errors
    /// I/O failures, stringified.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        self.write_jsonl(&mut out).map_err(|e| format!("{}: {e}", path.display()))?;
        out.flush().map_err(|e| format!("{}: {e}", path.display()))
    }

    fn write_jsonl(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

/// Run `f`, inside a span when tracing.
pub fn maybe_span<T>(
    tracer: Option<&Tracer>,
    name: &str,
    request: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.span(name, None, request, f),
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_write_out() {
        let t = Tracer::default();
        let root = t.open("request", None, 7);
        let v = t.span("core.sketch", Some(root), 7, || 41 + 1);
        t.close(root);
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).expect("write");
        let text = String::from_utf8(out).expect("utf-8");
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"name\":\"core.sketch\"") && text.contains("\"parent\":0"));
    }
}
