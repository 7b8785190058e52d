//! Spans around the benchmark's calls into each layer.
//!
//! Recorded only in a traced pass, from the benchmark's own files;
//! spans inside the crates are a later issue. Spans live in a bounded
//! in-memory buffer and are written out once, when the pass ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

/// Spans kept per pass; later ones are counted, not stored.
pub const SPAN_CAPACITY: usize = 200_000;

/// Index of a recorded span, for naming it as a parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    /// Operations completed before the span began: spans of one
    /// request (or one batch) share it.
    request: u64,
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::with_capacity(if enabled { SPAN_CAPACITY } else { 0 }),
            dropped: 0,
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` when tracing is off or the buffer is full.
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        if self.spans.len() >= SPAN_CAPACITY {
            self.dropped += 1;
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Some(SpanId(self.spans.len() as u32 - 1))
    }

    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(index)) = id {
            self.spans[index as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let result = f();
        self.close(id);
        result
    }

    /// Total and self time per span name, in first-seen order. Self
    /// time is a span's duration minus what its child spans cover.
    pub fn summary(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(SpanId(parent)) = span.parent {
                child_ns[parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut rows: Vec<(&'static str, u64, f64, f64)> = Vec::new();
        for (span, children) in self.spans.iter().zip(&child_ns) {
            let total = (span.end_ns - span.start_ns) as f64;
            let own = total - (*children as f64).min(total);
            match rows.iter_mut().find(|row| row.0 == span.name) {
                Some(row) => {
                    row.1 += 1;
                    row.2 += total;
                    row.3 += own;
                }
                None => rows.push((span.name, 1, total, own)),
            }
        }
        rows
    }

    /// Writes the buffer as one JSON document.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"clock\": \"ns since the pass started\", \"dropped\": {}, \"spans\": [",
            self.dropped
        )?;
        for (i, span) in self.spans.iter().enumerate() {
            let row = Json::obj([
                ("id", Json::Num(i as f64)),
                ("name", Json::Str(span.name.to_owned())),
                ("start", Json::Num(span.start_ns as f64)),
                ("end", Json::Num(span.end_ns as f64)),
                (
                    "parent",
                    span.parent
                        .map_or(Json::Null, |p| Json::Num(f64::from(p.0))),
                ),
                ("request", Json::Num(span.request as f64)),
            ]);
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(out, "{}{comma}", row.render())?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let id = tracer.open("x", None, 0);
        assert!(id.is_none());
        tracer.close(id);
        assert_eq!(tracer.span("y", None, 1, || 7), 7);
        assert!(tracer.summary().is_empty());
    }

    #[test]
    fn self_time_excludes_children_and_file_parses() {
        let mut tracer = Tracer::new(true);
        let round = tracer.open("round", None, 0);
        tracer.span("leaf", round, 0, || std::hint::black_box(1 + 1));
        tracer.span("leaf", round, 1, || std::hint::black_box(2 + 2));
        tracer.close(round);

        let summary = tracer.summary();
        assert_eq!(summary[0].0, "round");
        assert_eq!(summary[1].0, "leaf");
        assert_eq!(summary[1].1, 2);
        // round self = round total − both leaves.
        assert!((summary[0].3 - (summary[0].2 - summary[1].2)).abs() < 1.0);

        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-trace-{}.json", std::process::id()));
        tracer.write(&path).unwrap();
        let doc = crate::json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[2].get("request").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn buffer_is_bounded() {
        let mut tracer = Tracer::new(true);
        for i in 0..SPAN_CAPACITY as u64 + 10 {
            let id = tracer.open("s", None, i);
            tracer.close(id);
        }
        assert_eq!(tracer.spans.len(), SPAN_CAPACITY);
        assert_eq!(tracer.dropped, 10);
    }
}
