//! Request-span tracing: each sampled simulated request carries a span
//! recording its phase transitions with sim-timestamps.
//!
//! Spans export as Chrome trace-event JSON (load the file at
//! <https://ui.perfetto.dev>) and as JSONL for scripted analysis. A
//! deterministic every-Nth sampler keeps the trace bounded at high load
//! without perturbing the simulation — tracing is *passive*: whether a
//! request is sampled has no effect on any simulated outcome.

use densekv_sim::{Duration, SimTime};

/// One contiguous phase of a request's journey.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Phase name (e.g. `"net-rx"`, `"kv-lookup"`).
    pub name: &'static str,
    /// Phase start, in simulated time.
    pub start: SimTime,
    /// Phase end, in simulated time.
    pub end: SimTime,
}

impl PhaseSpan {
    /// The phase's length.
    #[must_use]
    pub fn duration(&self) -> Duration {
        self.end.elapsed_since(self.start)
    }
}

/// The recorded journey of one sampled request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestSpan {
    /// Request sequence number (the simulator's own numbering).
    pub id: u64,
    /// Operation label (e.g. `"GET"`).
    pub label: &'static str,
    /// Trace-viewer process id (one per simulator component).
    pub pid: u32,
    /// Trace-viewer thread id (one per node/core).
    pub tid: u32,
    /// When the request left the client.
    pub start: SimTime,
    /// Phase transitions, in order.
    pub phases: Vec<PhaseSpan>,
}

impl RequestSpan {
    /// When the last phase ends (= `start` for an empty span).
    #[must_use]
    pub fn end(&self) -> SimTime {
        self.phases.last().map_or(self.start, |p| p.end)
    }

    /// End-to-end latency covered by the span.
    #[must_use]
    pub fn total(&self) -> Duration {
        self.end().elapsed_since(self.start)
    }

    /// Sum of the phase durations. Equals [`RequestSpan::total`] when the
    /// phases are contiguous (the invariant the exporters assume).
    #[must_use]
    pub fn phase_sum(&self) -> Duration {
        self.phases.iter().map(PhaseSpan::duration).sum()
    }
}

/// Builds one span by appending contiguous phases.
///
/// The cursor starts at the request's departure time; every
/// [`SpanBuilder::phase`] call advances it, so phases tile the request's
/// latency exactly — which is what makes "the spans sum to the RTT" a
/// checkable invariant rather than a hope.
#[derive(Debug)]
pub struct SpanBuilder {
    span: RequestSpan,
    cursor: SimTime,
}

impl SpanBuilder {
    /// Starts a span for request `id` departing at `start`.
    #[must_use]
    pub fn new(id: u64, label: &'static str, pid: u32, tid: u32, start: SimTime) -> Self {
        SpanBuilder {
            span: RequestSpan {
                id,
                label,
                pid,
                tid,
                start,
                phases: Vec::new(),
            },
            cursor: start,
        }
    }

    /// Appends a phase of length `d` starting where the previous one
    /// ended. Zero-length phases are recorded too (they cost nothing and
    /// keep the decomposition complete).
    pub fn phase(&mut self, name: &'static str, d: Duration) -> &mut Self {
        let end = self.cursor + d;
        self.span.phases.push(PhaseSpan {
            name,
            start: self.cursor,
            end,
        });
        self.cursor = end;
        self
    }

    /// Appends a phase with explicit bounds (for non-contiguous events
    /// such as queue wait measured elsewhere); the cursor moves to `end`.
    pub fn phase_at(&mut self, name: &'static str, start: SimTime, end: SimTime) -> &mut Self {
        self.span.phases.push(PhaseSpan { name, start, end });
        self.cursor = end;
        self
    }

    /// Finishes the span.
    #[must_use]
    pub fn build(self) -> RequestSpan {
        self.span
    }
}

/// Collects sampled request spans.
///
/// # Examples
///
/// ```
/// use densekv_telemetry::{SpanBuilder, Tracer};
/// use densekv_sim::{Duration, SimTime};
///
/// let mut tracer = Tracer::every(2); // sample every 2nd request
/// for seq in 0..4u64 {
///     if tracer.samples(seq) {
///         let mut b = SpanBuilder::new(seq, "GET", 1, 0, SimTime::ZERO);
///         b.phase("net-rx", Duration::from_micros(3));
///         tracer.push(b.build());
///     }
/// }
/// assert_eq!(tracer.spans().len(), 2);
/// assert!(tracer.to_chrome_json().contains("net-rx"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    enabled: bool,
    sample_every: u64,
    spans: Vec<RequestSpan>,
}

impl Tracer {
    /// A tracer sampling every `n`-th request (n ≥ 1). Sampling is a
    /// pure function of the request sequence number, so it is seeded by
    /// the simulation itself and identical across reruns.
    #[must_use]
    pub fn every(n: u64) -> Self {
        Tracer {
            enabled: true,
            sample_every: n.max(1),
            spans: Vec::new(),
        }
    }

    /// A tracer that samples nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// Whether tracing is on at all.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Whether request `seq` should be traced.
    #[must_use]
    pub fn samples(&self, seq: u64) -> bool {
        self.enabled && seq.is_multiple_of(self.sample_every)
    }

    /// Stores a finished span.
    pub fn push(&mut self, span: RequestSpan) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    /// The collected spans, in push order.
    #[must_use]
    pub fn spans(&self) -> &[RequestSpan] {
        &self.spans
    }

    /// Exports the trace in Chrome trace-event JSON ("JSON array
    /// format"): one complete (`"ph":"X"`) event per phase plus metadata
    /// events naming each process. Timestamps are simulated microseconds
    /// with picosecond precision. Load the output in Perfetto or
    /// `chrome://tracing`.
    #[must_use]
    pub fn to_chrome_json(&self) -> String {
        chrome_json_of(&self.spans)
    }

    /// Like [`Self::to_chrome_json`], but exports only the newest
    /// `max` spans — the bound that keeps checked-in trace artifacts
    /// and flight-recorder dumps small no matter how long the server
    /// ran.
    #[must_use]
    pub fn to_chrome_json_capped(&self, max: usize) -> String {
        let skip = self.spans.len().saturating_sub(max);
        chrome_json_of(&self.spans[skip..])
    }
}

/// Renders a set of spans as a Chrome trace-event JSON array.
fn chrome_json_of(spans: &[RequestSpan]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    let mut named_pids: Vec<(u32, &'static str)> = Vec::new();
    for span in spans {
        if !named_pids.iter().any(|&(pid, _)| pid == span.pid) {
            named_pids.push((span.pid, span.label));
        }
    }
    for (pid, _) in &named_pids {
        push_event(
            &mut out,
            &mut first,
            &format!(
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
                     \"args\":{{\"name\":\"densekv pid {pid}\"}}}}"
            ),
        );
    }
    for span in spans {
        for phase in &span.phases {
            push_event(
                &mut out,
                &mut first,
                &format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                         \"pid\":{},\"tid\":{},\"args\":{{\"req\":{}}}}}",
                    phase.name,
                    span.label,
                    ps_as_us(phase.start.as_ps()),
                    ps_as_us(phase.duration().as_ps()),
                    span.pid,
                    span.tid,
                    span.id,
                ),
            );
        }
    }
    out.push_str("\n]\n");
    out
}

impl Tracer {
    /// Exports the trace as JSONL: one self-contained span object per
    /// line (`id`, `label`, `start_ps`, `end_ps`, `phases[]`), for
    /// scripted analysis without a trace viewer.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"label\":\"{}\",\"pid\":{},\"tid\":{},\"start_ps\":{},\"end_ps\":{},\"phases\":[",
                span.id,
                span.label,
                span.pid,
                span.tid,
                span.start.as_ps(),
                span.end().as_ps(),
            ));
            for (i, phase) in span.phases.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"start_ps\":{},\"dur_ps\":{}}}",
                    phase.name,
                    phase.start.as_ps(),
                    phase.duration().as_ps(),
                ));
            }
            out.push_str("]}\n");
        }
        out
    }
}

/// Appends one already-serialized JSON event, comma-separating.
fn push_event(out: &mut String, first: &mut bool, event: &str) {
    if !*first {
        out.push_str(",\n");
    }
    *first = false;
    out.push_str(event);
}

/// Renders picoseconds as a decimal-microsecond literal with full
/// precision (`123.000456`), avoiding float formatting entirely so the
/// export is bit-stable.
fn ps_as_us(ps: u64) -> String {
    format!("{}.{:06}", ps / 1_000_000, ps % 1_000_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64) -> RequestSpan {
        let mut b = SpanBuilder::new(id, "GET", 1, 3, SimTime::from_ps(1_000));
        b.phase("wire", Duration::from_nanos(2))
            .phase("serve", Duration::from_nanos(5));
        b.build()
    }

    #[test]
    fn builder_tiles_phases_contiguously() {
        let s = span(7);
        assert_eq!(s.phases.len(), 2);
        assert_eq!(s.phases[0].end, s.phases[1].start);
        assert_eq!(s.total(), Duration::from_nanos(7));
        assert_eq!(s.phase_sum(), s.total());
    }

    #[test]
    fn sampling_is_deterministic_every_nth() {
        let t = Tracer::every(3);
        let picked: Vec<u64> = (0..10).filter(|&s| t.samples(s)).collect();
        assert_eq!(picked, vec![0, 3, 6, 9]);
        assert!(!Tracer::disabled().samples(0));
        // n = 0 clamps to 1: everything sampled.
        assert!((0..5).all(|s| Tracer::every(0).samples(s)));
    }

    #[test]
    fn chrome_export_has_complete_events_and_metadata() {
        let mut t = Tracer::every(1);
        t.push(span(0));
        let json = t.to_chrome_json();
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"ph\":\"M\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"name\":\"wire\""));
        // 1000 ps start -> 0.001 us.
        assert!(json.contains("\"ts\":0.001000"), "{json}");
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let mut t = Tracer::every(1);
        t.push(span(0));
        t.push(span(1));
        let jsonl = t.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(line.contains("\"phases\":["));
        }
    }

    #[test]
    fn disabled_tracer_drops_pushes() {
        let mut t = Tracer::disabled();
        t.push(span(0));
        assert!(t.spans().is_empty());
        assert_eq!(t.to_chrome_json(), "[\n\n]\n");
    }

    #[test]
    fn ps_formatting_is_exact() {
        assert_eq!(ps_as_us(0), "0.000000");
        assert_eq!(ps_as_us(1_000_000), "1.000000");
        assert_eq!(ps_as_us(1_234_567), "1.234567");
    }
}
