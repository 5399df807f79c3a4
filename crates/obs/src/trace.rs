//! Causal span tracing: hierarchical, monotonic-clock span records with
//! near-zero cost when disabled, plus deterministic exporters.
//!
//! A [`Tracer`] hands out RAII [`SpanGuard`]s. Opening a span on a
//! disabled tracer is one branch — no allocation, no clock read, no
//! atomic — so instrumentation can stay in hot paths unconditionally.
//! On an enabled tracer each guard records one [`SpanRecord`] when it
//! drops: a unique id, the id of the span that was open on the same
//! thread when this one started (its causal parent), a thread index,
//! and start/end nanosecond offsets from the tracer's epoch.
//!
//! All clock reads live in this crate: hot-path crates (`qsim`,
//! `neural`, `placement`, `core`) only call [`Tracer::span`], which
//! keeps lint rule R2 (no wall-clock reads in hot paths) intact.
//!
//! The collected [`Trace`] exports three ways, all deterministic for a
//! given trace:
//!
//! * [`Trace::to_json_lines`] — one JSON object per span, the archival
//!   format ([`Trace::from_json_lines`] parses it back);
//! * [`Trace::to_chrome_trace`] — Chrome `trace_event` JSON ("X"
//!   complete events, microsecond timestamps) loadable in
//!   `chrome://tracing` or Perfetto;
//! * [`Trace::to_collapsed_stacks`] — inferno/flamegraph-compatible
//!   collapsed stacks weighted by self time.
//!
//! Span names follow the same `[a-z0-9_.]` dotted-path schema as
//! metric names; the canonical table lives in `crates/obs/README.md`
//! and is cross-checked by lint rule R4.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize, Value};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

thread_local! {
    /// Id of the innermost open span on this thread (0 = none).
    static CURRENT_SPAN: Cell<u64> = const { Cell::new(0) };
    /// This thread's stable index in the trace (0 = unassigned).
    static THREAD_INDEX: Cell<u64> = const { Cell::new(0) };
}

/// Process-wide thread-index allocator; indices are assigned lazily in
/// first-span order, so they are compact but not reproducible across
/// runs (they are telemetry, never results).
static NEXT_THREAD_INDEX: AtomicU64 = AtomicU64::new(1);

fn current_thread_index() -> u64 {
    THREAD_INDEX.with(|t| {
        let v = t.get();
        if v != 0 {
            v
        } else {
            let v = NEXT_THREAD_INDEX.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        }
    })
}

/// `[a-z0-9_.]+` — the span naming charset, identical to the metric
/// charset (see `crates/obs/README.md`).
pub fn valid_span_charset(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'_' || c == b'.')
}

/// One completed span: a named interval with causal parentage.
///
/// Timestamps are nanosecond offsets from the owning tracer's epoch
/// (the instant it was created), so records are monotonic and
/// machine-local, never wall-clock dates.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// Unique id within the trace (1-based).
    pub id: u64,
    /// Id of the span open on the same thread when this one started;
    /// 0 for a root span.
    pub parent: u64,
    /// Dotted-path span name (`[a-z0-9_.]`).
    pub name: String,
    /// Trace-local thread index (1-based, first-span order).
    pub tid: u64,
    /// Start offset from the tracer epoch, nanoseconds.
    pub start_ns: u64,
    /// End offset from the tracer epoch, nanoseconds.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct TracerInner {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRecord>>,
    capacity: usize,
    dropped: AtomicU64,
}

impl std::fmt::Debug for TracerInner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TracerInner")
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

/// Default bound on retained spans; excess spans are counted in
/// [`Trace::dropped`] instead of growing memory without limit.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 20;

/// A shared handle to a span collector (or to nothing).
///
/// Cloning is cheap (one `Arc`); clones share the same collector, so a
/// tracer can be handed to worker threads and every span lands in one
/// trace. The disabled tracer is the default: [`Tracer::span`] on it is
/// a single branch with no allocation.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// The no-op tracer: every [`Tracer::span`] is a cheap branch.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled tracer retaining up to [`DEFAULT_SPAN_CAPACITY`]
    /// spans.
    pub fn enabled() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// An enabled tracer retaining at most `capacity` spans; further
    /// spans are dropped (and counted) rather than growing memory.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                next_id: AtomicU64::new(0),
                spans: Mutex::new(Vec::new()),
                capacity,
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// Whether spans are actually recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a span named `name`, closing (and recording) it when the
    /// returned guard drops. The innermost guard open on the current
    /// thread becomes the new span's parent, so strictly nested guards
    /// produce a well-formed causal tree per thread.
    ///
    /// On a disabled tracer this is one branch: no allocation, no
    /// clock read.
    #[must_use = "the span closes when the guard drops; dropping it immediately records nothing"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { active: None };
        };
        debug_assert!(
            valid_span_charset(name),
            "span name `{name}` outside [a-z0-9_.]"
        );
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let parent = CURRENT_SPAN.with(|c| {
            let p = c.get();
            c.set(id);
            p
        });
        SpanGuard {
            active: Some(ActiveSpan {
                inner: Arc::clone(inner),
                id,
                parent,
                name,
                start_ns: inner.epoch.elapsed().as_nanos() as u64,
            }),
        }
    }

    /// Drain every recorded span into a [`Trace`], sorted by start
    /// time (ties by id). Resets the collector; span ids keep counting
    /// up, so a second `take` yields disjoint ids.
    pub fn take(&self) -> Trace {
        match &self.inner {
            None => Trace::default(),
            Some(inner) => {
                let mut spans = std::mem::take(&mut *inner.spans.lock());
                spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(a.id.cmp(&b.id)));
                Trace {
                    spans,
                    dropped: inner.dropped.swap(0, Ordering::Relaxed),
                }
            }
        }
    }
}

struct ActiveSpan {
    inner: Arc<TracerInner>,
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

/// RAII guard for one open span; records a [`SpanRecord`] on drop.
///
/// Guards must be strictly nested per thread (hold them in stack
/// order), which the borrow checker enforces naturally for
/// `let _guard = tracer.span(...)` scoping.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl std::fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanGuard")
            .field("active", &self.active.is_some())
            .finish()
    }
}

impl SpanGuard {
    /// Close the span now instead of at scope end.
    pub fn close(self) {
        drop(self);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(s) = self.active.take() else {
            return;
        };
        CURRENT_SPAN.with(|c| c.set(s.parent));
        let end_ns = s.inner.epoch.elapsed().as_nanos() as u64;
        let mut spans = s.inner.spans.lock();
        if spans.len() < s.inner.capacity {
            spans.push(SpanRecord {
                id: s.id,
                parent: s.parent,
                name: s.name.to_string(),
                tid: current_thread_index(),
                start_ns: s.start_ns,
                end_ns,
            });
        } else {
            s.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Malformed trace data: a parse or validation failure with the first
/// offending detail.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError {
    msg: String,
}

impl TraceError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        TraceError { msg: msg.into() }
    }
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid trace: {}", self.msg)
    }
}

impl std::error::Error for TraceError {}

/// Aggregated wall-time attribution for one span name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PhaseStats {
    /// Number of spans with this name.
    pub count: u64,
    /// Sum of span durations, nanoseconds (children included).
    pub total_ns: u64,
    /// Sum of self times, nanoseconds (children excluded).
    pub self_ns: u64,
}

/// A completed, drained trace: every recorded span plus the count of
/// spans lost to the capacity bound.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    /// Spans sorted by `(start_ns, id)`.
    pub spans: Vec<SpanRecord>,
    /// Spans discarded because the tracer hit its capacity.
    pub dropped: u64,
}

impl Trace {
    /// Render as JSON lines: one span object per line, in order. The
    /// archival format — parse it back with [`Trace::from_json_lines`].
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            if let Ok(line) = serde_json::to_string(span) {
                out.push_str(&line);
                out.push('\n');
            }
        }
        out
    }

    /// Parse a JSON-lines span log produced by
    /// [`Trace::to_json_lines`].
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] naming the first malformed line.
    pub fn from_json_lines(text: &str) -> Result<Self, TraceError> {
        let mut spans = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let value: Value = serde_json::from_str(line)
                .map_err(|e| TraceError::new(format!("line {}: {e}", i + 1)))?;
            let span = SpanRecord::from_value(&value)
                .map_err(|e| TraceError::new(format!("line {}: {e}", i + 1)))?;
            spans.push(span);
        }
        spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(a.id.cmp(&b.id)));
        Ok(Trace { spans, dropped: 0 })
    }

    /// Render as Chrome `trace_event` JSON: an object with a
    /// `traceEvents` array of "X" (complete) events, timestamps and
    /// durations in microseconds — loadable in `chrome://tracing` and
    /// Perfetto. Span ids and parents ride along in `args`.
    pub fn to_chrome_trace(&self) -> String {
        let events: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                Value::Map(vec![
                    ("name".to_string(), Value::Str(s.name.clone())),
                    ("cat".to_string(), Value::Str("chainnet".to_string())),
                    ("ph".to_string(), Value::Str("X".to_string())),
                    ("ts".to_string(), Value::Float(s.start_ns as f64 / 1_000.0)),
                    (
                        "dur".to_string(),
                        Value::Float(s.duration_ns() as f64 / 1_000.0),
                    ),
                    ("pid".to_string(), Value::Int(1)),
                    ("tid".to_string(), Value::UInt(s.tid)),
                    (
                        "args".to_string(),
                        Value::Map(vec![
                            ("id".to_string(), Value::UInt(s.id)),
                            ("parent".to_string(), Value::UInt(s.parent)),
                        ]),
                    ),
                ])
            })
            .collect();
        let root = Value::Map(vec![
            ("traceEvents".to_string(), Value::Seq(events)),
            ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
        ]);
        serde_json::to_string_pretty(&root).unwrap_or_default()
    }

    /// Parse Chrome `trace_event` JSON produced by
    /// [`Trace::to_chrome_trace`] (or any file of "X" events carrying
    /// `args.id`/`args.parent`).
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] if the JSON is malformed or an event
    /// lacks the required fields.
    pub fn from_chrome_trace(text: &str) -> Result<Self, TraceError> {
        let root: Value =
            serde_json::from_str(text).map_err(|e| TraceError::new(format!("bad JSON: {e}")))?;
        let events = root
            .get("traceEvents")
            .and_then(Value::as_seq)
            .ok_or_else(|| TraceError::new("missing `traceEvents` array"))?;
        let mut spans = Vec::new();
        let mut fallback_id = 0u64;
        for (i, ev) in events.iter().enumerate() {
            let field_err = |f: &str| TraceError::new(format!("event {i}: missing `{f}`"));
            if ev.get("ph").and_then(Value::as_str) != Some("X") {
                continue; // metadata or instant events: not spans
            }
            let name = ev
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| field_err("name"))?
                .to_string();
            let ts = ev
                .get("ts")
                .and_then(Value::as_f64)
                .ok_or_else(|| field_err("ts"))?;
            let dur = ev
                .get("dur")
                .and_then(Value::as_f64)
                .ok_or_else(|| field_err("dur"))?;
            let tid = ev.get("tid").and_then(Value::as_u64).unwrap_or(1);
            fallback_id += 1;
            let id = ev
                .get("args")
                .and_then(|a| a.get("id"))
                .and_then(Value::as_u64)
                .unwrap_or(fallback_id);
            let parent = ev
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Value::as_u64)
                .unwrap_or(0);
            let start_ns = (ts * 1_000.0).round() as u64;
            spans.push(SpanRecord {
                id,
                parent,
                name,
                tid,
                start_ns,
                end_ns: start_ns + (dur * 1_000.0).round() as u64,
            });
        }
        spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(a.id.cmp(&b.id)));
        Ok(Trace { spans, dropped: 0 })
    }

    /// Check the trace is well-formed: unique non-zero ids, charset
    /// names, non-negative durations, parents that exist, and child
    /// intervals contained in their parent's (when on the same
    /// thread — the tracer never parents across threads).
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] naming the first violation.
    pub fn validate(&self) -> Result<(), TraceError> {
        let mut by_id: BTreeMap<u64, &SpanRecord> = BTreeMap::new();
        for s in &self.spans {
            if s.id == 0 {
                return Err(TraceError::new(format!("span `{}` has id 0", s.name)));
            }
            if !valid_span_charset(&s.name) {
                return Err(TraceError::new(format!(
                    "span name `{}` outside [a-z0-9_.]",
                    s.name
                )));
            }
            if s.end_ns < s.start_ns {
                return Err(TraceError::new(format!(
                    "span `{}` (id {}) ends before it starts",
                    s.name, s.id
                )));
            }
            if by_id.insert(s.id, s).is_some() {
                return Err(TraceError::new(format!("duplicate span id {}", s.id)));
            }
        }
        for s in &self.spans {
            if s.parent == 0 {
                continue;
            }
            let Some(p) = by_id.get(&s.parent) else {
                return Err(TraceError::new(format!(
                    "span `{}` (id {}) has unknown parent {}",
                    s.name, s.id, s.parent
                )));
            };
            if p.tid == s.tid && (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
                return Err(TraceError::new(format!(
                    "span `{}` (id {}) is not nested inside its parent `{}` (id {})",
                    s.name, s.id, p.name, p.id
                )));
            }
        }
        Ok(())
    }

    /// Per-name wall-time attribution: span count, total duration and
    /// self time (duration minus direct children).
    pub fn phase_stats(&self) -> BTreeMap<String, PhaseStats> {
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.duration_ns();
            }
        }
        let mut stats: BTreeMap<String, PhaseStats> = BTreeMap::new();
        for s in &self.spans {
            let dur = s.duration_ns();
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            let entry = stats.entry(s.name.clone()).or_default();
            entry.count += 1;
            entry.total_ns += dur;
            entry.self_ns += dur.saturating_sub(children);
        }
        stats
    }

    /// Render as collapsed stacks (the inferno/flamegraph input
    /// format): one `root;child;leaf <self_ns>` line per distinct
    /// stack, weighted by self time in nanoseconds, sorted
    /// lexicographically.
    pub fn to_collapsed_stacks(&self) -> String {
        let mut by_id: BTreeMap<u64, &SpanRecord> = BTreeMap::new();
        for s in &self.spans {
            by_id.insert(s.id, s);
        }
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry(s.parent).or_default() += s.duration_ns();
            }
        }
        let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
        for s in &self.spans {
            let self_ns = s
                .duration_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            let mut frames = vec![s.name.as_str()];
            let mut cursor = s.parent;
            // Depth bound guards against parent cycles in hand-edited
            // files; validated traces never hit it.
            for _ in 0..64 {
                if cursor == 0 {
                    break;
                }
                let Some(p) = by_id.get(&cursor) else {
                    break;
                };
                frames.push(p.name.as_str());
                cursor = p.parent;
            }
            frames.reverse();
            *stacks.entry(frames.join(";")).or_default() += self_ns;
        }
        let mut out = String::new();
        for (stack, ns) in &stacks {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&ns.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        assert!(!t.is_enabled());
        {
            let _a = t.span("a.b");
            let _c = t.span("c.d");
        }
        let trace = t.take();
        assert!(trace.spans.is_empty());
        assert_eq!(trace.dropped, 0);
    }

    #[test]
    fn nested_guards_record_parentage() {
        let t = Tracer::enabled();
        {
            let _outer = t.span("outer.phase");
            {
                let _inner = t.span("inner.phase");
            }
            let _sibling = t.span("sibling.phase");
        }
        let trace = t.take();
        assert_eq!(trace.spans.len(), 3);
        trace.validate().unwrap();
        let outer = trace
            .spans
            .iter()
            .find(|s| s.name == "outer.phase")
            .unwrap();
        let inner = trace
            .spans
            .iter()
            .find(|s| s.name == "inner.phase")
            .unwrap();
        let sib = trace
            .spans
            .iter()
            .find(|s| s.name == "sibling.phase")
            .unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(sib.parent, outer.id);
        assert!(inner.start_ns >= outer.start_ns && inner.end_ns <= outer.end_ns);
    }

    #[test]
    fn parent_restores_after_close() {
        let t = Tracer::enabled();
        let outer = t.span("outer");
        t.span("first").close();
        t.span("second").close();
        outer.close();
        let trace = t.take();
        trace.validate().unwrap();
        let outer_id = trace.spans.iter().find(|s| s.name == "outer").unwrap().id;
        for name in ["first", "second"] {
            let s = trace.spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(s.parent, outer_id, "{name} should parent to outer");
        }
    }

    #[test]
    fn capacity_bound_counts_dropped_spans() {
        let t = Tracer::with_capacity(2);
        for _ in 0..5 {
            t.span("x").close();
        }
        let trace = t.take();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.dropped, 3);
    }

    #[test]
    fn take_resets_and_keeps_ids_disjoint() {
        let t = Tracer::enabled();
        t.span("a").close();
        let first = t.take();
        t.span("b").close();
        let second = t.take();
        assert_eq!(first.spans.len(), 1);
        assert_eq!(second.spans.len(), 1);
        assert!(second.spans[0].id > first.spans[0].id);
        assert_eq!(second.dropped, 0);
    }

    #[test]
    fn spans_from_worker_threads_land_in_one_trace() {
        let t = Tracer::enabled();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let t = t.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        t.span("worker.item").close();
                    }
                });
            }
        });
        let trace = t.take();
        assert_eq!(trace.spans.len(), 200);
        trace.validate().unwrap();
        // Worker spans are roots of their own threads.
        assert!(trace.spans.iter().all(|s| s.parent == 0));
        let tids: std::collections::BTreeSet<u64> = trace.spans.iter().map(|s| s.tid).collect();
        assert!(tids.len() >= 2, "expected several thread indices: {tids:?}");
    }

    #[test]
    fn json_lines_round_trip() {
        let t = Tracer::enabled();
        {
            let _a = t.span("a");
            t.span("b").close();
        }
        let trace = t.take();
        let text = trace.to_json_lines();
        assert_eq!(text.lines().count(), 2);
        let back = Trace::from_json_lines(&text).unwrap();
        assert_eq!(back.spans, trace.spans);
    }

    #[test]
    fn chrome_trace_is_valid_and_round_trips_structure() {
        let t = Tracer::enabled();
        {
            let _a = t.span("sa.trial");
            t.span("sa.iteration").close();
        }
        let trace = t.take();
        let chrome = trace.to_chrome_trace();
        let v: Value = serde_json::from_str(&chrome).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_seq).unwrap();
        assert_eq!(events.len(), 2);
        for ev in events {
            assert_eq!(ev.get("ph").and_then(Value::as_str), Some("X"));
            assert!(ev.get("ts").and_then(Value::as_f64).is_some());
            assert!(ev.get("dur").and_then(Value::as_f64).unwrap() >= 0.0);
        }
        let back = Trace::from_chrome_trace(&chrome).unwrap();
        back.validate().unwrap();
        assert_eq!(back.spans.len(), 2);
        let child = back
            .spans
            .iter()
            .find(|s| s.name == "sa.iteration")
            .unwrap();
        let root = back.spans.iter().find(|s| s.name == "sa.trial").unwrap();
        assert_eq!(child.parent, root.id);
    }

    #[test]
    fn validation_rejects_malformed_traces() {
        let mut bad = Trace::default();
        bad.spans.push(SpanRecord {
            id: 1,
            parent: 9,
            name: "a".into(),
            tid: 1,
            start_ns: 0,
            end_ns: 5,
        });
        assert!(bad.validate().unwrap_err().to_string().contains("parent"));

        let mut bad_name = Trace::default();
        bad_name.spans.push(SpanRecord {
            id: 1,
            parent: 0,
            name: "Bad-Name".into(),
            tid: 1,
            start_ns: 0,
            end_ns: 5,
        });
        assert!(bad_name.validate().is_err());

        let mut not_nested = Trace::default();
        not_nested.spans.push(SpanRecord {
            id: 1,
            parent: 0,
            name: "p".into(),
            tid: 1,
            start_ns: 10,
            end_ns: 20,
        });
        not_nested.spans.push(SpanRecord {
            id: 2,
            parent: 1,
            name: "c".into(),
            tid: 1,
            start_ns: 5,
            end_ns: 15,
        });
        assert!(not_nested
            .validate()
            .unwrap_err()
            .to_string()
            .contains("nested"));
    }

    #[test]
    fn phase_stats_attribute_self_time() {
        let trace = Trace {
            spans: vec![
                SpanRecord {
                    id: 1,
                    parent: 0,
                    name: "outer".into(),
                    tid: 1,
                    start_ns: 0,
                    end_ns: 100,
                },
                SpanRecord {
                    id: 2,
                    parent: 1,
                    name: "inner".into(),
                    tid: 1,
                    start_ns: 10,
                    end_ns: 40,
                },
                SpanRecord {
                    id: 3,
                    parent: 1,
                    name: "inner".into(),
                    tid: 1,
                    start_ns: 50,
                    end_ns: 70,
                },
            ],
            dropped: 0,
        };
        let stats = trace.phase_stats();
        assert_eq!(stats["outer"].count, 1);
        assert_eq!(stats["outer"].total_ns, 100);
        assert_eq!(stats["outer"].self_ns, 50);
        assert_eq!(stats["inner"].count, 2);
        assert_eq!(stats["inner"].total_ns, 50);
        assert_eq!(stats["inner"].self_ns, 50);
    }

    #[test]
    fn collapsed_stacks_weight_by_self_time() {
        let trace = Trace {
            spans: vec![
                SpanRecord {
                    id: 1,
                    parent: 0,
                    name: "outer".into(),
                    tid: 1,
                    start_ns: 0,
                    end_ns: 100,
                },
                SpanRecord {
                    id: 2,
                    parent: 1,
                    name: "inner".into(),
                    tid: 1,
                    start_ns: 10,
                    end_ns: 40,
                },
            ],
            dropped: 0,
        };
        let folded = trace.to_collapsed_stacks();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines, vec!["outer 70", "outer;inner 30"]);
    }

    #[test]
    fn span_charset_matches_metric_contract() {
        assert!(valid_span_charset("qsim.run"));
        assert!(valid_span_charset("sa.batch_eval"));
        assert!(!valid_span_charset(""));
        assert!(!valid_span_charset("Qsim.Run"));
        assert!(!valid_span_charset("a-b"));
    }
}
