#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]

//! Observability layer for the ChainNet workspace: metrics, scoped
//! timers and structured event logging with zero external dependencies
//! beyond the vendored `parking_lot`/`serde` shims.
//!
//! The crate has three parts:
//!
//! * [`Registry`] — a thread-safe collection of named [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket [`Histogram`]s, with RAII
//!   [`ScopedTimer`]s recording wall-clock durations into histograms;
//! * [`EventLog`] — a JSON-lines sink for serde-serializable records
//!   with a monotonic sequence number and a component tag, no-op by
//!   default;
//! * [`Snapshot`] — a frozen copy of a registry exportable as a JSON
//!   report or Prometheus text (and parseable back, for tests);
//! * [`Tracer`] — causal span tracing ([`trace`]): RAII [`SpanGuard`]s
//!   with parent/child links and monotonic timestamps, exportable as
//!   JSON lines, Chrome `trace_event` JSON, or collapsed flamegraph
//!   stacks, and diffable across runs via the [`report`] module (the
//!   `trace-report` binary).
//!
//! Instrumented components take an [`Obs`] context. The disabled
//! context reduces every instrumentation site to a hoisted branch, so
//! un-instrumented callers (and benchmarks) pay essentially nothing.
//!
//! # Metric naming
//!
//! Names are dotted paths, prefixed by the owning component:
//! `qsim.events_processed`, `train.epoch_seconds`, `sa.accept_rate`.
//! Per-entity series append a label block via [`labeled`]:
//! `qsim.device.drops{device="3"}`. The Prometheus exporter maps dots
//! to underscores (`qsim_events_processed`).
//!
//! # Quick start
//!
//! ```
//! use chainnet_obs::Obs;
//!
//! let obs = Obs::enabled();
//! obs.registry.counter("demo.iterations").add(3);
//! {
//!     let _timer = obs
//!         .registry
//!         .histogram("demo.step_seconds", &[0.001, 0.01, 0.1, 1.0])
//!         .start_timer();
//!     // ... timed work ...
//! }
//! let snapshot = obs.registry.snapshot();
//! assert_eq!(snapshot.counters["demo.iterations"], 3);
//! assert_eq!(snapshot.histograms["demo.step_seconds"].count, 1);
//! println!("{}", snapshot.to_prometheus());
//! ```

pub mod cancel;
pub mod events;
pub mod export;
pub mod registry;
pub mod report;
pub mod trace;

pub use cancel::CancelFlag;
pub use events::EventLog;
pub use export::{HistogramSnapshot, PromParseError, Snapshot};
pub use registry::{labeled, Counter, Gauge, Histogram, Registry, ScopedTimer};
pub use trace::{SpanGuard, SpanRecord, Trace, TraceError, Tracer};

/// The observability context handed to instrumented components: a
/// metric registry plus an event sink and a span tracer, with a master
/// enable switch.
///
/// Cloning is cheap (a few `Arc`s and a bool); instrumented call paths
/// check [`Obs::is_enabled`] once and skip all metric work when the
/// context is disabled, keeping the uninstrumented fast path intact.
/// The tracer stays disabled unless explicitly attached with
/// [`Obs::with_tracer`] — span collection has its own memory cost, so
/// it is opt-in even on an enabled context.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// Metric registry. Always safe to use; only consulted by
    /// instrumented components when the context is enabled.
    pub registry: Registry,
    /// Structured event sink (no-op unless explicitly attached).
    pub events: EventLog,
    /// Span tracer (no-op unless explicitly attached).
    pub tracer: Tracer,
    /// Cooperative cancellation flag. Long-running loops (training
    /// epochs, SA step budget checks, datagen shards) poll this at
    /// deterministic boundaries and wind down cleanly — flushing a
    /// final checkpoint — when it is set. Never set on a default
    /// context, so uninstrumented callers are unaffected.
    pub cancel: CancelFlag,
    enabled: bool,
}

impl Obs {
    /// A disabled context: instrumented components skip all recording.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled context with a fresh registry, no event sink, and a
    /// disabled tracer.
    pub fn enabled() -> Self {
        Self {
            registry: Registry::new(),
            events: EventLog::disabled(),
            tracer: Tracer::disabled(),
            cancel: CancelFlag::new(),
            enabled: true,
        }
    }

    /// Attach a shared cancellation flag (builder-style). Unlike the
    /// event/tracer builders this does **not** imply enabled:
    /// cancellation is control flow, not telemetry, and must work on a
    /// metrics-disabled context too.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelFlag) -> Self {
        self.cancel = cancel;
        self
    }

    /// Attach an event sink (builder-style); implies enabled.
    #[must_use]
    pub fn with_events(mut self, events: EventLog) -> Self {
        self.enabled = true;
        self.events = events;
        self
    }

    /// Attach a span tracer (builder-style); implies enabled.
    #[must_use]
    pub fn with_tracer(mut self, tracer: Tracer) -> Self {
        self.enabled = true;
        self.tracer = tracer;
        self
    }

    /// Whether instrumented components should record anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_is_default_and_off() {
        assert!(!Obs::disabled().is_enabled());
        assert!(!Obs::default().is_enabled());
        assert!(Obs::enabled().is_enabled());
        assert!(Obs::disabled()
            .with_events(EventLog::disabled())
            .is_enabled());
    }

    #[test]
    fn with_tracer_implies_enabled_and_collects_spans() {
        let obs = Obs::disabled().with_tracer(Tracer::enabled());
        assert!(obs.is_enabled());
        assert!(obs.tracer.is_enabled());
        obs.tracer.span("demo.phase").close();
        let trace = obs.tracer.take();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].name, "demo.phase");
        // The default context keeps the tracer off.
        assert!(!Obs::enabled().tracer.is_enabled());
    }

    #[test]
    fn with_cancel_shares_the_flag_without_enabling() {
        let flag = CancelFlag::new();
        let obs = Obs::disabled().with_cancel(flag.clone());
        assert!(!obs.is_enabled());
        assert!(!obs.cancel.is_set());
        flag.set();
        assert!(obs.cancel.is_set());
    }

    #[test]
    fn quickstart_flow_works_end_to_end() {
        let obs = Obs::enabled();
        obs.registry.counter("demo.iterations").add(3);
        obs.registry
            .histogram("demo.step_seconds", &[0.001, 1.0])
            .start_timer()
            .stop();
        let snapshot = obs.registry.snapshot();
        assert_eq!(snapshot.counters["demo.iterations"], 3);
        assert_eq!(snapshot.histograms["demo.step_seconds"].count, 1);
        let text = snapshot.to_prometheus();
        let back = Snapshot::from_prometheus(&text).unwrap();
        assert_eq!(back.to_prometheus(), text);
    }
}
