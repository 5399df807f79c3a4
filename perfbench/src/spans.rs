//! The benchmark's own span recorder. In a traced run it records one
//! span around every call the benchmark makes into a layer's public
//! functions (name `<layer>:<function>`), plus one span per served
//! request carrying the request id. Spans stay in memory until the run
//! ends. The library's own spans (`neural.forward`, `sa.batch_eval`,
//! `train.step`, …) are collected through the tracer of [`Recorder::obs`]
//! and merged into the same trace, parented under the benchmark span
//! whose interval contains them.

use chainnet_obs::{Obs, Tracer};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id (library spans are offset by [`LIB_ID_BASE`]).
    pub id: u64,
    /// Causing span, 0 for a root.
    pub parent: u64,
    /// `<layer>:<function>` for benchmark spans, the library's dotted
    /// name otherwise.
    pub name: String,
    /// Request id, for spans that belong to one served request.
    pub req: Option<u64>,
    /// Thread: 0 for the benchmark's nested spans, 1 for intervals the
    /// generator measured on its own threads, the tracer's thread index
    /// offset by [`LIB_TID_BASE`] for library spans.
    pub tid: u64,
    /// Start, nanoseconds from the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds from the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Library span ids are shifted by this much so they never collide with
/// the benchmark's own.
pub const LIB_ID_BASE: u64 = 1 << 40;

/// Library thread indices are shifted by this much.
pub const LIB_TID_BASE: u64 = 1000;

/// Records spans when enabled; a disabled recorder only runs the timed
/// closures.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<u64>,
    next_id: u64,
    tracer: Tracer,
    tracer_offset_ns: u64,
    slack_ns: u64,
}

impl Recorder {
    /// A recorder; `enabled` selects the traced run.
    pub fn new(enabled: bool) -> Self {
        Self::with_epoch(enabled, Instant::now())
    }

    /// A recorder whose span times count from `epoch`, so its trace
    /// lines up with that of an earlier recorder with the same epoch.
    pub fn with_epoch(enabled: bool, epoch: Instant) -> Self {
        let before = epoch.elapsed().as_nanos() as u64;
        let tracer = if enabled {
            Tracer::enabled()
        } else {
            Tracer::disabled()
        };
        // The tracer's own epoch lies between `before` and `after`.
        let after = epoch.elapsed().as_nanos() as u64;
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
            next_id: 1,
            tracer,
            tracer_offset_ns: before,
            slack_ns: after - before,
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The observability context to hand to `*_observed` entry points:
    /// tracer-enabled in a traced run, fully disabled otherwise.
    pub fn obs(&self) -> Obs {
        if self.enabled {
            Obs::disabled().with_tracer(self.tracer.clone())
        } else {
            Obs::disabled()
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: Option<u64>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        self.stack.push(id);
        let start = Instant::now();
        let out = f(self);
        let end = Instant::now();
        self.stack.pop();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            req,
            tid: 0,
            start_ns,
            end_ns,
        });
        out
    }

    /// Record an interval measured elsewhere (a request's life from due
    /// time to answer), as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, req: Option<u64>, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let id = self.next_id;
        self.next_id += 1;
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            name: name.to_string(),
            req,
            tid: 1,
            start_ns,
            end_ns,
        });
    }

    /// Close the recorder: merge the library's spans into the
    /// benchmark's and return the whole trace, sorted by start.
    pub fn finish(mut self) -> Vec<Span> {
        let lib = self.tracer.take();
        let mut own: Vec<(u64, u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.tid == 0)
            .map(|s| (s.start_ns, s.end_ns, s.id))
            .collect();
        own.sort_unstable();
        for s in lib.spans {
            let start_ns = s.start_ns + self.tracer_offset_ns;
            let end_ns = s.end_ns + self.tracer_offset_ns;
            let parent = if s.parent != 0 {
                s.parent + LIB_ID_BASE
            } else {
                // Innermost benchmark span containing this one: the
                // latest-starting container, up to the epoch slack.
                let slack = self.slack_ns;
                own.iter()
                    .take_while(|&&(a, _, _)| a <= start_ns + slack)
                    .filter(|&&(_, b, _)| b + slack >= end_ns)
                    .last()
                    .map(|&(_, _, id)| id)
                    .unwrap_or(0)
            };
            self.spans.push(Span {
                id: s.id + LIB_ID_BASE,
                parent,
                name: s.name,
                req: None,
                tid: s.tid + LIB_TID_BASE,
                start_ns,
                end_ns,
            });
        }
        self.spans
            .sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(a.id.cmp(&b.id)));
        self.spans
    }
}

/// The layer a span belongs to: the part of its name before `:` (the
/// benchmark's spans) or before the first `.` (the library's). The
/// library's `train.*` spans belong to `core` and `sa.*` to `placement`.
pub fn layer_of(name: &str) -> &str {
    let head = name.split([':', '.']).next().unwrap_or(name);
    match head {
        "train" => "core",
        "sa" => "placement",
        other => other,
    }
}

/// Busy and self time of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans attributed to the layer.
    pub spans: u64,
    /// Time inside the layer's outermost spans (summed over threads).
    pub busy_ns: u64,
    /// Time inside the layer's spans not covered by their children.
    pub self_ns: u64,
}

/// Per-layer busy and self time. A span counts towards busy time when
/// its parent is in another layer (or it is a root), so nested spans of
/// one layer are not counted twice.
pub fn layer_table(spans: &[Span]) -> BTreeMap<String, LayerTime> {
    let by_id: BTreeMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur();
        }
    }
    let mut table: BTreeMap<String, LayerTime> = BTreeMap::new();
    for s in spans {
        let layer = layer_of(&s.name);
        let entry = table.entry(layer.to_string()).or_default();
        entry.spans += 1;
        entry.self_ns += s
            .dur()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let outer = by_id
            .get(&s.parent)
            .map(|p| layer_of(&p.name) != layer)
            .unwrap_or(true);
        if outer {
            entry.busy_ns += s.dur();
        }
    }
    table
}

/// Share of the spans named `root` covered by their direct children:
/// a missing span shows as a gap below 1.
pub fn coverage(spans: &[Span], root: &str) -> f64 {
    let roots: Vec<&Span> = spans.iter().filter(|s| s.name == root).collect();
    let total: u64 = roots.iter().map(|s| s.dur()).sum();
    let covered: u64 = spans
        .iter()
        .filter(|s| roots.iter().any(|r| r.id == s.parent))
        .map(Span::dur)
        .sum();
    if total == 0 {
        0.0
    } else {
        covered as f64 / total as f64
    }
}

/// The trace as JSON lines, one span per line.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let req = s.req.map_or("null".to_string(), |r| r.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"tid\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.name, req, s.tid, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.to_string(),
            req: None,
            tid: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn layers_split_busy_and_self_time() {
        let spans = vec![
            span(1, 0, "bench:pipeline", 0, 100),
            span(2, 1, "core:train_batched", 0, 60),
            span(3, 2, "train.step", 10, 50),
            span(4, 3, "neural.forward", 20, 30),
            span(5, 1, "placement:optimize_neighborhood", 60, 98),
        ];
        let t = layer_table(&spans);
        assert_eq!(t["core"].busy_ns, 60, "nested core spans count once");
        assert_eq!(t["core"].self_ns, 20 + 30);
        assert_eq!(t["neural"].busy_ns, 10);
        assert_eq!(t["placement"].busy_ns, 38);
        assert_eq!(t["bench"].self_ns, 2);
        assert!((coverage(&spans, "bench:pipeline") - 0.98).abs() < 1e-12);
    }

    #[test]
    fn library_spans_land_under_the_enclosing_benchmark_span() {
        let mut rec = Recorder::new(true);
        let obs = rec.obs();
        rec.span("bench:outer", None, |r| {
            r.span("core:inner", None, |_| {
                let _g = obs.tracer.span("train.step");
            });
        });
        let spans = rec.finish();
        assert_eq!(spans.len(), 3);
        let inner = spans
            .iter()
            .find(|s| s.name == "core:inner")
            .expect("inner");
        let lib = spans.iter().find(|s| s.name == "train.step").expect("lib");
        assert_eq!(lib.parent, inner.id);
        assert!(to_json_lines(&spans).lines().count() == 3);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let v = rec.span("bench:x", None, |_| 7);
        assert_eq!(v, 7);
        assert!(rec.finish().is_empty());
    }
}
