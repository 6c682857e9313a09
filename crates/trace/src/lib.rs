//! # nova-trace — structured tracing for the NOVA encode/minimize pipeline
//!
//! A std-only, thread-safe [`Tracer`] providing:
//!
//! * **hierarchical spans** — [`Tracer::span`] returns an RAII guard that
//!   records enter/exit events with monotonic timestamps, a per-thread
//!   numeric tid, and the enclosing span as parent;
//! * a **metrics registry** — named [counters](Tracer::incr),
//!   [gauges](Tracer::gauge) and fixed-bucket (power-of-two)
//!   [histograms](Tracer::observe), snapshot as [`MetricsSnapshot`];
//! * two **sinks** — a JSONL event log ([`Tracer::write_jsonl`], schema
//!   `nova-trace/1`) and a Chrome trace-event file
//!   ([`Tracer::write_chrome`]) loadable in `chrome://tracing` / Perfetto.
//!
//! A **disabled** tracer costs one relaxed atomic load per call and never
//! allocates, so instrumentation can sit permanently in hot loops:
//!
//! ```
//! use nova_trace::Tracer;
//!
//! let off = Tracer::disabled();
//! for _ in 0..1_000_000 {
//!     let _s = off.span("hot.loop"); // atomic flag check, no allocation
//! }
//! assert_eq!(off.collected_events().len(), 0);
//!
//! let on = Tracer::enabled();
//! {
//!     let _outer = on.span("outer");
//!     let _inner = on.span("inner");
//!     on.incr("work", 3);
//!     on.observe("depth", 2);
//! }
//! assert_eq!(on.collected_events().len(), 4); // two B + two E events
//! ```
//!
//! Concurrent components each [`Tracer::fork`] the session tracer: forks
//! share the clock, the enabled flag and the event registry (so one file
//! contains every thread's spans), but keep **their own metrics registry**,
//! which is how the portfolio engine reports per-algorithm counter and
//! histogram snapshots.

#![forbid(unsafe_code)]

pub mod json;
pub mod prom;
pub mod report;
pub mod sink;

use json::Json;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Version tag written into every JSONL trace header.
pub const JSONL_SCHEMA: &str = "nova-trace/1";

/// Number of histogram buckets: bucket 0 holds the value 0, bucket `i ≥ 1`
/// holds `2^(i-1) ≤ v < 2^i`, and the last bucket absorbs the overflow.
pub const HISTOGRAM_BUCKETS: usize = 20;

/// Event phase, mirroring the Chrome trace-event `ph` field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Span enter (`B`).
    Begin,
    /// Span exit (`E`).
    End,
}

impl Phase {
    /// The Chrome trace-event `ph` letter.
    pub fn letter(&self) -> &'static str {
        match self {
            Phase::Begin => "B",
            Phase::End => "E",
        }
    }
}

/// One recorded trace event.
#[derive(Debug, Clone)]
pub struct Event {
    /// Global sequence number (total order across threads and forks).
    pub seq: u64,
    /// Nanoseconds since the session clock started.
    pub ts_ns: u64,
    /// Per-thread numeric id (assigned on first event from a thread).
    pub tid: u64,
    /// Enter or exit.
    pub phase: Phase,
    /// Span name.
    pub name: Cow<'static, str>,
    /// Span id (shared by the matching enter/exit pair).
    pub id: u64,
    /// Enclosing span id at enter time (`0` = root).
    pub parent: u64,
    /// Request id of the session (`0` = none): every event recorded after
    /// [`Tracer::set_request_id`] carries it, forks included.
    pub req: u64,
}

/// State shared by a session tracer and all of its forks.
#[derive(Debug)]
struct Shared {
    enabled: AtomicBool,
    epoch: Instant,
    next_span: AtomicU64,
    next_seq: AtomicU64,
    next_tid: AtomicU64,
    /// Request id stamped on every event (`0` = none). Shared by all forks,
    /// so a per-request session tracer scopes the whole pipeline's events.
    request_id: AtomicU64,
    /// Every registry created in this session (session tracer + forks), so
    /// the sinks see all events regardless of which fork recorded them.
    members: Mutex<Vec<Arc<Registry>>>,
}

/// Per-tracer storage: the event buffer and the metrics registry.
#[derive(Debug, Default)]
struct Registry {
    events: Mutex<Vec<Event>>,
    metrics: Mutex<std::collections::BTreeMap<&'static str, Metric>>,
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramData),
}

#[derive(Debug, Clone)]
struct HistogramData {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl HistogramData {
    fn new() -> Self {
        HistogramData {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }

    fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }
}

/// Bucket index of a value: 0 for 0, otherwise `floor(log2 v) + 1`, clamped
/// to the overflow bucket.
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Upper bound (exclusive) of bucket `i`, `None` for the overflow bucket.
fn bucket_upper(i: usize) -> Option<u64> {
    if i + 1 >= HISTOGRAM_BUCKETS {
        None
    } else {
        Some(1u64 << i)
    }
}

thread_local! {
    static THREAD_TID: Cell<u64> = const { Cell::new(0) };
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// A thread-safe tracer handle (an `Arc` over the session state). Cloning
/// shares everything; [`Tracer::fork`] shares the clock and event registry
/// but separates the metrics.
#[derive(Debug, Clone)]
pub struct Tracer {
    shared: Arc<Shared>,
    registry: Arc<Registry>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    fn build(enabled: bool) -> Tracer {
        let registry = Arc::new(Registry::default());
        Tracer {
            shared: Arc::new(Shared {
                enabled: AtomicBool::new(enabled),
                epoch: Instant::now(),
                next_span: AtomicU64::new(1),
                next_seq: AtomicU64::new(1),
                next_tid: AtomicU64::new(1),
                request_id: AtomicU64::new(0),
                members: Mutex::new(vec![registry.clone()]),
            }),
            registry,
        }
    }

    /// A tracer that records nothing: every call is one relaxed atomic load
    /// and never allocates.
    pub fn disabled() -> Tracer {
        Tracer::build(false)
    }

    /// A recording tracer; the session clock starts now.
    pub fn enabled() -> Tracer {
        Tracer::build(true)
    }

    /// Is this tracer recording?
    pub fn is_enabled(&self) -> bool {
        self.shared.enabled.load(Ordering::Relaxed)
    }

    /// Stamps a request id on the session: every event recorded from now on
    /// (by this tracer and all of its forks) carries it, and the JSONL
    /// header names it. `0` means "no request id".
    pub fn set_request_id(&self, id: u64) {
        self.shared.request_id.store(id, Ordering::Relaxed);
    }

    /// The session's request id (`0` = none set).
    pub fn request_id(&self) -> u64 {
        self.shared.request_id.load(Ordering::Relaxed)
    }

    /// A tracer sharing this session's clock, enabled flag and event
    /// registry, but with its **own metrics registry**. Used by the engine to
    /// give every algorithm run a separable counter/histogram snapshot while
    /// all spans land in one trace file. Forking a disabled tracer returns a
    /// plain disabled tracer (nothing is registered).
    pub fn fork(&self) -> Tracer {
        if !self.is_enabled() {
            return Tracer::disabled();
        }
        let registry = Arc::new(Registry::default());
        self.shared
            .members
            .lock()
            .expect("trace member registry poisoned")
            .push(registry.clone());
        Tracer {
            shared: self.shared.clone(),
            registry,
        }
    }

    fn now_ns(&self) -> u64 {
        self.shared.epoch.elapsed().as_nanos() as u64
    }

    fn tid(&self) -> u64 {
        THREAD_TID.with(|t| {
            let v = t.get();
            if v != 0 {
                return v;
            }
            let v = self.shared.next_tid.fetch_add(1, Ordering::Relaxed);
            t.set(v);
            v
        })
    }

    fn push_event(&self, phase: Phase, name: Cow<'static, str>, id: u64, parent: u64) {
        let ev = Event {
            seq: self.shared.next_seq.fetch_add(1, Ordering::Relaxed),
            ts_ns: self.now_ns(),
            tid: self.tid(),
            phase,
            name,
            id,
            parent,
            req: self.shared.request_id.load(Ordering::Relaxed),
        };
        self.registry
            .events
            .lock()
            .expect("trace event buffer poisoned")
            .push(ev);
    }

    /// Enters a span; the returned guard records the exit event on drop.
    /// On a disabled tracer this is one atomic load and no allocation.
    pub fn span(&self, name: &'static str) -> Span {
        self.span_cow(Cow::Borrowed(name))
    }

    /// [`Tracer::span`] with a runtime-built name (e.g. an algorithm tag).
    /// The `String` is only constructed by callers when needed; prefer
    /// checking [`Tracer::is_enabled`] before formatting.
    pub fn span_dyn(&self, name: String) -> Span {
        self.span_cow(Cow::Owned(name))
    }

    fn span_cow(&self, name: Cow<'static, str>) -> Span {
        if !self.is_enabled() {
            return Span { active: None };
        }
        let id = self.shared.next_span.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        self.push_event(Phase::Begin, name.clone(), id, parent);
        Span {
            active: Some(ActiveSpan {
                tracer: self.clone(),
                name,
                id,
            }),
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _span = self.span(name);
        f()
    }

    /// Runs `f` inside a span and **always** measures its wall time (even
    /// when disabled), returning it alongside the result. This is the single
    /// code path behind the driver's per-stage timings, so the stage report
    /// and the trace agree by construction.
    pub fn scope_timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let _span = self.span(name);
        let t = Instant::now();
        let out = f();
        (out, t.elapsed())
    }

    /// Adds `v` to the named counter.
    pub fn incr(&self, name: &'static str, v: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut m = self
            .registry
            .metrics
            .lock()
            .expect("trace metrics registry poisoned");
        match m.entry(name).or_insert(Metric::Counter(0)) {
            Metric::Counter(c) => *c += v,
            other => debug_assert!(false, "metric {name} is not a counter: {other:?}"),
        }
    }

    /// Sets the named gauge to `v` (last write wins).
    pub fn gauge(&self, name: &'static str, v: i64) {
        if !self.is_enabled() {
            return;
        }
        let mut m = self
            .registry
            .metrics
            .lock()
            .expect("trace metrics registry poisoned");
        *m.entry(name).or_insert(Metric::Gauge(v)) = Metric::Gauge(v);
    }

    /// Records `v` into the named fixed-bucket (power-of-two) histogram.
    pub fn observe(&self, name: &'static str, v: u64) {
        if !self.is_enabled() {
            return;
        }
        let mut m = self
            .registry
            .metrics
            .lock()
            .expect("trace metrics registry poisoned");
        match m
            .entry(name)
            .or_insert_with(|| Metric::Histogram(HistogramData::new()))
        {
            Metric::Histogram(h) => h.observe(v),
            other => debug_assert!(false, "metric {name} is not a histogram: {other:?}"),
        }
    }

    /// Snapshot of **this tracer's** metrics registry (a fork sees only its
    /// own metrics; the session tracer only its own).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let m = self
            .registry
            .metrics
            .lock()
            .expect("trace metrics registry poisoned");
        let mut out = MetricsSnapshot::default();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => out.counters.push((name.to_string(), *c)),
                Metric::Gauge(g) => out.gauges.push((name.to_string(), *g)),
                Metric::Histogram(h) => out
                    .histograms
                    .push((name.to_string(), HistogramSnapshot::from_data(h))),
            }
        }
        out
    }

    /// Every event recorded in this session (session tracer + all forks),
    /// sorted by global sequence number.
    pub fn collected_events(&self) -> Vec<Event> {
        let members = self
            .shared
            .members
            .lock()
            .expect("trace member registry poisoned");
        let mut all: Vec<Event> = Vec::new();
        for reg in members.iter() {
            all.extend(
                reg.events
                    .lock()
                    .expect("trace event buffer poisoned")
                    .iter()
                    .cloned(),
            );
        }
        all.sort_by_key(|e| e.seq);
        all
    }

    /// Merged metrics across the session tracer and all forks (counters sum,
    /// gauges take the last write, histograms merge bucket-wise).
    pub fn merged_metrics(&self) -> MetricsSnapshot {
        let members = self
            .shared
            .members
            .lock()
            .expect("trace member registry poisoned");
        let mut out = MetricsSnapshot::default();
        for reg in members.iter() {
            let snap = Tracer {
                shared: self.shared.clone(),
                registry: reg.clone(),
            }
            .metrics_snapshot();
            out.merge(&snap);
        }
        out
    }

    /// Writes the whole session as a JSONL event log (see [`sink`] for the
    /// schema).
    pub fn write_jsonl<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        sink::write_jsonl(
            &self.collected_events(),
            &self.merged_metrics(),
            self.request_id(),
            w,
        )
    }

    /// Writes the whole session as a Chrome trace-event JSON document
    /// (loadable in `chrome://tracing` and Perfetto).
    pub fn write_chrome<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        sink::write_chrome(&self.collected_events(), w)
    }
}

struct ActiveSpan {
    tracer: Tracer,
    name: Cow<'static, str>,
    id: u64,
}

/// RAII span guard returned by [`Tracer::span`]; records the exit event on
/// drop. A guard from a disabled tracer is inert.
pub struct Span {
    active: Option<ActiveSpan>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Well-nested guards pop from the top; tolerate out-of-order
            // drops by removing the id wherever it sits.
            match s.last() {
                Some(&top) if top == a.id => {
                    s.pop();
                }
                _ => {
                    if let Some(pos) = s.iter().rposition(|&x| x == a.id) {
                        s.remove(pos);
                    }
                }
            }
        });
        let parent = SPAN_STACK.with(|s| s.borrow().last().copied().unwrap_or(0));
        a.tracer
            .push_event(Phase::End, a.name.clone(), a.id, parent);
    }
}

/// Point-in-time snapshot of one metrics registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Named counters (name, total).
    pub counters: Vec<(String, u64)>,
    /// Named gauges (name, last value).
    pub gauges: Vec<(String, i64)>,
    /// Named histograms.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Snapshot of one fixed-bucket histogram.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observed values (saturating).
    pub sum: u64,
    /// Minimum observed value.
    pub min: u64,
    /// Maximum observed value.
    pub max: u64,
    /// Non-empty buckets as (exclusive upper bound, count); upper bound
    /// `None` marks the overflow bucket.
    pub buckets: Vec<(Option<u64>, u64)>,
}

impl HistogramSnapshot {
    fn from_data(h: &HistogramData) -> HistogramSnapshot {
        HistogramSnapshot {
            count: h.count,
            sum: h.sum,
            min: if h.count == 0 { 0 } else { h.min },
            max: h.max,
            buckets: h
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &n)| n > 0)
                .map(|(i, &n)| (bucket_upper(i), n))
                .collect(),
        }
    }

    /// Mean of the observed values (`0.0` when empty). Exact — the sum is
    /// carried alongside the buckets, not reconstructed from them.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ≤ q ≤ 1.0`) by linear interpolation
    /// inside the power-of-two bucket holding the target rank, clamped to
    /// the exact observed `[min, max]`. Returns `0` for an empty histogram.
    ///
    /// The bucket bounds give the estimate a relative error of at most 2×
    /// (one octave), which is the resolution trade-off of power-of-two
    /// buckets; `min`/`max` keep the tails exact.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(lt, n) in &self.buckets {
            if rank > seen + n {
                seen += n;
                continue;
            }
            // Bucket bounds: `Some(1)` holds only the value 0; `Some(u)`
            // holds `u/2 ≤ v < u`; the overflow bucket starts at the last
            // finite bound and is capped by the observed max.
            let (lo, hi) = match lt {
                Some(1) => (0u64, 1u64),
                Some(u) => (u / 2, u),
                None => (1u64 << (HISTOGRAM_BUCKETS - 2), self.max.saturating_add(1)),
            };
            let frac = ((rank - seen) as f64 - 0.5) / n as f64;
            let est = lo as f64 + frac * (hi.max(lo + 1) - lo) as f64;
            return (est as u64).clamp(self.min, self.max);
        }
        self.max
    }

    /// JSON form: `{"count":..,"sum":..,"min":..,"max":..,"buckets":[{"lt":2,"n":1},...]}`
    /// where `lt` is the exclusive upper bound (`null` = overflow bucket).
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::uint(self.count)),
            ("sum".into(), Json::uint(self.sum)),
            ("min".into(), Json::uint(self.min)),
            ("max".into(), Json::uint(self.max)),
            (
                "buckets".into(),
                Json::Arr(
                    self.buckets
                        .iter()
                        .map(|&(lt, n)| {
                            Json::Obj(vec![
                                ("lt".into(), lt.map(Json::uint).unwrap_or(Json::Null)),
                                ("n".into(), Json::uint(n)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl MetricsSnapshot {
    /// Is every registry section empty?
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merges `other` into `self`: counters add, gauges overwrite,
    /// histograms merge.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            match self.counters.iter_mut().find(|(n, _)| n == name) {
                Some((_, c)) => *c = c.saturating_add(*v),
                None => self.counters.push((name.clone(), *v)),
            }
        }
        for (name, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(n, _)| n == name) {
                Some((_, g)) => *g = *v,
                None => self.gauges.push((name.clone(), *v)),
            }
        }
        for (name, h) in &other.histograms {
            match self.histograms.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => {
                    // min/max only mean anything on a non-empty side: an
                    // empty snapshot reports `min: 0`, which must not win
                    // the `.min()` against a real minimum.
                    if h.count > 0 {
                        mine.min = if mine.count == 0 {
                            h.min
                        } else {
                            mine.min.min(h.min)
                        };
                        mine.max = mine.max.max(h.max);
                    }
                    mine.count = mine.count.saturating_add(h.count);
                    mine.sum = mine.sum.saturating_add(h.sum);
                    for &(lt, n) in &h.buckets {
                        match mine.buckets.iter_mut().find(|(l, _)| *l == lt) {
                            Some((_, c)) => *c = c.saturating_add(n),
                            None => mine.buckets.push((lt, n)),
                        }
                    }
                    mine.buckets.sort_by_key(|&(lt, _)| lt.unwrap_or(u64::MAX));
                }
                None => self.histograms.push((name.clone(), h.clone())),
            }
        }
    }

    /// JSON form with `counters` / `gauges` / `histograms` sections.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            (
                "counters".into(),
                Json::Obj(
                    self.counters
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::uint(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                Json::Obj(
                    self.gauges
                        .iter()
                        .map(|(n, v)| (n.clone(), Json::Int(*v as i128)))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Json::Obj(
                    self.histograms
                        .iter()
                        .map(|(n, h)| (n.clone(), h.to_json()))
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        {
            let _a = t.span("a");
            let _b = t.span_dyn("b".to_string());
            t.incr("c", 1);
            t.gauge("g", 2);
            t.observe("h", 3);
        }
        assert!(t.collected_events().is_empty());
        assert!(t.metrics_snapshot().is_empty());
    }

    #[test]
    fn spans_nest_and_balance() {
        let t = Tracer::enabled();
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span("inner");
            }
            let _sibling = t.span("sibling");
        }
        let evs = t.collected_events();
        assert_eq!(evs.len(), 6);
        // Each B has a matching E with the same id and name.
        let mut open: Vec<(u64, String)> = Vec::new();
        for e in &evs {
            match e.phase {
                Phase::Begin => open.push((e.id, e.name.to_string())),
                Phase::End => {
                    let (id, name) = open.pop().expect("E without B");
                    assert_eq!(id, e.id);
                    assert_eq!(name, e.name);
                }
            }
        }
        assert!(open.is_empty());
        // inner's parent is outer; sibling's parent is outer too.
        let begin = |name: &str| {
            evs.iter()
                .find(|e| e.phase == Phase::Begin && e.name == name)
        };
        let outer = begin("outer").unwrap();
        assert_eq!(outer.parent, 0);
        assert_eq!(begin("inner").unwrap().parent, outer.id);
        assert_eq!(begin("sibling").unwrap().parent, outer.id);
    }

    #[test]
    fn timestamps_are_monotonic_per_thread() {
        let t = Tracer::enabled();
        for _ in 0..10 {
            let _s = t.span("tick");
        }
        let evs = t.collected_events();
        for w in evs.windows(2) {
            assert!(w[0].ts_ns <= w[1].ts_ns);
        }
    }

    #[test]
    fn forks_share_events_but_not_metrics() {
        let root = Tracer::enabled();
        let fork = root.fork();
        root.incr("shared.name", 1);
        fork.incr("shared.name", 10);
        {
            let _s = fork.span("in-fork");
        }
        // Events visible from the root session.
        assert_eq!(root.collected_events().len(), 2);
        // Metrics separated...
        assert_eq!(
            root.metrics_snapshot().counters,
            vec![("shared.name".to_string(), 1)]
        );
        assert_eq!(
            fork.metrics_snapshot().counters,
            vec![("shared.name".to_string(), 10)]
        );
        // ...but merged for the session view.
        assert_eq!(
            root.merged_metrics().counters,
            vec![("shared.name".to_string(), 11)]
        );
    }

    #[test]
    fn fork_of_disabled_is_disabled_and_unregistered() {
        let root = Tracer::disabled();
        let fork = root.fork();
        let _s = fork.span("x");
        assert!(!fork.is_enabled());
        assert_eq!(root.shared.members.lock().unwrap().len(), 1);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1 << 40), HISTOGRAM_BUCKETS - 1);

        let t = Tracer::enabled();
        for v in [0, 1, 2, 3, 4, 100] {
            t.observe("h", v);
        }
        let snap = t.metrics_snapshot();
        let (_, h) = &snap.histograms[0];
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 110);
        assert_eq!(h.min, 0);
        assert_eq!(h.max, 100);
        let total: u64 = h.buckets.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 6);
        // 2 and 3 share the bucket with upper bound 4.
        assert!(h.buckets.contains(&(Some(4), 2)));
    }

    #[test]
    fn counters_and_gauges() {
        let t = Tracer::enabled();
        t.incr("c", 2);
        t.incr("c", 3);
        t.gauge("g", -7);
        t.gauge("g", 9);
        let snap = t.metrics_snapshot();
        assert_eq!(snap.counters, vec![("c".to_string(), 5)]);
        assert_eq!(snap.gauges, vec![("g".to_string(), 9)]);
    }

    #[test]
    fn scope_timed_measures_even_when_disabled() {
        let t = Tracer::disabled();
        let (out, d) = t.scope_timed("stage", || {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(out, 42);
        assert!(d >= Duration::from_millis(2));
        assert!(t.collected_events().is_empty());
    }

    #[test]
    fn concurrent_spans_get_distinct_tids() {
        let t = Tracer::enabled();
        std::thread::scope(|s| {
            for _ in 0..3 {
                let t = t.clone();
                s.spawn(move || {
                    let _sp = t.span("worker");
                });
            }
        });
        let evs = t.collected_events();
        let tids: std::collections::BTreeSet<u64> = evs.iter().map(|e| e.tid).collect();
        assert_eq!(tids.len(), 3, "each thread gets its own tid");
    }

    #[test]
    fn request_id_stamps_events_across_forks() {
        let root = Tracer::enabled();
        {
            let _before = root.span("before");
        }
        root.set_request_id(0xdead_beef);
        let fork = root.fork();
        {
            let _in_fork = fork.span("in-fork");
        }
        let evs = root.collected_events();
        let by_name = |n: &str| evs.iter().find(|e| e.name == n).unwrap();
        assert_eq!(by_name("before").req, 0, "pre-request events unstamped");
        assert_eq!(by_name("in-fork").req, 0xdead_beef);
        assert_eq!(fork.request_id(), 0xdead_beef, "forks share the id");
    }

    fn hist_of(values: &[u64]) -> HistogramSnapshot {
        let t = Tracer::enabled();
        for &v in values {
            t.observe("h", v);
        }
        t.metrics_snapshot().histograms.remove(0).1
    }

    #[test]
    fn merging_empty_histogram_keeps_real_min_max() {
        let mut real = MetricsSnapshot {
            histograms: vec![("h".into(), hist_of(&[8, 16]))],
            ..Default::default()
        };
        let empty = MetricsSnapshot {
            histograms: vec![("h".into(), HistogramSnapshot::default())],
            ..Default::default()
        };
        // Empty into non-empty: nothing changes.
        real.merge(&empty);
        let (_, h) = &real.histograms[0];
        assert_eq!((h.count, h.min, h.max, h.sum), (2, 8, 16, 24));
        // Non-empty into empty: the real bounds take over wholesale.
        let mut base = empty.clone();
        base.merge(&real);
        let (_, h) = &base.histograms[0];
        assert_eq!((h.count, h.min, h.max, h.sum), (2, 8, 16, 24));
    }

    #[test]
    fn merge_saturates_instead_of_overflowing() {
        let mut huge = MetricsSnapshot {
            counters: vec![("c".into(), u64::MAX)],
            histograms: vec![(
                "h".into(),
                HistogramSnapshot {
                    count: u64::MAX,
                    sum: u64::MAX,
                    min: 1,
                    max: 1,
                    buckets: vec![(Some(2), u64::MAX)],
                },
            )],
            ..Default::default()
        };
        let other = huge.clone();
        huge.merge(&other);
        assert_eq!(huge.counters[0].1, u64::MAX);
        let (_, h) = &huge.histograms[0];
        assert_eq!(h.count, u64::MAX);
        assert_eq!(h.sum, u64::MAX);
        assert_eq!(h.buckets, vec![(Some(2), u64::MAX)]);
    }

    #[test]
    fn merged_gauges_take_the_last_write() {
        let mut a = MetricsSnapshot {
            gauges: vec![("g".into(), 5)],
            ..Default::default()
        };
        let b = MetricsSnapshot {
            gauges: vec![("g".into(), -3), ("only_b".into(), 1)],
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(
            a.gauges,
            vec![("g".to_string(), -3), ("only_b".to_string(), 1)]
        );
    }

    #[test]
    fn quantiles_interpolate_within_power_of_two_buckets() {
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.quantile(0.5), 0);
        assert_eq!(empty.mean(), 0.0);

        // A single value: every quantile is that value (min/max clamping).
        let one = hist_of(&[700]);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 700);
        }

        // 100 observations of 10 and one of 10_000: the p50 stays in the
        // low bucket, the p99+ reaches the outlier's bucket.
        let mut values = vec![10u64; 100];
        values.push(10_000);
        let h = hist_of(&values);
        let p50 = h.quantile(0.5);
        assert!((10..16).contains(&p50), "median within 10's octave: {p50}");
        assert!(h.quantile(1.0) >= 8_192, "p100 lands in the top bucket");
        assert!(h.quantile(1.0) <= 10_000, "clamped to the exact max");
        assert!((h.mean() - (100.0 * 10.0 + 10_000.0) / 101.0).abs() < 1e-9);

        // Uniform 1..=1024: the median estimate is within one octave.
        let uniform: Vec<u64> = (1..=1024).collect();
        let h = hist_of(&uniform);
        let p50 = h.quantile(0.5);
        assert!((256..=1024).contains(&p50), "p50 estimate {p50}");
        assert_eq!(h.quantile(0.0), 1);
        assert_eq!(h.quantile(1.0), 1024);
    }

    #[test]
    fn snapshot_json_shape() {
        let t = Tracer::enabled();
        t.incr("n", 1);
        t.observe("h", 5);
        let j = t.metrics_snapshot().to_json().to_compact();
        assert!(j.contains("\"counters\":{\"n\":1}"), "{j}");
        assert!(j.contains("\"histograms\":{\"h\":"), "{j}");
        assert!(json::parse(&j).is_ok());
    }
}
