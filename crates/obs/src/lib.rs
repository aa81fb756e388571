//! Workspace-wide observability: a dependency-free span tracer, metrics
//! registry, and trace-event switchboard.
//!
//! Every hot layer of the GDSII-Guard flow (routing, placement, STA,
//! NSGA-II, the evaluation pipeline) reports through this one crate
//! instead of per-crate debug flags and one-off stats structs. Three
//! independent facilities:
//!
//! - **Spans** — a [`Span`] wraps a phase in monotonic wall timing and
//!   aggregates `(count, total_nanos)` under its name
//!   (`"route.phase_b"`), whichever thread or enclosing span it closes
//!   in, so spans recorded from worker and evaluation threads merge
//!   losslessly.
//! - **Metrics** — a [`Counter`] or a [`Histogram`] per metric name
//!   (`"rrr.rounds"`, `"maze.pops"`, `"eval.cache_hits"`). Histograms
//!   use fixed power-of-two log-bucketing.
//! - **Trace events** — [`trace`] replaces the retired `GG_ROUTE_DEBUG` /
//!   `GG_LDA_DEBUG` eprintln paths: each event carries a [`Topic`], and
//!   topics are switched on either programmatically ([`enable`]) or with
//!   the single documented `GG_TRACE=route,lda,…` environment variable.
//!
//! Spans and metrics are `static`s that own their atomic cells, declared
//! at the call site, one per name; each lists itself in the registry on
//! its first enabled update. They are **off by default** and gated by one
//! process-wide atomic ([`set_enabled`]): when disabled, a counter bump is
//! a single relaxed load and a span is one monotonic clock read, for its
//! handle — unmeasurable on the paths this crate instruments. [`snapshot`]
//! drains an immutable [`MetricsSnapshot`] that renders as a human tree
//! ([`MetricsSnapshot::render`]); its public fields are the
//! machine-readable form, which `ggd serve` exports as JSON (this crate
//! writes none).
//!
//! # Examples
//!
//! ```
//! static PHASE: obs::Span = obs::Span::new("doc.phase");
//! static HITS: obs::Counter = obs::Counter::new("doc.cache_hits");
//!
//! obs::set_enabled(true);
//! let total = PHASE.time(|_| {
//!     HITS.incr();
//!     2 + 2
//! });
//! assert_eq!(total, 4);
//! let snap = obs::snapshot();
//! assert!(snap.counter("doc.cache_hits") >= 1);
//! assert!(snap.span_count("doc.phase") >= 1);
//! obs::set_enabled(false);
//! obs::reset();
//! ```

// Metric updates and spans run inside sandboxed candidate evaluations; a
// stray unwrap here would masquerade as an evaluation failure, so it is
// denied.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once, PoisonError};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Master enable switch (spans + metrics)
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span timing and metric recording on or off process-wide.
///
/// Off (the default), instrumented code pays one relaxed atomic load per
/// metric touch; no allocation, locking, or clock read happens beyond the
/// one monotonic read a [`Span::time`] always performs for its handle.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span timing and metric recording are on.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Trace topics (the GG_TRACE switchboard)
// ---------------------------------------------------------------------------

/// A trace-event category, replacing the per-crate debug env vars.
///
/// `route` carries the rip-up-and-reroute round trace that used to hide
/// behind `GG_ROUTE_DEBUG`; `lda` carries the LDA/ECO-placement phase
/// timings that used to hide behind `GG_LDA_DEBUG`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topic {
    /// Routing: per-round rip-up-and-reroute records.
    Route,
    /// LDA operator and its ECO placement phases.
    Lda,
}

impl Topic {
    /// Every topic, in display order.
    pub const ALL: [Topic; 2] = [Topic::Route, Topic::Lda];

    /// The topic's `GG_TRACE` name.
    pub fn name(self) -> &'static str {
        match self {
            Topic::Route => "route",
            Topic::Lda => "lda",
        }
    }

    /// Parses a `GG_TRACE` topic name.
    pub fn from_name(s: &str) -> Option<Topic> {
        Topic::ALL
            .into_iter()
            .find(|t| t.name().eq_ignore_ascii_case(s))
    }

    fn bit(self) -> u32 {
        1 << self as u32
    }
}

static TRACE_TOPICS: AtomicU32 = AtomicU32::new(0);
static TRACE_ENV_INIT: Once = Once::new();

/// Folds the `GG_TRACE` environment variable (comma-separated topic
/// names, or `all`) into the active topic set, once per process. Called
/// lazily from [`trace_enabled`]; unknown names are diagnosed, not fatal.
fn init_trace_from_env() {
    TRACE_ENV_INIT.call_once(|| {
        let Some(raw) = std::env::var_os("GG_TRACE") else {
            return;
        };
        let raw = raw.to_string_lossy();
        let mut bits = 0u32;
        for part in raw.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            if part.eq_ignore_ascii_case("all") {
                bits = u32::MAX;
            } else if let Some(t) = Topic::from_name(part) {
                bits |= t.bit();
            } else {
                diag(format_args!(
                    "obs: unknown GG_TRACE topic '{part}' (known: route, lda, all)"
                ));
            }
        }
        TRACE_TOPICS.fetch_or(bits, Ordering::Relaxed);
    });
}

/// Programmatically switches a trace topic on (the code-level equivalent
/// of listing it in `GG_TRACE`).
pub fn enable(topic: Topic) {
    init_trace_from_env();
    TRACE_TOPICS.fetch_or(topic.bit(), Ordering::Relaxed);
}

/// Switches a trace topic off.
pub fn disable(topic: Topic) {
    init_trace_from_env();
    TRACE_TOPICS.fetch_and(!topic.bit(), Ordering::Relaxed);
}

/// Whether events of `topic` are currently emitted.
#[inline]
pub fn trace_enabled(topic: Topic) -> bool {
    init_trace_from_env();
    TRACE_TOPICS.load(Ordering::Relaxed) & topic.bit() != 0
}

/// Emits one trace event on `topic`. The message closure only runs (and
/// only allocates) when the topic is enabled.
pub fn trace(topic: Topic, msg: impl FnOnce() -> String) {
    if trace_enabled(topic) {
        eprintln!("[{}] {}", topic.name(), msg());
    }
}

/// Unconditional diagnostic line on the observability sink (stderr).
///
/// This is the one blessed way user-facing tools in this workspace write
/// diagnostics, so every byte of non-result output flows through a single
/// redirectable seam. Prefer [`trace`] for anything gated by a topic.
pub fn diag(args: std::fmt::Arguments<'_>) {
    eprintln!("{args}");
}

/// [`diag`] with `format!`-style arguments.
#[macro_export]
macro_rules! diagln {
    ($($t:tt)*) => { $crate::diag(format_args!($($t)*)) };
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Number of log buckets a [`Histogram`] carries. Bucket 0 counts zero
/// values; bucket `k ≥ 1` counts values in `[2^(k-1), 2^k)`; the last
/// bucket absorbs everything larger.
pub const HIST_BUCKETS: usize = 32;

/// The statics that have recorded something, by name.
#[derive(Debug)]
struct Registry {
    spans: BTreeMap<&'static str, &'static Span>,
    counters: BTreeMap<&'static str, &'static Counter>,
    histograms: BTreeMap<&'static str, &'static Histogram>,
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    spans: BTreeMap::new(),
    counters: BTreeMap::new(),
    histograms: BTreeMap::new(),
});

/// Registry access is panic-robust: a thread that panicked while listing
/// a static poisons nothing of consequence (the maps only ever gain
/// `&'static` entries), so the poison flag is deliberately cleared
/// instead of propagated.
fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Lists a span or metric static under its name. An enabled update calls
/// this when it finds the static at zero, so it runs again after every
/// [`reset`] and must be idempotent; two statics under one name are a bug.
#[cold]
fn list<T>(
    kind: fn(&mut Registry) -> &mut BTreeMap<&'static str, &'static T>,
    name: &'static str,
    metric: &'static T,
) {
    let listed = *kind(&mut registry()).entry(name).or_insert(metric);
    debug_assert!(
        std::ptr::eq(listed, metric),
        "obs: two statics are named {name:?}"
    );
}

/// A named monotone counter. Declare one `static` per metric at its call
/// site (see the crate example); updates from any number of threads are
/// lossless.
#[derive(Debug)]
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Const constructor so counters can live in statics.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n` when recording is enabled.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if enabled() && self.value.fetch_add(n, Ordering::Relaxed) == 0 && n != 0 {
            list(|r| &mut r.counters, self.name, self);
        }
    }

    /// Adds one when recording is enabled.
    #[inline]
    pub fn incr(&'static self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A named histogram with fixed power-of-two log-bucketing
/// (see [`HIST_BUCKETS`]), declared like a [`Counter`].
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

/// The log bucket of a value (shared by recording and snapshotting).
fn bucket_of(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Exclusive upper bound of bucket `k` (`u64::MAX` for the overflow
/// bucket).
fn bucket_bound(k: usize) -> u64 {
    if k + 1 >= HIST_BUCKETS {
        u64::MAX
    } else {
        1u64 << k
    }
}

impl Histogram {
    /// Const constructor so histograms can live in statics.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation when recording is enabled.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !enabled() {
            return;
        }
        self.sum.fetch_add(v, Ordering::Relaxed);
        if self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed) == 0 {
            list(|r| &mut r.histograms, self.name, self);
        }
    }
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// A named span, declared like a [`Counter`]: each [`Span::time`] adds
/// one execution and its wall nanoseconds to the span's totals, on every
/// thread and under every caller alike.
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    count: AtomicU64,
    total_nanos: AtomicU64,
}

impl Span {
    /// Const constructor so spans can live in statics.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            count: AtomicU64::new(0),
            total_nanos: AtomicU64::new(0),
        }
    }

    /// Runs `f` inside the span.
    ///
    /// When recording is enabled the body is timed on the monotonic clock
    /// and its wall nanoseconds and one execution are added to the span's
    /// totals in a drop guard, so a panicking body is still counted.
    /// Disabled, it degenerates to calling `f` directly.
    pub fn time<R>(&'static self, f: impl FnOnce(&SpanHandle) -> R) -> R {
        let handle = SpanHandle { t0: Instant::now() };
        if !enabled() {
            return f(&handle);
        }
        let _guard = SpanGuard {
            span: self,
            t0: handle.t0,
        };
        f(&handle)
    }
}

/// Timing handle passed to a [`Span::time`] body; valid whether or not
/// recording is enabled, so trace messages can report wall time
/// unconditionally.
#[derive(Debug)]
pub struct SpanHandle {
    t0: Instant,
}

impl SpanHandle {
    /// Wall time since the span opened.
    pub fn elapsed(&self) -> Duration {
        self.t0.elapsed()
    }
}

/// Closes an enabled span on drop.
struct SpanGuard {
    span: &'static Span,
    t0: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let span = self.span;
        let nanos = self.t0.elapsed().as_nanos() as u64;
        span.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        if span.count.fetch_add(1, Ordering::Relaxed) == 0 {
            list(|r| &mut r.spans, span.name, span);
        }
    }
}

// ---------------------------------------------------------------------------
// Snapshot, reset, rendering
// ---------------------------------------------------------------------------

/// Point-in-time copy of one histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registered name.
    pub name: String,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// `(exclusive upper bound, count)` per non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

/// Point-in-time aggregate of one span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// The span's name (`"route.phase_b"`).
    pub name: String,
    /// Completed executions.
    pub count: u64,
    /// Summed wall time in nanoseconds.
    pub total_nanos: u64,
}

/// An immutable copy of the whole registry, ready to render or export.
/// Zero-valued counters, empty histograms and spans that never closed are
/// omitted, so a fully disabled run snapshots as empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` per non-zero counter, name-sorted.
    pub counters: Vec<(String, u64)>,
    /// Non-empty histograms, name-sorted.
    pub histograms: Vec<HistogramSnapshot>,
    /// Every span closed at least once, name-sorted.
    pub spans: Vec<SpanSnapshot>,
}

/// Copies the listed spans and metrics out (recording continues
/// unchanged).
pub fn snapshot() -> MetricsSnapshot {
    let reg = registry();
    let counters = reg
        .counters
        .iter()
        .map(|(&n, c)| (n.to_string(), c.get()))
        .filter(|&(_, v)| v != 0)
        .collect();
    let histograms = reg
        .histograms
        .iter()
        .filter_map(|(&n, h)| {
            let buckets: Vec<(u64, u64)> = h
                .buckets
                .iter()
                .enumerate()
                .map(|(k, b)| (bucket_bound(k), b.load(Ordering::Relaxed)))
                .filter(|&(_, c)| c != 0)
                .collect();
            let count: u64 = buckets.iter().map(|&(_, c)| c).sum();
            (count != 0).then(|| HistogramSnapshot {
                name: n.to_string(),
                count,
                sum: h.sum.load(Ordering::Relaxed),
                buckets,
            })
        })
        .collect();
    let spans = reg
        .spans
        .iter()
        .map(|(&n, s)| SpanSnapshot {
            name: n.to_string(),
            count: s.count.load(Ordering::Relaxed),
            total_nanos: s.total_nanos.load(Ordering::Relaxed),
        })
        .filter(|s| s.count != 0)
        .collect();
    MetricsSnapshot {
        counters,
        histograms,
        spans,
    }
}

/// Zeroes every listed span, counter, and histogram in place, so
/// benchmark harnesses can bracket a measured region with `reset()` …
/// `snapshot()`.
pub fn reset() {
    let reg = registry();
    for s in reg.spans.values() {
        s.count.store(0, Ordering::Relaxed);
        s.total_nanos.store(0, Ordering::Relaxed);
    }
    for c in reg.counters.values() {
        c.value.store(0, Ordering::Relaxed);
    }
    for h in reg.histograms.values() {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
        h.sum.store(0, Ordering::Relaxed);
    }
}

/// Formats nanoseconds as a compact human duration.
fn fmt_nanos(n: u64) -> String {
    let s = n as f64 / 1e9;
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

impl MetricsSnapshot {
    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.spans.is_empty()
    }

    /// Value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Completed executions of the span `name` (0 when absent).
    pub fn span_count(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.count)
    }

    /// Total wall nanoseconds of the span `name` (0 when absent). Summed
    /// across threads, so with parallel callers this can exceed elapsed
    /// time.
    pub fn span_total_nanos(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0, |s| s.total_nanos)
    }

    /// Renders the human `--verbose` tree: spans, then counters and
    /// histograms.
    pub fn render(&self) -> String {
        let mut out = String::from("telemetry\n");
        if !self.spans.is_empty() {
            out.push_str("  spans (count, total, mean)\n");
            for s in &self.spans {
                let mean = s.total_nanos / s.count.max(1);
                out.push_str(&format!(
                    "    {:<36} {:>8}  {:>10}  {:>10}\n",
                    s.name,
                    s.count,
                    fmt_nanos(s.total_nanos),
                    fmt_nanos(mean),
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("  counters\n");
            for (n, v) in &self.counters {
                out.push_str(&format!("    {n:<38} {v:>10}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("  histograms\n");
            for h in &self.histograms {
                out.push_str(&format!(
                    "    {:<38} count {} sum {}\n      buckets:",
                    h.name, h.count, h.sum
                ));
                for &(bound, c) in &h.buckets {
                    if bound == u64::MAX {
                        out.push_str(&format!(" inf:{c}"));
                    } else {
                        out.push_str(&format!(" <{bound}:{c}"));
                    }
                }
                out.push('\n');
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry and the enabled flag are process-global; tests that
    /// flip them are serialized on this lock (and reset on entry).
    pub(crate) fn exclusive() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        let g = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_enabled(false);
        reset();
        g
    }

    #[test]
    fn disabled_records_nothing() {
        static S: Span = Span::new("t.disabled_span");
        static C: Counter = Counter::new("t.disabled");
        static H: Histogram = Histogram::new("t.disabled_h");
        let _g = exclusive();
        S.time(|_| {
            C.add(5);
            H.record(9);
        });
        assert!(snapshot().is_empty());
        assert_eq!(C.get(), 0);
        // Touched only while disabled, none of them was ever listed.
        let reg = registry();
        assert!(!reg.spans.contains_key("t.disabled_span"));
        assert!(!reg.counters.contains_key("t.disabled"));
        assert!(!reg.histograms.contains_key("t.disabled_h"));
    }

    #[test]
    fn counters_and_histograms_round_through_snapshot() {
        static C: Counter = Counter::new("t.counter");
        static H: Histogram = Histogram::new("t.hist");
        let _g = exclusive();
        set_enabled(true);
        C.add(3);
        C.incr();
        for v in [0u64, 1, 1, 2, 3, 100, u64::MAX] {
            H.record(v);
        }
        let snap = snapshot();
        assert_eq!(snap.counter("t.counter"), 4);
        let hs = snap.histograms.iter().find(|h| h.name == "t.hist").unwrap();
        assert_eq!(hs.count, 7);
        assert_eq!(hs.sum, 107u64.wrapping_add(u64::MAX));
        // Bucket bounds: 0 lands below 1; 1 lands below 2; 2..3 below 4.
        assert_eq!(hs.buckets.iter().find(|b| b.0 == 1).map(|b| b.1), Some(1));
        assert_eq!(hs.buckets.iter().find(|b| b.0 == 2).map(|b| b.1), Some(2));
        assert_eq!(hs.buckets.iter().find(|b| b.0 == 4).map(|b| b.1), Some(2));
        assert_eq!(hs.buckets.last().map(|b| b.0), Some(u64::MAX));
        set_enabled(false);
    }

    #[test]
    fn bucket_of_is_monotone_and_bounded() {
        let mut last = 0;
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1 << 20, 1 << 40, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= last, "bucket_of must be monotone");
            assert!(b < HIST_BUCKETS);
            if b + 1 < HIST_BUCKETS {
                assert!(v < bucket_bound(b), "{v} must fall under its bound");
            }
            last = b;
        }
    }

    #[test]
    fn spans_aggregate_by_name() {
        static OUTER: Span = Span::new("t.outer");
        static INNER: Span = Span::new("t.inner");
        let _g = exclusive();
        set_enabled(true);
        OUTER.time(|_| {
            INNER.time(|_| ());
            INNER.time(|_| ());
        });
        let nested = snapshot();
        assert!(nested.span_total_nanos("t.outer") >= nested.span_total_nanos("t.inner"));
        OUTER.time(|_| ());
        INNER.time(|_| ());
        let snap = snapshot();
        let named = |n: &str| snap.spans.iter().filter(|s| s.name == n).count();
        assert_eq!(named("t.outer"), 1);
        assert_eq!(
            named("t.inner"),
            1,
            "nested and top-level closes share one entry"
        );
        assert_eq!(snap.span_count("t.outer"), 2);
        assert_eq!(snap.span_count("t.inner"), 3);
        set_enabled(false);
    }

    #[test]
    fn panicking_span_bodies_still_count() {
        static PANICKY: Span = Span::new("t.panicky");
        static DEEP: Span = Span::new("t.deep");
        let _g = exclusive();
        set_enabled(true);
        let r = std::panic::catch_unwind(|| PANICKY.time(|_| DEEP.time(|_| panic!("boom"))));
        assert!(r.is_err());
        let snap = snapshot();
        assert_eq!(snap.span_count("t.deep"), 1);
        assert_eq!(snap.span_count("t.panicky"), 1);
        set_enabled(false);
    }

    #[test]
    fn reset_zeroes_in_place_and_keeps_handles_live() {
        static C: Counter = Counter::new("t.reset");
        static S: Span = Span::new("t.reset_span");
        let _g = exclusive();
        set_enabled(true);
        C.add(7);
        S.time(|_| ());
        reset();
        assert!(snapshot().is_empty());
        C.add(2);
        S.time(|_| ());
        let snap = snapshot();
        assert_eq!(snap.counter("t.reset"), 2);
        assert_eq!(snap.span_count("t.reset_span"), 1);
        set_enabled(false);
    }

    #[test]
    fn a_static_raced_on_its_first_update_is_listed_once_with_the_exact_sum() {
        static RACED: Counter = Counter::new("t.raced");
        static RACED_H: Histogram = Histogram::new("t.raced_h");
        static RACED_S: Span = Span::new("t.raced_s");
        const THREADS: u64 = 4;
        const ADDS: u64 = 1000;
        let _g = exclusive();
        set_enabled(true);
        let start = std::sync::Barrier::new(THREADS as usize);
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    start.wait();
                    for v in 0..ADDS {
                        RACED.incr();
                        RACED_H.record(v);
                        RACED_S.time(|_| ());
                    }
                });
            }
        });
        let snap = snapshot();
        let named = |n: &str| snap.counters.iter().filter(|(c, _)| c == n).count();
        assert_eq!(named("t.raced"), 1);
        assert_eq!(snap.counter("t.raced"), THREADS * ADDS);
        let hs: Vec<_> = snap
            .histograms
            .iter()
            .filter(|h| h.name == "t.raced_h")
            .collect();
        assert_eq!(hs.len(), 1);
        assert_eq!(hs[0].count, THREADS * ADDS);
        assert_eq!(hs[0].sum, THREADS * (ADDS * (ADDS - 1) / 2));
        let spans: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.name == "t.raced_s")
            .collect();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].count, THREADS * ADDS);
        set_enabled(false);
    }

    #[test]
    #[cfg(debug_assertions)]
    fn a_second_static_under_a_listed_name_fails_a_debug_assertion() {
        static FIRST: Counter = Counter::new("t.clash");
        static SECOND: Counter = Counter::new("t.clash");
        static FIRST_S: Span = Span::new("t.clash_span");
        static SECOND_S: Span = Span::new("t.clash_span");
        let _g = exclusive();
        set_enabled(true);
        FIRST.incr();
        let clash = std::panic::catch_unwind(|| SECOND.incr());
        FIRST_S.time(|_| ());
        let span_clash = std::panic::catch_unwind(|| SECOND_S.time(|_| ()));
        set_enabled(false);
        assert!(
            clash.is_err(),
            "a second `t.clash` static must not be listed"
        );
        assert!(
            span_clash.is_err(),
            "a second `t.clash_span` static must not be listed"
        );
    }

    #[test]
    fn trace_topics_parse_and_toggle() {
        assert_eq!(Topic::from_name("route"), Some(Topic::Route));
        assert_eq!(Topic::from_name("LDA"), Some(Topic::Lda));
        assert_eq!(Topic::from_name("bogus"), None);
        for t in Topic::ALL {
            assert_eq!(Topic::from_name(t.name()), Some(t));
        }
        enable(Topic::Route);
        assert!(trace_enabled(Topic::Route));
        disable(Topic::Route);
        assert!(!trace_enabled(Topic::Route));
    }

    #[test]
    fn render_covers_every_section() {
        static C: Counter = Counter::new("t.render_c");
        static H: Histogram = Histogram::new("t.render_h");
        static OUTER: Span = Span::new("t.render_outer");
        static INNER: Span = Span::new("t.render_inner");
        let _g = exclusive();
        set_enabled(true);
        C.add(1);
        H.record(3);
        OUTER.time(|_| INNER.time(|_| ()));
        let snap = snapshot();
        let tree = snap.render();
        for needle in [
            "t.render_c",
            "t.render_h",
            "t.render_outer",
            "t.render_inner",
        ] {
            assert!(tree.contains(needle), "render misses {needle}:\n{tree}");
        }
        set_enabled(false);
    }
}
