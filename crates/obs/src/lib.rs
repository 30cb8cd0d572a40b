//! SWAMP observability substrate: one instrumentation API for the whole
//! platform.
//!
//! Every platform component records through one [`Obs`] registry:
//!
//! - **Typed handles** ([`Counter`], [`Gauge`], [`Hist`], [`Span`]) are
//!   registered once at construction time into dense slabs; every hot-path
//!   update is an indexed add with no hashing, no string comparison and no
//!   allocation.
//! - **Deterministic spans** measure *instrumented work*, not wall time:
//!   [`Obs`] keeps a monotone tick counter advanced by every recorded
//!   operation (and explicitly via [`Obs::advance`]), so span durations —
//!   including parent/child nesting counts — are bit-identical across runs
//!   of a seeded simulation. No `Instant` anywhere.
//! - A bounded **ring-buffer event log** ([`Obs::event`]) captures rare,
//!   high-value facts (degradation transitions, quarantine decisions,
//!   partition start/end) with a severity [`Level`], dropping the oldest
//!   entries once full.
//! - **Snapshots** ([`Obs::snapshot`] → [`ObsSnapshot`]) export everything
//!   as sorted maps with a stable JSON form ([`ObsSnapshot::to_json_string`],
//!   [`ObsReport`]).
//!
//! Snapshot reads return [`Err`] for names that were never registered, so
//! a misspelled metric name in an experiment harness fails loudly instead
//! of reporting zero.
//!
//! # Example
//! ```
//! use swamp_obs::{Level, Obs};
//!
//! let mut obs = Obs::new();
//! let sent = obs.counter("net.sent");
//! let latency = obs.hist("net.latency_ms", 0.0, 1000.0, 50);
//! let pump = obs.span("platform.pump");
//!
//! let t = obs.enter(pump);
//! obs.inc(sent);
//! obs.record(latency, 12.5);
//! obs.exit(t);
//! obs.event(Level::Warn, "link.partition", "gw-1 -> cloud partition start");
//!
//! let snap = obs.snapshot();
//! assert_eq!(snap.counter("net.sent").unwrap(), 1);
//! assert!(snap.counter("net.snet").is_err(), "typos are loud");
//! ```

use std::collections::BTreeMap;

use swamp_sim::stats::{Histogram, OnlineStats};

pub mod audit;
pub mod report;

pub use audit::{audit_uplink, AuditError};
pub use report::{EventRecord, HistSnapshot, ObsError, ObsReport, ObsSnapshot, SpanSnapshot};

/// Handle to a registered counter: an index into the counter slab.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counter(u32);

/// Handle to a registered gauge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Gauge(u32);

/// Handle to a registered fixed-bucket histogram.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hist(u32);

/// Handle to a registered span (a named scope with a duration histogram).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span(u32);

/// Severity of a logged [`Obs::event`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Expected lifecycle fact (mode recovered, partition healed).
    Info,
    /// Degraded but operating (fallback engaged, device watched).
    Warn,
    /// Data-affecting condition (quarantine, offline, refused writes).
    Error,
}

impl Level {
    /// Stable lowercase name used in JSON exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// Token returned by [`Obs::enter`]; pass it back to [`Obs::exit`] to close
/// the scope. Tokens are plain values (no RAII) so the `&mut Obs` stays
/// free for increments inside the span.
#[derive(Clone, Copy, Debug)]
#[must_use = "pass the token back to Obs::exit to close the span"]
pub struct SpanToken {
    span: u32,
    start: u64,
    live: bool,
}

/// What kind of instrument a name was registered as (for collision checks).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Hist,
    Span,
}

impl Kind {
    fn as_str(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Hist => "histogram",
            Kind::Span => "span",
        }
    }
}

/// A histogram slab cell: fixed buckets plus exact running moments, so
/// snapshots report both quantile estimates and an exact mergeable mean.
#[derive(Clone, Debug)]
struct HistCell {
    hist: Histogram,
    stats: OnlineStats,
}

/// A span slab cell: durations in ticks, both exact moments and a
/// fixed-bucket distribution (layout: `SPAN_HIST_*`).
#[derive(Clone, Debug)]
struct SpanCell {
    count: u64,
    ticks: OnlineStats,
    hist: Histogram,
}

/// One logged event (internal form; exported as [`EventRecord`]).
#[derive(Clone, Debug)]
struct Event {
    seq: u64,
    tick: u64,
    level: Level,
    code: String,
    detail: String,
}

/// Span durations land in a shared fixed-bucket layout: `[0, 4096)` ticks,
/// 64 buckets. Longer spans clamp into the top bucket (counted as
/// overflow); the exact mean/max come from the parallel [`OnlineStats`].
const SPAN_HIST_LO: f64 = 0.0;
const SPAN_HIST_HI: f64 = 4096.0;
const SPAN_HIST_BINS: usize = 64;

/// Bound on the event ring buffer.
const EVENT_CAPACITY: usize = 256;

/// The observability registry: dense slabs of typed instruments, a tick
/// clock, a span stack and a bounded event ring. See the crate docs for
/// the model; see [`ObsSnapshot`] for the export side.
#[derive(Clone, Debug)]
pub struct Obs {
    enabled: bool,
    /// Registration index: name → (kind, slab index). Cold path only.
    index: BTreeMap<String, (Kind, u32)>,
    counter_names: Vec<String>,
    counters: Vec<u64>,
    gauge_names: Vec<String>,
    gauges: Vec<Option<f64>>,
    hist_names: Vec<String>,
    hists: Vec<HistCell>,
    span_names: Vec<String>,
    spans: Vec<SpanCell>,
    /// Active span frames: (span index, start tick).
    stack: Vec<(u32, u64)>,
    /// (parent span index, child span index) → times entered while parent
    /// was the innermost active span.
    nest: BTreeMap<(u32, u32), u64>,
    /// Monotone operation counter: advanced by every recorded operation.
    tick: u64,
    events: Vec<Event>,
    next_event_seq: u64,
    events_dropped: u64,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// Creates an enabled registry.
    pub fn new() -> Self {
        Obs {
            enabled: true,
            index: BTreeMap::new(),
            counter_names: Vec::new(),
            counters: Vec::new(),
            gauge_names: Vec::new(),
            gauges: Vec::new(),
            hist_names: Vec::new(),
            hists: Vec::new(),
            span_names: Vec::new(),
            spans: Vec::new(),
            stack: Vec::new(),
            nest: BTreeMap::new(),
            tick: 0,
            events: Vec::new(),
            next_event_seq: 0,
            events_dropped: 0,
        }
    }

    /// Enables or disables recording (registration is unaffected).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    // ---- registration (cold path) -------------------------------------

    /// Registers (or re-fetches) a counter by name.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&mut self, name: &str) -> Counter {
        let idx = self.register(name, Kind::Counter, |o| {
            o.counter_names.push(name.to_owned());
            o.counters.push(0);
            o.counters.len() as u32 - 1
        });
        Counter(idx)
    }

    /// Registers (or re-fetches) a gauge by name.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn gauge(&mut self, name: &str) -> Gauge {
        let idx = self.register(name, Kind::Gauge, |o| {
            o.gauge_names.push(name.to_owned());
            o.gauges.push(None);
            o.gauges.len() as u32 - 1
        });
        Gauge(idx)
    }

    /// Registers (or re-fetches) a fixed-bucket histogram over `[lo, hi)`
    /// with `bins` equal-width buckets. Out-of-range samples clamp into the
    /// edge buckets and are counted as under/overflow.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind, if
    /// `bins == 0`, or if `[lo, hi)` is not a finite non-empty range.
    pub fn hist(&mut self, name: &str, lo: f64, hi: f64, bins: usize) -> Hist {
        let idx = self.register(name, Kind::Hist, |o| {
            o.hist_names.push(name.to_owned());
            o.hists.push(HistCell {
                hist: Histogram::new(lo, hi, bins),
                stats: OnlineStats::new(),
            });
            o.hists.len() as u32 - 1
        });
        Hist(idx)
    }

    /// Registers (or re-fetches) a span by name.
    ///
    /// # Panics
    /// Panics if `name` is already registered as a different kind.
    pub fn span(&mut self, name: &str) -> Span {
        let idx = self.register(name, Kind::Span, |o| {
            o.span_names.push(name.to_owned());
            o.spans.push(SpanCell {
                count: 0,
                ticks: OnlineStats::new(),
                hist: Histogram::new(SPAN_HIST_LO, SPAN_HIST_HI, SPAN_HIST_BINS),
            });
            o.spans.len() as u32 - 1
        });
        Span(idx)
    }

    /// Shared registration: idempotent per (name, kind), loud on a kind
    /// collision — a name can only ever mean one thing.
    ///
    /// # Panics
    /// Panics if `name` is already registered under a different kind.
    fn register(&mut self, name: &str, kind: Kind, alloc: impl FnOnce(&mut Self) -> u32) -> u32 {
        if let Some(&(existing, idx)) = self.index.get(name) {
            assert!(
                existing == kind,
                "instrument `{name}` already registered as a {} (requested {})",
                existing.as_str(),
                kind.as_str(),
            );
            return idx;
        }
        let idx = alloc(self);
        self.index.insert(name.to_owned(), (kind, idx));
        idx
    }

    // ---- hot path ------------------------------------------------------

    /// Increments a counter by one.
    #[inline]
    pub fn inc(&mut self, c: Counter) {
        self.add(c, 1);
    }

    /// Increments a counter by `n`.
    #[inline]
    pub fn add(&mut self, c: Counter, n: u64) {
        if !self.enabled {
            return;
        }
        self.tick += 1;
        if let Some(v) = self.counters.get_mut(c.0 as usize) {
            *v += n;
        }
    }

    /// Sets a gauge to an absolute value.
    #[inline]
    pub fn set(&mut self, g: Gauge, value: f64) {
        if !self.enabled {
            return;
        }
        self.tick += 1;
        if let Some(v) = self.gauges.get_mut(g.0 as usize) {
            *v = Some(value);
        }
    }

    /// Records one sample into a histogram.
    #[inline]
    pub fn record(&mut self, h: Hist, value: f64) {
        if !self.enabled {
            return;
        }
        self.tick += 1;
        if let Some(cell) = self.hists.get_mut(h.0 as usize) {
            cell.hist.push(value);
            cell.stats.push(value);
        }
    }

    /// Advances the tick clock by `n` without touching any instrument:
    /// lets a component charge explicit work units (messages drained,
    /// records flushed) so enclosing span durations reflect batch size.
    #[inline]
    pub fn advance(&mut self, n: u64) {
        if self.enabled {
            self.tick += n;
        }
    }

    /// Opens a span scope. If another span is currently innermost, the
    /// (parent, child) nesting edge is counted. Close with [`Obs::exit`].
    #[inline]
    pub fn enter(&mut self, s: Span) -> SpanToken {
        if !self.enabled {
            return SpanToken {
                span: s.0,
                start: 0,
                live: false,
            };
        }
        self.tick += 1;
        if let Some(&(parent, _)) = self.stack.last() {
            *self.nest.entry((parent, s.0)).or_insert(0) += 1;
        }
        self.stack.push((s.0, self.tick));
        SpanToken {
            span: s.0,
            start: self.tick,
            live: true,
        }
    }

    /// Closes a span scope, recording `now_ticks - start_ticks` into the
    /// span's duration distribution. Frames opened after `token` and never
    /// closed are discarded (a missed `exit` cannot wedge the stack).
    #[inline]
    pub fn exit(&mut self, token: SpanToken) {
        if !self.enabled || !token.live {
            return;
        }
        self.tick += 1;
        while let Some((span, start)) = self.stack.pop() {
            if span == token.span && start == token.start {
                let dur = (self.tick - start) as f64;
                if let Some(cell) = self.spans.get_mut(span as usize) {
                    cell.count += 1;
                    cell.ticks.push(dur);
                    cell.hist.push(dur);
                }
                return;
            }
        }
    }

    // ---- events (rare path; allocation is fine here) -------------------

    /// Appends an event to the bounded ring. Once the ring is full the
    /// oldest entry is overwritten and counted as dropped.
    pub fn event(&mut self, level: Level, code: &str, detail: &str) {
        if !self.enabled {
            return;
        }
        self.tick += 1;
        let ev = Event {
            seq: self.next_event_seq,
            tick: self.tick,
            level,
            code: code.to_owned(),
            detail: detail.to_owned(),
        };
        self.next_event_seq += 1;
        if self.events.len() < EVENT_CAPACITY {
            self.events.push(ev);
        } else {
            let slot = (ev.seq % EVENT_CAPACITY as u64) as usize;
            if let Some(old) = self.events.get_mut(slot) {
                *old = ev;
                self.events_dropped += 1;
            }
        }
    }

    // ---- typed reads (cheap, for internal state machines) --------------

    /// Current value of a counter (0 for a foreign handle).
    pub fn value(&self, c: Counter) -> u64 {
        self.counters.get(c.0 as usize).copied().unwrap_or(0)
    }

    // ---- export --------------------------------------------------------

    /// Snapshots every instrument into sorted maps. Registered-but-silent
    /// instruments are included (counter 0, empty histogram), which is what
    /// makes unknown-name snapshot reads distinguishable errors.
    pub fn snapshot(&self) -> ObsSnapshot {
        let mut snap = ObsSnapshot::default();
        for (name, value) in self.counter_names.iter().zip(&self.counters) {
            snap.put_counter(name, *value);
        }
        for (name, value) in self.gauge_names.iter().zip(&self.gauges) {
            snap.put_gauge_opt(name, *value);
        }
        for (name, cell) in self.hist_names.iter().zip(&self.hists) {
            snap.put_summary(name, HistSnapshot::from_cell(&cell.hist, &cell.stats));
        }
        for (idx, (name, cell)) in self.span_names.iter().zip(&self.spans).enumerate() {
            let mut children = BTreeMap::new();
            for (&(parent, child), &count) in &self.nest {
                if parent as usize == idx {
                    if let Some(child_name) = self.span_names.get(child as usize) {
                        children.insert(child_name.clone(), count);
                    }
                }
            }
            snap.put_span(
                name,
                SpanSnapshot {
                    count: cell.count,
                    ticks: cell.ticks,
                    p50: cell.hist.quantile(0.5),
                    p95: cell.hist.quantile(0.95),
                    p99: cell.hist.quantile(0.99),
                    children,
                },
            );
        }
        let mut events: Vec<&Event> = self.events.iter().collect();
        events.sort_by_key(|e| e.seq);
        for ev in events {
            snap.push_event(EventRecord {
                seq: ev.seq,
                tick: ev.tick,
                level: ev.level,
                code: ev.code.clone(),
                detail: ev.detail.clone(),
            });
        }
        snap.add_events_dropped(self.events_dropped);
        snap.add_ticks(self.tick);
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_dense() {
        let mut obs = Obs::new();
        let a = obs.counter("a");
        let b = obs.counter("b");
        let a2 = obs.counter("a");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        obs.inc(a);
        obs.add(a2, 2);
        assert_eq!(obs.value(a), 3);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_collision_is_loud() {
        let mut obs = Obs::new();
        let _ = obs.counter("x");
        let _ = obs.gauge("x");
    }

    #[test]
    fn gauges_and_hists_update() {
        let mut obs = Obs::new();
        let g = obs.gauge("g");
        let h = obs.hist("h", 0.0, 10.0, 10);
        assert_eq!(obs.snapshot().gauge("g"), Ok(None));
        obs.set(g, 4.5);
        obs.record(h, 3.0);
        obs.record(h, 5.0);
        let snap = obs.snapshot();
        assert_eq!(snap.gauge("g"), Ok(Some(4.5)));
        assert_eq!(snap.summary("h").unwrap().stats.count(), 2);
        assert_eq!(snap.summary("h").unwrap().stats.mean(), 4.0);
    }

    #[test]
    fn spans_nest_and_measure_ticks() {
        let mut obs = Obs::new();
        let c = obs.counter("work");
        let outer = obs.span("outer");
        let inner = obs.span("inner");

        let t_outer = obs.enter(outer);
        let t_inner = obs.enter(inner);
        obs.inc(c);
        obs.inc(c);
        obs.exit(t_inner);
        obs.exit(t_outer);

        let snap = obs.snapshot();
        assert_eq!(snap.span("outer").unwrap().count, 1);
        assert_eq!(snap.span("inner").unwrap().count, 1);
        // inner: enter(tick t), 2 incs, exit → duration 3 ticks.
        assert_eq!(snap.span("inner").unwrap().ticks.mean(), 3.0);
        assert_eq!(snap.span("outer").unwrap().children.get("inner"), Some(&1));
    }

    #[test]
    fn missed_exit_does_not_wedge_the_stack() {
        let mut obs = Obs::new();
        let outer = obs.span("outer");
        let inner = obs.span("inner");
        let t_outer = obs.enter(outer);
        let _leaked = obs.enter(inner); // never exited
        obs.exit(t_outer);
        let count = |obs: &Obs, name| obs.snapshot().span(name).unwrap().count;
        assert_eq!(count(&obs, "outer"), 1);
        assert_eq!(count(&obs, "inner"), 0);
        // The stack is clean: a fresh span works.
        let t = obs.enter(outer);
        obs.exit(t);
        assert_eq!(count(&obs, "outer"), 2);
    }

    #[test]
    fn event_ring_is_bounded_and_counts_drops() {
        let mut obs = Obs::new();
        let total = EVENT_CAPACITY as u64 + 6;
        for i in 0..total {
            obs.event(Level::Info, "tick", &format!("e{i}"));
        }
        let snap = obs.snapshot();
        assert_eq!(snap.events().len(), EVENT_CAPACITY);
        assert!(snap.to_json_string().contains("\"events_dropped\": 6,"));
        // The survivors are the newest, in order.
        let seqs: Vec<u64> = snap.events().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (6..total).collect::<Vec<u64>>());
    }

    #[test]
    fn muted_obs_records_nothing() {
        let mut obs = Obs::new();
        obs.set_enabled(false);
        let c = obs.counter("c");
        let h = obs.hist("h", 0.0, 1.0, 4);
        let s = obs.span("s");
        obs.inc(c);
        obs.record(h, 0.5);
        let t = obs.enter(s);
        obs.exit(t);
        obs.event(Level::Error, "x", "y");
        assert_eq!(obs.value(c), 0);
        assert_eq!(obs.tick, 0);
        let snap = obs.snapshot();
        assert_eq!(snap.counter("c").unwrap(), 0);
        assert!(snap.events().is_empty());
    }

    #[test]
    fn advance_charges_work_to_open_spans() {
        let mut obs = Obs::new();
        let s = obs.span("batch");
        let t = obs.enter(s);
        obs.advance(100);
        obs.exit(t);
        assert_eq!(obs.snapshot().span("batch").unwrap().ticks.mean(), 101.0);
    }

    #[test]
    fn foreign_handles_are_harmless() {
        let mut a = Obs::new();
        let mut b = Obs::new();
        let c_b = b.counter("only-in-b");
        let g_b = b.gauge("g");
        a.inc(c_b); // index out of range in `a`
        a.set(g_b, 1.0);
        assert_eq!(a.value(c_b), 0);
        assert_eq!(
            a.snapshot().gauge("g"),
            Err(ObsError::UnknownGauge("g".into()))
        );
    }
}
