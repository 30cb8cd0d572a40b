//! Snapshot export: sorted maps, loud unknown-key reads, merging across
//! components and a byte-stable JSON form.
//!
//! Determinism contract: for a fixed sequence of [`crate::Obs`] operations,
//! [`ObsSnapshot::to_json_string`] (and therefore
//! [`ObsReport::to_json_string`]) is byte-identical across runs and
//! platforms. Everything is held in `BTreeMap`s (lexicographic key order),
//! events are exported in sequence order, and floats are formatted with
//! Rust's shortest-roundtrip `Display`, which is a pure function of the bit
//! pattern. No wall-clock anywhere.

use std::collections::BTreeMap;
use std::fmt;

use swamp_sim::stats::{Histogram, OnlineStats};

use crate::Level;

/// Error for snapshot reads of names that were never registered.
///
/// A typo'd key must not read as 0 and let an experiment assertion pass
/// vacuously.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ObsError {
    /// No counter with this name was ever registered.
    UnknownCounter(String),
    /// No gauge with this name was ever registered.
    UnknownGauge(String),
    /// No histogram with this name was ever registered.
    UnknownSummary(String),
    /// No span with this name was ever registered.
    UnknownSpan(String),
}

impl fmt::Display for ObsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObsError::UnknownCounter(n) => write!(f, "unknown counter `{n}` (never registered)"),
            ObsError::UnknownGauge(n) => write!(f, "unknown gauge `{n}` (never registered)"),
            ObsError::UnknownSummary(n) => {
                write!(f, "unknown histogram `{n}` (never registered)")
            }
            ObsError::UnknownSpan(n) => write!(f, "unknown span `{n}` (never registered)"),
        }
    }
}

impl std::error::Error for ObsError {}

/// Exported view of one histogram: exact running moments plus quantile
/// estimates from the fixed buckets (`None` while empty).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistSnapshot {
    /// Exact count/mean/min/max/variance (mergeable).
    pub stats: OnlineStats,
    /// Estimated median (bucket-interpolated).
    pub p50: Option<f64>,
    /// Estimated 95th percentile.
    pub p95: Option<f64>,
    /// Estimated 99th percentile.
    pub p99: Option<f64>,
    /// Samples below the bucket range (clamped into the first bucket).
    pub underflow: u64,
    /// Samples at or above the bucket range (clamped into the last bucket).
    pub overflow: u64,
}

impl HistSnapshot {
    pub(crate) fn from_cell(hist: &Histogram, stats: &OnlineStats) -> HistSnapshot {
        HistSnapshot {
            stats: *stats,
            p50: hist.quantile(0.5),
            p95: hist.quantile(0.95),
            p99: hist.quantile(0.99),
            underflow: hist.underflow(),
            overflow: hist.overflow(),
        }
    }

    /// Merges another histogram snapshot: exact moments merge exactly;
    /// quantiles cannot be merged without the buckets, so they become
    /// `None` whenever both sides carry samples.
    pub fn merge(&mut self, other: &HistSnapshot) {
        if other.stats.count() == 0 {
            return;
        }
        if self.stats.count() == 0 {
            *self = other.clone();
            return;
        }
        self.stats.merge(&other.stats);
        self.p50 = None;
        self.p95 = None;
        self.p99 = None;
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }
}

/// Exported view of one span: how often it closed, its tick-duration
/// distribution and which child spans it directly enclosed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanSnapshot {
    /// Completed (entered and exited) scopes.
    pub count: u64,
    /// Duration distribution in ticks (exact moments).
    pub ticks: OnlineStats,
    /// Estimated median duration in ticks.
    pub p50: Option<f64>,
    /// Estimated 95th-percentile duration in ticks.
    pub p95: Option<f64>,
    /// Estimated 99th-percentile duration in ticks.
    pub p99: Option<f64>,
    /// child span name → times entered directly under this span.
    pub children: BTreeMap<String, u64>,
}

/// One exported event from the bounded ring.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Global sequence number (gaps reveal ring overwrites).
    pub seq: u64,
    /// Tick at which the event was logged.
    pub tick: u64,
    /// Severity.
    pub level: Level,
    /// Stable machine-readable code, e.g. `"sync.mode"`.
    pub code: String,
    /// Human-readable detail.
    pub detail: String,
}

/// A point-in-time export of an [`Obs`](crate::Obs) registry (or a merge of
/// several). All maps are sorted; see the module docs for the determinism
/// contract.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ObsSnapshot {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, Option<f64>>,
    summaries: BTreeMap<String, HistSnapshot>,
    spans: BTreeMap<String, SpanSnapshot>,
    events: Vec<EventRecord>,
    events_dropped: u64,
    ticks: u64,
}

impl ObsSnapshot {
    // ---- assembly (used by Obs::snapshot and component merge code) -----

    /// Inserts (or adds to) a counter entry.
    pub fn put_counter(&mut self, name: &str, value: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += value;
    }

    /// Inserts a registered-but-possibly-unset gauge entry.
    pub(crate) fn put_gauge_opt(&mut self, name: &str, value: Option<f64>) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Inserts (or merges into) a histogram entry.
    pub fn put_summary(&mut self, name: &str, snap: HistSnapshot) {
        match self.summaries.get_mut(name) {
            Some(existing) => existing.merge(&snap),
            None => {
                self.summaries.insert(name.to_owned(), snap);
            }
        }
    }

    pub(crate) fn put_span(&mut self, name: &str, snap: SpanSnapshot) {
        self.spans.insert(name.to_owned(), snap);
    }

    pub(crate) fn push_event(&mut self, ev: EventRecord) {
        self.events.push(ev);
    }

    pub(crate) fn add_events_dropped(&mut self, n: u64) {
        self.events_dropped += n;
    }

    pub(crate) fn add_ticks(&mut self, n: u64) {
        self.ticks += n;
    }

    /// Merges another snapshot into this one: counters add, gauges take the
    /// other's value, histograms merge, spans take the other's entry on
    /// collision, events concatenate with a source-order-stable sort by
    /// `(tick, seq)`.
    ///
    /// Component metric names are prefixed (`net.`, `sync.`, `cloud.`…) so
    /// collisions only occur when merging snapshots of the *same*
    /// component, where additive counters are the right semantics.
    pub fn merge(&mut self, other: &ObsSnapshot) {
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            self.gauges.insert(name.clone(), *value);
        }
        for (name, snap) in &other.summaries {
            self.put_summary(name, snap.clone());
        }
        for (name, snap) in &other.spans {
            self.spans.insert(name.clone(), snap.clone());
        }
        self.events.extend(other.events.iter().cloned());
        self.events.sort_by_key(|e| (e.tick, e.seq));
        self.events_dropped += other.events_dropped;
        self.ticks += other.ticks;
    }

    // ---- reads ---------------------------------------------------------

    /// Reads a counter. An unregistered name is an [`Err`], not a silent 0.
    pub fn counter(&self, name: &str) -> Result<u64, ObsError> {
        self.counters
            .get(name)
            .copied()
            .ok_or_else(|| ObsError::UnknownCounter(name.to_owned()))
    }

    /// Reads a gauge (`Ok(None)` if registered but never set).
    pub fn gauge(&self, name: &str) -> Result<Option<f64>, ObsError> {
        self.gauges
            .get(name)
            .copied()
            .ok_or_else(|| ObsError::UnknownGauge(name.to_owned()))
    }

    /// Reads a histogram summary.
    pub fn summary(&self, name: &str) -> Result<&HistSnapshot, ObsError> {
        self.summaries
            .get(name)
            .ok_or_else(|| ObsError::UnknownSummary(name.to_owned()))
    }

    /// Reads a span summary.
    pub fn span(&self, name: &str) -> Result<&SpanSnapshot, ObsError> {
        self.spans
            .get(name)
            .ok_or_else(|| ObsError::UnknownSpan(name.to_owned()))
    }

    /// Exported events, oldest first.
    pub fn events(&self) -> &[EventRecord] {
        &self.events
    }

    /// Iterates counters in lexicographic order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    // ---- JSON export ---------------------------------------------------

    /// Renders the snapshot as pretty-printed JSON with a byte-stable
    /// layout: object keys sorted, events in order, floats via shortest
    /// roundtrip formatting, non-finite floats as `null`.
    pub fn to_json_string(&self) -> String {
        let mut w = JsonWriter::new();
        w.open('{');
        w.key("counters");
        w.open('{');
        for (name, value) in &self.counters {
            w.key(name);
            w.raw(&value.to_string());
        }
        w.close('}');
        w.key("events");
        w.open('[');
        for ev in &self.events {
            w.item();
            w.open('{');
            w.key("code");
            w.string(&ev.code);
            w.key("detail");
            w.string(&ev.detail);
            w.key("level");
            w.string(ev.level.as_str());
            w.key("seq");
            w.raw(&ev.seq.to_string());
            w.key("tick");
            w.raw(&ev.tick.to_string());
            w.close('}');
        }
        w.close(']');
        w.key("events_dropped");
        w.raw(&self.events_dropped.to_string());
        w.key("gauges");
        w.open('{');
        for (name, value) in &self.gauges {
            w.key(name);
            match value {
                Some(v) => w.float(*v),
                None => w.raw("null"),
            }
        }
        w.close('}');
        w.key("spans");
        w.open('{');
        for (name, s) in &self.spans {
            w.key(name);
            w.open('{');
            w.key("children");
            w.open('{');
            for (child, count) in &s.children {
                w.key(child);
                w.raw(&count.to_string());
            }
            w.close('}');
            w.key("count");
            w.raw(&s.count.to_string());
            w.key("max_ticks");
            w.float_or_null(s.ticks.count() > 0, s.ticks.max());
            w.key("mean_ticks");
            w.float(s.ticks.mean());
            w.key("p50");
            w.opt_float(s.p50);
            w.key("p95");
            w.opt_float(s.p95);
            w.key("p99");
            w.opt_float(s.p99);
            w.close('}');
        }
        w.close('}');
        w.key("summaries");
        w.open('{');
        for (name, s) in &self.summaries {
            w.key(name);
            w.open('{');
            w.key("count");
            w.raw(&s.stats.count().to_string());
            w.key("max");
            w.float_or_null(s.stats.count() > 0, s.stats.max());
            w.key("mean");
            w.float(s.stats.mean());
            w.key("min");
            w.float_or_null(s.stats.count() > 0, s.stats.min());
            w.key("overflow");
            w.raw(&s.overflow.to_string());
            w.key("p50");
            w.opt_float(s.p50);
            w.key("p95");
            w.opt_float(s.p95);
            w.key("p99");
            w.opt_float(s.p99);
            w.key("sd");
            w.float(s.stats.sample_std_dev());
            w.key("underflow");
            w.raw(&s.underflow.to_string());
            w.close('}');
        }
        w.close('}');
        w.key("ticks");
        w.raw(&self.ticks.to_string());
        w.close('}');
        w.finish()
    }
}

/// A labelled snapshot: one experiment cell's exported observability.
#[derive(Clone, Debug, PartialEq)]
pub struct ObsReport {
    /// What produced the snapshot, e.g. `"e13/FarmFog/loss10"`.
    pub label: String,
    /// Seed of the run (reports from the same seed must be byte-identical).
    pub seed: u64,
    /// The merged snapshot.
    pub snapshot: ObsSnapshot,
}

impl ObsReport {
    /// Creates a report.
    pub fn new(label: &str, seed: u64, snapshot: ObsSnapshot) -> ObsReport {
        ObsReport {
            label: label.to_owned(),
            seed,
            snapshot,
        }
    }

    /// Byte-stable pretty JSON: `{"label": …, "seed": …, "snapshot": {…}}`.
    pub fn to_json_string(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n  \"label\": ");
        let mut esc = String::new();
        escape_into(&self.label, &mut esc);
        out.push_str(&esc);
        out.push_str(",\n  \"seed\": ");
        out.push_str(&self.seed.to_string());
        out.push_str(",\n  \"snapshot\": ");
        // Indent the nested snapshot body by one level.
        let body = self.snapshot.to_json_string();
        for (i, line) in body.lines().enumerate() {
            if i > 0 {
                out.push_str("\n  ");
            }
            out.push_str(line);
        }
        out.push_str("\n}");
        out
    }

    /// Byte-stable JSON array over several reports (e.g. one per
    /// experiment cell), newline-terminated for clean file export.
    pub fn array_to_json_string(reports: &[ObsReport]) -> String {
        let mut out = String::from("[\n");
        for (i, r) in reports.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&r.to_json_string());
        }
        out.push_str("\n]\n");
        out
    }
}

/// Minimal pretty-printing JSON writer. Local to this crate (the
/// observability substrate stays zero-dependency below `swamp-sim`); the
/// richer `swamp-codec` JSON tree is not needed for write-only export.
struct JsonWriter {
    out: String,
    indent: usize,
    /// Whether the current container already has a member (comma control).
    has_member: Vec<bool>,
}

impl JsonWriter {
    fn new() -> JsonWriter {
        JsonWriter {
            out: String::new(),
            indent: 0,
            has_member: Vec::new(),
        }
    }

    fn newline_for_member(&mut self) {
        if let Some(has) = self.has_member.last_mut() {
            if *has {
                self.out.push(',');
            }
            *has = true;
        }
        self.out.push('\n');
        for _ in 0..self.indent {
            self.out.push_str("  ");
        }
    }

    fn open(&mut self, bracket: char) {
        self.out.push(bracket);
        self.indent += 1;
        self.has_member.push(false);
    }

    fn close(&mut self, bracket: char) {
        let had = self.has_member.pop().unwrap_or(false);
        self.indent -= 1;
        if had {
            self.out.push('\n');
            for _ in 0..self.indent {
                self.out.push_str("  ");
            }
        }
        self.out.push(bracket);
    }

    fn key(&mut self, name: &str) {
        self.newline_for_member();
        escape_into(name, &mut self.out);
        self.out.push_str(": ");
        // The value that follows must not re-trigger comma handling.
        if let Some(has) = self.has_member.last_mut() {
            *has = true;
        }
    }

    /// Starts an array element (arrays have no keys).
    fn item(&mut self) {
        self.newline_for_member();
    }

    fn raw(&mut self, text: &str) {
        self.out.push_str(text);
    }

    fn string(&mut self, s: &str) {
        escape_into(s, &mut self.out);
    }

    fn float(&mut self, v: f64) {
        if v.is_finite() {
            // Shortest-roundtrip Display: deterministic per bit pattern.
            let s = v.to_string();
            self.out.push_str(&s);
        } else {
            self.out.push_str("null");
        }
    }

    fn opt_float(&mut self, v: Option<f64>) {
        match v {
            Some(x) => self.float(x),
            None => self.raw("null"),
        }
    }

    fn float_or_null(&mut self, present: bool, v: f64) {
        if present {
            self.float(v);
        } else {
            self.raw("null");
        }
    }

    fn finish(self) -> String {
        self.out
    }
}

/// JSON string escaping (quotes included).
fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Level, Obs};

    fn sample_obs() -> Obs {
        let mut obs = Obs::new();
        let c = obs.counter("net.sent");
        let g = obs.gauge("sync.pending");
        let h = obs.hist("net.latency_ms", 0.0, 100.0, 10);
        let s = obs.span("platform.pump");
        obs.inc(c);
        obs.add(c, 4);
        obs.set(g, 2.0);
        obs.record(h, 12.5);
        obs.record(h, 37.5);
        let t = obs.enter(s);
        obs.inc(c);
        obs.exit(t);
        obs.event(Level::Warn, "sync.mode", "Connected -> Degraded");
        obs
    }

    /// A typo'd key must be an error, while a registered-but-zero key
    /// reads Ok(0).
    #[test]
    fn unknown_key_reads_are_errors_not_zero() {
        let mut obs = Obs::new();
        let _ = obs.counter("ingest.accepted");
        let snap = obs.snapshot();
        assert_eq!(snap.counter("ingest.accepted"), Ok(0));
        assert_eq!(
            snap.counter("ingest.acepted"),
            Err(ObsError::UnknownCounter("ingest.acepted".to_owned()))
        );
        assert!(snap.gauge("nope").is_err());
        assert!(snap.summary("nope").is_err());
        assert!(snap.span("nope").is_err());
    }

    #[test]
    fn snapshot_reads_match_recorded_values() {
        let snap = sample_obs().snapshot();
        assert_eq!(snap.counter("net.sent").unwrap(), 6);
        assert_eq!(snap.gauge("sync.pending").unwrap(), Some(2.0));
        let lat = snap.summary("net.latency_ms").unwrap();
        assert_eq!(lat.stats.count(), 2);
        assert_eq!(lat.stats.mean(), 25.0);
        let pump = snap.span("platform.pump").unwrap();
        assert_eq!(pump.count, 1);
        assert_eq!(snap.events().len(), 1);
        assert_eq!(snap.events()[0].code, "sync.mode");
    }

    #[test]
    fn merge_adds_counters_and_merges_summaries() {
        let a = sample_obs().snapshot();
        let b = sample_obs().snapshot();
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.counter("net.sent").unwrap(), 12);
        let lat = merged.summary("net.latency_ms").unwrap();
        assert_eq!(lat.stats.count(), 4);
        assert_eq!(lat.stats.mean(), 25.0);
        assert_eq!(lat.p50, None, "bucket-free merge cannot keep quantiles");
        assert_eq!(merged.events().len(), 2);
        assert_eq!(merged.ticks, a.ticks * 2);
    }

    #[test]
    fn json_is_byte_identical_for_identical_op_sequences() {
        let a = sample_obs().snapshot().to_json_string();
        let b = sample_obs().snapshot().to_json_string();
        assert_eq!(a, b);
        assert!(a.contains("\"net.sent\": 6"), "{a}");
    }

    #[test]
    fn json_shape_is_sorted_and_escaped() {
        let mut obs = Obs::new();
        let _ = obs.counter("z.last");
        let _ = obs.counter("a.first");
        obs.event(Level::Info, "quote", "say \"hi\"\n");
        let json = obs.snapshot().to_json_string();
        let a_pos = json.find("a.first").expect("a.first exported");
        let z_pos = json.find("z.last").expect("z.last exported");
        assert!(a_pos < z_pos, "keys must sort");
        assert!(json.contains("say \\\"hi\\\"\\n"), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn empty_summary_exports_nulls_not_infinities() {
        let mut obs = Obs::new();
        let _ = obs.hist("quiet", 0.0, 1.0, 4);
        let json = obs.snapshot().to_json_string();
        assert!(!json.contains("inf"), "{json}");
        assert!(json.contains("\"min\": null"), "{json}");
    }

    #[test]
    fn report_wraps_label_and_seed() {
        let report = ObsReport::new("e13/FarmFog", 42, sample_obs().snapshot());
        let json = report.to_json_string();
        assert!(json.contains("\"label\": \"e13/FarmFog\""));
        assert!(json.contains("\"seed\": 42"));
        let again = ObsReport::new("e13/FarmFog", 42, sample_obs().snapshot());
        assert_eq!(json, again.to_json_string());
    }
}
