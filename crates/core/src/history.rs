//! Historical time-series store (FIWARE STH-Comet analogue).
//!
//! Appends `(time, value)` samples per (entity, attribute) and answers
//! range queries and window aggregates — what the irrigation scheduler and
//! the anomaly baselines read.
//!
//! # Hot-path design
//!
//! Every accepted telemetry frame appends one sample per numeric
//! attribute, so `append` is on the sensor→cloud critical path. Series
//! keys are *interned*: a two-level `entity → attr → u32` map resolves
//! borrowed `&str` keys to a dense [`SeriesId`] without allocating, and
//! steady-state appends (series already known, in-order timestamp) land in
//! the series' mutable tail with nothing beyond amortized vector growth.
//!
//! # Columnar segments
//!
//! Each series is stored as a run of immutable **frozen segments** plus a
//! mutable, time-sorted **tail** (PR 9). Freezing encodes the tail
//! columnar: timestamps as zigzag-varint *delta-of-delta* bytes (regular
//! cadences collapse to one byte per sample), values as a plain `f64`
//! column, plus a per-segment summary — `first_at`/`last_at`, count,
//! min/max and the last value — so range scans and aggregates *prune*
//! whole segments by comparing the query window against the summary,
//! never touching the encoded bytes. Compaction is observationally free:
//! decoding a segment reproduces the exact samples that were frozen, so
//! `dump_sorted`, `range`, `aggregate` and `downsample` return
//! byte-identical results at every compaction cadence (the differential
//! suite in `crates/pilots/tests/compaction_differential.rs` proves it,
//! out-of-order appends and mid-segment pruning included).
//!
//! Freezing happens on demand ([`HistoryStore::compact`]) or automatically
//! every [`HistoryStore::set_segment_threshold`] tail samples; the default
//! is *never*, which preserves the flat pre-segment behavior bit-for-bit.
//! An out-of-order append that lands behind the frozen watermark thaws the
//! overlapped suffix of segments back into the tail first (rare by
//! construction: the watermark only covers explicitly compacted data).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

use swamp_sim::{SimDuration, SimTime};

/// Dense identifier of one (entity, attribute) series, assigned by the
/// interner on first append and stable for the store's lifetime.
pub type SeriesId = u32;

/// One stored sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    /// Observation time.
    pub at: SimTime,
    /// Observed value.
    pub value: f64,
}

/// Aggregates over a query window, folded over its values in time order
/// on every storage layout — so flat, segmented and compacted stores
/// answer bit-identically.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowAggregate {
    /// Samples in the window.
    pub count: u64,
    /// Mean value: the in-order sum divided by `count`. Where that sum is
    /// not finite (NaN, ±∞, overflow) or a value's magnitude exceeds
    /// `f64::MAX / 4`, it is the running mean `m += (v - m) / n` over the
    /// same values instead, which keeps the answers of those windows
    /// (NaN, ±∞, a mean of `f64::MAX`) stable.
    pub mean: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Last value in the window.
    pub last: f64,
}

/// Segment-pruning counters accumulated across queries since the last
/// [`HistoryStore::take_scan_stats`] — the evidence the `query.*`
/// instruments export (E15 measures pruned vs decoded segments).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Frozen segments skipped via their summary without decoding.
    pub segments_pruned: u64,
    /// Frozen segments *answered* from their summary without decoding
    /// (wholly inside an [`HistoryStore::extremes`] window).
    pub segments_summarized: u64,
    /// Frozen segments decoded because they overlap a query window.
    pub segments_decoded: u64,
}

/// Count/min/max over a query window — the summary-composable subset of
/// [`WindowAggregate`]. Unlike a mean (whose sequential float fold is
/// order- *and grouping*-sensitive), `min`/`max` **select** stored values
/// — they never round — and `count` is an integer sum, so folding
/// per-segment summaries yields bit-identical results to folding every
/// sample. That exactness is what lets [`HistoryStore::extremes`] answer
/// from summaries while staying observationally identical to the flat
/// layout.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Extremes {
    /// Samples in the window.
    pub count: u64,
    /// Minimum value in the window.
    pub min: f64,
    /// Maximum value in the window.
    pub max: f64,
}

impl Extremes {
    const EMPTY: Extremes = Extremes {
        count: 0,
        min: 0.0,
        max: 0.0,
    };

    /// Folds one sample in. The strict comparisons keep the *first*
    /// extreme of the fold order — the same rule [`Segment::freeze`]
    /// uses for its summary, so sample-wise and summary-wise folds agree
    /// bitwise (including `-0.0` ties and NaN propagation).
    fn push(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            if value < self.min {
                self.min = value;
            }
            if value > self.max {
                self.max = value;
            }
        }
        self.count += 1;
    }

    /// Folds a whole frozen segment in via its summary — no decode.
    fn push_summary(&mut self, seg: &Segment) {
        if self.count == 0 {
            self.min = seg.min;
            self.max = seg.max;
        } else {
            if seg.min < self.min {
                self.min = seg.min;
            }
            if seg.max > self.max {
                self.max = seg.max;
            }
        }
        self.count += seg.count() as u64;
    }
}

/// The in-order fold behind [`WindowAggregate`]: count, sum, min, max and
/// last value. Count, min and max fold as `swamp_sim::stats::OnlineStats`
/// folds them (`f64::min`/`f64::max` seeded with ±∞); the mean is
/// `sum / count`, one division per window.
struct Fold {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
}

impl Fold {
    const EMPTY: Fold = Fold {
        count: 0,
        sum: 0.0,
        min: f64::INFINITY,
        max: f64::NEG_INFINITY,
        last: 0.0,
    };

    /// Values at most this large in magnitude cannot overflow the running
    /// mean's `v - mean` term, so there `sum / count` and the running mean
    /// differ only by rounding.
    const SUM_SAFE: f64 = f64::MAX / 4.0;

    fn push(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
    }

    /// Folds a segment's value column in, in time order — no timestamp
    /// decode.
    fn push_column(&mut self, values: &[f64]) {
        let Some(&last) = values.last() else {
            return;
        };
        for &v in values {
            self.sum += v;
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += values.len() as u64;
        self.last = last;
    }

    /// The window's aggregate; `None` if nothing was folded. When the sum
    /// is not finite (NaN, ±∞ or an overflow) or a value is large enough
    /// for the running mean to overflow, the mean is `running_mean()`, the
    /// per-sample running mean over the same values.
    fn finish(&self, running_mean: impl FnOnce() -> f64) -> Option<WindowAggregate> {
        if self.count == 0 {
            return None;
        }
        let summable =
            self.sum.is_finite() && self.min >= -Self::SUM_SAFE && self.max <= Self::SUM_SAFE;
        Some(WindowAggregate {
            count: self.count,
            mean: if summable {
                self.sum / self.count as f64
            } else {
                running_mean()
            },
            min: self.min,
            max: self.max,
            last: self.last,
        })
    }
}

// --- zigzag-varint codec for delta-of-delta timestamps -------------------

fn zigzag(v: i64) -> u64 {
    (v.wrapping_shl(1) ^ (v >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v as u8) | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Reads one LEB128 value at `pos`; returns `(value, next_pos)`. The
/// buffer is produced by [`push_varint`] only, so it is always well formed;
/// a truncated read (impossible by construction) yields the bits present.
fn read_varint(buf: &[u8], mut pos: usize) -> (u64, usize) {
    let mut out: u64 = 0;
    let mut shift = 0u32;
    while let Some(&b) = buf.get(pos) {
        pos += 1;
        out |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            break;
        }
        shift += 7;
    }
    (out, pos)
}

// --- segments ------------------------------------------------------------

/// One immutable columnar segment: summary + encoded timestamp column +
/// value column. Decoding ([`Segment::iter`]) reproduces the frozen
/// samples exactly.
#[derive(Clone, Debug)]
struct Segment {
    /// Time of the first sample (also the timestamp column's base).
    first_at: SimTime,
    /// Time of the last sample — the segment's frozen watermark.
    last_at: SimTime,
    /// Minimum value in the segment.
    min: f64,
    /// Maximum value in the segment.
    max: f64,
    /// Last value in the segment.
    last: f64,
    /// Zigzag-varint delta-of-delta encoded timestamps of samples `1..`.
    times: Vec<u8>,
    /// The value column, one `f64` per sample.
    values: Vec<f64>,
}

impl Segment {
    /// Freezes a non-empty, time-sorted slice into a segment.
    fn freeze(samples: &[Sample]) -> Segment {
        debug_assert!(!samples.is_empty(), "freeze of an empty run");
        debug_assert!(samples.windows(2).all(|w| w[0].at <= w[1].at));
        let first = samples[0];
        let last = samples[samples.len() - 1];
        // First-extreme-wins strict comparisons, seeded from the first
        // sample: the same fold [`Extremes::push`] applies sample-wise,
        // which makes summary folds bit-identical to decoded folds.
        let mut min = first.value;
        let mut max = first.value;
        let mut times = Vec::with_capacity(samples.len().saturating_sub(1));
        let mut values = Vec::with_capacity(samples.len());
        let mut prev_at = first.at.as_millis();
        let mut prev_delta: i64 = 0;
        for (i, s) in samples.iter().enumerate() {
            if s.value < min {
                min = s.value;
            }
            if s.value > max {
                max = s.value;
            }
            values.push(s.value);
            if i > 0 {
                // Sorted input: the delta is non-negative and — simulated
                // horizons being decades at most — far inside i64.
                let delta = (s.at.as_millis() - prev_at) as i64;
                push_varint(&mut times, zigzag(delta - prev_delta));
                prev_delta = delta;
                prev_at = s.at.as_millis();
            }
        }
        Segment {
            first_at: first.at,
            last_at: last.at,
            min,
            max,
            last: last.value,
            times,
            values,
        }
    }

    /// Samples in this segment.
    fn count(&self) -> usize {
        self.values.len()
    }

    /// Decodes the segment back into its exact samples, in time order.
    fn iter(&self) -> SegmentIter<'_> {
        SegmentIter {
            values: self.values.iter(),
            times: &self.times,
            pos: 0,
            at_ms: self.first_at.as_millis(),
            delta: 0,
            started: false,
        }
    }
}

/// Decoding iterator over one segment; see [`Segment::iter`].
struct SegmentIter<'a> {
    values: std::slice::Iter<'a, f64>,
    times: &'a [u8],
    pos: usize,
    at_ms: u64,
    delta: i64,
    started: bool,
}

impl Iterator for SegmentIter<'_> {
    type Item = Sample;

    fn next(&mut self) -> Option<Sample> {
        let value = *self.values.next()?;
        if self.started {
            let (z, next) = read_varint(self.times, self.pos);
            self.pos = next;
            self.delta += unzigzag(z);
            // Deltas of a sorted run are non-negative.
            self.at_ms = self.at_ms.wrapping_add(self.delta as u64);
        }
        self.started = true;
        Some(Sample {
            at: SimTime::from_millis(self.at_ms),
            value,
        })
    }
}

/// What [`Series::walk_window`] hands its visitor.
enum Piece<'a> {
    /// A frozen segment wholly inside the window, not decoded.
    Whole(&'a Segment),
    /// One in-window sample of an edge segment or of the tail.
    Sample(Sample),
}

/// Segment counts of one [`Series::walk_window`] call.
struct Walk {
    /// Segments skipped via their summary.
    pruned: u64,
    /// Segments wholly inside the window, handed over undecoded.
    whole: u64,
    /// Segments straddling a window edge, decoded and filtered.
    edge: u64,
}

/// One series: frozen segments (ascending in time, touching at most at
/// boundary timestamps) plus the mutable sorted tail.
#[derive(Debug, Default)]
struct Series {
    segments: Vec<Segment>,
    tail: Vec<Sample>,
}

impl Series {
    /// The frozen watermark: the last frozen timestamp, if any segment
    /// exists. Appends strictly behind it must thaw.
    fn watermark(&self) -> Option<SimTime> {
        self.segments.last().map(|s| s.last_at)
    }

    /// Total samples (frozen + tail).
    fn len(&self) -> usize {
        self.segments.iter().map(Segment::count).sum::<usize>() + self.tail.len()
    }

    /// Freezes the tail into one new segment (no-op on an empty tail).
    /// Tail capacity is kept so steady-state appends stay allocation-free
    /// between freezes.
    fn freeze_tail(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        self.segments.push(Segment::freeze(&self.tail));
        self.tail.clear();
    }

    /// Inserts a sample that lands strictly behind the frozen watermark:
    /// thaws the overlapped suffix of segments back into the tail, then
    /// inserts at the binary-searched position (after any equal
    /// timestamps, matching the flat store's duplicate-time order).
    fn insert_behind_watermark(&mut self, at: SimTime, value: f64) {
        let keep = self.segments.partition_point(|s| s.last_at <= at);
        let mut thawed: Vec<Sample> = self.segments[keep..]
            .iter()
            .flat_map(Segment::iter)
            .collect();
        self.segments.truncate(keep);
        thawed.append(&mut self.tail);
        self.tail = thawed;
        let idx = self.tail.partition_point(|s| s.at <= at);
        self.tail.insert(idx, Sample { at, value });
    }

    /// Materializes the full series in time order.
    fn materialize(&self) -> Vec<Sample> {
        let mut out = Vec::with_capacity(self.len());
        for seg in &self.segments {
            out.extend(seg.iter());
        }
        out.extend_from_slice(&self.tail);
        out
    }

    /// The window walker behind every windowed read: visits `[from, to)`
    /// in time order, pruning frozen segments via their summaries. A
    /// segment wholly inside the window is handed over undecoded
    /// ([`Piece::Whole`]); edge segments and the tail are handed over
    /// sample by sample, filtered to the window.
    fn walk_window<'a>(
        &'a self,
        from: SimTime,
        to: SimTime,
        mut visit: impl FnMut(Piece<'a>),
    ) -> Walk {
        // Segments are time-ordered, so the overlap run is contiguous:
        // binary-search past everything ending before the window, stop at
        // the first segment starting at/after its end.
        let lo = self.segments.partition_point(|s| s.last_at < from);
        let mut hi = lo;
        let mut whole = 0u64;
        for seg in &self.segments[lo..] {
            if seg.first_at >= to {
                break;
            }
            hi += 1;
            if seg.first_at >= from && seg.last_at < to {
                whole += 1;
                visit(Piece::Whole(seg));
            } else {
                for s in seg.iter() {
                    if s.at >= from && s.at < to {
                        visit(Piece::Sample(s));
                    }
                }
            }
        }
        let t_lo = self.tail.partition_point(|s| s.at < from);
        let t_hi = self.tail.partition_point(|s| s.at < to);
        for s in &self.tail[t_lo..t_hi] {
            visit(Piece::Sample(*s));
        }
        Walk {
            pruned: (lo + (self.segments.len() - hi)) as u64,
            whole,
            edge: (hi - lo) as u64 - whole,
        }
    }

    /// The running mean over `[from, to)`, step for step the one
    /// `swamp_sim::stats::OnlineStats` computes — the mean
    /// [`Fold::finish`] falls back to when a plain sum is unsafe.
    fn running_mean(&self, from: SimTime, to: SimTime) -> f64 {
        let mut n = 0u64;
        let mut mean = 0.0;
        let mut step = |v: f64| {
            n += 1;
            mean += (v - mean) / n as f64;
        };
        self.walk_window(from, to, |piece| match piece {
            Piece::Whole(seg) => seg.values.iter().for_each(|&v| step(v)),
            Piece::Sample(s) => step(s.value),
        });
        mean
    }

    /// Drops samples older than `cutoff`; returns how many were removed.
    /// Whole segments drop in O(1) each; at most one segment straddles the
    /// cutoff (segment ranges touch only at boundary timestamps) and is
    /// decoded, trimmed and re-frozen.
    fn prune_before(&mut self, cutoff: SimTime) -> u64 {
        let drop = self.segments.partition_point(|s| s.last_at < cutoff);
        let mut removed: u64 = self.segments[..drop].iter().map(|s| s.count() as u64).sum();
        self.segments.drain(..drop);
        if let Some(seg) = self.segments.first() {
            if seg.first_at < cutoff {
                let kept: Vec<Sample> = seg.iter().filter(|s| s.at >= cutoff).collect();
                removed += seg.count() as u64 - kept.len() as u64;
                // `last_at >= cutoff`, so at least the last sample survives.
                self.segments[0] = Segment::freeze(&kept);
            }
        }
        let keep_from = self.tail.partition_point(|s| s.at < cutoff);
        removed += keep_from as u64;
        self.tail.drain(..keep_from);
        removed
    }
}

/// [`HistoryStore::downsample`]'s state: the bucket being folded and the
/// buckets already done.
struct Buckets<'a> {
    series: &'a Series,
    from: SimTime,
    to: SimTime,
    bucket: SimDuration,
    /// The current bucket, `[start, end)`.
    start: SimTime,
    end: SimTime,
    acc: Fold,
    out: Vec<(SimTime, WindowAggregate)>,
}

impl<'a> Buckets<'a> {
    fn new(series: &'a Series, from: SimTime, to: SimTime, bucket: SimDuration) -> Self {
        Buckets {
            series,
            from,
            to,
            bucket,
            start: from,
            end: from.saturating_add(bucket).min(to),
            acc: Fold::EMPTY,
            out: Vec::new(),
        }
    }

    /// Makes the bucket holding `at` (in `[start, to)`) current, flushing
    /// the one before. It jumps straight there, so the empty buckets in
    /// between cost nothing.
    fn seek(&mut self, at: SimTime) {
        if at < self.end {
            return;
        }
        self.flush();
        let offset = at.as_millis() - self.from.as_millis();
        let width = self.bucket.as_millis();
        self.start = SimTime::from_millis(self.from.as_millis() + offset - offset % width);
        self.end = self.start.saturating_add(self.bucket).min(self.to);
    }

    fn push(&mut self, s: Sample) {
        self.seek(s.at);
        self.acc.push(s.value);
    }

    fn flush(&mut self) {
        let (series, start, end) = (self.series, self.start, self.end);
        if let Some(agg) = self.acc.finish(|| series.running_mean(start, end)) {
            self.out.push((start, agg));
        }
        self.acc = Fold::EMPTY;
    }

    fn finish(mut self) -> Vec<(SimTime, WindowAggregate)> {
        self.flush();
        self.out
    }
}

/// The time-series store.
///
/// # Example
/// ```
/// use swamp_core::history::HistoryStore;
/// use swamp_sim::SimTime;
/// let mut h = HistoryStore::new();
/// h.append("urn:p1", "moisture_vwc", SimTime::from_hours(1), 0.24);
/// h.append("urn:p1", "moisture_vwc", SimTime::from_hours(2), 0.22);
/// h.compact(); // freeze into a columnar segment — queries are unchanged
/// let agg = h.aggregate("urn:p1", "moisture_vwc",
///                       SimTime::ZERO, SimTime::from_hours(3)).unwrap();
/// assert_eq!(agg.count, 2);
/// ```
#[derive(Debug, Default)]
pub struct HistoryStore {
    /// Interner: entity → attribute → series id. Two-level so lookups use
    /// borrowed `&str` keys (no tuple-of-`String` allocation per call).
    index: HashMap<String, HashMap<String, SeriesId>>,
    /// Series storage, indexed by [`SeriesId`].
    series: Vec<Series>,
    total_samples: u64,
    /// Auto-freeze the tail at this many samples; `None` never freezes
    /// (the flat pre-segment behavior).
    segment_threshold: Option<usize>,
    /// Query-side pruning evidence; atomics so read paths stay `&self`
    /// (the store is `Sync` — pinned by the shard pool's Send/Sync audit).
    pruned: AtomicU64,
    summarized: AtomicU64,
    decoded: AtomicU64,
}

impl HistoryStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        HistoryStore::default()
    }

    /// Total samples stored.
    pub fn len(&self) -> u64 {
        self.total_samples
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.total_samples == 0
    }

    /// Total frozen segments across all series.
    pub fn segment_count(&self) -> usize {
        self.series.iter().map(|s| s.segments.len()).sum()
    }

    /// Sets the auto-freeze cadence: a series' tail is frozen into a
    /// segment whenever it reaches `threshold` samples. `None` (the
    /// default) never auto-freezes; [`HistoryStore::compact`] still works.
    pub fn set_segment_threshold(&mut self, threshold: Option<usize>) {
        // A zero threshold would freeze empty runs; clamp to 1.
        self.segment_threshold = threshold.map(|t| t.max(1));
    }

    /// The configured auto-freeze cadence.
    pub fn segment_threshold(&self) -> Option<usize> {
        self.segment_threshold
    }

    /// Freezes every series' tail into a columnar segment ("compact now").
    /// Queries before and after are byte-identical; only the storage
    /// layout changes. Returns the number of segments created.
    pub fn compact(&mut self) -> usize {
        let before = self.segment_count();
        for series in &mut self.series {
            series.freeze_tail();
        }
        self.segment_count() - before
    }

    /// Drains the accumulated segment-pruning counters (query-side
    /// evidence; the platform exports them as `query.segments_*`).
    pub fn take_scan_stats(&self) -> ScanStats {
        ScanStats {
            segments_pruned: self.pruned.swap(0, Ordering::Relaxed),
            segments_summarized: self.summarized.swap(0, Ordering::Relaxed),
            segments_decoded: self.decoded.swap(0, Ordering::Relaxed),
        }
    }

    fn note_scan(&self, pruned: u64, summarized: u64, decoded: u64) {
        self.pruned.fetch_add(pruned, Ordering::Relaxed);
        self.summarized.fetch_add(summarized, Ordering::Relaxed);
        self.decoded.fetch_add(decoded, Ordering::Relaxed);
    }

    /// The interned id of a series, if it has ever been appended to.
    /// Borrowed-key lookup: allocates nothing.
    pub fn series_id(&self, entity: &str, attr: &str) -> Option<SeriesId> {
        self.index.get(entity)?.get(attr).copied()
    }

    /// Interns (entity, attr), creating an empty series if new. Key strings
    /// are only allocated here, on first sight of a series.
    ///
    /// # Panics
    /// Panics past 2^32 distinct series (the 32-bit id space; a simulated
    /// deployment is orders of magnitude smaller).
    #[expect(clippy::expect_used, reason = "documented under # Panics")]
    pub fn intern(&mut self, entity: &str, attr: &str) -> SeriesId {
        if let Some(id) = self.series_id(entity, attr) {
            return id;
        }
        let id = SeriesId::try_from(self.series.len()).expect("fewer than 2^32 series");
        self.series.push(Series::default());
        self.index
            .entry(entity.to_owned())
            .or_default()
            .insert(attr.to_owned(), id);
        id
    }

    /// Appends a sample. Out-of-order appends are accepted and inserted at
    /// the binary-searched position, keeping the series sorted. Steady
    /// state (known series, in-order time) allocates nothing beyond
    /// amortized tail growth.
    pub fn append(&mut self, entity: &str, attr: &str, at: SimTime, value: f64) {
        let id = self.intern(entity, attr);
        self.append_to(id, at, value);
    }

    /// Appends to an already-interned series — the zero-lookup fast path
    /// for callers that cache [`SeriesId`]s.
    ///
    /// # Panics
    /// Panics if `id` was not returned by this store's interner.
    pub fn append_to(&mut self, id: SeriesId, at: SimTime, value: f64) {
        let series = &mut self.series[id as usize];
        match series.watermark() {
            // Strictly behind frozen data: thaw the overlapped suffix.
            // (An append *at* the watermark stays in the tail: duplicate
            // timestamps insert after their equals, same as the flat
            // store.)
            Some(w) if at < w => series.insert_behind_watermark(at, value),
            _ => match series.tail.last() {
                Some(last) if last.at > at => {
                    let idx = series.tail.partition_point(|s| s.at <= at);
                    series.tail.insert(idx, Sample { at, value });
                }
                _ => series.tail.push(Sample { at, value }),
            },
        }
        if let Some(t) = self.segment_threshold {
            if series.tail.len() >= t {
                series.freeze_tail();
            }
        }
        self.total_samples += 1;
    }

    fn series(&self, entity: &str, attr: &str) -> Option<&Series> {
        self.series_id(entity, attr)
            .map(|id| &self.series[id as usize])
    }

    /// Samples in `[from, to)` for one series (empty if unknown).
    pub fn range(&self, entity: &str, attr: &str, from: SimTime, to: SimTime) -> Vec<Sample> {
        let mut out = Vec::new();
        if let Some(series) = self.series(entity, attr) {
            let walk = series.walk_window(from, to, |piece| match piece {
                Piece::Whole(seg) => out.extend(seg.iter()),
                Piece::Sample(s) => out.push(s),
            });
            self.note_scan(walk.pruned, 0, walk.whole + walk.edge);
        }
        out
    }

    /// The most recent sample of a series — answered from the tail or the
    /// last segment's summary, never by decoding.
    pub fn last(&self, entity: &str, attr: &str) -> Option<Sample> {
        let series = self.series(entity, attr)?;
        series.tail.last().copied().or_else(|| {
            series.segments.last().map(|seg| Sample {
                at: seg.last_at,
                value: seg.last,
            })
        })
    }

    /// Window aggregate over `[from, to)`; `None` if no samples fall inside.
    ///
    /// One in-order fold over the window's values (exactness: see
    /// [`WindowAggregate`]). A segment wholly inside the window folds
    /// straight from its value column; its timestamps are not decoded.
    pub fn aggregate(
        &self,
        entity: &str,
        attr: &str,
        from: SimTime,
        to: SimTime,
    ) -> Option<WindowAggregate> {
        let series = self.series(entity, attr)?;
        let mut acc = Fold::EMPTY;
        let walk = series.walk_window(from, to, |piece| match piece {
            Piece::Whole(seg) => acc.push_column(&seg.values),
            Piece::Sample(s) => acc.push(s.value),
        });
        self.note_scan(walk.pruned, 0, walk.whole + walk.edge);
        acc.finish(|| series.running_mean(from, to))
    }

    /// Count/min/max over `[from, to)`; `None` if no samples fall inside.
    ///
    /// This is the **summary-served** aggregate: segments wholly inside
    /// the window fold in via their frozen summary without decoding
    /// (counted as `segments_summarized` in [`ScanStats`]), so a wide
    /// window over a deep frozen series costs O(segments) instead of the
    /// flat layout's O(samples) walk — the read-path asymmetry E15's
    /// p50/p99 gate measures. [`HistoryStore::aggregate`] cannot do this:
    /// its mean is an in-order float sum, which regrouped per segment
    /// would round differently on each layout, so it still visits every
    /// in-window value (a whole segment through its value column, without
    /// decoding timestamps); count, min and max compose exactly under any
    /// grouping (see [`Extremes`]).
    pub fn extremes(
        &self,
        entity: &str,
        attr: &str,
        from: SimTime,
        to: SimTime,
    ) -> Option<Extremes> {
        let series = self.series(entity, attr)?;
        let mut acc = Extremes::EMPTY;
        let walk = series.walk_window(from, to, |piece| match piece {
            Piece::Whole(seg) => acc.push_summary(seg),
            Piece::Sample(s) => acc.push(s.value),
        });
        self.note_scan(walk.pruned, walk.whole, walk.edge);
        (acc.count > 0).then_some(acc)
    }

    /// Downsamples a series into fixed buckets of `bucket` duration over
    /// `[from, to)`, returning one aggregate per non-empty bucket with its
    /// bucket start time — what dashboards and the analytics jobs consume.
    /// Each bucket is folded as [`HistoryStore::aggregate`] folds a window;
    /// a segment wholly inside one bucket folds from its value column.
    /// Empty buckets cost nothing, and a zero `bucket` answers no buckets.
    pub fn downsample(
        &self,
        entity: &str,
        attr: &str,
        from: SimTime,
        to: SimTime,
        bucket: SimDuration,
    ) -> Vec<(SimTime, WindowAggregate)> {
        let Some(series) = self.series(entity, attr) else {
            return Vec::new();
        };
        if bucket == SimDuration::ZERO {
            return Vec::new();
        }
        let mut buckets = Buckets::new(series, from, to, bucket);
        let walk = series.walk_window(from, to, |piece| match piece {
            Piece::Whole(seg) => {
                buckets.seek(seg.first_at);
                if seg.last_at < buckets.end {
                    buckets.acc.push_column(&seg.values);
                } else {
                    seg.iter().for_each(|s| buckets.push(s));
                }
            }
            Piece::Sample(s) => buckets.push(s),
        });
        self.note_scan(walk.pruned, 0, walk.whole + walk.edge);
        buckets.finish()
    }

    /// Dumps every series in deterministic `(entity, attr)` order, with its
    /// time-sorted samples. The interner's `HashMap` order never leaks: the
    /// output is sorted, so two stores holding the same samples — however
    /// the appends were interleaved, sharded or compacted — dump
    /// identically. Keys are *borrowed* from the interner (they used to be
    /// cloned per call, and the differential suites fingerprint with this
    /// in an inner loop); only the sample vectors are materialized.
    pub fn dump_sorted(&self) -> Vec<(&str, &str, Vec<Sample>)> {
        let mut keys: Vec<(&str, &str, SeriesId)> = self
            .index
            .iter()
            .flat_map(|(entity, attrs)| {
                attrs
                    .iter()
                    .map(move |(attr, id)| (entity.as_str(), attr.as_str(), *id))
            })
            .collect();
        keys.sort_unstable_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
        keys.into_iter()
            .map(|(entity, attr, id)| (entity, attr, self.series[id as usize].materialize()))
            .collect()
    }

    /// Drops samples older than `cutoff` across all series (retention).
    /// Returns how many were removed. Wholly expired segments drop in
    /// O(1) each — the flat store paid an O(series length) memmove per
    /// series per call.
    pub fn prune_before(&mut self, cutoff: SimTime) -> u64 {
        let mut removed = 0;
        for series in &mut self.series {
            removed += series.prune_before(cutoff);
        }
        self.total_samples -= removed;
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swamp_sim::stats::OnlineStats;
    use swamp_sim::SimRng;

    fn t(h: u64) -> SimTime {
        SimTime::from_hours(h)
    }

    #[test]
    fn append_and_range() {
        let mut h = HistoryStore::new();
        for i in 0..10 {
            h.append("e", "a", t(i), i as f64);
        }
        assert_eq!(h.len(), 10);
        assert_eq!(h.series.len(), 1);
        let r = h.range("e", "a", t(3), t(7));
        assert_eq!(r.len(), 4);
        assert_eq!(r[0].value, 3.0);
        assert_eq!(r[3].value, 6.0);
        // Half-open: sample at t(7) excluded.
        assert!(r.iter().all(|s| s.at < t(7)));
    }

    #[test]
    fn out_of_order_appends_sorted() {
        let mut h = HistoryStore::new();
        h.append("e", "a", t(5), 5.0);
        h.append("e", "a", t(1), 1.0);
        h.append("e", "a", t(3), 3.0);
        let r = h.range("e", "a", t(0), t(10));
        let times: Vec<u64> = r.iter().map(|s| s.at.as_millis()).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted);
    }

    #[test]
    fn shuffled_appends_keep_series_sorted_and_complete() {
        // Deterministic pseudo-shuffle over a larger series: every
        // insertion position is exercised, including duplicates.
        let mut h = HistoryStore::new();
        let n = 257u64;
        for i in 0..n {
            let hour = (i * 97) % n; // 97 coprime with 257: a permutation
            h.append("e", "a", t(hour), hour as f64);
            h.append("e", "a", t(hour), hour as f64 + 0.5); // duplicate time
        }
        let r = h.range("e", "a", t(0), t(n + 1));
        assert_eq!(r.len() as u64, 2 * n);
        assert!(r.windows(2).all(|w| w[0].at <= w[1].at), "sorted");
        // Duplicate-time inserts land after the existing equal timestamp.
        for w in r.chunks(2) {
            assert_eq!(w[0].at, w[1].at);
            assert_eq!(w[1].value - w[0].value, 0.5);
        }
    }

    #[test]
    fn series_ids_are_dense_and_stable() {
        let mut h = HistoryStore::new();
        assert_eq!(h.series_id("e", "a"), None);
        h.append("e", "a", t(1), 1.0);
        h.append("e", "b", t(1), 2.0);
        h.append("e2", "a", t(1), 3.0);
        let id_ea = h.series_id("e", "a").unwrap();
        let id_eb = h.series_id("e", "b").unwrap();
        let id_e2a = h.series_id("e2", "a").unwrap();
        assert_eq!((id_ea, id_eb, id_e2a), (0, 1, 2));
        // Re-appending reuses the interned id.
        h.append("e", "a", t(2), 4.0);
        assert_eq!(h.series_id("e", "a"), Some(id_ea));
        assert_eq!(h.intern("e", "a"), id_ea);
        assert_eq!(h.series.len(), 3);
    }

    #[test]
    fn append_to_interned_id_fast_path() {
        let mut h = HistoryStore::new();
        let id = h.intern("e", "a");
        h.append_to(id, t(1), 1.0);
        h.append_to(id, t(2), 2.0);
        assert_eq!(h.last("e", "a").unwrap().value, 2.0);
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn aggregate_math() {
        let mut h = HistoryStore::new();
        for (i, v) in [2.0, 4.0, 6.0, 8.0].iter().enumerate() {
            h.append("e", "a", t(i as u64), *v);
        }
        let agg = h.aggregate("e", "a", t(0), t(10)).unwrap();
        assert_eq!(agg.count, 4);
        assert_eq!(agg.mean, 5.0);
        assert_eq!(agg.min, 2.0);
        assert_eq!(agg.max, 8.0);
        assert_eq!(agg.last, 8.0);
        assert!(h.aggregate("e", "a", t(20), t(30)).is_none());
        assert!(h.aggregate("ghost", "a", t(0), t(10)).is_none());
    }

    #[test]
    fn last_sample() {
        let mut h = HistoryStore::new();
        assert!(h.last("e", "a").is_none());
        h.append("e", "a", t(1), 1.0);
        h.append("e", "a", t(2), 2.0);
        assert_eq!(h.last("e", "a").unwrap().value, 2.0);
    }

    #[test]
    fn series_are_independent() {
        let mut h = HistoryStore::new();
        h.append("e1", "a", t(1), 1.0);
        h.append("e2", "a", t(1), 2.0);
        h.append("e1", "b", t(1), 3.0);
        assert_eq!(h.series.len(), 3);
        assert_eq!(h.range("e1", "a", t(0), t(2)).len(), 1);
        assert_eq!(h.last("e1", "b").unwrap().value, 3.0);
    }

    #[test]
    fn prune_retention() {
        let mut h = HistoryStore::new();
        for i in 0..10 {
            h.append("e", "a", t(i), i as f64);
        }
        let removed = h.prune_before(t(6));
        assert_eq!(removed, 6);
        assert_eq!(h.len(), 4);
        assert_eq!(h.range("e", "a", t(0), t(100)).len(), 4);
        assert_eq!(h.range("e", "a", t(0), t(100))[0].value, 6.0);
    }

    #[test]
    fn empty_store_queries() {
        let h = HistoryStore::new();
        assert!(h.is_empty());
        assert!(h.range("e", "a", t(0), t(10)).is_empty());
    }

    #[test]
    fn downsample_buckets_correctly() {
        use swamp_sim::SimDuration;
        let mut h = HistoryStore::new();
        // Two samples per hour for 6 hours.
        for i in 0..12u64 {
            h.append("e", "a", SimTime::from_millis(i * 30 * 60 * 1000), i as f64);
        }
        let day = h.downsample("e", "a", t(0), t(6), SimDuration::from_hours(2));
        assert_eq!(day.len(), 3);
        // First 2-hour bucket holds samples 0..4.
        assert_eq!(day[0].0, t(0));
        assert_eq!(day[0].1.count, 4);
        assert_eq!(day[0].1.mean, 1.5);
        assert_eq!(day[0].1.last, 3.0);
        assert_eq!(day[2].1.count, 4);
        assert_eq!(day[2].1.max, 11.0);
    }

    #[test]
    fn downsample_skips_empty_buckets() {
        use swamp_sim::SimDuration;
        let mut h = HistoryStore::new();
        h.append("e", "a", t(0), 1.0);
        h.append("e", "a", t(5), 2.0);
        let buckets = h.downsample("e", "a", t(0), t(6), SimDuration::from_hours(1));
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].0, t(0));
        assert_eq!(buckets[1].0, t(5));
        // Two samples 10^12 ms apart read with 1 ms buckets: the walk
        // jumps straight to each sample's bucket instead of stepping
        // through the 10^12 empty ones between them, frozen or not.
        let far = SimTime::from_millis(1_000_000_000_000);
        for compact in [false, true] {
            let mut h = HistoryStore::new();
            h.append("e", "a", SimTime::from_millis(3), 1.0);
            h.append("e", "a", far, 2.0);
            if compact {
                h.compact();
            }
            let to = far.saturating_add(SimDuration::from_millis(10));
            let buckets = h.downsample("e", "a", SimTime::ZERO, to, SimDuration::from_millis(1));
            let starts: Vec<(SimTime, f64)> = buckets.iter().map(|(at, b)| (*at, b.last)).collect();
            assert_eq!(starts, vec![(SimTime::from_millis(3), 1.0), (far, 2.0)]);
        }
    }

    #[test]
    fn downsample_unknown_series_empty() {
        use swamp_sim::SimDuration;
        let h = HistoryStore::new();
        assert!(h
            .downsample("ghost", "a", t(0), t(10), SimDuration::from_hours(1))
            .is_empty());
    }

    // --- segment-compaction coverage ------------------------------------

    #[test]
    fn segment_roundtrip_is_exact() {
        // Irregular cadence, duplicate timestamps, negative dod steps:
        // freezing and decoding must reproduce the samples bit-for-bit.
        let samples: Vec<Sample> = [0u64, 1, 1, 4, 4, 5, 1000, 1001, 1002, 500_000]
            .iter()
            .enumerate()
            .map(|(i, &ms)| Sample {
                at: SimTime::from_millis(ms),
                value: i as f64 * 0.37 - 1.0,
            })
            .collect();
        let seg = Segment::freeze(&samples);
        assert_eq!(seg.count(), samples.len());
        assert_eq!(seg.first_at, samples[0].at);
        assert_eq!(seg.last_at, samples[samples.len() - 1].at);
        assert_eq!(seg.last, samples[samples.len() - 1].value);
        assert_eq!(seg.min, -1.0);
        let decoded: Vec<Sample> = seg.iter().collect();
        assert_eq!(decoded, samples);
        // Regular cadence compresses: dod is zero after the first delta.
        let regular: Vec<Sample> = (0..100)
            .map(|i| Sample {
                at: SimTime::from_secs(60 * i),
                value: 1.0,
            })
            .collect();
        let seg = Segment::freeze(&regular);
        assert!(
            seg.times.len() <= regular.len() + 4,
            "regular cadence should take ~1 byte/sample, got {} bytes",
            seg.times.len()
        );
    }

    #[test]
    fn zigzag_varint_edges() {
        for v in [0i64, 1, -1, 63, -64, 64, i64::MAX, i64::MIN, 1 << 40] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        let mut buf = Vec::new();
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            buf.clear();
            push_varint(&mut buf, v);
            assert_eq!(read_varint(&buf, 0), (v, buf.len()));
        }
    }

    /// A window aggregate as bits: `count` and the bit patterns of mean,
    /// min, max and last, so `-0.0`, NaN and rounding all compare exactly.
    fn bits(agg: &WindowAggregate) -> [u64; 5] {
        [
            agg.count,
            agg.mean.to_bits(),
            agg.min.to_bits(),
            agg.max.to_bits(),
            agg.last.to_bits(),
        ]
    }

    /// The reference fold, one value at a time: count/min/max through
    /// `OnlineStats` (the exact bits the aggregates always had), the mean
    /// as the in-order sum over the count, or `OnlineStats`' running mean
    /// where the sum is not finite or a value exceeds `f64::MAX / 4`.
    fn reference_fold(values: impl IntoIterator<Item = f64>) -> Option<[u64; 5]> {
        let mut stats = OnlineStats::new();
        let mut sum = 0.0;
        let mut last = None;
        for v in values {
            stats.push(v);
            sum += v;
            last = Some(v);
        }
        let safe = f64::MAX / 4.0;
        let mean = if sum.is_finite() && stats.min() >= -safe && stats.max() <= safe {
            sum / stats.count() as f64
        } else {
            stats.mean()
        };
        Some(bits(&WindowAggregate {
            count: stats.count(),
            mean,
            min: stats.min(),
            max: stats.max(),
            last: last?,
        }))
    }

    /// The reference downsample: samples grouped by bucket index
    /// `⌊(at − from) / bucket⌋`, each group folded by [`reference_fold`].
    fn reference_buckets(
        samples: &[Sample],
        from: SimTime,
        bucket: SimDuration,
    ) -> Vec<(SimTime, [u64; 5])> {
        let width = bucket.as_millis();
        let index = |s: &Sample| (s.at.as_millis() - from.as_millis()) / width;
        samples
            .chunk_by(|a, b| index(a) == index(b))
            .filter_map(|run| {
                let start = SimTime::from_millis(from.as_millis() + index(&run[0]) * width);
                Some((start, reference_fold(run.iter().map(|s| s.value))?))
            })
            .collect()
    }

    #[test]
    fn compaction_is_observationally_free() {
        // The in-tree seeded differential: a flat store vs an
        // every-8-appends store vs an explicitly compacted store, fed an
        // identical stream with out-of-order timestamps and signed zeros,
        // must agree on every read, and every aggregate and downsample
        // bucket must equal the reference fold over `range`'s samples bit
        // for bit. (The full cadence × shard matrix lives in
        // crates/pilots/tests/compaction_differential.rs.) Mutations of
        // the column fold this catches: a whole segment that does not set
        // `last`, a bucket jump off by one bucket, and a segment folded
        // whole although it straddles a bucket end.
        let mut rng = SimRng::seed_from(0xE15);
        let mut flat = HistoryStore::new();
        let mut auto8 = HistoryStore::new();
        auto8.set_segment_threshold(Some(8));
        let mut manual = HistoryStore::new();
        for step in 0..600u64 {
            let e = format!("e{}", step % 5);
            let at = if rng.chance(0.15) {
                // Out of order: up to 3 hours behind the stream head.
                SimTime::from_hours(step.saturating_sub(rng.below(4)))
            } else {
                SimTime::from_hours(step)
            };
            let v = match rng.below(20) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.uniform_f64() - 0.5,
            };
            flat.append(&e, "m", at, v);
            auto8.append(&e, "m", at, v);
            manual.append(&e, "m", at, v);
            if step % 37 == 0 {
                manual.compact();
            }
        }
        assert!(auto8.segment_count() > 0 && manual.segment_count() > 0);
        assert_eq!(flat.dump_sorted(), auto8.dump_sorted());
        assert_eq!(flat.dump_sorted(), manual.dump_sorted());
        // Windows cut at and inside segments of both segmented layouts:
        // one whole segment, both edges inside one, `to` inside one, and
        // one-sample windows.
        let ms = SimDuration::from_millis(1);
        let mut windows = vec![(t(0), t(600)), (t(100), t(101)), (t(590), t(600))];
        let auto8_e0 = &auto8.series("e0", "m").unwrap().segments;
        for seg in auto8_e0
            .iter()
            .chain(&manual.series("e1", "m").unwrap().segments)
        {
            let (a, b) = (seg.first_at, seg.last_at);
            windows.push((a, b.saturating_add(ms)));
            windows.push((a.saturating_add(ms), b));
            windows.push((t(0), b));
            windows.push((a, a.saturating_add(ms)));
        }
        // Buckets of one sample, smaller than a segment, about one
        // segment, and spanning several.
        let buckets = [0, 1, 7, 37, 200].map(|h| SimDuration::from_hours(h).max(ms));
        for e in ["e0", "e1", "e2", "e3", "e4"] {
            for &(from, to) in &windows {
                let samples = flat.range(e, "m", from, to);
                let want = reference_fold(samples.iter().map(|s| s.value));
                for h in [&flat, &auto8, &manual] {
                    assert_eq!(h.range(e, "m", from, to), samples);
                    assert_eq!(
                        h.aggregate(e, "m", from, to).as_ref().map(bits),
                        want,
                        "{e} [{from:?}, {to:?})"
                    );
                    for bucket in buckets {
                        let got: Vec<(SimTime, [u64; 5])> = h
                            .downsample(e, "m", from, to, bucket)
                            .iter()
                            .map(|(at, agg)| (*at, bits(agg)))
                            .collect();
                        assert_eq!(
                            got,
                            reference_buckets(&samples, from, bucket),
                            "{e} [{from:?}, {to:?}) by {bucket:?}"
                        );
                    }
                }
            }
            assert_eq!(flat.last(e, "m"), manual.last(e, "m"));
        }
    }

    #[test]
    fn mean_edge_cases_keep_the_running_mean() {
        // Where the in-order sum is not finite, or a value is large enough
        // for the running mean to overflow, the mean is the running
        // `OnlineStats` mean — on a flat and on segmented layouts alike.
        let cases: [&[f64]; 7] = [
            &[f64::MAX, f64::MAX],
            &[f64::MAX, -f64::MAX],
            &[1.0, f64::NAN, 2.0],
            &[1.0, f64::INFINITY, 2.0],
            &[f64::NEG_INFINITY, 1.0, 3.0],
            &[f64::INFINITY, f64::NEG_INFINITY],
            &[1e308, 1e308, -1e308],
        ];
        for values in cases {
            let mut stores: [HistoryStore; 3] = std::array::from_fn(|_| HistoryStore::new());
            stores[1].set_segment_threshold(Some(2));
            for (i, &v) in values.iter().enumerate() {
                for h in &mut stores {
                    h.append("e", "a", t(i as u64), v);
                }
            }
            stores[2].compact();
            let mut running = OnlineStats::new();
            values.iter().for_each(|&v| running.push(v));
            let want = reference_fold(values.iter().copied());
            for h in &stores {
                let agg = h.aggregate("e", "a", t(0), t(10)).unwrap();
                assert_eq!(agg.mean.to_bits(), running.mean().to_bits(), "{values:?}");
                assert_eq!(Some(bits(&agg)), want, "{values:?}");
                let buckets = h.downsample("e", "a", t(0), t(10), SimDuration::from_hours(10));
                assert_eq!(buckets.len(), 1);
                assert_eq!(bits(&buckets[0].1), bits(&agg), "{values:?}");
            }
        }
        // The two overflow cases, spelled out.
        let mean_of = |values: &[f64]| {
            let mut h = HistoryStore::new();
            for (i, &v) in values.iter().enumerate() {
                h.append("e", "a", t(i as u64), v);
            }
            h.aggregate("e", "a", t(0), t(10)).unwrap().mean
        };
        assert_eq!(mean_of(&[f64::MAX, f64::MAX]), f64::MAX);
        assert_eq!(mean_of(&[f64::MAX, -f64::MAX]), f64::NEG_INFINITY);
    }

    #[test]
    fn prune_cuts_mid_segment() {
        let mut h = HistoryStore::new();
        for i in 0..20 {
            h.append("e", "a", t(i), i as f64);
        }
        h.compact();
        h.append("e", "a", t(20), 20.0);
        assert_eq!(h.segment_count(), 1);
        // Cutoff lands inside the frozen segment: it is decoded, trimmed
        // and re-frozen; the summary must be recomputed.
        let removed = h.prune_before(t(7));
        assert_eq!(removed, 7);
        assert_eq!(h.len(), 14);
        assert_eq!(h.segment_count(), 1);
        let r = h.range("e", "a", t(0), t(100));
        assert_eq!(r.len(), 14);
        assert_eq!(r[0].value, 7.0);
        let agg = h.aggregate("e", "a", t(0), t(100)).unwrap();
        assert_eq!(agg.min, 7.0);
        assert_eq!(agg.max, 20.0);
        // The re-frozen segment's summary was recomputed from the
        // surviving samples.
        let segments = &h.series("e", "a").unwrap().segments;
        assert_eq!(segments.len(), 1);
        let seg = &segments[0];
        assert_eq!((seg.first_at, seg.last_at, seg.count()), (t(7), t(19), 13));
        assert_eq!((seg.min, seg.max, seg.last), (7.0, 19.0, 19.0));
        // Cutoff past the whole segment: it drops in O(1), tail survives.
        let removed = h.prune_before(t(20));
        assert_eq!(removed, 13);
        assert_eq!(h.segment_count(), 0);
        assert_eq!(h.last("e", "a").unwrap().value, 20.0);
    }

    #[test]
    fn out_of_order_append_behind_frozen_watermark_thaws() {
        let mut h = HistoryStore::new();
        for i in [0u64, 2, 4, 6, 8] {
            h.append("e", "a", t(i), i as f64);
        }
        h.compact();
        assert_eq!(h.segment_count(), 1);
        // Behind the watermark: the overlapped segment thaws back into the
        // tail and the sample lands at its sorted position.
        h.append("e", "a", t(3), 3.0);
        assert_eq!(h.segment_count(), 0);
        let r = h.range("e", "a", t(0), t(10));
        let values: Vec<f64> = r.iter().map(|s| s.value).collect();
        assert_eq!(values, vec![0.0, 2.0, 3.0, 4.0, 6.0, 8.0]);
        // Exactly at the watermark: no thaw, lands after its equal.
        h.compact();
        h.append("e", "a", t(8), 8.5);
        assert_eq!(h.segment_count(), 1);
        let r = h.range("e", "a", t(8), t(9));
        assert_eq!(r.len(), 2);
        assert_eq!((r[0].value, r[1].value), (8.0, 8.5));
        // Multi-segment: only the overlapped suffix thaws.
        let mut h = HistoryStore::new();
        h.set_segment_threshold(Some(2));
        for i in 0..8u64 {
            h.append("e", "a", t(i), i as f64);
        }
        assert_eq!(h.segment_count(), 4);
        h.append("e", "a", t(5), 5.5);
        // Segments with last_at <= t(5) stay frozen (three of them — the
        // duplicate lands in the tail *after* the frozen 5.0, preserving
        // insert-after-equals); the thawed [6,7] + new sample re-freeze
        // via the threshold.
        assert_eq!(h.segment_count(), 4);
        let vals: Vec<f64> = h
            .range("e", "a", t(0), t(10))
            .iter()
            .map(|s| s.value)
            .collect();
        assert_eq!(vals, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 5.5, 6.0, 7.0]);
    }

    #[test]
    fn empty_series_intern_survives_compaction_and_dump() {
        let mut h = HistoryStore::new();
        let id = h.intern("e", "a");
        assert_eq!(h.compact(), 0, "nothing to freeze");
        assert_eq!(h.prune_before(t(5)), 0);
        let dump = h.dump_sorted();
        assert_eq!(dump.len(), 1);
        assert_eq!((dump[0].0, dump[0].1), ("e", "a"));
        assert!(dump[0].2.is_empty());
        assert!(h.last("e", "a").is_none());
        assert!(h.range("e", "a", t(0), t(10)).is_empty());
        h.append_to(id, t(1), 1.0);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn scan_stats_count_pruned_and_decoded_segments() {
        let mut h = HistoryStore::new();
        h.set_segment_threshold(Some(10));
        for i in 0..100u64 {
            h.append("e", "a", t(i), i as f64);
        }
        assert_eq!(h.segment_count(), 10);
        let _ = h.take_scan_stats();
        // A window over the last segment's span prunes the other nine.
        let r = h.range("e", "a", t(90), t(100));
        assert_eq!(r.len(), 10);
        let stats = h.take_scan_stats();
        assert_eq!(stats.segments_decoded, 1);
        assert_eq!(stats.segments_pruned, 9);
        // Draining resets the counters.
        assert_eq!(h.take_scan_stats(), ScanStats::default());
    }

    #[test]
    fn extremes_served_from_summaries_matches_flat() {
        let mut rng = SimRng::seed_from(9).split("extremes");
        let mut flat = HistoryStore::new();
        let mut seg = HistoryStore::new();
        seg.set_segment_threshold(Some(8));
        for i in 0..100u64 {
            let v = rng.uniform_f64() * 100.0 - 50.0;
            flat.append("e", "a", t(i), v);
            seg.append("e", "a", t(i), v);
        }
        let _ = seg.take_scan_stats();
        // Identical answers at every window shape: full, mid-segment
        // boundaries on both ends, tail-only, empty.
        for (from, to) in [(0, 100), (3, 97), (8, 96), (90, 100), (40, 40)] {
            assert_eq!(
                flat.extremes("e", "a", t(from), t(to)),
                seg.extremes("e", "a", t(from), t(to)),
                "window [{from}, {to})"
            );
        }
        // The wide window answered whole segments from summaries alone.
        let stats = seg.take_scan_stats();
        assert!(stats.segments_summarized > 0, "{stats:?}");
        // Cross-check one window against the decoded aggregate.
        let e = seg.extremes("e", "a", t(8), t(96)).unwrap();
        let a = seg.aggregate("e", "a", t(8), t(96)).unwrap();
        assert_eq!((e.count, e.min, e.max), (a.count, a.min, a.max));
        // Empty window and unknown series are None.
        assert_eq!(seg.extremes("e", "a", t(40), t(40)), None);
        assert_eq!(seg.extremes("nope", "a", t(0), t(100)), None);
    }

    #[test]
    fn threshold_freezes_automatically() {
        let mut h = HistoryStore::new();
        h.set_segment_threshold(Some(4));
        assert_eq!(h.segment_threshold(), Some(4));
        for i in 0..9u64 {
            h.append("e", "a", t(i), i as f64);
        }
        assert_eq!(h.segment_count(), 2);
        assert_eq!(h.len(), 9);
        assert_eq!(h.range("e", "a", t(0), t(9)).len(), 9);
        // Threshold 0 clamps to 1 (every sample its own segment).
        let mut h = HistoryStore::new();
        h.set_segment_threshold(Some(0));
        h.append("e", "a", t(0), 0.0);
        h.append("e", "a", t(1), 1.0);
        assert_eq!(h.segment_count(), 2);
    }
}
