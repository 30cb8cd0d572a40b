//! Store-and-forward synchronization between a fog node and the cloud.
//!
//! The paper: "The availability of the platform must be provided even in
//! case of Internet disconnections using local components (fog computing)
//! to keep the platform running properly." [`FogSync`] buffers context
//! updates while the uplink is down or lossy and replays them with an
//! ack/retransmit protocol; [`CloudStore`] is the receiving end,
//! deduplicating per source by sequence number so retransmissions and
//! injected wire duplicates are idempotent.
//!
//! ## One watermark per source
//!
//! Every record on the wire carries the sender's *floor*: the lowest seq
//! it still buffers (or the next seq it will assign, when it buffers
//! nothing). Every seq below the floor was acked or evicted, so it will
//! never be transmitted again. The receiver keeps one watermark per
//! source — every seq below it applied or given up by the sender, plus
//! the applied seqs above it — and raises it to each floor it reads. That
//! one watermark deduplicates, and on an in-order (relay) store it also
//! releases: a record leaves once every seq below it is applied or given
//! up, so a seq the sender evicted stalls the stream for one round trip,
//! not for a timer.
//!
//! ## Retry engine
//!
//! Each transmitted record carries a per-record retry timer. The k-th
//! retransmission of a record is scheduled `min(base · factor^k, cap)`
//! after the previous attempt (the cap bounds the growth, never the base:
//! a base above the cap is waited in full), de-synchronized by a
//! multiplicative jitter drawn from the engine's own seeded RNG (so runs
//! stay reproducible).
//! Acks release records exactly once — late or duplicated acks are
//! suppressed and counted on `sync.duplicate_acks`, never double-advance.
//!
//! ## Flow control
//!
//! The in-flight window ([`DEFAULT_WINDOW`] records unless the builder
//! says otherwise) is the engine's one limit on throughput: at most that
//! many records await acknowledgement at once. A sync round first
//! retransmits the records whose retry timer expired — they keep the
//! window slots they already hold — then admits never-transmitted records
//! in enqueue order until the window is full; whatever is left waits
//! behind the admission cursor for an ack to free a slot, so a backlog
//! drains at one window per ack round trip. [`FogSync::admit`] is that
//! admission on its own, for callers that enqueue between rounds and want
//! the records on the wire at once (the platform's ingestion); timers,
//! retransmissions and strikes stay with the round. The `batch` argument of
//! [`FogSync::sync_round`] is a further per-call cap for drivers that pace
//! themselves (a drone's contact window, a replayed leg); the platform
//! passes none.
//!
//! ## Degraded-mode state machine
//!
//! The engine grades its uplink from end-to-end evidence only (retry
//! timers expiring without acks), which is the only signal that exists
//! under a silent partition:
//!
//! ```text
//!                  strikes ≥ 2                     strikes ≥ 6
//! Connected ─────────────────────────▶ Degraded ─────────────────────▶ Offline
//!     ▲                                   │                               │
//!     └────────────── any ack ────────────┴───────────── any ack ─────────┘
//! ```
//!
//! A *strike* is a sync round in which at least one retry timer expired
//! (or a send was refused outright); any released ack resets the count.
//! The platform maps the mode to deployment-specific fallbacks: a
//! CloudOnly gateway keeps buffering, a FarmFog node falls back to local
//! irrigation control.
//!
//! ## Complexity
//!
//! Three indexes, each with one exact invariant, make one sync round cost
//! O((transmissions + due timers) · log W) and one released record
//! O(log W), independent of backlog depth (W is the in-flight window):
//!
//! - the backlog is a window of slots indexed by `seq − base`, because
//!   seqs are assigned densely and in order: an enqueue is a push, a
//!   lookup one index, a release empties a slot, and emptied slots are
//!   trimmed off the front, as the oldest record is on eviction. Two
//!   bounds hold it to what it buffers. The window keeps at most W emptied
//!   slots: past that, its live front record (one the uplink keeps
//!   losing) moves to a small ordered side table of stragglers, so the
//!   slot count stays within the live records plus W. And one ack payload
//!   visits each slot at most once, whatever its runs;
//! - the admission cursor splits it: every buffered seq below it is in
//!   flight, every one at or above it was never transmitted (admission is
//!   strictly in seq order, and a refused send leaves a suffix);
//! - the deadline heap holds exactly one `(next_retry, seq)` per in-flight
//!   record, so the due records are the top of it and the window's
//!   occupancy is its length. A send re-keys the entry; an ack or an
//!   eviction removes it.
//!
//! Ack classification needs no table of its own: seqs are dense, so a seq
//! below the next one to assign that is no longer buffered was released
//! or evicted already (a duplicate), and any other is unknown. Acks travel
//! as ascending `(first seq, count)` runs, so a run is classified by
//! arithmetic beyond the records it releases. See
//! DESIGN.md §13 for the data-structure walkthrough.

#![deny(clippy::indexing_slicing)]

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use swamp_net::message::{Delivery, Message, NodeId};
use swamp_net::network::{Network, SendError};
use swamp_obs::{Counter, Gauge, Hist, Level, Obs, ObsSnapshot, Span};
use swamp_sim::{SimDuration, SimRng, SimTime};

/// Topic used for fog→cloud data records.
pub const SYNC_TOPIC: &str = "fog/sync/data";
/// Topic used for cloud→fog acknowledgements.
pub const ACK_TOPIC: &str = "fog/sync/ack";

/// Longest encodable record key, in bytes (the wire format uses a 16-bit
/// length prefix).
pub const MAX_KEY_LEN: usize = u16::MAX as usize;

/// Default in-flight window: how many records may await acknowledgement
/// at once, and so how many a backlogged engine moves per ack round trip.
///
/// Static, and sized from a measured sweep rather than adapted at run
/// time: the simulated links do not queue, so loss is the only congestion
/// signal there is, and the retry engine already answers it with backoff.
/// The sweep, on the reference benchmark (seed 42, deterministic):
/// `fleet_wide` is 50 000 records per round over a lossless uplink, pumps
/// 1 s apart, an ack round trip of two pumps; `storm_lossy` is 10 % loss
/// and scheduled partitions.
///
/// | window | `fleet_wide` lag p50 / p95 (sim-s) | pumps per 50 000-record round | `storm_lossy` lag p95 | its retransmissions |
/// |---|---|---|---|---|
/// | 1 024 | 50 / 94 | 98 | 500 | 36 269 |
/// | 2 048 | 26 / 48 | 50 | 240 | 36 921 |
/// | 4 096 | 14 / 24 | 26 | 120 | 33 011 |
/// | 8 192 | 8 / 12 | 14 | 140 | 46 557 |
///
/// Up to 4 096 the CPU cost per record does not move beyond run-to-run
/// spread. Past it a timer expiry retransmits twice the stranded window
/// into the same outage (more retransmissions for a worse tail), and a
/// round's wire copies (a window × ~300 B) stop being cache-resident:
/// the first round's cost per record rises ≈ 17 %. DESIGN.md §13 has the
/// full table with the wall-clock columns.
pub const DEFAULT_WINDOW: usize = 4096;

/// Consecutive strike rounds before the uplink is graded `Degraded`.
const DEGRADED_AFTER: u32 = 2;
/// Consecutive strike rounds before the uplink is graded `Offline`.
const OFFLINE_AFTER: u32 = 6;

/// Why a sync operation was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyncError {
    /// The record key exceeds [`MAX_KEY_LEN`] and cannot be encoded.
    KeyTooLong {
        /// Actual key length in bytes.
        len: usize,
    },
    /// An ack payload was not a whole number of 16-byte seq runs, or a
    /// run ran past the largest seq.
    MalformedAck {
        /// Payload length in bytes.
        len: usize,
    },
    /// The network refused the transmission synchronously.
    Send(SendError),
}

impl std::fmt::Display for SyncError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SyncError::KeyTooLong { len } => {
                write!(f, "record key of {len} bytes exceeds {MAX_KEY_LEN}")
            }
            SyncError::MalformedAck { len } => {
                write!(
                    f,
                    "ack payload of {len} bytes is not a whole number of seq runs"
                )
            }
            SyncError::Send(e) => write!(f, "send refused: {e}"),
        }
    }
}

impl std::error::Error for SyncError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SyncError::Send(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SendError> for SyncError {
    fn from(e: SendError) -> Self {
        SyncError::Send(e)
    }
}

/// Uplink health as judged by the retry engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DegradedMode {
    /// Acks are flowing; the uplink is presumed healthy.
    #[default]
    Connected,
    /// Retry timers are expiring; the uplink is suspect.
    Degraded,
    /// Sustained timeouts; the uplink is presumed down.
    Offline,
}

impl std::fmt::Display for DegradedMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DegradedMode::Connected => "connected",
            DegradedMode::Degraded => "degraded",
            DegradedMode::Offline => "offline",
        })
    }
}

/// What one ack payload (or one inbox drain) accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AckOutcome {
    /// Buffered records released (first ack for each).
    pub released: usize,
    /// Acks for records this engine no longer buffers — already released,
    /// or evicted from a full buffer before their ack arrived (suppressed).
    pub duplicate: usize,
    /// Acks for sequence numbers this engine never assigned.
    pub unknown: usize,
    /// Ack messages whose payload failed to decode (inbox drains only).
    pub malformed: usize,
}

impl AckOutcome {
    fn absorb(&mut self, other: AckOutcome) {
        self.released += other.released;
        self.duplicate += other.duplicate;
        self.unknown += other.unknown;
        self.malformed += other.malformed;
    }
}

/// A buffered context update.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateRecord {
    /// Fog-assigned sequence number (unique, monotone).
    pub seq: u64,
    /// Record key (e.g. entity id).
    pub key: String,
    /// Opaque payload (e.g. serialized entity).
    pub payload: Vec<u8>,
    /// When the update was created at the fog.
    pub created_at: SimTime,
}

/// Typed handles for the fog engine's instruments (`sync.*`), registered
/// once at build time so every hot-path update is an indexed add.
#[derive(Clone, Debug)]
struct SyncInstruments {
    enqueued: Counter,
    dropped: Counter,
    transmissions: Counter,
    retransmissions: Counter,
    acked: Counter,
    duplicate_acks: Counter,
    /// Acked seqs this engine never assigned.
    unknown_acks: Counter,
    timeouts: Counter,
    pending: Gauge,
    in_flight: Gauge,
    mode: Gauge,
    retry_interval_ms: Hist,
    /// Records examined per round (due deadlines + records admitted): the
    /// witness that per-round work tracks transmissions + due timers, not
    /// backlog depth. Nothing stale exists to examine.
    round_scanned: Hist,
    round_span: Span,
}

impl SyncInstruments {
    fn register(obs: &mut Obs) -> SyncInstruments {
        SyncInstruments {
            enqueued: obs.counter("sync.enqueued"),
            dropped: obs.counter("sync.dropped"),
            transmissions: obs.counter("sync.transmissions"),
            retransmissions: obs.counter("sync.retransmissions"),
            acked: obs.counter("sync.acked"),
            duplicate_acks: obs.counter("sync.duplicate_acks"),
            unknown_acks: obs.counter("sync.unknown_acks"),
            timeouts: obs.counter("sync.timeouts"),
            pending: obs.gauge("sync.pending"),
            in_flight: obs.gauge("sync.in_flight"),
            mode: obs.gauge("sync.mode"),
            retry_interval_ms: obs.hist("sync.retry_interval_ms", 0.0, 600_000.0, 64),
            round_scanned: obs.hist("sync.round_scanned", 0.0, 4096.0, 64),
            round_span: obs.span("sync.round"),
        }
    }
}

/// Per-record transmission state while awaiting an ack.
#[derive(Clone, Copy, Debug)]
struct FlightState {
    /// Transmissions so far (≥ 1 once in flight).
    attempts: u32,
    /// The slot addressing this record's retry deadline in [`Deadlines`].
    slot: usize,
}

/// Exactly one `(next_retry, seq)` per in-flight record, in a binary
/// min-heap. Each entry is addressed by a slot its record's
/// [`FlightState`] holds, so a send re-keys it and an ack or eviction
/// removes it in O(log W) without a search. The vectors are sized by the
/// window and reused: rounds and acks allocate nothing once warm, where a
/// B-tree allocates a node per ~8 records it grows by.
#[derive(Clone, Debug, Default)]
struct Deadlines {
    /// `(next_retry, seq, slot)` entries in heap order (seqs are unique,
    /// so the slot never decides a comparison).
    heap: Vec<(SimTime, u64, usize)>,
    /// Each occupied slot's position in `heap`.
    at: Vec<usize>,
    /// Slots free for the next insert.
    vacant: Vec<usize>,
}

impl Deadlines {
    fn len(&self) -> usize {
        self.heap.len()
    }

    /// Adds an entry and returns the slot that addresses it.
    fn insert(&mut self, next_retry: SimTime, seq: u64) -> usize {
        let slot = self.vacant.pop().unwrap_or(self.at.len());
        if slot == self.at.len() {
            self.at.push(0);
        }
        self.heap.push((next_retry, seq, slot));
        self.restore(self.heap.len() - 1);
        slot
    }

    /// Moves the entry at `slot` to a new deadline.
    fn rekey(&mut self, slot: usize, next_retry: SimTime) {
        let Some(&i) = self.at.get(slot) else {
            return;
        };
        if let Some(entry) = self.heap.get_mut(i) {
            entry.0 = next_retry;
            self.restore(i);
        }
    }

    /// Removes the entry at `slot`.
    fn remove(&mut self, slot: usize) {
        let Some(&i) = self.at.get(slot) else {
            return;
        };
        self.heap.swap_remove(i);
        self.vacant.push(slot);
        if i < self.heap.len() {
            self.restore(i);
        }
    }

    /// Appends the seq of every entry due at `now`, in no particular
    /// order. In heap order an entry not yet due has none due below it,
    /// so the walk visits the due entries and at most their children.
    fn due_into(&self, now: SimTime, out: &mut Vec<u64>) {
        fn walk(heap: &[(SimTime, u64, usize)], i: usize, now: SimTime, out: &mut Vec<u64>) {
            if let Some(&(next_retry, seq, _)) = heap.get(i) {
                if next_retry <= now {
                    out.push(seq);
                    walk(heap, 2 * i + 1, now, out);
                    walk(heap, 2 * i + 2, now, out);
                }
            }
        }
        walk(&self.heap, 0, now, out);
    }

    /// Sifts the entry at heap position `i` up or down until heap order
    /// holds again, keeping `at` in step.
    fn restore(&mut self, mut i: usize) {
        let Some(&entry) = self.heap.get(i) else {
            return;
        };
        while let Some(&parent) = i.checked_sub(1).and_then(|j| self.heap.get(j / 2)) {
            if entry >= parent {
                break;
            }
            self.place(i, parent);
            i = (i - 1) / 2;
        }
        loop {
            let left = 2 * i + 1;
            let (child, &lesser) = match (self.heap.get(left), self.heap.get(left + 1)) {
                (Some(l), Some(r)) if r < l => (left + 1, r),
                (Some(l), _) => (left, l),
                (None, _) => break,
            };
            if entry < lesser {
                break;
            }
            self.place(i, lesser);
            i = child;
        }
        self.place(i, entry);
    }

    /// Puts `entry` at heap position `i` (inside the heap) and records it.
    fn place(&mut self, i: usize, entry: (SimTime, u64, usize)) {
        if let Some(at) = self.heap.get_mut(i) {
            *at = entry;
        }
        if let Some(at) = self.at.get_mut(entry.2) {
            *at = i;
        }
    }
}

/// What one admission pass did: records examined, records sent, and
/// whether the network refused a send (which ends the pass).
#[derive(Clone, Copy, Debug, Default)]
struct Admitted {
    scanned: usize,
    sent: usize,
    refused: bool,
}

/// A buffered update plus its transmission state, at its seq's place in
/// the engine's [`Backlog`].
#[derive(Clone, Debug)]
struct PendingRecord {
    record: UpdateRecord,
    /// `Some` once transmitted and awaiting an ack.
    flight: Option<FlightState>,
}

/// The engine's buffered records, by seq. Seqs are assigned densely and
/// in order, so the backlog is a window of slots indexed by `seq − base`:
/// an enqueue is a push at the back, a lookup one index, a release empties
/// a slot, and emptied slots are trimmed off the front, so the front slot
/// is always live. Every seq in `[base, end())` has a slot; every one
/// below `base` is released, evicted or a straggler.
///
/// A live front record that is never acked would otherwise hold the
/// window open behind it while the records after it are acked and
/// released. So after an ack the window holds at most `max_holes` emptied
/// slots: past that, the front record moves to `stragglers`, a small
/// ordered side table below `base`, and the window trims up to the next
/// live slot. The slot count therefore stays within the live records plus
/// the in-flight window, and the lowest buffered seq (eviction, the
/// floor) is the first straggler, else `base`, exactly as a seq-keyed
/// table would answer.
#[derive(Clone, Debug, Default)]
struct Backlog {
    /// `slots[i]` holds seq `base + i`; `None` once released.
    slots: VecDeque<Option<PendingRecord>>,
    /// The seq of `slots[0]`; the next seq to assign when `slots` is empty.
    base: u64,
    /// Live records in `slots`.
    held: usize,
    /// Live records below `base`, moved out of the window's front.
    stragglers: BTreeMap<u64, PendingRecord>,
}

impl Backlog {
    /// Buffered records.
    fn len(&self) -> usize {
        self.held + self.stragglers.len()
    }

    /// The seq the next pushed record gets. Every seq below it that is not
    /// buffered was released or evicted.
    fn end(&self) -> u64 {
        self.base + to_u64(self.slots.len())
    }

    /// The lowest buffered seq.
    fn first(&self) -> Option<u64> {
        match self.stragglers.first_key_value() {
            Some((&seq, _)) => Some(seq),
            None => (!self.slots.is_empty()).then_some(self.base),
        }
    }

    /// The lowest buffered seq at or above `from`.
    fn first_from(&self, from: u64) -> Option<u64> {
        if from < self.base {
            if let Some((&seq, _)) = self.stragglers.range(from..).next() {
                return Some(seq);
            }
        }
        let lo = self.index(from.max(self.base))?;
        if lo >= self.slots.len() {
            return None;
        }
        let ahead = self.slots.range(lo..).position(Option::is_some)?;
        Some(from.max(self.base) + to_u64(ahead))
    }

    fn get(&self, seq: u64) -> Option<&PendingRecord> {
        if seq < self.base {
            return self.stragglers.get(&seq);
        }
        self.slots.get(self.index(seq)?)?.as_ref()
    }

    fn get_mut(&mut self, seq: u64) -> Option<&mut PendingRecord> {
        if seq < self.base {
            return self.stragglers.get_mut(&seq);
        }
        let i = self.index(seq)?;
        self.slots.get_mut(i)?.as_mut()
    }

    /// Buffers `record` under the next seq, [`Backlog::end`].
    fn push(&mut self, record: PendingRecord) {
        self.slots.push_back(Some(record));
        self.held += 1;
    }

    /// Removes the lowest buffered record.
    fn pop_first(&mut self) -> Option<PendingRecord> {
        if let Some((_, p)) = self.stragglers.pop_first() {
            return Some(p);
        }
        let p = self.slots.pop_front()?;
        self.base += 1;
        self.held -= usize::from(p.is_some());
        self.trim();
        p
    }

    /// Releases every buffered seq in `[from, to)`, removing each released
    /// in-flight record's deadline. Returns the records released and the
    /// window slots visited (each seq of the range inside the window, live
    /// or not). The window is trimmed later, by [`Backlog::settle`], so
    /// `base` stays put across the runs of one ack.
    fn release(&mut self, from: u64, to: u64, deadlines: &mut Deadlines) -> (u64, u64) {
        let mut released = 0u64;
        let below = to.min(self.base);
        if from < below {
            while let Some((&seq, _)) = self.stragglers.range(from..below).next() {
                if let Some(f) = self.stragglers.remove(&seq).and_then(|p| p.flight) {
                    deadlines.remove(f.slot);
                }
                released += 1;
            }
        }
        let (Some(lo), Some(hi)) = (
            self.index(from.max(self.base)),
            self.index(to.min(self.end()).max(self.base)),
        ) else {
            return (released, 0);
        };
        if lo >= hi {
            return (released, 0);
        }
        for slot in self.slots.range_mut(lo..hi) {
            if let Some(p) = slot.take() {
                if let Some(f) = p.flight {
                    deadlines.remove(f.slot);
                }
                self.held -= 1;
                released += 1;
            }
        }
        (released, to_u64(hi - lo))
    }

    /// Trims emptied slots off the front, then moves live front records to
    /// the straggler table until at most `max_holes` emptied slots remain.
    fn settle(&mut self, max_holes: usize) {
        self.trim();
        while self.slots.len() - self.held > max_holes {
            if let Some(Some(p)) = self.slots.pop_front() {
                self.stragglers.insert(self.base, p);
                self.held -= 1;
            }
            self.base += 1;
            self.trim();
        }
    }

    /// Pops emptied slots off the front.
    fn trim(&mut self) {
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// The slot index of `seq` (≥ `base`), if it fits a `usize`.
    fn index(&self, seq: u64) -> Option<usize> {
        usize::try_from(seq - self.base).ok()
    }
}

/// Builds a [`FogSync`] with named, defaulted retry parameters.
///
/// Out-of-range values are clamped into their valid domain rather than
/// rejected (capacity and window to ≥ 1, backoff factor to ≥ 1, jitter to
/// `[0, 1]`), so `build` cannot fail.
///
/// # Example
/// ```
/// use swamp_fog::sync::FogSync;
/// use swamp_sim::SimDuration;
///
/// let sync = FogSync::builder("fog", "cloud")
///     .capacity(10_000)
///     .base_timeout(SimDuration::from_secs(10))
///     .backoff(2.0, SimDuration::from_secs(120))
///     .jitter(0.1)
///     .max_in_flight(256)
///     .build();
/// assert_eq!(sync.pending(), 0);
/// ```
#[derive(Clone, Debug)]
pub struct FogSyncBuilder {
    node: NodeId,
    cloud: NodeId,
    capacity: usize,
    base_timeout: SimDuration,
    backoff_factor: f64,
    max_backoff: SimDuration,
    jitter: f64,
    max_in_flight: usize,
    seed: u64,
}

impl FogSyncBuilder {
    fn new(node: NodeId, cloud: NodeId) -> Self {
        FogSyncBuilder {
            node,
            cloud,
            capacity: 100_000,
            base_timeout: SimDuration::from_secs(30),
            backoff_factor: 2.0,
            max_backoff: SimDuration::from_secs(480),
            jitter: 0.1,
            max_in_flight: DEFAULT_WINDOW,
            seed: 0x666f675f73796e63, // "fog_sync"
        }
    }

    /// Buffer capacity in records (clamped to ≥ 1). Default 100 000.
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }

    /// Timeout before the first retransmission. Default 30 s.
    pub fn base_timeout(mut self, timeout: SimDuration) -> Self {
        self.base_timeout = timeout;
        self
    }

    /// Exponential backoff: each retry waits `factor` times longer than the
    /// previous one (clamped to ≥ 1), never beyond `cap` or the base
    /// timeout, whichever is longer. Default ×2, capped at 480 s. A factor
    /// of 1 gives the classic constant-interval retransmit.
    pub fn backoff(mut self, factor: f64, cap: SimDuration) -> Self {
        self.backoff_factor = if factor.is_finite() {
            factor.max(1.0)
        } else {
            1.0
        };
        self.max_backoff = cap;
        self
    }

    /// Multiplicative jitter fraction applied to every retry interval
    /// (clamped to `[0, 1]`): an interval `d` becomes uniform in
    /// `[d·(1−j), d·(1+j)]`. Default 0.1.
    pub fn jitter(mut self, fraction: f64) -> Self {
        self.jitter = if fraction.is_finite() {
            fraction.clamp(0.0, 1.0)
        } else {
            0.0
        };
        self
    }

    /// The in-flight window: maximum records awaiting acknowledgement at
    /// once (clamped to ≥ 1), which is also what a backlogged engine
    /// transmits per ack round trip. Default [`DEFAULT_WINDOW`].
    pub fn max_in_flight(mut self, window: usize) -> Self {
        self.max_in_flight = window.max(1);
        self
    }

    /// Seed for the jitter RNG stream. Defaults to a fixed engine seed, so
    /// set this when running multiple engines that must not synchronize.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the engine. Infallible: invalid parameters were clamped by
    /// their setters.
    pub fn build(self) -> FogSync {
        let mut obs = Obs::new();
        let ins = SyncInstruments::register(&mut obs);
        FogSync {
            node: self.node,
            cloud: self.cloud,
            capacity: self.capacity,
            base_timeout: self.base_timeout,
            backoff_factor: self.backoff_factor,
            max_backoff: self.max_backoff,
            jitter: self.jitter,
            max_in_flight: self.max_in_flight,
            rng: SimRng::seed_from(self.seed),
            records: Backlog::default(),
            next_admit: 0,
            deadlines: Deadlines::default(),
            strikes: 0,
            mode: DegradedMode::Connected,
            due: Vec::new(),
            runs: Vec::new(),
            obs,
            ins,
        }
    }
}

/// Fog-side sync engine: bounded buffer + ack/retransmit with exponential
/// backoff, an in-flight window that is its one limit on throughput (see
/// the module's *Flow control* section), and a degraded-mode state machine.
///
/// # Example
/// ```
/// use swamp_fog::sync::FogSync;
/// use swamp_sim::SimTime;
/// let mut sync = FogSync::builder("fog", "cloud").build();
/// sync.enqueue(SimTime::ZERO, "probe-1", b"vwc=0.2".to_vec()).unwrap();
/// assert_eq!(sync.pending(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct FogSync {
    node: NodeId,
    cloud: NodeId,
    capacity: usize,
    base_timeout: SimDuration,
    backoff_factor: f64,
    max_backoff: SimDuration,
    jitter: f64,
    max_in_flight: usize,
    rng: SimRng,
    /// The backlog: a window of slots indexed by `seq − base`, plus the
    /// stragglers below it. Enqueue is a push, a lookup one index, and an
    /// ack walks each slot of its runs at most once; the window holds at
    /// most the live records plus `max_in_flight` released slots.
    records: Backlog,
    /// Admission cursor: buffered seqs below it are in flight, those at or
    /// above it were never transmitted (`records.first_from(next_admit)`
    /// is the next to admit; released slots in between are skipped).
    next_admit: u64,
    /// Exactly one `(next_retry, seq)` per in-flight record.
    deadlines: Deadlines,
    /// Consecutive strike rounds (timeouts / refused sends) without an ack.
    strikes: u32,
    mode: DegradedMode,
    /// Round-scoped scratch for the due seqs, kept warm so steady-state
    /// rounds allocate nothing (see the fog alloc_counts suite).
    due: Vec<u64>,
    /// Ack-scoped scratch: one payload's `[first, end)` runs, sorted.
    runs: Vec<(u64, u64)>,
    obs: Obs,
    ins: SyncInstruments,
}

impl FogSync {
    /// Starts building a sync engine for the fog node talking to the cloud
    /// node. See [`FogSyncBuilder`] for the tunable knobs and defaults.
    pub fn builder(node: impl Into<NodeId>, cloud: impl Into<NodeId>) -> FogSyncBuilder {
        FogSyncBuilder::new(node.into(), cloud.into())
    }

    /// Buffered (not yet acked) update count.
    pub fn pending(&self) -> usize {
        self.records.len()
    }

    /// Records currently awaiting acknowledgement.
    pub fn in_flight(&self) -> usize {
        self.deadlines.len()
    }

    /// Typed snapshot of the engine's instruments: the `sync.*` counters,
    /// the `sync.pending` / `sync.in_flight` / `sync.mode` gauges, the
    /// `sync.retry_interval_ms` backoff histogram, the `sync.round` span
    /// and the `sync.mode` degradation-transition events.
    pub fn observe(&self) -> ObsSnapshot {
        self.obs.snapshot()
    }

    /// Enables or disables instrumentation (for uninstrumented baselines).
    pub fn set_obs_enabled(&mut self, enabled: bool) {
        self.obs.set_enabled(enabled);
    }

    /// Current uplink health as judged by the retry engine.
    pub fn mode(&self) -> DegradedMode {
        self.mode
    }

    /// Queues one update. A full buffer evicts its oldest record (counted
    /// on `sync.dropped`) to favor fresh state.
    ///
    /// # Errors
    /// [`SyncError::KeyTooLong`] if the key cannot be encoded (nothing is
    /// enqueued).
    pub fn enqueue(&mut self, now: SimTime, key: &str, payload: Vec<u8>) -> Result<u64, SyncError> {
        if key.len() > MAX_KEY_LEN {
            return Err(SyncError::KeyTooLong { len: key.len() });
        }
        if self.records.len() >= self.capacity {
            // Evict the oldest (lowest-seq) record, with its deadline.
            if let Some(old) = self.records.pop_first() {
                if let Some(f) = old.flight {
                    self.deadlines.remove(f.slot);
                }
                self.obs.inc(self.ins.dropped);
            }
        }
        let seq = self.records.end();
        self.records.push(PendingRecord {
            record: UpdateRecord {
                seq,
                key: key.to_owned(),
                payload,
                created_at: now,
            },
            flight: None,
        });
        self.obs.inc(self.ins.enqueued);
        Ok(seq)
    }

    /// Queues a batch of `(key, payload)` updates — the bulk mirror of
    /// [`FogSync::enqueue`] for callers that hold a whole batch (the
    /// benchmark's replay driver, tests). The platform's ingestion does not
    /// use it: it enqueues per record, so one refused key costs only its
    /// own record. Validates every key before enqueuing anything. Returns how many
    /// were enqueued — all of them: overflow evicts the oldest records
    /// (counted on `sync.dropped`) rather than refusing new ones.
    ///
    /// # Errors
    /// [`SyncError::KeyTooLong`] if any key cannot be encoded — in that
    /// case no update from the batch is enqueued.
    pub fn enqueue_batch<'a>(
        &mut self,
        now: SimTime,
        items: impl IntoIterator<Item = (&'a str, Vec<u8>)>,
    ) -> Result<usize, SyncError> {
        let items: Vec<(&str, Vec<u8>)> = items.into_iter().collect();
        if let Some(&(key, _)) = items.iter().find(|(k, _)| k.len() > MAX_KEY_LEN) {
            return Err(SyncError::KeyTooLong { len: key.len() });
        }
        let accepted = items.len();
        for (key, payload) in items {
            self.enqueue(now, key, payload)?;
        }
        Ok(accepted)
    }

    /// The retry interval for a record that has been transmitted `attempts`
    /// times: `min(base · factor^(attempts−1), max(cap, base))`, jittered.
    /// The cap bounds the growth, never the base.
    fn retry_interval(&mut self, attempts: u32) -> SimDuration {
        let base_ms = self.base_timeout.as_millis() as f64;
        let cap_ms = self.max_backoff.max(self.base_timeout).as_millis().max(1) as f64;
        let exp = attempts.saturating_sub(1).min(48);
        let mut ms = base_ms * self.backoff_factor.powi(exp as i32);
        if !ms.is_finite() || ms > cap_ms {
            ms = cap_ms;
        }
        if self.jitter > 0.0 {
            let u = self.rng.uniform_f64();
            ms *= 1.0 + self.jitter * (2.0 * u - 1.0);
        }
        let ms = ms.max(1.0);
        self.obs.record(self.ins.retry_interval_ms, ms);
        SimDuration::from_millis(ms as u64)
    }

    /// Runs one sync round at `now`: retransmits records whose retry timer
    /// expired (they keep the window slots they hold), then
    /// [`FogSync::admit`]s never-transmitted records in enqueue order until
    /// the in-flight window is full. `batch` caps the round's transmissions
    /// further, for drivers that pace themselves; `usize::MAX` leaves the
    /// window as the only limit, which is how the platform's pump calls it.
    /// Feeds the degraded-mode state machine. Returns how many messages
    /// were handed to the network.
    ///
    /// Cost: O((transmissions + due timers) · log W) — the round never
    /// scans the backlog. Due retransmissions are the top of the deadline
    /// heap, new records the window from the admission cursor on, and each
    /// is one indexed lookup.
    pub fn sync_round(&mut self, net: &mut Network, now: SimTime, batch: usize) -> usize {
        let token = self.obs.enter(self.ins.round_span);
        // The scratch vector is an engine field so steady-state rounds
        // don't allocate; taken locally to keep the borrow checker happy.
        let mut due = std::mem::take(&mut self.due);
        self.deadlines.due_into(now, &mut due);
        due.sort_unstable();
        let mut scanned = due.len();
        due.truncate(batch);
        let expired = due.len();

        // Every in-flight seq lies below the admission cursor, so the due
        // retransmissions, then admissions while the window has room, are
        // one ascending seq order. Backoff schedules (and their jitter RNG
        // draws) happen per successful send, in that order. Nothing leaves
        // the table during the round, so one floor holds for all of its
        // sends.
        let floor = self.floor();
        let mut sent = 0;
        let mut refused = false;
        for &seq in &due {
            if !self.transmit(net, now, seq, floor) {
                refused = true;
                break;
            }
            sent += 1;
        }
        if !refused {
            let admitted = self.admit_from(net, now, batch - sent, floor);
            scanned += admitted.scanned;
            sent += admitted.sent;
            refused = admitted.refused;
        }
        self.obs.add(self.ins.timeouts, expired as u64);
        self.obs.record(self.ins.round_scanned, scanned as f64);
        due.clear();
        self.due = due;

        if expired > 0 || refused {
            self.strikes = self.strikes.saturating_add(1);
            let mode = if self.strikes >= OFFLINE_AFTER {
                DegradedMode::Offline
            } else if self.strikes >= DEGRADED_AFTER {
                DegradedMode::Degraded
            } else {
                self.mode
            };
            self.set_mode(mode, now);
        }
        self.refresh_gauges();
        self.obs.exit(token);
        sent
    }

    /// Transmits never-transmitted records at `now`, in enqueue order,
    /// while the in-flight window has room and at most `budget` of them.
    /// This is the admission half of [`FogSync::sync_round`], for callers
    /// that hand the engine records between rounds and want them on the
    /// wire at once rather than at the next round: it retransmits nothing,
    /// fires no timer and grades no strike — a send the network refuses
    /// stops the admission and leaves the rest above the cursor for the
    /// next round, which registers the strike. Returns how many records
    /// were handed to the network.
    ///
    /// Cost: O(admitted · log W), whatever the backlog depth.
    pub fn admit(&mut self, net: &mut Network, now: SimTime, budget: usize) -> usize {
        let floor = self.floor();
        let admitted = self.admit_from(net, now, budget, floor);
        if admitted.scanned > 0 {
            self.obs
                .record(self.ins.round_scanned, admitted.scanned as f64);
        }
        // Enqueues since the last round moved `sync.pending` too.
        self.refresh_gauges();
        admitted.sent
    }

    /// The sender floor every record on the wire carries: the lowest
    /// buffered seq, or the next to assign when nothing is buffered.
    fn floor(&self) -> u64 {
        self.records.first().unwrap_or(self.records.end())
    }

    /// [`FogSync::admit`] with the caller's `floor`, uninstrumented.
    fn admit_from(
        &mut self,
        net: &mut Network,
        now: SimTime,
        budget: usize,
        floor: u64,
    ) -> Admitted {
        let mut admitted = Admitted::default();
        while admitted.sent < budget && self.deadlines.len() < self.max_in_flight {
            // Released slots above the cursor hold nothing to send, so the
            // cursor moves past them once.
            let Some(seq) = self.records.first_from(self.next_admit) else {
                self.next_admit = self.records.end();
                break;
            };
            self.next_admit = seq;
            admitted.scanned += 1;
            if !self.transmit(net, now, seq, floor) {
                admitted.refused = true;
                break;
            }
            admitted.sent += 1;
        }
        admitted
    }

    /// Sends the buffered record `seq` and (re)arms its retry timer: a
    /// first transmission takes a window slot and moves the admission
    /// cursor past it, a retransmission re-keys the slot it holds. `false`
    /// if the network refused the send synchronously (no route, denied):
    /// what was not sent keeps its deadline, or stays above the cursor.
    fn transmit(&mut self, net: &mut Network, now: SimTime, seq: u64, floor: u64) -> bool {
        let Some(p) = self.records.get(seq) else {
            return false; // unreachable: callers index the live backlog
        };
        let prior = p.flight;
        let msg = Message::new(SYNC_TOPIC, encode_record(&p.record, floor));
        if net.send(now, &self.node, &self.cloud, msg).is_err() {
            return false;
        }
        self.obs.inc(self.ins.transmissions);
        let attempts = prior.map_or(1, |f| f.attempts + 1);
        let next_retry = now.saturating_add(self.retry_interval(attempts));
        let slot = match prior {
            Some(f) => {
                self.obs.inc(self.ins.retransmissions);
                self.deadlines.rekey(f.slot, next_retry);
                f.slot
            }
            None => {
                self.next_admit = seq + 1;
                self.deadlines.insert(next_retry, seq)
            }
        };
        if let Some(p) = self.records.get_mut(seq) {
            p.flight = Some(FlightState { attempts, slot });
        }
        true
    }

    /// Processes an ack payload from the cloud at `now`, releasing
    /// confirmed records exactly once. Any released record resets the
    /// degraded-mode state machine to `Connected`.
    ///
    /// The payload is a list of `(first seq, count)` runs, each two
    /// big-endian u64s, as [`CloudStore`] sends them. Each release empties
    /// one window slot, O(1), and removes its deadline, O(log W) in the
    /// in-flight window; the rest of a run is classified by arithmetic.
    /// The runs are taken in ascending order and each resumes where the
    /// ones before it stopped, so one payload visits each window slot at
    /// most once, however its runs overlap (a seq acked twice in one
    /// drain starts a run of its own). A seq no longer buffered is a
    /// duplicate if this engine assigned it (it was released or evicted
    /// before), counted on `sync.duplicate_acks`, and unknown otherwise,
    /// counted on `sync.unknown_acks`.
    ///
    /// # Errors
    /// [`SyncError::MalformedAck`] if the payload is not a whole number of
    /// 16-byte runs or a run ends past `u64::MAX` (nothing is released).
    pub fn process_ack(&mut self, now: SimTime, payload: &[u8]) -> Result<AckOutcome, SyncError> {
        self.release_acked(now, payload)
            .map(|(outcome, _visited)| outcome)
    }

    /// [`FogSync::process_ack`], also returning how many window slots the
    /// payload's runs visited.
    fn release_acked(
        &mut self,
        now: SimTime,
        payload: &[u8],
    ) -> Result<(AckOutcome, u64), SyncError> {
        let malformed = SyncError::MalformedAck { len: payload.len() };
        if !payload.len().is_multiple_of(ACK_RUN_BYTES) {
            return Err(malformed);
        }
        let mut runs = std::mem::take(&mut self.runs);
        runs.clear();
        for run in ack_runs(payload) {
            let Some(run) = run else {
                self.runs = runs;
                return Err(malformed);
            };
            runs.push(run);
        }
        // Counts are sums over the runs, so their order decides nothing;
        // ascending, every seq below `walked` was covered by an earlier
        // run and is buffered no longer.
        runs.sort_unstable();
        let next_seq = self.records.end();
        let mut outcome = AckOutcome::default();
        let mut walked = 0u64;
        let mut visited = 0u64;
        for &(first, end) in &runs {
            let (released, visits) =
                self.records
                    .release(first.max(walked), end, &mut self.deadlines);
            walked = walked.max(end);
            visited += visits;
            // Seqs below `next_seq` were assigned here; the rest never were.
            let assigned = end.min(next_seq).saturating_sub(first);
            let duplicate = assigned - released;
            let unknown = end - first - assigned;
            self.obs.add(self.ins.acked, released);
            self.obs.add(self.ins.duplicate_acks, duplicate);
            self.obs.add(self.ins.unknown_acks, unknown);
            outcome.released += count(released);
            outcome.duplicate += count(duplicate);
            outcome.unknown += count(unknown);
        }
        self.runs = runs;
        self.records.settle(self.max_in_flight);
        if outcome.released > 0 {
            self.strikes = 0;
            self.set_mode(DegradedMode::Connected, now);
        }
        self.refresh_gauges();
        Ok((outcome, visited))
    }

    /// Drains the fog node's network inbox at `now`, handling ack messages.
    /// Malformed ack payloads are counted in the outcome rather than
    /// aborting the drain (bytes off the wire are not the caller's fault).
    pub fn poll_acks(&mut self, net: &mut Network, now: SimTime) -> AckOutcome {
        let mut total = AckOutcome::default();
        let deliveries = net.drain(&self.node);
        for d in deliveries {
            if d.message.topic == ACK_TOPIC {
                match self.process_ack(now, &d.message.payload) {
                    Ok(outcome) => total.absorb(outcome),
                    Err(_) => total.malformed += 1,
                }
            }
        }
        total
    }

    fn set_mode(&mut self, mode: DegradedMode, now: SimTime) {
        if self.mode != mode {
            // Downgrades warn; recovery to Connected is informational.
            let level = if mode == DegradedMode::Connected {
                Level::Info
            } else {
                Level::Warn
            };
            self.obs.event(
                level,
                "sync.mode",
                &format!("{}->{} @{}ms", self.mode, mode, now.as_millis()),
            );
            self.mode = mode;
        }
    }

    /// Refreshes the buffer-occupancy and mode gauges after a round or an
    /// ack drain (the points where they can change).
    fn refresh_gauges(&mut self) {
        self.obs.set(self.ins.pending, self.records.len() as f64);
        self.obs
            .set(self.ins.in_flight, self.deadlines.len() as f64);
        let mode = match self.mode {
            DegradedMode::Connected => 0.0,
            DegradedMode::Degraded => 1.0,
            DegradedMode::Offline => 2.0,
        };
        self.obs.set(self.ins.mode, mode);
    }
}

/// Which of one source's sequence numbers are settled: every seq below
/// `next` (applied, or given up by the sender), plus the members of
/// `ahead` (applied beyond a gap). An in-order stream keeps `ahead` empty,
/// so the table stays one word per source however long the run; it grows
/// only with records that overtook a seq still missing, and empties when
/// the gap fills or the sender's floor passes it (the sender acked or
/// evicted the missing seq).
#[derive(Clone, Debug, Default)]
struct SeenSeqs {
    next: u64,
    ahead: BTreeSet<u64>,
}

impl SeenSeqs {
    /// Marks `seq` applied; `false` if it already was settled.
    fn insert(&mut self, seq: u64) -> bool {
        if seq < self.next {
            return false;
        }
        // `u64::MAX` can never fall below a watermark; it lives in `ahead`.
        if seq > self.next || seq == u64::MAX {
            return self.ahead.insert(seq);
        }
        self.next += 1;
        self.absorb_ahead();
        true
    }

    /// Settles every seq below the sender's `floor`: the sender will never
    /// transmit one again.
    fn raise_floor(&mut self, floor: u64) {
        if floor > self.next {
            self.next = floor;
            self.ahead = self.ahead.split_off(&floor);
            self.absorb_ahead();
        }
    }

    fn absorb_ahead(&mut self) {
        while self.next < u64::MAX && self.ahead.remove(&self.next) {
            self.next += 1;
        }
    }
}

/// Typed handles for the cloud store's instruments (`cloud.*`).
#[derive(Clone, Debug)]
struct CloudInstruments {
    accepted: Counter,
    duplicates: Counter,
    /// [`SYNC_TOPIC`] records that did not decode: neither applied nor
    /// acked.
    malformed: Counter,
    /// Ack sends the network refused (e.g. during a partition window); the
    /// fog's retry engine covers the loss, so a refusal is counted, never
    /// an error.
    acks_refused: Counter,
}

impl CloudInstruments {
    fn register(obs: &mut Obs) -> CloudInstruments {
        CloudInstruments {
            accepted: obs.counter("cloud.accepted"),
            duplicates: obs.counter("cloud.duplicates"),
            malformed: obs.counter("cloud.malformed"),
            acks_refused: obs.counter("cloud.acks_refused"),
        }
    }
}

/// Cloud-side receiving store: deduplicates per source by sequence number
/// and sends batched acks.
///
/// Every accepted record is stored once, in the append-only run
/// [`CloudStore::history`], and the dedup table is a per-source watermark,
/// so nothing on the accept path grows with the length of an in-order
/// stream except the run itself. A store built with
/// [`CloudStore::in_order`] keeps no run at all: it holds each record only
/// until [`CloudStore::drain_ready`] hands it out.
#[derive(Clone, Debug)]
pub struct CloudStore {
    node: NodeId,
    /// Full history (append order of acceptance).
    history: Vec<UpdateRecord>,
    /// Settled seqs per source node (two fogs may both start at seq 0).
    seen_seqs: BTreeMap<NodeId, SeenSeqs>,
    /// Cursor into `history`: records before it were already handed out by
    /// [`CloudStore::drain_new`] to a downstream applier.
    drained: usize,
    /// In-order stores only ([`CloudStore::in_order`]): accepted records
    /// at or above their source's watermark, waiting for the seqs below
    /// them to settle.
    held: Option<BTreeMap<NodeId, BTreeMap<u64, UpdateRecord>>>,
    /// Records released from `held`, in per-source seq order, awaiting
    /// [`CloudStore::drain_ready`].
    released: Vec<UpdateRecord>,
    /// Call-scoped scratch, kept warm so a call that applies a full window
    /// allocates nothing window-sized: the deliveries [`CloudStore::process`]
    /// drained, and the seqs to ack per source (a source's entry stays,
    /// emptied, between calls).
    inbox: Vec<Delivery>,
    acks: BTreeMap<NodeId, Vec<u64>>,
    obs: Obs,
    ins: CloudInstruments,
}

impl CloudStore {
    /// Creates a store living at the given cloud node.
    pub fn new(node: impl Into<NodeId>) -> Self {
        let mut obs = Obs::new();
        let ins = CloudInstruments::register(&mut obs);
        CloudStore {
            node: node.into(),
            history: Vec::new(),
            seen_seqs: BTreeMap::new(),
            drained: 0,
            held: None,
            released: Vec::new(),
            inbox: Vec::new(),
            acks: BTreeMap::new(),
            obs,
            ins,
        }
    }

    /// Creates a store whose [`CloudStore::drain_ready`] releases each
    /// source's records in sequence order. A record is held until every
    /// smaller seq of its source is settled: applied, or below a floor the
    /// sender stated (acked or evicted there, so never sent again). A seq
    /// the sender's bounded buffer evicted therefore stalls the stream
    /// only until the next record carrying the raised floor lands.
    /// Consumers that replay-check or order-check the stream (e.g. a
    /// per-device replay window behind a gateway relay) need this:
    /// retransmitted records routinely overtake each other on a lossy
    /// uplink. Such a store is a relay, not a replica: a record leaves it
    /// when released, so [`CloudStore::history`], [`CloudStore::latest`]
    /// and [`CloudStore::drain_new`] stay empty.
    pub fn in_order(node: impl Into<NodeId>) -> Self {
        let mut store = CloudStore::new(node);
        store.held = Some(BTreeMap::new());
        store
    }

    /// Records in the applied run: the unique records accepted (always 0
    /// on an in-order store, which keeps nothing after release; its
    /// acceptances are the `cloud.accepted` counter).
    pub fn record_count(&self) -> usize {
        self.history.len()
    }

    /// Typed snapshot of the store's instruments (`cloud.accepted`,
    /// `cloud.duplicates`, `cloud.malformed`, `cloud.acks_refused`).
    pub fn observe(&self) -> ObsSnapshot {
        self.obs.snapshot()
    }

    /// Enables or disables instrumentation (for uninstrumented baselines).
    pub fn set_obs_enabled(&mut self, enabled: bool) {
        self.obs.set_enabled(enabled);
    }

    /// Latest payload for a key: the most recently accepted record that
    /// carries it, found by scanning [`CloudStore::history`] newest first.
    pub fn latest(&self, key: &str) -> Option<&UpdateRecord> {
        self.history.iter().rev().find(|r| r.key == key)
    }

    /// Full accepted history in arrival order.
    pub fn history(&self) -> &[UpdateRecord] {
        &self.history
    }

    /// Records accepted since the last `drain_new` call, advancing the
    /// store's one built-in read cursor. Readers that must not disturb that
    /// cursor (view indexers, the scale-out tier's shard merge) keep
    /// their own position into [`CloudStore::history`] instead.
    pub fn drain_new(&mut self) -> &[UpdateRecord] {
        let from = self.drained;
        self.drained = self.history.len();
        self.history.get(from..).unwrap_or_default()
    }

    /// Records a store built with [`CloudStore::in_order`] released since
    /// the last call, in per-source sequence order. A plain store releases
    /// nothing: its records are read through [`CloudStore::drain_new`].
    pub fn drain_ready(&mut self) -> Vec<UpdateRecord> {
        std::mem::take(&mut self.released)
    }

    /// Drains the cloud inbox, storing records and sending one batched ack
    /// per sync source. Every decodable record is acked — including
    /// duplicates, whose earlier ack may have been lost; an undecodable one
    /// is counted on `cloud.malformed` and neither applied nor acked.
    /// Returns the number of new records accepted.
    pub fn process(&mut self, net: &mut Network, now: SimTime) -> usize {
        let mut inbox = std::mem::take(&mut self.inbox);
        net.drain_into(&self.node, &mut inbox);
        let accepted = self.process_deliveries(net, now, inbox.drain(..));
        self.inbox = inbox;
        accepted
    }

    /// Processes an already-drained batch of deliveries — for callers that
    /// share the cloud node's inbox with other consumers and therefore
    /// drain once and route by topic themselves. Non-[`SYNC_TOPIC`]
    /// deliveries are skipped. Same storage/ack semantics as
    /// [`CloudStore::process`]; each record's floor settles its source's
    /// seqs below it before the record is applied.
    pub fn process_deliveries(
        &mut self,
        net: &mut Network,
        now: SimTime,
        deliveries: impl IntoIterator<Item = Delivery>,
    ) -> usize {
        let mut accepted = 0;
        let mut acks = std::mem::take(&mut self.acks);
        for d in deliveries {
            if d.message.topic != SYNC_TOPIC {
                continue;
            }
            let Some((record, floor)) = decode_record(d.message.payload) else {
                self.obs.inc(self.ins.malformed);
                continue;
            };
            match acks.get_mut(&d.src) {
                Some(seqs) => seqs.push(record.seq),
                None => {
                    acks.insert(d.src.clone(), vec![record.seq]);
                }
            }
            if self.apply(&d.src, floor, record) {
                accepted += 1;
            }
        }
        for (fog, seqs) in &mut acks {
            if seqs.is_empty() {
                continue;
            }
            // Ack sends may race a partition window; the fog's retry engine
            // covers the loss, so a refused ack send is counted, not fatal.
            if net
                .send(
                    now,
                    &self.node,
                    fog,
                    Message::new(ACK_TOPIC, encode_acks(seqs)),
                )
                .is_err()
            {
                self.obs.inc(self.ins.acks_refused);
            }
            seqs.clear();
        }
        self.acks = acks;
        accepted
    }

    /// Applies one already-decoded record from `source`: deduplicated by
    /// that source's sequence numbers, then stored (counted on
    /// `cloud.accepted`, or `cloud.duplicates` when seen before). Returns
    /// whether the record was new. This is the storage half of
    /// [`CloudStore::process_deliveries`], for appliers that already hold
    /// records in process — the scale-out tier appending shard replicas
    /// into its aggregate store — and so have nothing to decode or ack.
    pub fn apply_record(&mut self, source: &NodeId, record: UpdateRecord) -> bool {
        self.apply(source, 0, record)
    }

    /// [`CloudStore::apply_record`] after settling every seq of `source`
    /// below the sender's `floor`; an in-order store then releases what
    /// the watermark passed.
    fn apply(&mut self, source: &NodeId, floor: u64, record: UpdateRecord) -> bool {
        let seen = match self.seen_seqs.get_mut(source) {
            Some(seen) => seen,
            None => self.seen_seqs.entry(source.clone()).or_default(),
        };
        seen.raise_floor(floor);
        let fresh = seen.insert(record.seq);
        let settled = seen.next;
        if fresh {
            self.obs.inc(self.ins.accepted);
        } else {
            self.obs.inc(self.ins.duplicates);
        }
        if let Some(held) = &mut self.held {
            let held = match held.get_mut(source) {
                Some(held) => held,
                None => held.entry(source.clone()).or_default(),
            };
            if fresh {
                held.insert(record.seq, record);
            }
            while let Some(first) = held.first_entry() {
                if *first.key() >= settled {
                    break;
                }
                self.released.push(first.remove());
            }
            return fresh;
        }
        if fresh {
            self.history.push(record);
        }
        fresh
    }
}

/// Encodes a record with the sender's current `floor`. Infallible: key
/// length was validated against [`MAX_KEY_LEN`] at enqueue time (the
/// 16-bit length prefix cannot truncate).
#[deny(clippy::as_conversions)]
fn encode_record(r: &UpdateRecord, floor: u64) -> Vec<u8> {
    let key_bytes = r.key.as_bytes();
    // `min(MAX_KEY_LEN)` bounds the length to u16::MAX, so the fallback
    // arm is unreachable; `try_from` keeps the conversion visibly lossless.
    let key_len = u16::try_from(key_bytes.len().min(MAX_KEY_LEN)).unwrap_or(u16::MAX);
    let mut out = Vec::with_capacity(8 + 8 + 8 + 2 + key_bytes.len() + r.payload.len());
    out.extend_from_slice(&r.seq.to_be_bytes());
    out.extend_from_slice(&floor.to_be_bytes());
    out.extend_from_slice(&r.created_at.as_millis().to_be_bytes());
    out.extend_from_slice(&key_len.to_be_bytes());
    out.extend_from_slice(key_bytes.get(..usize::from(key_len)).unwrap_or_default());
    out.extend_from_slice(&r.payload);
    out
}

/// Decodes a record and its sender floor (the 26-byte header is seq,
/// floor and creation time as big-endian u64s, then a big-endian u16 key
/// length) out of the wire buffer it arrived in: the key is copied out,
/// then the header is cut off in place and the same buffer becomes the
/// record's payload. The payload keeps the wire buffer's capacity, so
/// each stored record carries `26 + key.len()` spare bytes (54 for a
/// device URN) in exchange for not being copied again.
#[deny(clippy::as_conversions)]
fn decode_record(mut bytes: Vec<u8>) -> Option<(UpdateRecord, u64)> {
    let (seq, rest) = bytes.split_first_chunk::<8>()?;
    let (floor, rest) = rest.split_first_chunk::<8>()?;
    let (created_ms, rest) = rest.split_first_chunk::<8>()?;
    let (key_len, rest) = rest.split_first_chunk::<2>()?;
    let key = rest.get(..usize::from(u16::from_be_bytes(*key_len)))?;
    let key = std::str::from_utf8(key).ok()?.to_owned();
    let (seq, floor) = (u64::from_be_bytes(*seq), u64::from_be_bytes(*floor));
    let created_ms = u64::from_be_bytes(*created_ms);
    // The header and key just read are in the buffer, so this is in range.
    bytes.drain(..26 + key.len());
    let record = UpdateRecord {
        seq,
        key,
        payload: bytes,
        created_at: SimTime::from_millis(created_ms),
    };
    Some((record, floor))
}

/// Bytes of one ack run on the wire: its first seq and its length, as
/// big-endian u64s.
const ACK_RUN_BYTES: usize = 16;

/// Encodes the seqs one drain acks as ascending runs of consecutive seqs,
/// `(first, count)` each, so a whole in-order window is one 16-byte run.
/// Sorts `seqs` in place. A seq
/// acked twice in the drain (a wire duplicate) starts a run of its own,
/// so the sender counts the second ack as a duplicate, as it would have
/// from a seq list.
#[deny(clippy::as_conversions)]
fn encode_acks(seqs: &mut [u64]) -> Vec<u8> {
    seqs.sort_unstable();
    let continues = |a: &u64, b: &u64| a.checked_add(1) == Some(*b);
    let mut out = Vec::with_capacity(seqs.chunk_by(continues).count() * ACK_RUN_BYTES);
    for run in seqs.chunk_by(continues) {
        if let Some(first) = run.first() {
            out.extend_from_slice(&first.to_be_bytes());
            out.extend_from_slice(&to_u64(run.len()).to_be_bytes());
        }
    }
    out
}

/// The `[first, end)` seq ranges of an ack payload whose length is a
/// multiple of [`ACK_RUN_BYTES`]; `None` for a run that ends past
/// `u64::MAX`.
#[deny(clippy::as_conversions)]
fn ack_runs(payload: &[u8]) -> impl Iterator<Item = Option<(u64, u64)>> + '_ {
    payload.chunks_exact(ACK_RUN_BYTES).map(|run| {
        let (first, len) = run.split_first_chunk::<8>()?;
        let first = u64::from_be_bytes(*first);
        let len = u64::from_be_bytes(len.try_into().ok()?);
        Some((first, first.checked_add(len)?))
    })
}

/// A seq count as an [`AckOutcome`] field (saturating on a 32-bit target).
fn count(n: u64) -> usize {
    usize::try_from(n).unwrap_or(usize::MAX)
}

/// A slot count as a seq distance (lossless on every supported target).
fn to_u64(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    #![expect(
        clippy::indexing_slicing,
        reason = "tests index what they just built; a panic fails the test"
    )]
    use super::*;
    use swamp_net::link::LinkSpec;

    fn setup(loss: f64) -> (Network, FogSync, CloudStore) {
        let mut net = Network::new(11);
        net.add_node("fog");
        net.add_node("cloud");
        net.connect(
            "fog",
            "cloud",
            LinkSpec::new(
                SimDuration::from_millis(50),
                SimDuration::ZERO,
                loss,
                10_000_000,
            ),
        );
        let sync = FogSync::builder("fog", "cloud")
            .capacity(1000)
            .base_timeout(SimDuration::from_secs(5))
            .backoff(2.0, SimDuration::from_secs(60))
            .jitter(0.0)
            .build();
        (net, sync, CloudStore::new("cloud"))
    }

    /// The value of the counter `name` in an engine's or a store's snapshot.
    fn counter(snap: ObsSnapshot, name: &str) -> u64 {
        snap.counter(name).unwrap()
    }

    /// Partitions the fog↔cloud link over `[start, end)`.
    fn partition_uplink(net: &mut Network, start: SimTime, end: SimTime) {
        let mut plan = swamp_net::FaultPlan::new(11);
        plan.add_partition("fog", "cloud", start, end).unwrap();
        net.install_fault_plan(plan);
    }

    /// Runs rounds of sync/process until quiescent or `rounds` exhausted.
    fn pump(
        net: &mut Network,
        sync: &mut FogSync,
        cloud: &mut CloudStore,
        start: SimTime,
        rounds: usize,
    ) -> SimTime {
        let mut now = start;
        for _ in 0..rounds {
            sync.sync_round(net, now, 64);
            now += SimDuration::from_secs(1);
            net.advance_to(now);
            cloud.process(net, now);
            now += SimDuration::from_secs(1);
            net.advance_to(now);
            sync.poll_acks(net, now);
            now += SimDuration::from_secs(5);
            if sync.pending() == 0 {
                break;
            }
        }
        now
    }

    /// Every buffered record in seq order: the stragglers, then the
    /// window's live slots.
    fn buffered(sync: &FogSync) -> Vec<(u64, &PendingRecord)> {
        let b = &sync.records;
        let window = b
            .slots
            .iter()
            .zip(b.base..)
            .filter_map(|(slot, seq)| Some((seq, slot.as_ref()?)));
        b.stragglers
            .iter()
            .map(|(&seq, p)| (seq, p))
            .chain(window)
            .collect()
    }

    /// The window's invariants after any call: a live front slot, an exact
    /// live count, each record in its seq's slot, stragglers below `base`,
    /// and at most `max_in_flight` released slots, so the slot count stays
    /// within the live records plus the in-flight window.
    fn check_window(sync: &FogSync, at: &str) {
        let b = &sync.records;
        assert!(
            b.slots.front().is_none_or(Option::is_some),
            "{at}: front slot live"
        );
        assert_eq!(b.held, b.slots.iter().flatten().count(), "{at}: live count");
        for (slot, seq) in b.slots.iter().zip(b.base..) {
            if let Some(p) = slot {
                assert_eq!(p.record.seq, seq, "{at}: slot of {seq}");
            }
        }
        assert!(
            b.stragglers.keys().all(|&seq| seq < b.base),
            "{at}: stragglers below base"
        );
        assert!(
            b.slots.len() <= b.held + sync.max_in_flight,
            "{at}: {} slots for {} live records",
            b.slots.len(),
            b.held
        );
    }

    /// The engine as it stood with its backlog in a seq-keyed `BTreeMap`:
    /// the reference the window is checked against. Every decision is
    /// written out again here, on the map, in the order the engine made it
    /// (the same instruments, RNG draws and events).
    struct TreeSync {
        cfg: FogSyncBuilder,
        rng: SimRng,
        records: BTreeMap<u64, PendingRecord>,
        next_admit: u64,
        deadlines: Deadlines,
        next_seq: u64,
        strikes: u32,
        mode: DegradedMode,
        obs: Obs,
        ins: SyncInstruments,
    }

    impl TreeSync {
        fn new(cfg: FogSyncBuilder) -> TreeSync {
            let mut obs = Obs::new();
            let ins = SyncInstruments::register(&mut obs);
            TreeSync {
                rng: SimRng::seed_from(cfg.seed),
                cfg,
                records: BTreeMap::new(),
                next_admit: 0,
                deadlines: Deadlines::default(),
                next_seq: 0,
                strikes: 0,
                mode: DegradedMode::Connected,
                obs,
                ins,
            }
        }

        fn floor(&self) -> u64 {
            self.records
                .first_key_value()
                .map_or(self.next_seq, |(&seq, _)| seq)
        }

        fn enqueue(&mut self, now: SimTime, key: &str, payload: Vec<u8>) -> u64 {
            if self.records.len() >= self.cfg.capacity {
                if let Some((_, old)) = self.records.pop_first() {
                    if let Some(f) = old.flight {
                        self.deadlines.remove(f.slot);
                    }
                    self.obs.inc(self.ins.dropped);
                }
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            let record = UpdateRecord {
                seq,
                key: key.to_owned(),
                payload,
                created_at: now,
            };
            let flight = None;
            self.records.insert(seq, PendingRecord { record, flight });
            self.obs.inc(self.ins.enqueued);
            seq
        }

        fn retry_interval(&mut self, attempts: u32) -> SimDuration {
            let c = &self.cfg;
            let base_ms = c.base_timeout.as_millis() as f64;
            let cap_ms = c.max_backoff.max(c.base_timeout).as_millis().max(1) as f64;
            let exp = attempts.saturating_sub(1).min(48) as i32;
            let mut ms = base_ms * c.backoff_factor.powi(exp);
            if !ms.is_finite() || ms > cap_ms {
                ms = cap_ms;
            }
            if c.jitter > 0.0 {
                ms *= 1.0 + c.jitter * (2.0 * self.rng.uniform_f64() - 1.0);
            }
            let ms = ms.max(1.0);
            self.obs.record(self.ins.retry_interval_ms, ms);
            SimDuration::from_millis(ms as u64)
        }

        fn sync_round(&mut self, net: &mut Network, now: SimTime, batch: usize) -> usize {
            let token = self.obs.enter(self.ins.round_span);
            let mut due = Vec::new();
            self.deadlines.due_into(now, &mut due);
            due.sort_unstable();
            let mut scanned = due.len();
            due.truncate(batch);
            let expired = due.len();
            let floor = self.floor();
            let mut sent = 0;
            let mut refused = false;
            for &seq in &due {
                if !self.transmit(net, now, seq, floor) {
                    refused = true;
                    break;
                }
                sent += 1;
            }
            if !refused {
                let (examined, admitted, cut) = self.admit_from(net, now, batch - sent, floor);
                scanned += examined;
                sent += admitted;
                refused = cut;
            }
            self.obs.add(self.ins.timeouts, expired as u64);
            self.obs.record(self.ins.round_scanned, scanned as f64);
            if expired > 0 || refused {
                self.strikes = self.strikes.saturating_add(1);
                let mode = if self.strikes >= OFFLINE_AFTER {
                    DegradedMode::Offline
                } else if self.strikes >= DEGRADED_AFTER {
                    DegradedMode::Degraded
                } else {
                    self.mode
                };
                self.set_mode(mode, now);
            }
            self.refresh_gauges();
            self.obs.exit(token);
            sent
        }

        fn admit(&mut self, net: &mut Network, now: SimTime, budget: usize) -> usize {
            let floor = self.floor();
            let (examined, admitted, _) = self.admit_from(net, now, budget, floor);
            if examined > 0 {
                self.obs.record(self.ins.round_scanned, examined as f64);
            }
            self.refresh_gauges();
            admitted
        }

        /// `(examined, sent, refused)`.
        fn admit_from(
            &mut self,
            net: &mut Network,
            now: SimTime,
            budget: usize,
            floor: u64,
        ) -> (usize, usize, bool) {
            let (mut examined, mut sent) = (0, 0);
            while sent < budget && self.deadlines.len() < self.cfg.max_in_flight {
                let Some((&seq, _)) = self.records.range(self.next_admit..).next() else {
                    break;
                };
                examined += 1;
                if !self.transmit(net, now, seq, floor) {
                    return (examined, sent, true);
                }
                sent += 1;
            }
            (examined, sent, false)
        }

        fn transmit(&mut self, net: &mut Network, now: SimTime, seq: u64, floor: u64) -> bool {
            let p = &self.records[&seq];
            let prior = p.flight;
            let msg = Message::new(SYNC_TOPIC, encode_record(&p.record, floor));
            if net.send(now, &self.cfg.node, &self.cfg.cloud, msg).is_err() {
                return false;
            }
            self.obs.inc(self.ins.transmissions);
            let attempts = prior.map_or(1, |f| f.attempts + 1);
            let next_retry = now.saturating_add(self.retry_interval(attempts));
            let slot = match prior {
                Some(f) => {
                    self.obs.inc(self.ins.retransmissions);
                    self.deadlines.rekey(f.slot, next_retry);
                    f.slot
                }
                None => {
                    self.next_admit = seq + 1;
                    self.deadlines.insert(next_retry, seq)
                }
            };
            self.records.get_mut(&seq).unwrap().flight = Some(FlightState { attempts, slot });
            true
        }

        fn process_ack(&mut self, now: SimTime, payload: &[u8]) -> Result<AckOutcome, SyncError> {
            if !payload.len().is_multiple_of(ACK_RUN_BYTES)
                || ack_runs(payload).any(|r| r.is_none())
            {
                return Err(SyncError::MalformedAck { len: payload.len() });
            }
            let mut outcome = AckOutcome::default();
            for (first, end) in ack_runs(payload).flatten() {
                let mut released = 0u64;
                while let Some((&seq, _)) = self.records.range(first..end).next() {
                    if let Some(f) = self.records.remove(&seq).and_then(|p| p.flight) {
                        self.deadlines.remove(f.slot);
                    }
                    released += 1;
                }
                let assigned = end.min(self.next_seq).saturating_sub(first);
                let duplicate = assigned - released;
                let unknown = end - first - assigned;
                self.obs.add(self.ins.acked, released);
                self.obs.add(self.ins.duplicate_acks, duplicate);
                self.obs.add(self.ins.unknown_acks, unknown);
                outcome.released += count(released);
                outcome.duplicate += count(duplicate);
                outcome.unknown += count(unknown);
            }
            if outcome.released > 0 {
                self.strikes = 0;
                self.set_mode(DegradedMode::Connected, now);
            }
            self.refresh_gauges();
            Ok(outcome)
        }

        fn poll_acks(&mut self, net: &mut Network, now: SimTime) -> AckOutcome {
            let mut total = AckOutcome::default();
            for d in net.drain(&self.cfg.node) {
                if d.message.topic == ACK_TOPIC {
                    match self.process_ack(now, &d.message.payload) {
                        Ok(outcome) => total.absorb(outcome),
                        Err(_) => total.malformed += 1,
                    }
                }
            }
            total
        }

        fn set_mode(&mut self, mode: DegradedMode, now: SimTime) {
            if self.mode != mode {
                let level = if mode == DegradedMode::Connected {
                    Level::Info
                } else {
                    Level::Warn
                };
                let detail = format!("{}->{} @{}ms", self.mode, mode, now.as_millis());
                self.obs.event(level, "sync.mode", &detail);
                self.mode = mode;
            }
        }

        fn refresh_gauges(&mut self) {
            self.obs.set(self.ins.pending, self.records.len() as f64);
            self.obs
                .set(self.ins.in_flight, self.deadlines.len() as f64);
            let mode = match self.mode {
                DegradedMode::Connected => 0.0,
                DegradedMode::Degraded => 1.0,
                DegradedMode::Offline => 2.0,
            };
            self.obs.set(self.ins.mode, mode);
        }
    }

    /// The engine and the reference model driven by the same calls, each on
    /// its own identically seeded and faulted network with its own cloud
    /// store. [`Rig::agree`] holds them equal after every call.
    struct Rig {
        sync: FogSync,
        model: TreeSync,
        nets: [Network; 2],
        taps: [swamp_net::network::TapId; 2],
        tapped: usize,
        clouds: [CloudStore; 2],
        now: SimTime,
    }

    impl Rig {
        fn new(cfg: FogSyncBuilder, net: impl Fn() -> Network) -> Rig {
            let mut nets = [net(), net()];
            let taps = nets.each_mut().map(|n| n.add_tap("fog", "cloud"));
            Rig {
                sync: cfg.clone().build(),
                model: TreeSync::new(cfg),
                nets,
                taps,
                tapped: 0,
                clouds: [CloudStore::new("cloud"), CloudStore::new("cloud")],
                now: SimTime::ZERO,
            }
        }

        /// The two sides after a call: the same transmissions (seq order
        /// and wire bytes, floor included), instruments (every `sync.*`
        /// counter, gauge, histogram, span and event), backlog, deadlines,
        /// cursor and mode.
        fn agree(&mut self, at: &str) {
            let [wire, reference] = [0, 1].map(|i| {
                self.nets[i].tap_captures(self.taps[i])[self.tapped..]
                    .iter()
                    .map(|d| d.message.payload.clone())
                    .collect::<Vec<_>>()
            });
            assert_eq!(wire, reference, "{at}: transmissions");
            self.tapped += wire.len();
            let (sync, model) = (&self.sync, &self.model);
            assert_eq!(
                sync.observe().to_json_string(),
                model.obs.snapshot().to_json_string(),
                "{at}: instruments"
            );
            assert_eq!(sync.pending(), model.records.len(), "{at}: pending");
            assert_eq!(sync.in_flight(), model.deadlines.len(), "{at}: in flight");
            assert_eq!(sync.mode(), model.mode, "{at}: mode");
            assert_eq!(sync.floor(), model.floor(), "{at}: floor");
            assert_eq!(sync.records.end(), model.next_seq, "{at}: next seq");
            let attempts = |p: &PendingRecord| p.flight.map(|f| f.attempts);
            let ours: Vec<_> = buffered(sync)
                .into_iter()
                .map(|(seq, p)| (seq, attempts(p)))
                .collect();
            let theirs: Vec<_> = model
                .records
                .iter()
                .map(|(&seq, p)| (seq, attempts(p)))
                .collect();
            assert_eq!(ours, theirs, "{at}: backlog");
            let deadlines = |d: &Deadlines| {
                let mut entries: Vec<_> = d.heap.iter().map(|&(t, seq, _)| (t, seq)).collect();
                entries.sort_unstable();
                entries
            };
            assert_eq!(
                deadlines(&sync.deadlines),
                deadlines(&model.deadlines),
                "{at}: deadlines"
            );
            // The window's cursor may stand past released slots the map's
            // never reached; both name the same next record to admit.
            assert_eq!(
                sync.records.first_from(sync.next_admit),
                model
                    .records
                    .range(model.next_admit..)
                    .next()
                    .map(|(&s, _)| s),
                "{at}: admission cursor"
            );
            check_window(sync, at);
        }

        fn enqueue(&mut self, key: &str, payload: Vec<u8>, at: &str) {
            let seq = self.sync.enqueue(self.now, key, payload.clone()).unwrap();
            assert_eq!(seq, self.model.enqueue(self.now, key, payload), "{at}");
            self.agree(at);
        }

        fn round(&mut self, batch: usize, at: &str) {
            let sent = self.sync.sync_round(&mut self.nets[0], self.now, batch);
            let reference = self.model.sync_round(&mut self.nets[1], self.now, batch);
            assert_eq!(sent, reference, "{at}: round");
            self.agree(at);
        }

        fn admit(&mut self, budget: usize, at: &str) {
            let sent = self.sync.admit(&mut self.nets[0], self.now, budget);
            let reference = self.model.admit(&mut self.nets[1], self.now, budget);
            assert_eq!(sent, reference, "{at}: admit");
            self.agree(at);
        }

        /// One ack payload on both sides; returns the slots the window
        /// visited.
        fn ack(&mut self, payload: &[u8], at: &str) -> u64 {
            let ours = self.sync.release_acked(self.now, payload);
            let theirs = self.model.process_ack(self.now, payload);
            assert_eq!(ours.clone().map(|(o, _)| o), theirs, "{at}: ack");
            self.agree(at);
            ours.map_or(0, |(_, visited)| visited)
        }

        /// Moves the clock `secs` on, lets the cloud take what arrived and
        /// `keep` allows, then the clock again and the fog its acks.
        fn exchange(&mut self, secs: u64, keep: impl Fn(&Delivery) -> bool, at: &str) {
            self.now += SimDuration::from_secs(secs);
            let accepted = [0, 1].map(|i| {
                let net = &mut self.nets[i];
                net.advance_to(self.now);
                let mut inbox = net.drain(&NodeId::new("cloud"));
                inbox.retain(&keep);
                self.clouds[i].process_deliveries(net, self.now, inbox)
            });
            assert_eq!(accepted[0], accepted[1], "{at}: cloud");
            self.now += SimDuration::from_secs(secs);
            for net in &mut self.nets {
                net.advance_to(self.now);
            }
            let ours = self.sync.poll_acks(&mut self.nets[0], self.now);
            let theirs = self.model.poll_acks(&mut self.nets[1], self.now);
            assert_eq!(ours, theirs, "{at}: poll");
            self.agree(at);
        }
    }

    /// An ack payload of `(first, count)` runs, in the order given.
    fn ack_payload(runs: &[(u64, u64)]) -> Vec<u8> {
        runs.iter()
            .flat_map(|&(first, len)| [first.to_be_bytes(), len.to_be_bytes()])
            .flatten()
            .collect()
    }

    /// The uplink of the differential tests: a rural link at 25 % loss with
    /// duplication and reordering, two partitions and an SDN rate limit
    /// that refuses sends mid-round.
    fn faulted_uplink(seed: u64) -> Network {
        use swamp_net::sdn::{FlowAction, FlowMatch};
        use swamp_net::{FaultPlan, FaultSpec};
        let mut net = Network::new(seed);
        net.add_node("fog");
        net.add_node("cloud");
        net.connect("fog", "cloud", LinkSpec::rural_internet());
        let mut plan = FaultPlan::new(seed);
        plan.set_link_faults("fog", "cloud", FaultSpec::degraded(0.25))
            .unwrap();
        for (start, end) in [(600, 1_100), (4_000, 4_300)] {
            let (start, end) = (SimTime::from_secs(start), SimTime::from_secs(end));
            plan.add_partition("fog", "cloud", start, end).unwrap();
        }
        net.install_fault_plan(plan);
        let limit = FlowAction::RateLimit {
            per_sec: 1.5,
            burst: 8.0,
        };
        net.flow_table_mut()
            .install(10, FlowMatch::from_src("fog"), limit);
        net
    }

    /// The window against the seq-keyed map it replaced, on seeded
    /// operation sequences: enqueues at and past capacity, capped and
    /// uncapped rounds, admissions between rounds, cloud exchanges over the
    /// faulted uplink, and ack payloads off the wire that no cloud would
    /// send — duplicate, unknown, overlapping, unsorted and malformed runs,
    /// and runs that release never-transmitted records. After every call
    /// both sides agree ([`Rig::agree`]).
    #[test]
    fn window_matches_the_seq_keyed_table() {
        const CAPACITY: usize = 32;
        const WINDOW: usize = 8;
        for seed in [42u64, 1337] {
            let cfg = FogSync::builder("fog", "cloud")
                .capacity(CAPACITY)
                .base_timeout(SimDuration::from_secs(15))
                .backoff(2.0, SimDuration::from_secs(120))
                .jitter(0.2)
                .max_in_flight(WINDOW)
                .seed(seed);
            let mut rig = Rig::new(cfg, || faulted_uplink(seed));
            let mut rng = SimRng::seed_from(seed ^ 0x5eed);
            // Evictions, stragglers, refused or malformed acks, acks that
            // released something never sent.
            let mut covered = [0u64; 4];
            for step in 0..4_000u64 {
                let at = format!("seed {seed}, step {step}");
                let next_seq = rig.sync.records.end();
                match rng.below(12) {
                    0..=2 => {
                        for i in 0..1 + rng.below(5) {
                            covered[0] += u64::from(rig.sync.pending() >= CAPACITY);
                            let payload = vec![rng.below(256) as u8; rng.below(4) as usize];
                            rig.enqueue(&format!("k{step}.{i}"), payload, &at);
                        }
                    }
                    3 | 4 => {
                        let batch = if rng.chance(0.5) {
                            usize::MAX
                        } else {
                            1 + rng.below(5) as usize
                        };
                        rig.round(batch, &at);
                    }
                    5 => rig.admit(1 + rng.below(3) as usize, &at),
                    6..=8 => rig.exchange(1 + rng.below(3), |_| true, &at),
                    9 => {
                        rig.now += SimDuration::from_secs(5 + rng.below(40));
                        for net in &mut rig.nets {
                            net.advance_to(rig.now);
                        }
                    }
                    _ => {
                        let unsent = rig.sync.records.first_from(rig.sync.next_admit);
                        let mut runs: Vec<(u64, u64)> = (0..1 + rng.below(4))
                            .map(|_| match rng.below(4) {
                                // Anywhere assigned: duplicates and releases.
                                0 | 1 => (rng.below(next_seq + 1), rng.below(12)),
                                // Across the next seq: part unknown.
                                2 => (next_seq.saturating_sub(rng.below(4)), 1 + rng.below(6)),
                                // Over the whole span, again and again.
                                _ => (0, next_seq + rng.below(3)),
                            })
                            .collect();
                        if rng.chance(0.3) {
                            runs.push(runs[0]);
                        }
                        let mut payload = ack_payload(&runs);
                        match rng.below(8) {
                            0 => payload.truncate(payload.len() - 1 - rng.below(15) as usize),
                            1 => payload.extend(ack_payload(&[(u64::MAX - 1, 3)])),
                            _ => {}
                        }
                        let released_unsent = unsent.is_some_and(|seq| {
                            runs.iter()
                                .any(|&(first, len)| first <= seq && seq < first + len)
                        });
                        let before = rig.sync.pending();
                        rig.ack(&payload, &at);
                        covered[2] += u64::from(!payload.len().is_multiple_of(ACK_RUN_BYTES));
                        covered[3] += u64::from(released_unsent && rig.sync.pending() < before);
                    }
                }
                covered[1] += u64::from(!rig.sync.records.stragglers.is_empty());
            }
            // Quiesce: everything left reaches the cloud, and both sides
            // end empty on the same floor.
            for round in 0..400 {
                if rig.sync.pending() == 0 {
                    break;
                }
                let at = format!("seed {seed}, drain {round}");
                rig.round(usize::MAX, &at);
                rig.exchange(30, |_| true, &at);
            }
            assert_eq!(rig.sync.pending(), 0, "seed {seed}: drained");
            assert!(covered.iter().all(|&n| n > 0), "seed {seed}: {covered:?}");
        }
    }

    /// One ack payload walks each window slot at most once, whatever its
    /// runs: 4 096 copies of one run over the whole span, sorted or not,
    /// visit the span once and count what the model counts.
    #[test]
    fn one_ack_visits_each_window_slot_at_most_once() {
        const N: u64 = 5_000;
        let cfg = FogSync::builder("fog", "cloud")
            .capacity(2 * N as usize)
            .base_timeout(SimDuration::from_secs(3_600))
            .jitter(0.0);
        let mut rig = Rig::new(cfg, || {
            let mut net = Network::new(3);
            net.add_node("fog");
            net.add_node("cloud");
            net.connect("fog", "cloud", LinkSpec::cloud_backbone());
            net
        });
        for i in 0..N {
            rig.enqueue("k", vec![(i & 0xff) as u8], "fill");
        }
        rig.round(usize::MAX, "first window");
        // Release every third seq, so the window keeps live slots and
        // released ones side by side.
        let thirds: Vec<(u64, u64)> = (0..N).step_by(3).map(|seq| (seq, 1)).collect();
        rig.ack(&ack_payload(&thirds), "thirds");
        let span = rig.sync.records.slots.len() as u64;
        let full = (
            rig.sync.records.base,
            rig.sync.records.end() - rig.sync.records.base,
        );
        let visited = rig.ack(&ack_payload(&[full; 4_096]), "4 096 full-span runs");
        assert!(visited <= span, "{visited} visits for {span} slots");
        assert_eq!(rig.sync.pending(), 0);
        assert_eq!(counter(rig.sync.observe(), "sync.acked"), N);
        // Unsorted, overlapping runs: still one visit per slot.
        for i in 0..N {
            rig.enqueue("k", vec![(i & 0xff) as u8], "refill");
        }
        let span = rig.sync.records.slots.len() as u64;
        let runs: Vec<(u64, u64)> = (0..4_096u64).map(|i| (N + (i * 7_919) % N, N)).collect();
        let visited = rig.ack(&ack_payload(&runs), "4 096 unsorted runs");
        assert!(visited <= span, "{visited} visits for {span} slots");
    }

    /// A record whose every transmission is lost does not hold the window
    /// open: while ten capacities of later records are enqueued and acked,
    /// the slot count stays within capacity plus the in-flight window, the
    /// lost record stays the floor, and its eviction at last moves the
    /// floor as the model's does.
    #[test]
    fn a_never_acked_record_does_not_hold_the_window_open() {
        const CAPACITY: usize = 64;
        const WINDOW: usize = 16;
        const LOST: u64 = 3;
        let cfg = FogSync::builder("fog", "cloud")
            .capacity(CAPACITY)
            .base_timeout(SimDuration::from_secs(5))
            .backoff(2.0, SimDuration::from_secs(40))
            .jitter(0.1)
            .max_in_flight(WINDOW)
            .seed(7);
        let mut rig = Rig::new(cfg, || {
            let mut net = Network::new(9);
            net.add_node("fog");
            net.add_node("cloud");
            net.connect("fog", "cloud", LinkSpec::cloud_backbone());
            net
        });
        let not_lost = |d: &Delivery| d.message.payload[..8] != LOST.to_be_bytes();
        let mut straggled = false;
        let mut round = 0;
        while rig.sync.records.end() < 10 * CAPACITY as u64 {
            let at = format!("round {round}");
            for i in 0..5 {
                rig.enqueue(&format!("k{round}.{i}"), vec![i], &at);
            }
            rig.round(usize::MAX, &at);
            rig.exchange(1, not_lost, &at);
            let slots = rig.sync.records.slots.len();
            assert!(slots <= CAPACITY + WINDOW, "{at}: {slots} slots");
            straggled |= rig.sync.records.stragglers.contains_key(&LOST);
            round += 1;
        }
        assert!(straggled, "the lost record moved out of the window");
        assert_eq!(rig.sync.floor(), LOST, "still buffered");
        assert!(counter(rig.sync.observe(), "sync.retransmissions") > 0);
        // A burst past capacity evicts it, oldest first.
        for i in 0..CAPACITY {
            rig.enqueue(&format!("burst{i}"), vec![], "burst");
        }
        assert!(counter(rig.sync.observe(), "sync.dropped") > 0);
        assert!(rig.sync.floor() > LOST);
        assert!(rig.sync.records.stragglers.is_empty());
    }

    /// The sync wire format, byte for byte: seq, sender floor and creation
    /// time as big-endian u64s, a big-endian u16 key length, the key, the
    /// payload.
    #[test]
    fn record_wire_bytes_are_pinned() {
        let r = UpdateRecord {
            seq: 0x0102,
            key: "urn:é".into(),
            payload: b"{\"v\":1}".to_vec(),
            created_at: SimTime::from_millis(0x0a0b0c),
        };
        let wire = encode_record(&r, 0xf0f1);
        assert_eq!(
            wire,
            [
                &[0, 0, 0, 0, 0, 0, 1, 2][..],
                &[0, 0, 0, 0, 0, 0, 0xf0, 0xf1],
                &[0, 0, 0, 0, 0, 0x0a, 0x0b, 0x0c],
                &[0, 6],
                "urn:é".as_bytes(),
                b"{\"v\":1}",
            ]
            .concat()
        );
        assert_eq!(decode_record(wire.clone()), Some((r, 0xf0f1)));
        // Truncated in the header or inside the key, or a key that is not
        // UTF-8: refused.
        assert_eq!(decode_record(wire[..25].to_vec()), None);
        assert_eq!(decode_record(wire[..28].to_vec()), None);
        let mut bad = wire;
        bad[30] = 0xff;
        assert_eq!(decode_record(bad), None);
        // An empty key and an empty payload are a valid 26-byte record.
        let empty = UpdateRecord {
            seq: 0,
            key: String::new(),
            payload: Vec::new(),
            created_at: SimTime::ZERO,
        };
        assert_eq!(encode_record(&empty, 0).len(), 26);
        assert_eq!(decode_record(encode_record(&empty, 0)), Some((empty, 0)));
    }

    /// `admit` sends never-transmitted records up to the window and no
    /// further; timers, retransmissions and strikes are the round's.
    #[test]
    fn admit_fills_the_window_and_leaves_timers_to_the_round() {
        let (mut net, _, _) = setup(0.0);
        let mut sync = FogSync::builder("fog", "cloud")
            .base_timeout(SimDuration::from_secs(5))
            .jitter(0.0)
            .max_in_flight(4)
            .build();
        for i in 0..6 {
            sync.enqueue(SimTime::ZERO, &format!("k{i}"), vec![])
                .unwrap();
        }
        assert_eq!(
            sync.admit(&mut net, SimTime::ZERO, 3),
            3,
            "the budget binds"
        );
        assert_eq!(
            sync.admit(&mut net, SimTime::ZERO, usize::MAX),
            1,
            "the window binds"
        );
        assert_eq!(sync.admit(&mut net, SimTime::from_secs(60), usize::MAX), 0);
        assert_eq!(sync.in_flight(), 4);
        let snap = sync.observe();
        assert_eq!(
            counter(snap.clone(), "sync.timeouts"),
            0,
            "admit fires no timer"
        );
        assert_eq!(snap.gauge("sync.in_flight").unwrap(), Some(4.0));
        assert_eq!(snap.gauge("sync.pending").unwrap(), Some(6.0));
        // The round retransmits the four expired records and admits none.
        assert_eq!(
            sync.sync_round(&mut net, SimTime::from_secs(60), usize::MAX),
            4
        );
        assert_eq!(counter(sync.observe(), "sync.retransmissions"), 4);
        assert_eq!(sync.in_flight(), 4);

        // A refused send ends the admission without a strike; the round
        // that meets the same refusal strikes.
        let mut unrouted = Network::new(1);
        unrouted.add_node("fog");
        unrouted.add_node("cloud");
        let mut sync = FogSync::builder("fog", "cloud").build();
        sync.enqueue(SimTime::ZERO, "k", vec![]).unwrap();
        for _ in 0..DEGRADED_AFTER {
            assert_eq!(sync.admit(&mut unrouted, SimTime::ZERO, usize::MAX), 0);
        }
        assert_eq!(sync.mode(), DegradedMode::Connected);
        for _ in 0..DEGRADED_AFTER {
            assert_eq!(sync.sync_round(&mut unrouted, SimTime::ZERO, usize::MAX), 0);
        }
        assert_eq!(sync.mode(), DegradedMode::Degraded);
        assert_eq!(sync.in_flight(), 0);
    }

    #[test]
    fn clean_link_syncs_everything() {
        let (mut net, mut sync, mut cloud) = setup(0.0);
        for i in 0..50 {
            sync.enqueue(SimTime::ZERO, &format!("key-{i}"), vec![i as u8])
                .unwrap();
        }
        pump(&mut net, &mut sync, &mut cloud, SimTime::ZERO, 20);
        assert_eq!(sync.pending(), 0);
        assert_eq!(cloud.record_count(), 50);
        assert_eq!(counter(sync.observe(), "sync.acked"), 50);
        assert!(cloud.latest("key-7").is_some());
        assert_eq!(sync.mode(), DegradedMode::Connected);
    }

    #[test]
    fn lossy_link_recovers_via_retransmit() {
        let (mut net, mut sync, mut cloud) = setup(0.3);
        for i in 0..100 {
            sync.enqueue(SimTime::ZERO, &format!("key-{i}"), vec![i as u8])
                .unwrap();
        }
        pump(&mut net, &mut sync, &mut cloud, SimTime::ZERO, 200);
        assert_eq!(sync.pending(), 0, "all records eventually acked");
        assert_eq!(cloud.record_count(), 100);
        // Loss forces retransmissions beyond the original 100.
        assert!(counter(sync.observe(), "sync.transmissions") > 100);
        assert_eq!(
            counter(sync.observe(), "sync.transmissions")
                - counter(sync.observe(), "sync.retransmissions"),
            100,
            "every record was first-transmitted exactly once"
        );
    }

    #[test]
    fn disconnection_buffers_then_drains() {
        let (mut net, mut sync, mut cloud) = setup(0.0);
        partition_uplink(&mut net, SimTime::ZERO, SimTime::from_secs(30 * 60));
        let mut now = SimTime::ZERO;
        for i in 0..30 {
            sync.enqueue(now, &format!("key-{i}"), vec![i as u8])
                .unwrap();
            sync.sync_round(&mut net, now, 8);
            now += SimDuration::from_secs(60);
            net.advance_to(now);
            cloud.process(&mut net, now);
        }
        assert_eq!(cloud.record_count(), 0, "nothing crosses a partition");
        assert_eq!(sync.pending(), 30);

        // The partition window closes: backlog drains.
        pump(&mut net, &mut sync, &mut cloud, now, 50);
        assert_eq!(cloud.record_count(), 30);
        assert_eq!(sync.pending(), 0);
    }

    #[test]
    fn duplicates_are_idempotent() {
        let (mut net, mut sync, mut cloud) = setup(0.0);
        sync.enqueue(SimTime::ZERO, "k", b"v".to_vec()).unwrap();
        // Transmit twice without processing acks (retransmit timer forced).
        sync.sync_round(&mut net, SimTime::ZERO, 8);
        sync.sync_round(&mut net, SimTime::from_secs(10), 8);
        net.advance_to(SimTime::from_secs(11));
        cloud.process(&mut net, SimTime::from_secs(11));
        assert_eq!(cloud.record_count(), 1);
        assert_eq!(counter(cloud.observe(), "cloud.duplicates"), 1);
    }

    fn sync_delivery(seq: u64, floor: u64, now: SimTime) -> Delivery {
        let record = UpdateRecord {
            seq,
            key: format!("k{seq}"),
            payload: vec![seq as u8],
            created_at: now,
        };
        Delivery {
            id: swamp_net::message::MsgId(seq),
            src: "fog".into(),
            dst: "cloud".into(),
            message: Message::new(SYNC_TOPIC, encode_record(&record, floor)),
            sent_at: now,
            delivered_at: now,
        }
    }

    #[test]
    fn undecodable_records_are_counted_not_applied_or_acked() {
        let (mut net, _, mut cloud) = setup(0.0);
        let bad = |payload: Vec<u8>| Delivery {
            message: Message::new(SYNC_TOPIC, payload),
            ..sync_delivery(0, 0, SimTime::ZERO)
        };
        // A header one byte short.
        let short = vec![0u8; 25];
        // A key length of 100 over 5 key bytes.
        let mut overrun = vec![0u8; 24];
        overrun.extend_from_slice(&100u16.to_be_bytes());
        overrun.extend_from_slice(b"key-1");
        // A two-byte key that is not UTF-8.
        let mut not_utf8 = vec![0u8; 24];
        not_utf8.extend_from_slice(&2u16.to_be_bytes());
        not_utf8.extend_from_slice(&[0xff, 0xfe]);
        let deliveries = [short, overrun, not_utf8].map(bad);

        let accepted = cloud.process_deliveries(&mut net, SimTime::ZERO, deliveries);
        assert_eq!(accepted, 0);
        assert_eq!(cloud.observe().counter("cloud.malformed").unwrap(), 3);
        assert_eq!(cloud.record_count(), 0);
        assert_eq!(net.observe().counter("net.offered").unwrap(), 0, "no ack");
        assert_eq!(net.in_flight(), 0);
    }

    /// An in-order (relay) store and the network its acks leave on.
    fn relay() -> (Network, CloudStore) {
        let mut net = Network::new(1);
        net.add_node("fog");
        net.add_node("cloud");
        net.connect("fog", "cloud", LinkSpec::farm_lan());
        (net, CloudStore::in_order("cloud"))
    }

    fn seqs(records: &[UpdateRecord]) -> Vec<u64> {
        records.iter().map(|r| r.seq).collect()
    }

    #[test]
    fn in_order_store_holds_gaps_until_they_fill_or_the_floor_passes() {
        let (mut net, mut store) = relay();
        let t = SimTime::from_secs(1);

        // Seqs 0, 2, 3 arrive; 1 is still in flight (retransmitting), so
        // the sender's floor stays at 1.
        store.process_deliveries(&mut net, t, [0, 2, 3].map(|s| sync_delivery(s, 0, t)));
        assert_eq!(seqs(&store.drain_ready()), [0]);
        // All three were accepted (and acked) regardless of release order.
        assert_eq!(store.observe().counter("cloud.accepted").unwrap(), 3);
        store.process_deliveries(&mut net, t, [sync_delivery(3, 1, t)]);
        assert!(
            store.drain_ready().is_empty(),
            "a floor at the gap releases nothing"
        );
        // The gap fills: the whole contiguous run releases, in seq order.
        store.process_deliveries(&mut net, t, [sync_delivery(1, 1, t)]);
        assert_eq!(seqs(&store.drain_ready()), [1, 2, 3]);

        // Seqs 5 and 7 land while 4 and 6 are still buffered upstream.
        store.process_deliveries(&mut net, t, [7, 5].map(|s| sync_delivery(s, 4, t)));
        assert!(store.drain_ready().is_empty());
        // The sender evicts 4 and says so with its next record: the
        // stream releases up to the gap at 6 at once, with no timer.
        store.process_deliveries(&mut net, t, [sync_delivery(8, 6, t)]);
        assert_eq!(seqs(&store.drain_ready()), [5]);
        // 6 is evicted too; the next floor settles it and the rest flows.
        // A late copy of an evicted seq is a duplicate, never released.
        let late = [sync_delivery(9, 9, t), sync_delivery(4, 4, t)];
        store.process_deliveries(&mut net, t, late);
        assert_eq!(seqs(&store.drain_ready()), [7, 8, 9]);
        assert_eq!(counter(store.observe(), "cloud.duplicates"), 2);
        let seen = &store.seen_seqs[&NodeId::new("fog")];
        assert_eq!((seen.next, seen.ahead.len()), (10, 0));
    }

    #[test]
    fn in_order_store_keeps_nothing_after_release() {
        const N: u64 = 500;
        let (mut net, mut store) = relay();

        // Relayed in reverse order, so every record but the last is held
        // first.
        let t = SimTime::from_secs(1);
        store.process_deliveries(&mut net, t, (0..N).rev().map(|s| sync_delivery(s, 0, t)));
        assert_eq!(seqs(&store.drain_ready()), (0..N).collect::<Vec<_>>());
        assert_eq!(store.observe().counter("cloud.accepted").unwrap(), N);
        assert!(store.held.as_ref().unwrap()[&NodeId::new("fog")].is_empty());
        assert_eq!(store.record_count(), 0, "a released frame is not retained");
        assert!(store.latest("k0").is_none());
    }

    #[test]
    fn duplicate_acks_never_double_advance_stats() {
        let (mut net, mut sync, mut cloud) = setup(0.0);
        sync.enqueue(SimTime::ZERO, "k", b"v".to_vec()).unwrap();
        sync.sync_round(&mut net, SimTime::ZERO, 8);
        net.advance_to(SimTime::from_secs(1));
        cloud.process(&mut net, SimTime::from_secs(1));
        net.advance_to(SimTime::from_secs(2));
        let inbox = net.drain(&"fog".into());
        let d = &inbox[0];
        assert_eq!(d.message.topic, ACK_TOPIC);

        let now = SimTime::from_secs(2);
        let first = sync.process_ack(now, &d.message.payload).unwrap();
        assert_eq!(first.released, 1);
        assert_eq!(counter(sync.observe(), "sync.acked"), 1);

        // The same ack replayed (e.g. an injected wire duplicate) is
        // suppressed: `sync.acked` does not advance.
        let second = sync.process_ack(now, &d.message.payload).unwrap();
        assert_eq!(second.released, 0);
        assert_eq!(second.duplicate, 1);
        assert_eq!(counter(sync.observe(), "sync.acked"), 1);
        assert_eq!(counter(sync.observe(), "sync.duplicate_acks"), 1);

        // An ack for a seq this engine never buffered is unknown, and
        // counted as such.
        let stray = sync.process_ack(now, &encode_acks(&mut [999])).unwrap();
        assert_eq!(stray.unknown, 1);
        assert_eq!(counter(sync.observe(), "sync.acked"), 1);
        assert_eq!(counter(sync.observe(), "sync.unknown_acks"), 1);
    }

    #[test]
    fn malformed_ack_is_a_typed_error() {
        let (_, mut sync, _) = setup(0.0);
        sync.enqueue(SimTime::ZERO, "k", vec![]).unwrap();
        assert_eq!(
            sync.process_ack(SimTime::ZERO, &[1, 2, 3]),
            Err(SyncError::MalformedAck { len: 3 })
        );
        // An 8-byte seq is not a whole run.
        assert_eq!(
            sync.process_ack(SimTime::ZERO, &0u64.to_be_bytes()),
            Err(SyncError::MalformedAck { len: 8 })
        );
        // A run past `u64::MAX` refuses the whole payload, the valid run
        // before it included.
        let mut overflow = [encode_acks(&mut [0]), encode_acks(&mut [u64::MAX])].concat();
        overflow[24..32].copy_from_slice(&2u64.to_be_bytes());
        assert_eq!(
            sync.process_ack(SimTime::ZERO, &overflow),
            Err(SyncError::MalformedAck { len: 32 })
        );
        assert_eq!(sync.pending(), 1, "nothing released");
    }

    /// Acks on the wire, byte for byte: ascending `(first seq, count)` runs
    /// as big-endian u64 pairs. A full in-order window is one run, and a
    /// seq acked twice in one drain is a run of its own.
    #[test]
    fn ack_runs_are_pinned() {
        assert_eq!(
            encode_acks(&mut [7, 3, 4, 5, 9, 4]),
            [
                &[0, 0, 0, 0, 0, 0, 0, 3][..],
                &[0, 0, 0, 0, 0, 0, 0, 2],
                &[0, 0, 0, 0, 0, 0, 0, 4],
                &[0, 0, 0, 0, 0, 0, 0, 2],
                &[0, 0, 0, 0, 0, 0, 0, 7],
                &[0, 0, 0, 0, 0, 0, 0, 1],
                &[0, 0, 0, 0, 0, 0, 0, 9],
                &[0, 0, 0, 0, 0, 0, 0, 1],
            ]
            .concat()
        );
        let mut window: Vec<u64> = (0..DEFAULT_WINDOW as u64).rev().collect();
        assert_eq!(encode_acks(&mut window).len(), ACK_RUN_BYTES);
        assert!(encode_acks(&mut []).is_empty());
        assert_eq!(encode_acks(&mut [u64::MAX]).len(), ACK_RUN_BYTES);

        // Decoded, each run releases its members and classifies the rest.
        let mut sync = FogSync::builder("fog", "cloud").build();
        for _ in 0..6 {
            sync.enqueue(SimTime::ZERO, "k", vec![]).unwrap();
        }
        let outcome = sync
            .process_ack(SimTime::ZERO, &encode_acks(&mut [1, 2, 2, 3, 5, 6, 7]))
            .unwrap();
        assert_eq!(
            (outcome.released, outcome.duplicate, outcome.unknown),
            (4, 1, 2)
        );
        assert_eq!(sync.pending(), 2, "seqs 0 and 4 stay buffered");
    }

    #[test]
    fn oversized_key_is_refused_before_encoding() {
        let (_, mut sync, _) = setup(0.0);
        let giant = "k".repeat(MAX_KEY_LEN + 1);
        assert_eq!(
            sync.enqueue(SimTime::ZERO, &giant, vec![]),
            Err(SyncError::KeyTooLong {
                len: MAX_KEY_LEN + 1
            })
        );
        assert_eq!(sync.pending(), 0);
        // A batch containing one bad key enqueues nothing.
        let items: Vec<(&str, Vec<u8>)> = vec![("ok", vec![]), (&giant, vec![])];
        assert!(matches!(
            sync.enqueue_batch(SimTime::ZERO, items),
            Err(SyncError::KeyTooLong { .. })
        ));
        assert_eq!(sync.pending(), 0);
    }

    #[test]
    fn bounded_buffer_drop_oldest() {
        let mut sync = FogSync::builder("fog", "cloud").capacity(3).build();
        // Two singles, then a batch that overflows: same eviction either way.
        for key in ["k0", "k1"] {
            assert!(sync.enqueue(SimTime::ZERO, key, vec![]).is_ok());
        }
        let batch = ["k2", "k3", "k4"].map(|k| (k, vec![]));
        assert_eq!(sync.enqueue_batch(SimTime::ZERO, batch), Ok(3));
        assert_eq!(sync.pending(), 3);
        assert_eq!(counter(sync.observe(), "sync.dropped"), 2);
        // Oldest (k0, k1) gone; k2..k4 retained.
        let keys: Vec<String> = buffered(&sync)
            .into_iter()
            .map(|(_, p)| p.record.key.clone())
            .collect();
        assert_eq!(keys, vec!["k2", "k3", "k4"]);
    }

    #[test]
    fn acks_classify_without_a_released_set_over_a_deep_drain() {
        // A 1M-record drain leaves nothing behind but the backlog
        // (empty) and the seq counter, and still classifies every ack:
        // each assigned seq is a duplicate once released, however long
        // ago, and a seq the engine never assigned is unknown.
        let total: u64 = 1_000_000;
        let mut sync = FogSync::builder("fog", "cloud")
            .capacity(total as usize)
            .build();
        let now = SimTime::ZERO;
        for i in 0..total {
            sync.enqueue(now, "k", vec![(i & 0xff) as u8]).unwrap();
        }
        // Ack straight through the engine (no network needed): batches of
        // 4096 seqs per payload, covering every record.
        let mut released = 0usize;
        let mut seq = 0u64;
        while seq < total {
            let hi = (seq + 4096).min(total);
            let payload = encode_acks(&mut (seq..hi).collect::<Vec<u64>>());
            released += sync.process_ack(now, &payload).unwrap().released;
            seq = hi;
        }
        assert_eq!(released, total as usize);
        assert_eq!(sync.pending(), 0);
        for old in [0, total / 2, total - 1] {
            let again = sync.process_ack(now, &encode_acks(&mut [old])).unwrap();
            assert_eq!(again.duplicate, 1, "seq {old}");
        }
        let stray = sync.process_ack(now, &encode_acks(&mut [total])).unwrap();
        assert_eq!(stray.unknown, 1);
        assert_eq!(counter(sync.observe(), "sync.duplicate_acks"), 3);
    }

    #[test]
    fn ack_for_a_record_evicted_before_its_ack_is_a_duplicate() {
        let (mut net, _, mut cloud) = setup(0.0);
        let mut sync = FogSync::builder("fog", "cloud").capacity(2).build();
        sync.enqueue(SimTime::ZERO, "k0", b"a".to_vec()).unwrap();
        sync.sync_round(&mut net, SimTime::ZERO, 8);
        net.advance_to(SimTime::from_secs(1));
        cloud.process(&mut net, SimTime::from_secs(1));
        // Seq 0 is in flight and its ack is on the wire when two more
        // records overflow the 2-record buffer and evict it.
        sync.enqueue(SimTime::from_secs(1), "k1", b"b".to_vec())
            .unwrap();
        sync.enqueue(SimTime::from_secs(1), "k2", b"c".to_vec())
            .unwrap();
        assert_eq!(counter(sync.observe(), "sync.dropped"), 1);
        assert_eq!(sync.in_flight(), 0);
        net.advance_to(SimTime::from_secs(2));
        let outcome = sync.poll_acks(&mut net, SimTime::from_secs(2));
        assert_eq!(outcome.duplicate, 1, "{outcome:?}");
        assert_eq!(outcome.unknown, 0);
        assert_eq!(counter(sync.observe(), "sync.duplicate_acks"), 1);
        assert_eq!(counter(sync.observe(), "sync.acked"), 0);
    }

    /// The watermark dedup decides exactly as the set of every seq ever
    /// applied or given up did, at every step of seeded schedules that
    /// advance, jump ahead, fill gaps late, replay old seqs and raise the
    /// sender's floor now and then — one gap is never filled, so only a
    /// floor can close it.
    #[test]
    fn dedup_watermark_matches_a_reference_set() {
        const NEVER_ARRIVES: u64 = 5_000;
        for seed in [1u64, 42, 1337] {
            let mut rng = SimRng::seed_from(seed);
            let mut seen = SeenSeqs::default();
            let mut reference = BTreeSet::new();
            let mut skipped: Vec<u64> = Vec::new();
            let mut frontier = 0u64;
            let mut highest = 0u64;
            let mut floor = 0u64;
            for step in 0..40_000 {
                // The sender's floor trails its frontier: everything below
                // it was acked or evicted there.
                if rng.chance(0.01) {
                    let raised = floor.max(frontier.saturating_sub(rng.below(256)));
                    seen.raise_floor(raised);
                    reference.extend(floor..raised);
                    floor = raised;
                    assert_eq!(seen.next + seen.ahead.len() as u64, reference.len() as u64);
                    if floor > NEVER_ARRIVES {
                        assert!(seen.next > NEVER_ARRIVES, "seed {seed}, step {step}");
                    }
                }
                let seq = match rng.below(16) {
                    // In order, now and then leaving a gap behind.
                    0..=8 => {
                        frontier += 1;
                        if rng.chance(0.05) {
                            skipped.push(frontier);
                            frontier += 1;
                        }
                        frontier
                    }
                    // Far ahead of everything seen so far.
                    9 => frontier + 1 + rng.below(64),
                    // A gap fills late (a retransmission lands).
                    10 | 11 => match skipped.pop() {
                        Some(seq) => seq,
                        None => continue,
                    },
                    // Duplicates: anywhere in the past, or just behind.
                    12 | 13 => rng.below(frontier + 1),
                    _ => frontier.saturating_sub(rng.below(32)),
                };
                if seq == NEVER_ARRIVES {
                    continue;
                }
                highest = highest.max(seq);
                assert_eq!(
                    seen.insert(seq),
                    reference.insert(seq),
                    "seed {seed}, step {step}, seq {seq}"
                );
                assert_eq!(seen.next + seen.ahead.len() as u64, reference.len() as u64);
                if floor <= NEVER_ARRIVES {
                    assert!(
                        seen.next <= NEVER_ARRIVES,
                        "nothing may be settled past a gap no floor has passed"
                    );
                }
            }
            assert!(floor > NEVER_ARRIVES, "a floor passed the open gap");
            // The stream quiesces: the sender buffers nothing, so its floor
            // is its next seq, and nothing is left ahead of the watermark.
            seen.raise_floor(highest + 1);
            assert_eq!((seen.next, seen.ahead.len()), (highest + 1, 0));
        }
        // The top of the range neither overflows nor is presumed applied.
        let mut seen = SeenSeqs {
            next: u64::MAX - 1,
            ahead: BTreeSet::new(),
        };
        assert!(seen.insert(u64::MAX));
        assert!(seen.insert(u64::MAX - 1));
        assert!(!seen.insert(u64::MAX));
        assert!(!seen.insert(u64::MAX - 1));
        assert_eq!(seen.next, u64::MAX);
    }

    #[test]
    fn dedup_table_stays_one_word_on_an_in_order_stream() {
        let mut store = CloudStore::new("cloud");
        let source = NodeId::new("fog");
        let record = |seq: u64| UpdateRecord {
            seq,
            key: format!("k{}", seq % 100),
            payload: vec![],
            created_at: SimTime::ZERO,
        };
        for seq in 0..100_000 {
            assert!(store.apply_record(&source, record(seq)));
        }
        let seen = &store.seen_seqs[&source];
        assert_eq!((seen.next, seen.ahead.len()), (100_000, 0));
        assert!(!store.apply_record(&source, record(99_999)));
        assert!(!store.apply_record(&source, record(0)));
        assert_eq!(counter(store.observe(), "cloud.duplicates"), 2);
        assert_eq!(store.record_count(), 100_000);
        // `latest` reads the one stored copy: the newest arrival per key.
        assert_eq!(store.latest("k7").unwrap().seq, 99_907);
    }

    #[test]
    fn latest_reflects_newest_record_per_key() {
        let (mut net, mut sync, mut cloud) = setup(0.0);
        sync.enqueue(SimTime::ZERO, "probe", b"old".to_vec())
            .unwrap();
        sync.enqueue(SimTime::from_secs(1), "probe", b"new".to_vec())
            .unwrap();
        pump(&mut net, &mut sync, &mut cloud, SimTime::from_secs(1), 20);
        assert_eq!(cloud.latest("probe").unwrap().payload, b"new");
        assert_eq!(cloud.record_count(), 2);
        assert_eq!(cloud.history().len(), 2);
    }

    #[test]
    fn drain_new_hands_out_each_record_once() {
        let (mut net, mut sync, mut cloud) = setup(0.0);
        assert!(cloud.drain_new().is_empty());
        for i in 0..4 {
            sync.enqueue(SimTime::ZERO, &format!("k{i}"), vec![i as u8])
                .unwrap();
        }
        pump(&mut net, &mut sync, &mut cloud, SimTime::ZERO, 20);
        let first: Vec<u64> = cloud.drain_new().iter().map(|r| r.seq).collect();
        assert_eq!(first.len(), 4);
        assert!(cloud.drain_new().is_empty(), "cursor advanced");

        sync.enqueue(SimTime::from_secs(60), "k9", vec![9]).unwrap();
        pump(&mut net, &mut sync, &mut cloud, SimTime::from_secs(60), 20);
        let second: Vec<&str> = cloud.drain_new().iter().map(|r| r.key.as_str()).collect();
        assert_eq!(second, ["k9"], "only the newly accepted record");
    }

    #[test]
    fn batch_limit_respected() {
        let (mut net, mut sync, _) = setup(0.0);
        for i in 0..20 {
            sync.enqueue(SimTime::ZERO, &format!("k{i}"), vec![])
                .unwrap();
        }
        let sent = sync.sync_round(&mut net, SimTime::ZERO, 5);
        assert_eq!(sent, 5);
        assert_eq!(counter(sync.observe(), "sync.transmissions"), 5);
    }

    #[test]
    fn in_flight_window_bounds_unacked_records() {
        let (mut net, _, _) = setup(0.0);
        let mut sync = FogSync::builder("fog", "cloud")
            .base_timeout(SimDuration::from_secs(5))
            .max_in_flight(4)
            .jitter(0.0)
            .build();
        for i in 0..20 {
            sync.enqueue(SimTime::ZERO, &format!("k{i}"), vec![])
                .unwrap();
        }
        // No acks will arrive (we never run the cloud side): the window
        // pins the engine at 4 unacked records regardless of rounds.
        let sent = sync.sync_round(&mut net, SimTime::ZERO, 64);
        assert_eq!(sent, 4);
        assert_eq!(sync.in_flight(), 4);
        let sent = sync.sync_round(&mut net, SimTime::from_secs(1), 64);
        assert_eq!(sent, 0, "window full, timers not yet expired");
        // After expiry only the 4 in-flight records retransmit.
        let sent = sync.sync_round(&mut net, SimTime::from_secs(10), 64);
        assert_eq!(sent, 4);
        assert_eq!(sync.in_flight(), 4);
        assert_eq!(counter(sync.observe(), "sync.retransmissions"), 4);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let (mut net, _, _) = setup(0.0);
        let mut sync = FogSync::builder("fog", "cloud")
            .base_timeout(SimDuration::from_secs(10))
            .backoff(2.0, SimDuration::from_secs(40))
            .jitter(0.0)
            .build();
        sync.enqueue(SimTime::ZERO, "k", vec![]).unwrap();

        // Attempts at t=0; retries due at +10, then +20, then +40 (cap),
        // then +40 again. Probe just before/at each boundary.
        let mut now = SimTime::ZERO;
        assert_eq!(sync.sync_round(&mut net, now, 8), 1);
        for expect_gap in [10u64, 20, 40, 40] {
            let before = now + SimDuration::from_secs(expect_gap - 1);
            assert_eq!(sync.sync_round(&mut net, before, 8), 0, "not yet due");
            now += SimDuration::from_secs(expect_gap);
            assert_eq!(
                sync.sync_round(&mut net, now, 8),
                1,
                "due at +{expect_gap}s"
            );
        }
    }

    /// A base timeout above the backoff cap is waited in full: the cap
    /// bounds the growth, never the first interval. (A `Platform` cannot
    /// set the cap, so its `sync_base_timeout` would otherwise stop at it.)
    #[test]
    fn base_timeout_above_the_cap_is_not_clamped() {
        let (mut net, _, _) = setup(0.0);
        let mut sync = FogSync::builder("fog", "cloud")
            .base_timeout(SimDuration::from_secs(3600))
            .jitter(0.0)
            .build();
        sync.enqueue(SimTime::ZERO, "k", vec![]).unwrap();
        assert_eq!(sync.sync_round(&mut net, SimTime::ZERO, 8), 1);
        for secs in [480, 3599] {
            let at = SimTime::from_secs(secs);
            assert_eq!(sync.sync_round(&mut net, at, 8), 0, "retried at {secs} s");
        }
        assert_eq!(sync.sync_round(&mut net, SimTime::from_secs(3600), 8), 1);
        // Doubling is capped at the base: the next retry is 3600 s later.
        assert_eq!(sync.sync_round(&mut net, SimTime::from_secs(7199), 8), 0);
        assert_eq!(sync.sync_round(&mut net, SimTime::from_secs(7200), 8), 1);
    }

    /// The deadline heap and the admission cursor against a scan of the
    /// backlog, under loss, duplication, reordering, a partition, an
    /// SDN rate limit that refuses sends mid-round, buffer evictions and
    /// capped and uncapped rounds. Before each round the scan names the
    /// due records; the round must send exactly those in seq order, then
    /// never-transmitted ones while the window has room, up to its cap,
    /// stopping only at a refusal; an `admit` between rounds must send
    /// only never-transmitted ones. After every call the heap must hold
    /// exactly one `(next_retry, seq)` per in-flight record, in heap order,
    /// each at the slot its record names, and the window must keep its
    /// own invariants ([`check_window`]) — dropping the removal from
    /// `process_ack`, or from the evicting `enqueue`, fails it.
    #[test]
    fn deadline_index_matches_a_scan_of_the_backlog() {
        use swamp_net::sdn::{FlowAction, FlowMatch};
        use swamp_net::{FaultPlan, FaultSpec};
        const WINDOW: usize = 12;
        const CAPACITY: usize = 24;

        // The deadline the heap holds for an in-flight record.
        fn deadline(sync: &FogSync, f: FlightState) -> SimTime {
            sync.deadlines.heap[sync.deadlines.at[f.slot]].0
        }

        fn check(sync: &FogSync, at: &str) {
            check_window(sync, at);
            let heap = &sync.deadlines.heap;
            for i in 1..heap.len() {
                assert!(heap[(i - 1) / 2] < heap[i], "{at}: heap order at {i}");
            }
            let mut in_flight = 0;
            for (seq, p) in buffered(sync) {
                let below = seq < sync.next_admit;
                assert_eq!(p.flight.is_some(), below, "{at}: cursor at seq {seq}");
                if let Some(f) = p.flight {
                    let (_, held, slot) = heap[sync.deadlines.at[f.slot]];
                    assert_eq!((held, slot), (seq, f.slot), "{at}: entry of {seq}");
                    in_flight += 1;
                }
            }
            assert_eq!(
                heap.len(),
                in_flight,
                "{at}: one entry per in-flight record"
            );
        }

        // Timeouts, refused rounds, in-flight evictions, cap cuts, rounds
        // that end with a straggler.
        let mut covered = [0u64; 5];
        for seed in [1u64, 42, 1337] {
            for capped in [false, true] {
                let mut net = Network::new(seed);
                net.add_node("fog");
                net.add_node("cloud");
                net.connect("fog", "cloud", LinkSpec::rural_internet());
                let mut plan = FaultPlan::new(seed);
                plan.set_link_faults("fog", "cloud", FaultSpec::degraded(0.25))
                    .unwrap();
                plan.add_partition(
                    "fog",
                    "cloud",
                    SimTime::from_secs(300),
                    SimTime::from_secs(700),
                )
                .unwrap();
                net.install_fault_plan(plan);
                let limit = FlowAction::RateLimit {
                    per_sec: 0.8,
                    burst: 6.0,
                };
                net.flow_table_mut()
                    .install(10, FlowMatch::from_src("fog"), limit);
                let tap = net.add_tap("fog", "cloud");
                let mut sync = FogSync::builder("fog", "cloud")
                    .capacity(CAPACITY)
                    .base_timeout(SimDuration::from_secs(20))
                    .backoff(2.0, SimDuration::from_secs(120))
                    .jitter(0.2)
                    .max_in_flight(WINDOW)
                    .seed(seed)
                    .build();
                let mut cloud = CloudStore::new("cloud");
                let mut now = SimTime::ZERO;
                for round in 0..300usize {
                    let at = format!("seed {seed}, capped {capped}, round {round}");
                    for i in 0..if round < 200 { 4u8 } else { 0 } {
                        let evicts_in_flight = sync.records.len() >= CAPACITY
                            && buffered(&sync)
                                .first()
                                .is_some_and(|(_, p)| p.flight.is_some());
                        covered[2] += u64::from(evicts_in_flight);
                        sync.enqueue(now, &format!("k{round}.{i}"), vec![i])
                            .unwrap();
                        check(&sync, &at);
                    }
                    // The seqs sent on the uplink since `tapped` captures.
                    let wire = |net: &Network, tapped: usize| -> Vec<u64> {
                        net.tap_captures(tap)[tapped..]
                            .iter()
                            .map(|d| u64::from_be_bytes(d.message.payload[..8].try_into().unwrap()))
                            .collect()
                    };

                    // Odd rounds admit up to two fresh records between
                    // rounds, as ingestion does: first sends only, in seq
                    // order, and no strike.
                    if round % 2 == 1 {
                        let fresh: Vec<u64> = buffered(&sync)
                            .into_iter()
                            .filter(|(_, p)| p.flight.is_none())
                            .map(|(seq, _)| seq)
                            .take((WINDOW - sync.in_flight()).min(2))
                            .collect();
                        let tapped = net.tap_captures(tap).len();
                        let strikes = sync.strikes;
                        let sent = sync.admit(&mut net, now, 2);
                        check(&sync, &at);
                        assert_eq!(
                            wire(&net, tapped),
                            fresh[..sent],
                            "{at}: the admission's sends"
                        );
                        assert_eq!(sync.strikes, strikes, "{at}: admit grades no strike");
                    }

                    let batch = if capped { 1 + round % 5 } else { usize::MAX };
                    let mut due: Vec<u64> = buffered(&sync)
                        .into_iter()
                        .filter(|(_, p)| p.flight.is_some_and(|f| deadline(&sync, f) <= now))
                        .map(|(seq, _)| seq)
                        .collect();
                    covered[0] += due.len() as u64;
                    covered[3] += u64::from(due.len() > batch);
                    due.truncate(batch);
                    let room = (WINDOW - sync.in_flight()).min(batch - due.len());
                    let fresh = buffered(&sync)
                        .into_iter()
                        .filter(|(_, p)| p.flight.is_none());
                    let plan: Vec<u64> = due
                        .iter()
                        .copied()
                        .chain(fresh.map(|(seq, _)| seq).take(room))
                        .collect();

                    let tapped = net.tap_captures(tap).len();
                    let denied = net.observe().counter("net.sdn_dropped").unwrap();
                    let timeouts = counter(sync.observe(), "sync.timeouts");
                    let sent = sync.sync_round(&mut net, now, batch);
                    check(&sync, &at);
                    assert_eq!(wire(&net, tapped), plan[..sent], "{at}: the round's sends");
                    let refused = net.observe().counter("net.sdn_dropped").unwrap() > denied;
                    assert_eq!(refused, sent < plan.len(), "{at}: only a refusal cuts");
                    covered[1] += u64::from(refused);
                    assert_eq!(
                        counter(sync.observe(), "sync.timeouts") - timeouts,
                        due.len() as u64,
                        "{at}"
                    );

                    now += SimDuration::from_secs(2);
                    net.advance_to(now);
                    cloud.process(&mut net, now);
                    now += SimDuration::from_secs(2);
                    net.advance_to(now);
                    sync.poll_acks(&mut net, now);
                    check(&sync, &at);
                    covered[4] += u64::from(!sync.records.stragglers.is_empty());
                    now += SimDuration::from_secs(6);
                }
                assert_eq!(sync.pending(), 0, "seed {seed}, capped {capped}: drained");
            }
        }
        assert!(covered.iter().all(|&n| n > 0), "{covered:?}");
    }

    #[test]
    fn jitter_spreads_retries_deterministically() {
        let run = |seed| {
            let mut net = Network::new(5);
            net.add_node("fog");
            net.add_node("cloud");
            net.connect("fog", "cloud", LinkSpec::farm_lan());
            let mut sync = FogSync::builder("fog", "cloud")
                .base_timeout(SimDuration::from_secs(10))
                .jitter(0.5)
                .seed(seed)
                .build();
            sync.enqueue(SimTime::ZERO, "k", vec![]).unwrap();
            sync.sync_round(&mut net, SimTime::ZERO, 8);
            // Sample the schedule by probing when the retry fires.
            let mut fired_at = 0;
            for s in 1..=20 {
                if sync.sync_round(&mut net, SimTime::from_secs(s), 8) == 1 {
                    fired_at = s;
                    break;
                }
            }
            fired_at
        };
        assert_eq!(run(1), run(1), "same seed, same schedule");
        let samples: Vec<u64> = (0..16).map(run).collect();
        assert!(
            samples.iter().any(|&s| s != samples[0]),
            "jitter varies across seeds: {samples:?}"
        );
        // All within the ±50% band around 10s.
        assert!(samples.iter().all(|&s| (5..=15).contains(&s)));
    }

    #[test]
    fn degraded_mode_walks_down_and_recovers() {
        let (mut net, _, mut cloud) = setup(0.0);
        let mut sync = FogSync::builder("fog", "cloud")
            .base_timeout(SimDuration::from_secs(5))
            .backoff(1.0, SimDuration::from_secs(5))
            .jitter(0.0)
            .build();
        partition_uplink(&mut net, SimTime::ZERO, SimTime::from_secs(42));
        sync.enqueue(SimTime::ZERO, "k", vec![]).unwrap();

        let mut now = SimTime::ZERO;
        sync.sync_round(&mut net, now, 8);
        assert_eq!(
            sync.mode(),
            DegradedMode::Connected,
            "first send, no strike"
        );
        for _ in 0..1 {
            now += SimDuration::from_secs(6);
            sync.sync_round(&mut net, now, 8);
        }
        assert_eq!(sync.mode(), DegradedMode::Connected, "one strike tolerated");
        now += SimDuration::from_secs(6);
        sync.sync_round(&mut net, now, 8);
        assert_eq!(sync.mode(), DegradedMode::Degraded);
        let degraded_at = now;
        for _ in 0..3 {
            now += SimDuration::from_secs(6);
            sync.sync_round(&mut net, now, 8);
        }
        assert_eq!(sync.mode(), DegradedMode::Degraded, "five strikes");
        now += SimDuration::from_secs(6);
        sync.sync_round(&mut net, now, 8);
        assert_eq!(sync.mode(), DegradedMode::Offline);
        let offline_at = now;

        // Heal at the window's end: one delivered+acked record restores
        // Connected.
        now += SimDuration::from_secs(6);
        assert_eq!(now, SimTime::from_secs(42));
        sync.sync_round(&mut net, now, 8);
        now += SimDuration::from_secs(1);
        net.advance_to(now);
        cloud.process(&mut net, now);
        now += SimDuration::from_secs(1);
        net.advance_to(now);
        let outcome = sync.poll_acks(&mut net, now);
        assert_eq!(outcome.released, 1);
        assert_eq!(sync.mode(), DegradedMode::Connected);
        let connected_at = now;

        // Each transition left one sync.mode event, stamped with the time
        // it happened; recovery is Info.
        let snap = sync.observe();
        let transitions: Vec<&str> = snap
            .events()
            .iter()
            .filter(|e| e.code == "sync.mode")
            .map(|e| e.detail.as_str())
            .collect();
        assert_eq!(
            transitions,
            [
                format!("connected->degraded @{}ms", degraded_at.as_millis()),
                format!("degraded->offline @{}ms", offline_at.as_millis()),
                format!("offline->connected @{}ms", connected_at.as_millis()),
            ]
        );
        assert_eq!(snap.gauge("sync.mode").unwrap(), Some(0.0));
    }

    #[test]
    fn builder_clamps_out_of_range_parameters() {
        let mut sync = FogSync::builder("fog", "cloud")
            .capacity(0)
            .backoff(0.5, SimDuration::from_secs(10))
            .jitter(7.0)
            .max_in_flight(0)
            .build();
        // Capacity clamped to 1: a second record evicts the first.
        sync.enqueue(SimTime::ZERO, "a", vec![]).unwrap();
        sync.enqueue(SimTime::ZERO, "b", vec![]).unwrap();
        assert_eq!(sync.pending(), 1);
        assert_eq!(counter(sync.observe(), "sync.dropped"), 1);
    }

    #[test]
    fn two_sources_with_colliding_seqs_both_accepted() {
        let mut net = Network::new(13);
        net.add_node("fog-a");
        net.add_node("fog-b");
        net.add_node("cloud");
        net.connect("fog-a", "cloud", LinkSpec::farm_lan());
        net.connect("fog-b", "cloud", LinkSpec::farm_lan());
        let mut a = FogSync::builder("fog-a", "cloud").jitter(0.0).build();
        let mut b = FogSync::builder("fog-b", "cloud").jitter(0.0).build();
        let mut cloud = CloudStore::new("cloud");
        // Both engines start at seq 0: per-source dedup must keep both.
        a.enqueue(SimTime::ZERO, "ka", b"va".to_vec()).unwrap();
        b.enqueue(SimTime::ZERO, "kb", b"vb".to_vec()).unwrap();
        a.sync_round(&mut net, SimTime::ZERO, 8);
        b.sync_round(&mut net, SimTime::ZERO, 8);
        net.advance_to(SimTime::from_secs(1));
        cloud.process(&mut net, SimTime::from_secs(1));
        assert_eq!(cloud.record_count(), 2);
        assert_eq!(counter(cloud.observe(), "cloud.duplicates"), 0);
    }
}
