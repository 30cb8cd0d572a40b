//! Hierarchical timer wheel over [`SimTime`] milliseconds.
//!
//! The sync engine schedules one retry deadline per transmitted record.
//! With deadlines kept in a flat map, finding the due ones costs a scan
//! linear in the backlog every round — a quadratic drain. The wheel
//! makes `schedule` O(1) and `advance_into` O(slots crossed + entries
//! fired): a sync round pays for the timers that actually fire, not for
//! every record still waiting.
//!
//! ## Structure
//!
//! Four levels of power-of-two slots, indexed by absolute deadline bits
//! (the classic hashed-and-hierarchical layout):
//!
//! | level | granularity | slots | horizon (delta below which it files here) |
//! |-------|-------------|-------|-------------------------------------------|
//! | 0     | 1 ms        | 256   | 256 ms                                    |
//! | 1     | 256 ms      | 64    | ~16.4 s                                   |
//! | 2     | ~16.4 s     | 64    | ~17.5 min                                 |
//! | 3     | ~17.5 min   | 64    | ~18.6 h                                   |
//!
//! An entry files at the shallowest level whose horizon covers its delay,
//! in the slot addressed by the deadline's bits at that granularity.
//! Advancing drains every slot the clock crossed; a drained entry either
//! fires (deadline reached) or **cascades** — re-files relative to the new
//! now, descending toward level 0 as its deadline approaches. Deadlines
//! beyond the top horizon (including [`SimTime::MAX`] sentinels) wait in a
//! deadline-keyed overflow map and fire straight from it; the default
//! retry backoff cap (480 s) sits comfortably inside level 2, so the
//! steady-state engine never touches the overflow.
//!
//! Entries already due at `schedule` time land in a due-now staging list
//! and fire on the next [`TimerWheel::advance_into`], whatever its target
//! time — the wheel never owes a rotation for a deadline in the past.
//!
//! The wheel is deliberately dumb about its payloads: it never deletes an
//! entry before its deadline. Callers that re-schedule (retry after
//! retransmission) or drop records (ack, eviction) leave the old entry in
//! place and discard it as stale when it fires — O(1) amortized, against
//! O(log n) for eager removal from a search structure.
//!
//! ## Ordering
//!
//! Entries fired by one `advance_into` call are **not** sorted; callers
//! needing a deterministic order (the sync engine wants seq order) sort
//! the due batch themselves, paying O(due · log due) on the records that
//! fire rather than O(backlog) on the ones that don't.
//!
//! # Example
//! ```
//! use swamp_fog::timer_wheel::TimerWheel;
//! use swamp_sim::{SimDuration, SimTime};
//!
//! let mut wheel: TimerWheel<u64> = TimerWheel::new(SimTime::ZERO);
//! wheel.schedule(SimTime::from_secs(30), 7);
//! wheel.schedule(SimTime::from_secs(90), 8);
//! let mut due = Vec::new();
//! wheel.advance_into(SimTime::from_secs(60), &mut due);
//! assert_eq!(due, vec![(SimTime::from_secs(30), 7)]);
//! assert_eq!(wheel.len(), 1);
//! ```

use std::collections::BTreeMap;

use swamp_sim::SimTime;

/// Number of hierarchical levels.
const LEVELS: usize = 4;
/// Bit position of each level's slot index within a deadline.
const SHIFTS: [u32; LEVELS] = [0, 8, 14, 20];
/// Slots per level (powers of two; level 0 is finer-grained).
const SLOTS: [usize; LEVELS] = [256, 64, 64, 64];
/// `SLOTS[l] - 1` as a `u64` rotation mask, written out as literals so
/// the tick-domain slot math stays cast-free (`slot_masks_match_slots`
/// pins the two tables together).
const SLOT_MASKS: [u64; LEVELS] = [255, 63, 63, 63];
/// Horizon of each level: an entry files at the shallowest level whose
/// horizon exceeds its delay. Beyond the last horizon → overflow map.
const HORIZONS: [u64; LEVELS] = [1 << 8, 1 << 14, 1 << 20, 1 << 26];

/// Slot index for a tick count at `lvl`: mask to the level's rotation,
/// then convert. The mask bounds the value below `SLOTS[lvl]`, so the
/// fallback arm is unreachable — `try_from` keeps the narrowing visibly
/// lossless instead of an `as` cast.
fn slot_index(ticks: u64, lvl: usize) -> usize {
    usize::try_from(ticks & SLOT_MASKS[lvl]).unwrap_or(0)
}

/// A hierarchical timer wheel: O(1) schedule, O(slots crossed + entries
/// fired) advance, lazy invalidation by design (see the module docs).
#[derive(Clone, Debug)]
pub struct TimerWheel<T> {
    /// Wheel clock, in ms; entries in the levels all have deadlines
    /// strictly after this.
    now_ms: u64,
    /// Live entries across all levels, overflow and the due-now list.
    len: usize,
    /// Entries scheduled with a deadline ≤ the wheel clock: fire on the
    /// next advance, bypassing the slots.
    due_now: Vec<(u64, T)>,
    /// `levels[l][slot]` holds `(deadline_ms, payload)` entries.
    levels: [Vec<Vec<(u64, T)>>; LEVELS],
    /// Deadlines beyond the top level's horizon, keyed by deadline.
    overflow: BTreeMap<u64, Vec<T>>,
    /// Scratch for entries displaced during an advance (kept to make the
    /// steady-state advance allocation-free).
    cascade: Vec<(u64, T)>,
}

impl<T> TimerWheel<T> {
    /// Creates an empty wheel whose clock starts at `start`.
    pub fn new(start: SimTime) -> Self {
        TimerWheel {
            now_ms: start.as_millis(),
            len: 0,
            due_now: Vec::new(),
            levels: [
                (0..SLOTS[0]).map(|_| Vec::new()).collect(),
                (0..SLOTS[1]).map(|_| Vec::new()).collect(),
                (0..SLOTS[2]).map(|_| Vec::new()).collect(),
                (0..SLOTS[3]).map(|_| Vec::new()).collect(),
            ],
            overflow: BTreeMap::new(),
            cascade: Vec::new(),
        }
    }

    /// Live entries (scheduled and not yet fired).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The wheel clock: the time of the latest `advance_into` (or the
    /// construction time).
    pub fn now(&self) -> SimTime {
        SimTime::from_millis(self.now_ms)
    }

    /// Schedules `payload` to fire once `advance_into` reaches
    /// `deadline`. Deadlines at or before the wheel clock fire on the
    /// very next advance. O(1) amortized (overflow deadlines beyond
    /// ~18.6 h pay a map insert).
    pub fn schedule(&mut self, deadline: SimTime, payload: T) {
        self.len += 1;
        self.place(deadline.as_millis(), payload);
    }

    /// Files an entry at the right level for its delay relative to the
    /// wheel clock. Does not touch `len` (shared by schedule + cascade).
    fn place(&mut self, deadline_ms: u64, payload: T) {
        if deadline_ms <= self.now_ms {
            self.due_now.push((deadline_ms, payload));
            return;
        }
        let delta = deadline_ms - self.now_ms;
        for lvl in 0..LEVELS {
            if delta < HORIZONS[lvl] {
                let idx = slot_index(deadline_ms >> SHIFTS[lvl], lvl);
                self.levels[lvl][idx].push((deadline_ms, payload));
                return;
            }
        }
        self.overflow.entry(deadline_ms).or_default().push(payload);
    }

    /// Advances the wheel clock to `now`, appending every entry whose
    /// deadline is ≤ `now` to `out` as `(deadline, payload)`. Entries the
    /// crossed slots held for later deadlines cascade toward finer
    /// levels. Within one call the fired entries are unordered. A `now`
    /// before the wheel clock does not rewind: the due-now staging list
    /// still fires (those deadlines were already reached), the slots are
    /// untouched.
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<(SimTime, T)>) {
        // The staging list only ever holds deadlines ≤ the wheel clock.
        self.len -= self.due_now.len();
        out.extend(
            self.due_now
                .drain(..)
                .map(|(d, p)| (SimTime::from_millis(d), p)),
        );

        let from = self.now_ms;
        let to = now.as_millis();
        if to <= from {
            return;
        }
        self.now_ms = to;

        // Drain every slot the clock crossed, level by level. Crossing
        // more than a full rotation visits each slot exactly once.
        let mut cascade = std::mem::take(&mut self.cascade);
        for lvl in 0..LEVELS {
            let start = from >> SHIFTS[lvl];
            let end = to >> SHIFTS[lvl];
            if start == end {
                // Coarser levels cannot have crossed a boundary either.
                break;
            }
            let steps = (end - start).min(SLOT_MASKS[lvl] + 1);
            for s in 1..=steps {
                let idx = slot_index(start + s, lvl);
                for (d, p) in self.levels[lvl][idx].drain(..) {
                    if d <= to {
                        self.len -= 1;
                        out.push((SimTime::from_millis(d), p));
                    } else {
                        cascade.push((d, p));
                    }
                }
            }
        }
        // Re-file displaced entries relative to the new clock; their
        // deadlines are all in the future, so this cannot loop.
        for (d, p) in cascade.drain(..) {
            self.place(d, p);
        }
        self.cascade = cascade;

        // Far-future entries fire straight from the overflow map.
        while let Some(entry) = self.overflow.first_entry() {
            let d = *entry.key();
            if d > to {
                break;
            }
            for p in entry.remove() {
                self.len -= 1;
                out.push((SimTime::from_millis(d), p));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_masks_match_slots() {
        for lvl in 0..LEVELS {
            assert!(SLOTS[lvl].is_power_of_two());
            assert_eq!(SLOT_MASKS[lvl] + 1, SLOTS[lvl] as u64);
        }
    }

    fn drain(wheel: &mut TimerWheel<u32>, to: SimTime) -> Vec<(u64, u32)> {
        let mut out = Vec::new();
        wheel.advance_into(to, &mut out);
        let mut fired: Vec<(u64, u32)> = out.into_iter().map(|(d, p)| (d.as_millis(), p)).collect();
        fired.sort_unstable();
        fired
    }

    #[test]
    fn fires_exactly_at_deadline_across_levels() {
        // One deadline per level, plus one in the overflow region.
        let deadlines = [5u64, 1_000, 60_000, 3_600_000, (1 << 27) + 17];
        let mut wheel: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        for (i, &d) in deadlines.iter().enumerate() {
            wheel.schedule(SimTime::from_millis(d), i as u32);
        }
        assert_eq!(wheel.len(), deadlines.len());
        for (i, &d) in deadlines.iter().enumerate() {
            // Nothing fires one ms early…
            assert_eq!(drain(&mut wheel, SimTime::from_millis(d - 1)), []);
            // …and the entry fires exactly at its deadline.
            assert_eq!(drain(&mut wheel, SimTime::from_millis(d)), [(d, i as u32)]);
        }
        assert!(wheel.is_empty());
    }

    #[test]
    fn past_deadlines_fire_on_next_advance() {
        let mut wheel: TimerWheel<u32> = TimerWheel::new(SimTime::from_secs(100));
        wheel.schedule(SimTime::from_secs(40), 1); // already due
        wheel.schedule(SimTime::from_secs(100), 2); // due exactly now
                                                    // Even an advance to the current clock fires staged entries.
        assert_eq!(
            drain(&mut wheel, SimTime::from_secs(100)),
            [(40_000, 1), (100_000, 2)]
        );
        assert!(wheel.is_empty());
    }

    #[test]
    fn cascade_preserves_deadlines_under_small_steps() {
        // A deadline two levels up, approached in 1 ms steps around the
        // cascade boundaries, must fire exactly once, exactly on time.
        let deadline = 17_000u64; // level 2 at insert (delta ≥ 16 384)
        let mut wheel: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        wheel.schedule(SimTime::from_millis(deadline), 9);
        let mut fired = Vec::new();
        for ms in 1..=deadline + 10 {
            for (d, p) in drain(&mut wheel, SimTime::from_millis(ms)) {
                fired.push((ms, d, p));
            }
        }
        assert_eq!(fired, [(deadline, deadline, 9)]);
    }

    #[test]
    fn simtime_max_saturates_without_loss() {
        let mut wheel: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        wheel.schedule(SimTime::MAX, 1);
        wheel.schedule(SimTime::from_secs(1), 2);
        assert_eq!(drain(&mut wheel, SimTime::from_secs(2)), [(1_000, 2)]);
        assert_eq!(wheel.len(), 1);
        assert_eq!(drain(&mut wheel, SimTime::MAX), [(u64::MAX, 1)]);
        assert!(wheel.is_empty());
        // The wheel clock saturated; further advances are no-ops.
        assert_eq!(wheel.now(), SimTime::MAX);
        assert_eq!(drain(&mut wheel, SimTime::MAX), []);
    }

    #[test]
    fn advance_never_rewinds() {
        let mut wheel: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
        wheel.schedule(SimTime::from_secs(10), 1);
        assert_eq!(drain(&mut wheel, SimTime::from_secs(30)), [(10_000, 1)]);
        // A stale (earlier) advance leaves the clock and contents alone.
        wheel.schedule(SimTime::from_secs(40), 2);
        assert_eq!(drain(&mut wheel, SimTime::from_secs(5)), []);
        assert_eq!(wheel.now(), SimTime::from_secs(30));
        assert_eq!(drain(&mut wheel, SimTime::from_secs(40)), [(40_000, 2)]);
    }
}
