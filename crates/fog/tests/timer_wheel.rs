//! Seeded differential suite for the hierarchical timer wheel: against a
//! naive scan-everything model, the wheel must fire exactly the same
//! (deadline, id) multiset at every advance, for random deadline sets
//! spanning every level, the overflow region and [`SimTime::MAX`].

use swamp_fog::timer_wheel::TimerWheel;
use swamp_sim::{SimRng, SimTime};

/// The obvious-by-inspection model: keep every entry, scan on advance.
struct NaiveTimers {
    now_ms: u64,
    entries: Vec<(u64, u32)>,
}

impl NaiveTimers {
    fn new(start: SimTime) -> Self {
        NaiveTimers {
            now_ms: start.as_millis(),
            entries: Vec::new(),
        }
    }

    fn schedule(&mut self, deadline: SimTime, id: u32) {
        self.entries.push((deadline.as_millis(), id));
    }

    fn advance(&mut self, now: SimTime) -> Vec<(u64, u32)> {
        // Entries at or before the model clock fire even on a backwards
        // advance — mirroring the wheel's due-now staging list.
        let cutoff = self.now_ms.max(now.as_millis());
        self.now_ms = cutoff;
        let mut fired: Vec<(u64, u32)> = self
            .entries
            .iter()
            .copied()
            .filter(|&(d, _)| d <= cutoff)
            .collect();
        self.entries.retain(|&(d, _)| d > cutoff);
        fired.sort_unstable();
        fired
    }
}

fn wheel_advance(wheel: &mut TimerWheel<u32>, now: SimTime) -> Vec<(u64, u32)> {
    let mut out = Vec::new();
    wheel.advance_into(now, &mut out);
    let mut fired: Vec<(u64, u32)> = out.into_iter().map(|(d, p)| (d.as_millis(), p)).collect();
    fired.sort_unstable();
    fired
}

/// Draws a deadline relative to `now` covering every interesting regime:
/// already-past, each wheel level, the overflow region, and the
/// saturation sentinel.
fn random_deadline(rng: &mut SimRng, now_ms: u64) -> SimTime {
    match rng.next_u64() % 100 {
        0..=9 => SimTime::from_millis(now_ms.saturating_sub(rng.next_u64() % 5_000)),
        10..=39 => SimTime::from_millis(now_ms + rng.next_u64() % 256),
        40..=69 => SimTime::from_millis(now_ms + rng.next_u64() % (1 << 14)),
        70..=84 => SimTime::from_millis(now_ms + rng.next_u64() % (1 << 20)),
        85..=94 => SimTime::from_millis(now_ms + rng.next_u64() % (1 << 26)),
        95..=98 => SimTime::from_millis(now_ms.saturating_add(rng.next_u64() % (1 << 32))),
        _ => SimTime::MAX,
    }
}

/// One differential episode: random interleaving of schedules and
/// advances, comparing fired multisets at every step and emptiness at the
/// end.
fn run_differential(seed: u64, ops: usize) {
    let mut rng = SimRng::seed_from(seed).split("timer-wheel-diff");
    let mut wheel: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
    let mut naive = NaiveTimers::new(SimTime::ZERO);
    let mut now_ms = 0u64;
    let mut next_id = 0u32;
    for step in 0..ops {
        if !rng.next_u64().is_multiple_of(3) {
            let deadline = random_deadline(&mut rng, now_ms);
            wheel.schedule(deadline, next_id);
            naive.schedule(deadline, next_id);
            next_id += 1;
        } else {
            // Mostly monotone advances, from 1 ms crawls to multi-rotation
            // leaps; occasionally a stale (backwards) target.
            now_ms = match rng.next_u64() % 10 {
                0 => now_ms + 1 + rng.next_u64() % 16,
                1..=4 => now_ms + rng.next_u64() % 4_096,
                5..=7 => now_ms + rng.next_u64() % (1 << 16),
                8 => now_ms + rng.next_u64() % (1 << 24),
                _ => now_ms.saturating_sub(rng.next_u64() % 1_000),
            };
            let fired = wheel_advance(&mut wheel, SimTime::from_millis(now_ms));
            let expected = naive.advance(SimTime::from_millis(now_ms));
            assert_eq!(
                fired, expected,
                "seed {seed} step {step}: wheel diverged from naive scan at t={now_ms}ms"
            );
            // The backwards case must not rewind either clock.
            assert_eq!(wheel.now().as_millis(), naive.now_ms);
        }
        assert_eq!(wheel.len(), naive.entries.len(), "seed {seed} step {step}");
    }
    // Drain everything, saturation sentinels included.
    let fired = wheel_advance(&mut wheel, SimTime::MAX);
    let expected = naive.advance(SimTime::MAX);
    assert_eq!(fired, expected, "seed {seed}: final drain diverged");
    assert!(wheel.is_empty());
}

#[test]
fn wheel_matches_naive_scan_across_seeds() {
    for seed in [42, 1337, 0xdead_beef, 7, 0x5eed_0001] {
        run_differential(seed, 600);
    }
}

#[test]
fn cascade_fires_exactly_once_at_every_granularity_boundary() {
    // Deadlines placed just around each level's slot granularity, swept
    // with 1 ms advances: each fires exactly once, exactly on time. This
    // pins the cascade arithmetic (no early fire from a coarse slot, no
    // lost entry while re-filing).
    let mut deadlines = Vec::new();
    for base in [256u64, 1 << 14, 1 << 20] {
        for delta in [-1i64, 0, 1] {
            deadlines.push((base as i64 + delta) as u64);
        }
    }
    let mut wheel: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
    for (i, &d) in deadlines.iter().enumerate() {
        wheel.schedule(SimTime::from_millis(d), i as u32);
    }
    let horizon = *deadlines.iter().max().unwrap_or(&0) + 2;
    let mut fired: Vec<(u64, u64)> = Vec::new(); // (fired-at, deadline)
    for t in 1..=horizon {
        for (d, _) in wheel_advance(&mut wheel, SimTime::from_millis(t)) {
            fired.push((t, d));
        }
    }
    assert!(wheel.is_empty());
    assert_eq!(fired.len(), deadlines.len());
    for (fired_at, deadline) in fired {
        assert_eq!(fired_at, deadline, "entry fired off its deadline");
    }
}

#[test]
fn beyond_horizon_deadlines_wait_in_overflow_and_fire_once() {
    // Past the top level's ~18.6 h horizon the wheel parks entries in its
    // overflow region; they must survive arbitrary intermediate advances
    // and fire exactly at their deadline.
    let far = (1u64 << 26) + 12_345;
    let mut wheel: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
    wheel.schedule(SimTime::from_millis(far), 1);
    wheel.schedule(SimTime::MAX, 2);
    // Stress with many intermediate advances crossing full rotations.
    let mut t = 0u64;
    while t < far - 1 {
        t = (t + (1 << 22)).min(far - 1);
        assert_eq!(wheel_advance(&mut wheel, SimTime::from_millis(t)), []);
    }
    assert_eq!(
        wheel_advance(&mut wheel, SimTime::from_millis(far)),
        [(far, 1)]
    );
    assert_eq!(wheel.len(), 1);
    assert_eq!(wheel_advance(&mut wheel, SimTime::MAX), [(u64::MAX, 2)]);
    assert!(wheel.is_empty());
}

#[test]
fn simtime_saturation_is_terminal_but_loss_free() {
    let mut wheel: TimerWheel<u32> = TimerWheel::new(SimTime::ZERO);
    wheel.schedule(SimTime::MAX, 0);
    wheel.schedule(SimTime::from_secs(1), 1);
    // Advancing to MAX fires everything, in one pass.
    let fired = wheel_advance(&mut wheel, SimTime::MAX);
    assert_eq!(fired, [(1_000, 1), (u64::MAX, 0)]);
    assert!(wheel.is_empty());
    assert_eq!(wheel.now(), SimTime::MAX);
    // A saturated wheel still accepts (and immediately stages) work.
    wheel.schedule(SimTime::from_secs(5), 7);
    assert_eq!(wheel_advance(&mut wheel, SimTime::MAX), [(5_000, 7)]);
}
