//! The shared experiment driver: one round loop for every harness.
//!
//! E11, E13 and E14 all used to hand-roll the same skeleton — a
//! fixed-cadence round loop (publish, pump at an offset into the round,
//! sample) followed by a drain loop (pump until a condition settles).
//! Both skeletons now run against [`swamp_core::Drive`], so the same
//! driver advances a plain [`swamp_core::Platform`] or a
//! [`swamp_shard::ShardedPlatform`] worker pool without the harness
//! caring which; hooks receive the *concrete* deployment type, so a
//! harness can still reach inherent methods (`degraded_mode`,
//! `aggregate_store`, …) that the trait does not carry.
//!
//! Timing contract (load-bearing — EXPERIMENTS.md is bit-reproducible
//! against it): round `r` starts at `start + r·step`; the `before` hook
//! fires at the round start `t_r`; the deployment is pumped once at
//! `t_r + pump_offset`; the `after` hook fires last, also handed `t_r`.

use swamp_core::Drive;
use swamp_sim::{SimDuration, SimTime};

/// Drives `rounds` fixed-cadence rounds and returns the total number of
/// entity updates ingested.
///
/// Per round `r` (time `t_r = start + r·step`):
/// 1. `before(d, r, t_r)` — offer this round's traffic;
/// 2. `d.round(t_r + pump_offset)` — one platform round;
/// 3. `after(d, r, t_r)` — sample state for the row under construction.
pub fn run_rounds<D: Drive + ?Sized>(
    d: &mut D,
    start: SimTime,
    step: SimDuration,
    pump_offset: SimDuration,
    rounds: u64,
    mut before: impl FnMut(&mut D, u64, SimTime),
    mut after: impl FnMut(&mut D, u64, SimTime),
) -> usize {
    let mut ingested = 0usize;
    for r in 0..rounds {
        let t = start + step * r;
        before(d, r, t);
        ingested += d.round(t + pump_offset);
        after(d, r, t);
    }
    ingested
}

/// Drains a deployment: repeatedly checks `done`, and while it holds
/// false, advances the clock one `step` and pumps. Returns the clock at
/// the last pump (or `start` if `done` held immediately) and the number
/// of pump rounds spent.
///
/// The check-then-pump order means a drain that is already complete
/// costs zero rounds, and `max_rounds` bounds the loop for workloads
/// that can never settle (the caller decides whether that is a failure).
pub fn run_until<D: Drive + ?Sized>(
    d: &mut D,
    start: SimTime,
    step: SimDuration,
    max_rounds: u64,
    mut done: impl FnMut(&D) -> bool,
) -> (SimTime, u64) {
    let mut now = start;
    let mut pumps = 0u64;
    for _ in 0..max_rounds {
        if done(d) {
            break;
        }
        now = now.saturating_add(step);
        d.round(now);
        pumps += 1;
    }
    (now, pumps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swamp_codec::ngsi::Entity;
    use swamp_core::platform::{DeploymentConfig, Platform};

    fn update(i: usize, seq: f64) -> Entity {
        let mut e = Entity::new(format!("urn:swamp:device:probe-{i}"), "SoilProbe");
        e.set("moisture_vwc", 0.25);
        e.set("seq", seq);
        e
    }

    #[test]
    fn rounds_follow_the_timing_contract() {
        let mut p = Platform::builder(DeploymentConfig::FarmFog).seed(1).build();
        let mut before_times = Vec::new();
        let mut after_rounds = Vec::new();
        let ingested = run_rounds(
            &mut p,
            SimTime::from_secs(10),
            SimDuration::from_secs(60),
            SimDuration::from_secs(59),
            3,
            |d, r, t| {
                before_times.push(t.as_millis());
                d.ingest(t, vec![update(0, r as f64)]);
            },
            |_, r, _| after_rounds.push(r),
        );
        assert_eq!(before_times, vec![10_000, 70_000, 130_000]);
        assert_eq!(after_rounds, vec![0, 1, 2]);
        assert_eq!(ingested, 0, "direct ingest bypasses the round counter");
    }

    #[test]
    fn drain_is_check_first_and_bounded() {
        let mut p = Platform::builder(DeploymentConfig::FarmFog).seed(1).build();
        // Already-satisfied drains cost zero pumps and leave the clock at
        // `start`.
        let (now, pumps) = run_until(
            &mut p,
            SimTime::from_secs(5),
            SimDuration::from_secs(60),
            100,
            |_| true,
        );
        assert_eq!((now.as_millis(), pumps), (5_000, 0));
        // An unsatisfiable drain stops at the bound.
        let (now, pumps) = run_until(
            &mut p,
            SimTime::from_secs(5),
            SimDuration::from_secs(60),
            4,
            |_| false,
        );
        assert_eq!(pumps, 4);
        assert_eq!(now.as_millis(), 5_000 + 4 * 60_000);
    }
}
