//! The shared soil-moisture signal model behind every pilot profile.
//!
//! All four pilots report volumetric water content from capacitive
//! probes; what differs per pilot is *when* records are emitted and
//! which irrigation policy refills the soil. The model here is the
//! minimal cycle a behavioral baseline can learn: evapotranspiration
//! draws the signal down (fast by day, slowly by night), and when it
//! crosses the refill floor inside the pilot's irrigation window the
//! controller refills it in one jump. Day and night follow
//! [`SimTime::is_day`]. Quantized into `swamp_security::baseline`'s delta
//! symbols the normal cycle reads `Fall… JumpUp Steady… Fall…` — a small,
//! learnable vocabulary whose *violations* (sustained night rises,
//! back-to-back jumps) are exactly the attack signatures the baseline
//! hunts for.

use swamp_sim::{SimRng, SimTime};

/// One probe's soil-moisture state: deterministic ET drawdown plus
/// threshold-triggered refills inside the pilot's irrigation window.
#[derive(Clone, Debug)]
pub struct MoistureSignal {
    moisture: f64,
    refill_floor: f64,
    refill_amount: f64,
    day_drawdown: f64,
    night_drawdown: f64,
    refill_at_night: bool,
    /// Seasonal ET modulation amplitude (Intercrop's horizon-scale
    /// season; zero elsewhere).
    season_amplitude: f64,
}

impl MoistureSignal {
    /// Draws per-device parameters (initial moisture, refill floor, ET
    /// rates) from `rng`, so a fleet is heterogeneous but reproducible.
    pub fn new(rng: &mut SimRng, refill_at_night: bool, season_amplitude: f64) -> Self {
        MoistureSignal {
            moisture: rng.uniform_range(0.24, 0.30),
            refill_floor: rng.uniform_range(0.165, 0.18),
            refill_amount: 0.09,
            day_drawdown: rng.uniform_range(0.0065, 0.0085),
            night_drawdown: rng.uniform_range(0.0006, 0.0012),
            refill_at_night,
            season_amplitude,
        }
    }

    /// Advances the physical state one round ending at `at`.
    /// `season_phase` is the position in the run horizon (`[0, 1]`),
    /// which Intercrop maps onto a growing-season ET swing. Refill
    /// noise draws from `rng`, so advancing consumes randomness whether
    /// or not the round's sample is reported — reporting decisions must
    /// not bend the physics.
    pub fn advance(&mut self, at: SimTime, season_phase: f64, rng: &mut SimRng) {
        let season = 1.0 + self.season_amplitude * (std::f64::consts::TAU * season_phase).sin();
        let draw = if at.is_day() {
            self.day_drawdown
        } else {
            self.night_drawdown
        } * season;
        self.moisture -= draw;
        let in_refill_window = if self.refill_at_night {
            !at.is_day()
        } else {
            at.is_day()
        };
        if self.moisture <= self.refill_floor && in_refill_window {
            self.moisture += self.refill_amount + rng.uniform_range(0.0, 0.01);
        }
        self.moisture = self.moisture.clamp(0.02, 0.58);
    }

    /// An actuator-takeover step: the attacker forces irrigation on,
    /// adding water regardless of the refill floor. Back-to-back calls
    /// produce the `JumpUp → JumpUp` transition the normal cycle never
    /// contains.
    pub fn hijack(&mut self) {
        self.moisture = (self.moisture + 0.045).min(0.55);
    }

    /// The sensed (reported) value: physical moisture plus sensor noise.
    pub fn sense(&self, rng: &mut SimRng) -> f64 {
        (self.moisture + rng.normal_with(0.0, 0.0012)).clamp(0.01, 0.59)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swamp_sim::SimDuration;

    /// A refill moves ~0.09 VWC in one round; drawdown never exceeds ~0.01.
    const JUMP_QUANTUM: f64 = 0.03;

    #[test]
    fn cycle_draws_down_and_refills_in_window() {
        let mut rng = SimRng::seed_from(7);
        let mut sig = MoistureSignal::new(&mut rng, false, 0.0);
        let start = sig.moisture;
        let step = SimDuration::from_mins(30);
        let mut refilled = false;
        let mut prev = start;
        for r in 0..(48 * 4) {
            let at = SimTime::ZERO + step * r;
            sig.advance(at, 0.0, &mut rng);
            if sig.moisture > prev + JUMP_QUANTUM {
                refilled = true;
                assert!(at.is_day(), "day-refill pilot must refill by day");
            }
            prev = sig.moisture;
            assert!((0.02..=0.58).contains(&sig.moisture));
        }
        assert!(refilled, "four days must contain at least one refill");
    }

    #[test]
    fn night_refill_pilot_refills_at_night() {
        let mut rng = SimRng::seed_from(8);
        let mut sig = MoistureSignal::new(&mut rng, true, 0.1);
        let step = SimDuration::from_mins(30);
        let mut prev = sig.moisture;
        let mut refills = 0;
        for r in 0..(48 * 4) {
            let at = SimTime::ZERO + step * r;
            sig.advance(at, r as f64 / 192.0, &mut rng);
            if sig.moisture > prev + JUMP_QUANTUM {
                refills += 1;
                assert!(!at.is_day(), "night-refill pilot must refill at night");
            }
            prev = sig.moisture;
        }
        assert!(refills >= 1);
    }

    #[test]
    fn hijack_jumps_and_saturates() {
        let mut rng = SimRng::seed_from(9);
        let mut sig = MoistureSignal::new(&mut rng, false, 0.0);
        let before = sig.moisture;
        sig.hijack();
        assert!(sig.moisture - before > JUMP_QUANTUM);
        for _ in 0..20 {
            sig.hijack();
        }
        assert!(sig.moisture <= 0.55);
    }
}
