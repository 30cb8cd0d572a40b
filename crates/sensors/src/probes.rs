//! The soil-moisture probe model.
//!
//! A probe samples a *true* volumetric water content and returns an
//! imperfect reading: calibration bias, Gaussian noise, slow drift, and
//! stuck-at or silent failures. Only the closed-loop integration test
//! drives a probe; the platform paths and the experiments see the
//! readings `swamp-workload` generates, not these.

use swamp_sim::{SimRng, SimTime};

use crate::device::{DeviceHealth, DeviceId};

/// One sensor reading with provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    /// Originating device.
    pub device: DeviceId,
    /// Measured quantity name (e.g. `"moisture_vwc"`).
    pub quantity: &'static str,
    /// The (imperfect) measured value.
    pub value: f64,
    /// Virtual time of the measurement.
    pub at: SimTime,
}

/// Common imperfection model applied by every analog sensor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SensorNoise {
    /// Constant calibration bias.
    pub bias: f64,
    /// Gaussian noise standard deviation per sample.
    pub noise_sd: f64,
    /// Linear drift per simulated day (sensor aging).
    pub drift_per_day: f64,
}

impl SensorNoise {
    /// A well-calibrated sensor.
    pub fn good(noise_sd: f64) -> Self {
        SensorNoise {
            bias: 0.0,
            noise_sd,
            drift_per_day: 0.0,
        }
    }

    /// Applies the imperfection model to a true value.
    pub fn apply(&self, truth: f64, at: SimTime, rng: &mut SimRng) -> f64 {
        truth
            + self.bias
            + self.drift_per_day * at.as_millis() as f64 / swamp_sim::time::MILLIS_PER_DAY as f64
            + rng.normal_with(0.0, self.noise_sd)
    }
}

/// A capacitance soil-moisture probe for one management zone.
///
/// # Example
/// ```
/// use swamp_sensors::probes::{SensorNoise, SoilMoistureProbe};
/// use swamp_sim::{SimRng, SimTime};
/// let mut probe = SoilMoistureProbe::new("probe-1", 0, SensorNoise::good(0.01));
/// let mut rng = SimRng::seed_from(1);
/// let r = probe.sample(0.25, SimTime::ZERO, &mut rng).unwrap();
/// assert!((r.value - 0.25).abs() < 0.05);
/// ```
#[derive(Clone, Debug)]
pub struct SoilMoistureProbe {
    id: DeviceId,
    zone: usize,
    noise: SensorNoise,
    health: DeviceHealth,
    stuck_value: Option<f64>,
}

impl SoilMoistureProbe {
    /// Creates a probe assigned to a management zone.
    pub fn new(id: impl Into<DeviceId>, zone: usize, noise: SensorNoise) -> Self {
        SoilMoistureProbe {
            id: id.into(),
            zone,
            noise,
            health: DeviceHealth::Healthy,
            stuck_value: None,
        }
    }

    /// The probe's device id.
    pub fn id(&self) -> &DeviceId {
        &self.id
    }

    /// The management zone the probe sits in.
    pub fn zone(&self) -> usize {
        self.zone
    }

    /// Current health.
    pub fn health(&self) -> DeviceHealth {
        self.health
    }

    /// Fails the probe stuck at its last plausible value (a classic field
    /// failure mode that naive platforms mistake for a very stable soil).
    pub fn fail_stuck_at(&mut self, value: f64) {
        self.health = DeviceHealth::Failed;
        self.stuck_value = Some(value);
    }

    /// Kills the probe outright (no more readings).
    pub fn fail_silent(&mut self) {
        self.health = DeviceHealth::Failed;
        self.stuck_value = None;
    }

    /// Samples the true volumetric water content `truth_vwc`.
    ///
    /// Returns `None` for a silently failed probe; a stuck probe keeps
    /// reporting its frozen value.
    pub fn sample(&self, truth_vwc: f64, at: SimTime, rng: &mut SimRng) -> Option<Reading> {
        let value = match (self.health, self.stuck_value) {
            (DeviceHealth::Failed, Some(v)) => v,
            (DeviceHealth::Failed, None) => return None,
            _ => self.noise.apply(truth_vwc, at, rng).clamp(0.0, 1.0),
        };
        Some(Reading {
            device: self.id.clone(),
            quantity: "moisture_vwc",
            value,
            at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swamp_sim::SimDuration;

    fn rng() -> SimRng {
        SimRng::seed_from(99)
    }

    #[test]
    fn probe_reading_near_truth() {
        let probe = SoilMoistureProbe::new("p", 0, SensorNoise::good(0.005));
        let mut r = rng();
        let mut sum = 0.0;
        let n = 1000;
        for _ in 0..n {
            sum += probe.sample(0.30, SimTime::ZERO, &mut r).unwrap().value;
        }
        assert!((sum / n as f64 - 0.30).abs() < 0.002);
    }

    #[test]
    fn probe_bias_shifts_mean() {
        let noise = SensorNoise {
            bias: 0.05,
            noise_sd: 0.001,
            drift_per_day: 0.0,
        };
        let probe = SoilMoistureProbe::new("p", 0, noise);
        let v = probe.sample(0.20, SimTime::ZERO, &mut rng()).unwrap().value;
        assert!((v - 0.25).abs() < 0.01);
    }

    #[test]
    fn probe_drift_grows_with_time() {
        let noise = SensorNoise {
            bias: 0.0,
            noise_sd: 0.0,
            drift_per_day: 0.001,
        };
        let probe = SoilMoistureProbe::new("p", 0, noise);
        let day0 = probe.sample(0.2, SimTime::ZERO, &mut rng()).unwrap().value;
        let day100 = probe
            .sample(0.2, SimTime::from_days(100), &mut rng())
            .unwrap()
            .value;
        assert!((day100 - day0 - 0.1).abs() < 1e-9);
    }

    #[test]
    fn probe_clamps_to_physical_range() {
        let noise = SensorNoise {
            bias: 2.0,
            noise_sd: 0.0,
            drift_per_day: 0.0,
        };
        let probe = SoilMoistureProbe::new("p", 0, noise);
        assert_eq!(
            probe.sample(0.5, SimTime::ZERO, &mut rng()).unwrap().value,
            1.0
        );
    }

    #[test]
    fn stuck_probe_freezes() {
        let mut probe = SoilMoistureProbe::new("p", 0, SensorNoise::good(0.01));
        probe.fail_stuck_at(0.33);
        for i in 0..5 {
            let r = probe
                .sample(0.1 * i as f64, SimTime::from_days(i), &mut rng())
                .unwrap();
            assert_eq!(r.value, 0.33);
        }
        assert_eq!(probe.health(), DeviceHealth::Failed);
    }

    #[test]
    fn silent_probe_returns_none() {
        let mut probe = SoilMoistureProbe::new("p", 0, SensorNoise::good(0.01));
        probe.fail_silent();
        assert!(probe.sample(0.2, SimTime::ZERO, &mut rng()).is_none());
    }

    #[test]
    fn deterministic_sampling() {
        let probe = SoilMoistureProbe::new("p", 0, SensorNoise::good(0.01));
        let t = SimTime::ZERO + SimDuration::from_hours(1);
        let a = probe.sample(0.2, t, &mut SimRng::seed_from(5)).unwrap();
        let b = probe.sample(0.2, t, &mut SimRng::seed_from(5)).unwrap();
        assert_eq!(a, b);
    }
}
