//! Point detectors over telemetry streams.
//!
//! Physical range validation is the one the platform runs on every sealed
//! frame, through [`crate::pipeline`]'s range screen. The rest serve the
//! experiments: a rolling z-score (E3's drydown toy; it is not on the
//! platform path, where it cut off honest irrigated fields), message-rate
//! guarding (DoS), and spatial cross-validation against neighboring
//! sensors (tamper and Sybil evidence). Replay detection is not here: the
//! platform keeps each device's replay window in its registry row. The
//! sequence-of-events baseline the paper calls "the most relevant
//! challenge", the platform's one statistical detector, lives in
//! [`crate::baseline`].

use std::collections::BTreeMap;

use swamp_sim::stats::Ewma;
use swamp_sim::{SimDuration, SimTime};

/// A detector verdict for one observation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Consistent with the baseline.
    Normal,
    /// Anomalous, with a severity class.
    Anomalous(Severity),
}

/// How bad an anomaly is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious; log and correlate.
    Warning,
    /// Strong evidence; alert the operator.
    Alert,
}

impl Verdict {
    /// Whether this verdict flags an anomaly.
    pub fn is_anomalous(&self) -> bool {
        matches!(self, Verdict::Anomalous(_))
    }
}

/// Hard physical-range validation (a soil probe cannot read 1.5 m³/m³).
#[derive(Clone, Copy, Debug)]
pub struct RangeValidator {
    lo: f64,
    hi: f64,
}

impl RangeValidator {
    /// Creates a validator accepting `[lo, hi]`.
    ///
    /// # Panics
    /// Panics if `lo > hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "invalid range [{lo}, {hi}]");
        RangeValidator { lo, hi }
    }

    /// Physical bounds for volumetric soil moisture.
    pub fn soil_moisture() -> Self {
        RangeValidator::new(0.0, 0.6)
    }

    /// Checks one value.
    pub fn check(&self, value: f64) -> Verdict {
        if value.is_finite() && (self.lo..=self.hi).contains(&value) {
            Verdict::Normal
        } else {
            Verdict::Anomalous(Severity::Alert)
        }
    }
}

/// Rolling z-score detector with an EWMA baseline, tuned for slow agro
/// signals (soil moisture, NDVI). Only E3 runs it, on a drydown toy
/// signal: fed the workload's irrigation cycles it flagged 24–64 of 64
/// honest devices per pilot, so the platform path does not run it.
///
/// Flags observations more than `WARN_Z`/`ALERT_Z` exponentially
/// weighted standard deviations from the smoothed mean, after a warm-up
/// period.
#[derive(Clone, Debug)]
pub struct ZScoreDetector {
    ewma: Ewma,
    seen: u32,
}

impl ZScoreDetector {
    /// EWMA smoothing factor.
    const ALPHA: f64 = 0.15;
    /// Observations that only train the baseline.
    const WARMUP: u32 = 10;
    /// Distance, in standard deviations, that raises a warning.
    const WARN_Z: f64 = 3.0;
    /// Distance, in standard deviations, that raises an alert.
    const ALERT_Z: f64 = 5.0;
    /// Floor on the baseline's standard deviation.
    const MIN_SD: f64 = 0.01;

    /// A fresh detector for a slow agro signal.
    pub fn for_slow_signal() -> Self {
        ZScoreDetector {
            ewma: Ewma::new(Self::ALPHA),
            seen: 0,
        }
    }

    /// Scores one observation and updates the baseline.
    ///
    /// During warm-up everything is `Normal` (the baseline is still
    /// learning); anomalous observations are *not* absorbed into the
    /// baseline, so a step attack cannot teach the detector its new normal.
    pub fn observe(&mut self, value: f64) -> Verdict {
        self.seen += 1;
        if self.seen <= Self::WARMUP || !self.ewma.is_primed() {
            self.ewma.push(value);
            return Verdict::Normal;
        }
        let sd = self.ewma.std_dev().max(Self::MIN_SD);
        let z = (value - self.ewma.value()).abs() / sd;
        let verdict = if z >= Self::ALERT_Z {
            Verdict::Anomalous(Severity::Alert)
        } else if z >= Self::WARN_Z {
            Verdict::Anomalous(Severity::Warning)
        } else {
            Verdict::Normal
        };
        if !verdict.is_anomalous() {
            self.ewma.push(value);
        }
        verdict
    }
}

/// Per-source message-rate guard: learns each source's normal per-window
/// rate *and* a fleet-wide norm, and flags rate explosions (the DoS
/// signature), feeding SDN mitigation.
///
/// The fleet baseline is what catches a source that floods from its very
/// first message — it has no personal history, but it is wildly outside
/// the norm of its peers.
#[derive(Clone, Debug)]
pub struct RateGuard {
    window: SimDuration,
    /// Alert when a source exceeds `factor` × its learned rate.
    factor: f64,
    /// Grace: minimum messages per window before alerts can fire.
    min_count: u64,
    history: BTreeMap<String, (SimTime, u64, Ewma)>,
    fleet: Ewma,
}

impl RateGuard {
    /// Creates a guard with the given window and explosion factor.
    pub fn new(window: SimDuration, factor: f64, min_count: u64) -> Self {
        assert!(factor > 1.0);
        RateGuard {
            window,
            factor,
            min_count,
            history: BTreeMap::new(),
            fleet: Ewma::new(0.2),
        }
    }

    /// Records one message from a source; returns an alert if its current
    /// window is exploding relative to its own baseline or the fleet norm.
    pub fn observe(&mut self, source: &str, now: SimTime) -> Verdict {
        let entry = self
            .history
            .entry(source.to_owned())
            .or_insert_with(|| (now, 0, Ewma::new(0.3)));
        let (window_start, count, baseline) = entry;
        if now.saturating_duration_since(*window_start) >= self.window {
            // Close the window into the baselines and start a new one;
            // this observation opens the new window.
            let closed = *count as f64;
            baseline.push(closed);
            *window_start = now;
            *count = 1;
            self.fleet.push(closed);
            return self.check(source, now);
        }
        *count += 1;
        self.check(source, now)
    }

    fn check(&self, source: &str, _now: SimTime) -> Verdict {
        let (_, count, baseline) = &self.history[source];
        if *count < self.min_count {
            return Verdict::Normal;
        }
        let own = if baseline.is_primed() {
            Some(baseline.value())
        } else {
            None
        };
        let fleet = if self.fleet.is_primed() {
            Some(self.fleet.value())
        } else {
            None
        };
        let expected = match (own, fleet) {
            (Some(o), Some(f)) => o.max(f),
            (Some(o), None) => o,
            (None, Some(f)) => f,
            (None, None) => return Verdict::Normal,
        }
        .max(1.0);
        if (*count as f64) > self.factor * expected {
            Verdict::Anomalous(Severity::Alert)
        } else {
            Verdict::Normal
        }
    }
}

/// Spatial cross-validation: compares each sensor's value against the
/// median of its peers measuring the same quantity. A sensor (or colluding
/// Sybil swarm) far from the robust consensus is flagged.
///
/// Returns the indices of outliers more than `threshold` from the median.
pub fn spatial_outliers(values: &[(usize, f64)], threshold: f64) -> Vec<usize> {
    if values.len() < 3 {
        return Vec::new(); // no robust consensus possible
    }
    let mut sorted: Vec<f64> = values.iter().map(|(_, v)| *v).collect();
    sorted.sort_by(f64::total_cmp);
    let median = sorted[sorted.len() / 2];
    values
        .iter()
        .filter(|(_, v)| (v - median).abs() > threshold)
        .map(|(i, _)| *i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_validator() {
        let v = RangeValidator::soil_moisture();
        assert_eq!(v.check(0.25), Verdict::Normal);
        assert_eq!(v.check(0.0), Verdict::Normal);
        assert!(v.check(0.9).is_anomalous());
        assert!(v.check(-0.1).is_anomalous());
        assert!(v.check(f64::NAN).is_anomalous());
        assert!(v.check(f64::INFINITY).is_anomalous());
    }

    #[test]
    fn zscore_flags_step_change() {
        let mut d = ZScoreDetector::for_slow_signal();
        // Stable signal around 0.25 with small noise.
        let mut rng = swamp_sim::SimRng::seed_from(1);
        for _ in 0..50 {
            let v = 0.25 + rng.normal_with(0.0, 0.01);
            assert!(!d.observe(v).is_anomalous(), "baseline learning phase");
        }
        // Sudden replace-attack value.
        assert!(d.observe(0.55).is_anomalous());
        // Baseline not poisoned by the anomaly.
        assert!((d.ewma.value() - 0.25).abs() < 0.03);
    }

    #[test]
    fn zscore_tolerates_normal_variation() {
        let mut d = ZScoreDetector::for_slow_signal();
        let mut rng = swamp_sim::SimRng::seed_from(2);
        let mut false_alarms = 0;
        for _ in 0..500 {
            let v = 0.3 + rng.normal_with(0.0, 0.01);
            if d.observe(v).is_anomalous() {
                false_alarms += 1;
            }
        }
        assert!(false_alarms < 10, "false alarms {false_alarms}");
    }

    #[test]
    fn rate_guard_flags_flood() {
        let mut g = RateGuard::new(SimDuration::from_secs(10), 5.0, 10);
        // Normal: 2 msgs/window for 10 windows.
        let mut now = SimTime::ZERO;
        for _ in 0..10 {
            g.observe("probe-1", now);
            g.observe("probe-1", now + SimDuration::from_secs(5));
            now += SimDuration::from_secs(10);
        }
        // Flood: 100 msgs in one window.
        let mut alerted = false;
        for i in 0..100 {
            let t = now + SimDuration::from_millis(i * 50);
            if g.observe("probe-1", t).is_anomalous() {
                alerted = true;
                break;
            }
        }
        assert!(alerted, "flood must trip the rate guard");
        assert_eq!(g.history.len(), 1);
    }

    #[test]
    fn rate_guard_quiet_on_steady_traffic() {
        let mut g = RateGuard::new(SimDuration::from_secs(10), 5.0, 10);
        let mut now = SimTime::ZERO;
        for _ in 0..50 {
            for i in 0..3u64 {
                assert!(!g
                    .observe("ws-1", now + SimDuration::from_secs(i))
                    .is_anomalous());
            }
            now += SimDuration::from_secs(10);
        }
    }

    #[test]
    fn spatial_outliers_found() {
        // Sensors 0..5 agree around 0.25; sensor 9 reports 0.6.
        let values = vec![
            (0, 0.24),
            (1, 0.26),
            (2, 0.25),
            (3, 0.27),
            (4, 0.23),
            (9, 0.60),
        ];
        assert_eq!(spatial_outliers(&values, 0.1), vec![9]);
        // Tight threshold flags more; loose flags none.
        assert!(spatial_outliers(&values, 0.5).is_empty());
    }

    #[test]
    fn spatial_needs_quorum() {
        assert!(spatial_outliers(&[(0, 1.0), (1, 99.0)], 0.1).is_empty());
    }

    #[test]
    fn sybil_majority_shifts_median_caveat() {
        // When Sybils OUTNUMBER honest sensors, the median moves to the
        // swarm — documenting why identity control (keystore/registry) must
        // back up spatial consistency.
        let values = vec![
            (0, 0.25), // honest
            (1, 0.26), // honest
            (10, 0.90),
            (11, 0.91),
            (12, 0.89),
            (13, 0.90),
        ];
        let outliers = spatial_outliers(&values, 0.2);
        // The honest sensors get flagged instead.
        assert!(outliers.contains(&0) && outliers.contains(&1));
    }
}
