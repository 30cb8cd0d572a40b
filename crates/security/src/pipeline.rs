//! The detection pipeline: per-device detector banks, alert aggregation and
//! quarantine recommendations.
//!
//! The paper's security architecture needs more than isolated detectors —
//! "mechanisms to avoid fake data" must combine evidence (a value can be in
//! range yet statistically abnormal, or drifting too slowly for any one
//! sample to stand out) and decide *what to do*: log, alert the
//! operator, or quarantine the device. [`DetectorBank`] wires the point
//! detectors from [`crate::detect`] per quantity, per device, scores
//! their findings per device (each one counted on `security.*` and
//! reported as a `security.alert` event), and turns the score into a
//! [`Recommendation`]. Frame sequence numbers are
//! not evidence here: the platform's ingest path keeps each device's
//! replay window in its registry row and rejects replays outright.

use std::collections::BTreeMap;

use swamp_obs::{Counter, Level, Obs, ObsSnapshot};
use swamp_sim::SimTime;

use crate::detect::{CusumDetector, RangeValidator, Severity, Verdict, ZScoreDetector};

/// Evidence type an alert is based on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Evidence {
    /// Physically impossible value.
    OutOfRange,
    /// Statistically abnormal jump (z-score).
    PointAnomaly,
    /// Accumulated drift (CUSUM).
    Drift,
}

/// What the pipeline recommends for a device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recommendation {
    /// Nothing concerning.
    Trust,
    /// Keep ingesting but flag to the operator.
    Watch,
    /// Stop trusting this device's data; hold irrigation decisions that
    /// depend on it until a human or cross-check clears it.
    Quarantine,
}

/// Detector bundle for one (device, quantity) stream.
#[derive(Clone, Debug)]
struct StreamDetectors {
    zscore: ZScoreDetector,
    cusum: CusumDetector,
}

/// Everything the bank holds about one device, admitted on first sight
/// and found by `&str` afterwards.
#[derive(Clone, Debug, Default)]
struct DeviceEntry {
    /// Rolling alert weight (warning = 1, alert = 3).
    score: u32,
    /// This device's streams by quantity name.
    streams: BTreeMap<String, StreamDetectors>,
}

/// Per-device, per-quantity detection with aggregated alerting.
///
/// # Example
/// ```
/// use swamp_security::pipeline::{DetectorBank, Recommendation};
/// use swamp_security::detect::RangeValidator;
/// use swamp_sim::SimTime;
///
/// let mut bank = DetectorBank::new();
/// bank.configure_quantity("moisture_vwc", RangeValidator::soil_moisture());
/// // An impossible value is flagged immediately.
/// bank.observe_value(SimTime::ZERO, "probe-1", "moisture_vwc", 0.95);
/// assert_eq!(bank.recommendation("probe-1"), Recommendation::Quarantine);
/// ```
#[derive(Clone, Debug)]
pub struct DetectorBank {
    /// Physical ranges per quantity name.
    ranges: BTreeMap<String, RangeValidator>,
    devices: BTreeMap<String, DeviceEntry>,
    obs: Obs,
    ins: BankInstruments,
}

/// Typed handles for the bank's instruments (`security.*`).
#[derive(Clone, Debug)]
struct BankInstruments {
    alerts_raised: Counter,
    out_of_range: Counter,
    point_anomaly: Counter,
    drift: Counter,
}

impl BankInstruments {
    fn register(obs: &mut Obs) -> BankInstruments {
        BankInstruments {
            alerts_raised: obs.counter("security.alerts_raised"),
            out_of_range: obs.counter("security.out_of_range"),
            point_anomaly: obs.counter("security.point_anomaly"),
            drift: obs.counter("security.drift"),
        }
    }
}

impl Default for DetectorBank {
    fn default() -> Self {
        DetectorBank::new()
    }
}

impl DetectorBank {
    /// Creates an empty bank.
    pub fn new() -> Self {
        let mut obs = Obs::new();
        let ins = BankInstruments::register(&mut obs);
        DetectorBank {
            ranges: BTreeMap::new(),
            devices: BTreeMap::new(),
            obs,
            ins,
        }
    }

    /// Typed snapshot of the bank's instruments: the per-evidence
    /// `security.*` counters plus `security.alert` /
    /// `security.quarantine_recommended` events.
    pub fn observe(&self) -> ObsSnapshot {
        self.obs.snapshot()
    }

    /// Enables or disables instrumentation (for uninstrumented baselines).
    pub fn set_obs_enabled(&mut self, enabled: bool) {
        self.obs.set_enabled(enabled);
    }

    /// Registers the physical range for a quantity (applies to all devices).
    pub fn configure_quantity(&mut self, quantity: &str, range: RangeValidator) {
        self.ranges.insert(quantity.to_owned(), range);
    }

    /// Current recommendation for a device.
    pub fn recommendation(&self, device: &str) -> Recommendation {
        match self.devices.get(device).map_or(0, |d| d.score) {
            0 => Recommendation::Trust,
            1..=2 => Recommendation::Watch,
            _ => Recommendation::Quarantine,
        }
    }

    /// Devices currently recommended for quarantine.
    pub fn quarantined(&self) -> Vec<&str> {
        self.devices
            .iter()
            .filter(|(_, d)| d.score >= 3)
            .map(|(id, _)| id.as_str())
            .collect()
    }

    /// Clears a device's score after manual review.
    pub fn clear_device(&mut self, device: &str) {
        if let Some(d) = self.devices.get_mut(device) {
            d.score = 0;
        }
    }

    /// Scores one finding against its device and reports it through the
    /// bounded instruments only: the `security.*` counters and the
    /// `security.alert` event ring. Nothing per alert is kept.
    fn raise(&mut self, device: &str, quantity: &str, evidence: Evidence, severity: Severity) {
        let score = &mut self.devices.entry(device.to_owned()).or_default().score;
        let before = *score;
        *score += match severity {
            Severity::Warning => 1,
            Severity::Alert => 3,
        };
        let crossed_quarantine = before < 3 && *score >= 3;

        self.obs.inc(self.ins.alerts_raised);
        let evidence_counter = match evidence {
            Evidence::OutOfRange => self.ins.out_of_range,
            Evidence::PointAnomaly => self.ins.point_anomaly,
            Evidence::Drift => self.ins.drift,
        };
        self.obs.inc(evidence_counter);
        let level = match severity {
            Severity::Warning => Level::Warn,
            Severity::Alert => Level::Error,
        };
        self.obs.event(
            level,
            "security.alert",
            &format!("{device} {quantity} {evidence:?}"),
        );
        if crossed_quarantine {
            self.obs
                .event(Level::Error, "security.quarantine_recommended", device);
        }
    }

    /// Feeds one measured value through range + z-score + CUSUM detectors.
    /// Returns the strongest verdict. The detectors are order-based: the
    /// observation time is accepted for the caller's record and not read.
    pub fn observe_value(
        &mut self,
        _at: SimTime,
        device: &str,
        quantity: &str,
        value: f64,
    ) -> Verdict {
        // Range first: an impossible value must not train the baselines.
        if let Some(range) = self.ranges.get(quantity) {
            if range.check(value).is_anomalous() {
                self.raise(device, quantity, Evidence::OutOfRange, Severity::Alert);
                return Verdict::Anomalous(Severity::Alert);
            }
        }
        // Owned keys are built only for a device or a quantity seen for
        // the first time; afterwards both lookups borrow the caller's.
        let entry = match self.devices.get_mut(device) {
            Some(entry) => entry,
            None => self.devices.entry(device.to_owned()).or_default(),
        };
        let stream = match entry.streams.get_mut(quantity) {
            Some(stream) => stream,
            None => entry
                .streams
                .entry(quantity.to_owned())
                .or_insert(StreamDetectors {
                    zscore: ZScoreDetector::for_slow_signal(),
                    cusum: CusumDetector::for_slow_signal(),
                }),
        };
        let z = stream.zscore.observe(value);
        let c = stream.cusum.observe(value);
        let verdict = match (z, c) {
            (Verdict::Anomalous(s), _) | (_, Verdict::Anomalous(s)) => Verdict::Anomalous(s),
            _ => Verdict::Normal,
        };
        if let Verdict::Anomalous(severity) = verdict {
            let evidence = if c.is_anomalous() && !z.is_anomalous() {
                Evidence::Drift
            } else {
                Evidence::PointAnomaly
            };
            self.raise(device, quantity, evidence, severity);
        }
        verdict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swamp_sim::SimRng;

    fn bank() -> DetectorBank {
        let mut b = DetectorBank::new();
        b.configure_quantity("moisture_vwc", RangeValidator::soil_moisture());
        b
    }

    #[test]
    fn clean_stream_stays_trusted() {
        let mut b = bank();
        let mut rng = SimRng::seed_from(1);
        for i in 0..200 {
            let v = 0.25 + rng.normal_with(0.0, 0.005);
            b.observe_value(SimTime::from_secs(i), "p", "moisture_vwc", v);
        }
        assert_eq!(b.recommendation("p"), Recommendation::Trust);
        assert_eq!(b.observe().counter("security.alerts_raised").unwrap(), 0);
    }

    #[test]
    fn out_of_range_quarantines_immediately() {
        let mut b = bank();
        let v = b.observe_value(SimTime::ZERO, "p", "moisture_vwc", 1.5);
        assert!(v.is_anomalous());
        assert_eq!(b.recommendation("p"), Recommendation::Quarantine);
        assert_eq!(b.observe().counter("security.out_of_range").unwrap(), 1);
        assert_eq!(b.quarantined(), vec!["p"]);
    }

    #[test]
    fn impossible_values_do_not_poison_baseline() {
        let mut b = bank();
        let mut rng = SimRng::seed_from(2);
        for i in 0..50 {
            b.observe_value(
                SimTime::from_secs(i),
                "p",
                "moisture_vwc",
                0.25 + rng.normal_with(0.0, 0.005),
            );
        }
        // A burst of impossible values…
        for i in 50..60 {
            b.observe_value(SimTime::from_secs(i), "p", "moisture_vwc", 0.99);
        }
        // …then a step attack inside the physical range: still flagged,
        // because the range rejects kept the z-score baseline at 0.25.
        let v = b.observe_value(SimTime::from_secs(61), "p", "moisture_vwc", 0.45);
        assert!(v.is_anomalous(), "baseline must not have learned 0.99");
    }

    #[test]
    fn step_attack_flagged_and_scored() {
        let mut b = bank();
        let mut rng = SimRng::seed_from(3);
        for i in 0..100 {
            b.observe_value(
                SimTime::from_secs(i),
                "p",
                "moisture_vwc",
                0.22 + rng.normal_with(0.0, 0.004),
            );
        }
        assert_eq!(b.recommendation("p"), Recommendation::Trust);
        let v = b.observe_value(SimTime::from_secs(100), "p", "moisture_vwc", 0.40);
        assert!(v.is_anomalous());
        assert_ne!(b.recommendation("p"), Recommendation::Trust);
    }

    #[test]
    fn slow_drift_caught_as_drift_evidence() {
        let mut b = bank();
        let mut rng = SimRng::seed_from(4);
        for i in 0..40 {
            b.observe_value(
                SimTime::from_secs(i),
                "p",
                "moisture_vwc",
                0.25 + rng.normal_with(0.0, 0.004),
            );
        }
        let mut caught = false;
        for i in 0..150 {
            let v = 0.25 + 0.0015 * i as f64 + rng.normal_with(0.0, 0.004);
            if b.observe_value(SimTime::from_secs(40 + i), "p", "moisture_vwc", v)
                .is_anomalous()
            {
                caught = true;
                break;
            }
        }
        assert!(caught, "drift must be caught");
        let snap = b.observe();
        assert!(
            snap.counter("security.drift").unwrap()
                + snap.counter("security.point_anomaly").unwrap()
                > 0
        );
    }

    #[test]
    fn obs_counts_evidence_and_emits_quarantine_event() {
        let mut b = bank();
        b.observe_value(SimTime::ZERO, "p", "moisture_vwc", 1.5);
        let snap = b.observe();
        assert_eq!(snap.counter("security.alerts_raised").unwrap(), 1);
        assert_eq!(snap.counter("security.out_of_range").unwrap(), 1);
        assert_eq!(snap.counter("security.drift").unwrap(), 0);
        assert!(snap.counter("security.typo").is_err());
        let codes: Vec<&str> = snap.events().iter().map(|e| e.code.as_str()).collect();
        assert_eq!(codes, ["security.alert", "security.quarantine_recommended"]);
        assert_eq!(snap.events()[1].detail, "p");
    }

    #[test]
    fn devices_are_isolated() {
        let mut b = bank();
        b.observe_value(SimTime::ZERO, "bad", "moisture_vwc", 2.0);
        assert_eq!(b.recommendation("bad"), Recommendation::Quarantine);
        assert_eq!(b.recommendation("good"), Recommendation::Trust);
    }

    #[test]
    fn clear_restores_trust() {
        let mut b = bank();
        b.observe_value(SimTime::ZERO, "p", "moisture_vwc", 2.0);
        assert_eq!(b.recommendation("p"), Recommendation::Quarantine);
        b.clear_device("p");
        assert_eq!(b.recommendation("p"), Recommendation::Trust);
    }
}
