//! The range screen: alerting on physically impossible values.
//!
//! The paper asks for "mechanisms to avoid fake data". On the sealed path
//! the hard evidence is a value no sensor can read: [`DetectorBank`]
//! checks each value of a configured quantity against its
//! [`RangeValidator`], counts every hit on `security.alerts_raised` and
//! reports it as a `security.alert` event. The screen keeps nothing per
//! device: what a hit means for its sender is the caller's to decide (the
//! platform disables the device's registry row, and an operator's review
//! re-enables it). A value in range yet out of the device's expected
//! sequence is the behavioural baseline's evidence ([`crate::baseline`]),
//! the platform's one statistical detector: it is reported to the
//! operator and never cuts a device off by itself, because a learned
//! baseline also flags honest fields. Frame sequence numbers are not
//! evidence here either: the platform's ingest path keeps each device's
//! replay window in its registry row and rejects replays outright.

#![deny(clippy::indexing_slicing)]

use std::collections::BTreeMap;

use swamp_obs::{Counter, Level, Obs, ObsSnapshot};
use swamp_sim::SimTime;

use crate::detect::{RangeValidator, Verdict};

/// Range screening by quantity, with aggregated alerting.
///
/// # Example
/// ```
/// use swamp_security::pipeline::DetectorBank;
/// use swamp_security::detect::{RangeValidator, Verdict};
/// use swamp_sim::SimTime;
///
/// let mut bank = DetectorBank::new();
/// bank.configure_quantity("moisture_vwc", RangeValidator::soil_moisture());
/// // A possible value passes; an impossible one is flagged and counted.
/// let at = SimTime::ZERO;
/// assert_eq!(bank.observe_value(at, "probe-1", "moisture_vwc", 0.25), Verdict::Normal);
/// assert!(bank.observe_value(at, "probe-1", "moisture_vwc", 0.95).is_anomalous());
/// assert_eq!(bank.observe().counter("security.alerts_raised").unwrap(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct DetectorBank {
    /// The configured quantities' physical ranges, by name. A quantity
    /// not configured is not screened, and nothing of it is stored.
    quantities: BTreeMap<String, RangeValidator>,
    obs: Obs,
    alerts_raised: Counter,
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
        let alerts_raised = obs.counter("security.alerts_raised");
        DetectorBank {
            quantities: BTreeMap::new(),
            obs,
            alerts_raised,
        }
    }

    /// Typed snapshot of the bank's instruments: the
    /// `security.alerts_raised` counter plus `security.alert` events.
    pub fn observe(&self) -> ObsSnapshot {
        self.obs.snapshot()
    }

    /// Enables or disables instrumentation (for uninstrumented baselines).
    pub fn set_obs_enabled(&mut self, enabled: bool) {
        self.obs.set_enabled(enabled);
    }

    /// Registers the physical range for a quantity (applies to all devices).
    pub fn configure_quantity(&mut self, quantity: &str, range: RangeValidator) {
        self.quantities.insert(quantity.to_owned(), range);
    }

    /// Feeds one measured value through its quantity's range check, if
    /// the quantity is configured, and returns the verdict. The check
    /// does not read the observation time, which is accepted for the
    /// caller's record; `device` names the sender in the alert.
    ///
    /// A hit is reported through the bounded instruments only: the
    /// `security.alerts_raised` counter and the `security.alert` event
    /// ring. Nothing per alert or per device is kept.
    pub fn observe_value(
        &mut self,
        _at: SimTime,
        device: &str,
        quantity: &str,
        value: f64,
    ) -> Verdict {
        let Some(range) = self.quantities.get(quantity) else {
            return Verdict::Normal;
        };
        let verdict = range.check(value);
        if verdict.is_anomalous() {
            self.obs.inc(self.alerts_raised);
            self.obs.event(
                Level::Error,
                "security.alert",
                &format!("{device} {quantity} OutOfRange"),
            );
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

    /// An irrigated probe draws down by day, barely by night and refills
    /// in one jump: every reading is possible, so the screen stays
    /// silent, and so it does on an in-range step to 0.55, which is the
    /// behavioural baseline's evidence, not a physical impossibility.
    #[test]
    fn an_irrigated_probe_stays_trusted() {
        let mut b = bank();
        let mut rng = SimRng::seed_from(1);
        let mut vwc = 0.30;
        for i in 0..200u64 {
            let at = SimTime::from_secs(60 + 1_800 * i);
            vwc -= if at.is_day() { 0.007 } else { 0.001 };
            if vwc < 0.17 {
                vwc += 0.09;
            }
            let v = vwc + rng.normal_with(0.0, 0.0012);
            assert_eq!(b.observe_value(at, "p", "moisture_vwc", v), Verdict::Normal);
        }
        let pinned = b.observe_value(SimTime::from_hours(101), "p", "moisture_vwc", 0.55);
        assert_eq!(pinned, Verdict::Normal);
        assert_eq!(b.observe().counter("security.alerts_raised").unwrap(), 0);
    }

    #[test]
    fn obs_counts_every_alert_and_names_its_sender() {
        let mut b = bank();
        assert!(b
            .observe_value(SimTime::ZERO, "p", "moisture_vwc", 1.5)
            .is_anomalous());
        assert!(b
            .observe_value(SimTime::from_secs(1), "q", "moisture_vwc", -0.5)
            .is_anomalous());
        let snap = b.observe();
        assert_eq!(snap.counter("security.alerts_raised").unwrap(), 2);
        assert!(snap.counter("security.typo").is_err());
        let events: Vec<(&str, &str)> = snap
            .events()
            .iter()
            .map(|e| (e.code.as_str(), e.detail.as_str()))
            .collect();
        assert_eq!(
            events,
            [
                ("security.alert", "p moisture_vwc OutOfRange"),
                ("security.alert", "q moisture_vwc OutOfRange")
            ]
        );
    }

    /// A device that sends thousands of invented quantity names leaves
    /// nothing behind: an unconfigured quantity is a map miss, and the
    /// quantity table keeps only what was configured.
    #[test]
    fn invented_quantities_store_nothing() {
        let mut b = bank();
        b.configure_quantity("battery_fraction", RangeValidator::new(0.0, 1.0));
        for i in 0..5_000u32 {
            let at = SimTime::from_secs(u64::from(i));
            let invented = b.observe_value(at, "d", &format!("q{i}"), 99.0);
            assert_eq!(invented, Verdict::Normal, "value {i}");
        }
        let names: Vec<&str> = b.quantities.keys().map(String::as_str).collect();
        assert_eq!(names, ["battery_fraction", "moisture_vwc"]);
        assert_eq!(b.observe().counter("security.alerts_raised").unwrap(), 0);
        assert!(b
            .observe_value(SimTime::ZERO, "d", "moisture_vwc", 0.95)
            .is_anomalous());
    }
}
