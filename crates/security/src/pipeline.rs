//! The range screen: per-device alerting on physically impossible values,
//! and the quarantine recommendation it backs.
//!
//! The paper asks for "mechanisms to avoid fake data". On the sealed path
//! the hard evidence is a value no sensor can read: [`DetectorBank`]
//! checks each value of a configured quantity against its
//! [`RangeValidator`], counts every hit on `security.alerts_raised`,
//! reports it as a `security.alert` event, and recommends
//! [`Recommendation::Quarantine`] for a device with a hit until an
//! operator clears it. A value in range yet out of the device's expected
//! sequence is the behavioural baseline's evidence ([`crate::baseline`]),
//! the platform's one statistical detector: it is reported to the
//! operator and never cuts a device off by itself, because a learned
//! baseline also flags honest fields. Frame sequence numbers are not
//! evidence here either: the platform's ingest path keeps each device's
//! replay window in its registry row and rejects replays outright.
//!
//! Devices live in one dense table, addressed by the [`DetectorHandle`]
//! [`DetectorBank::admit`] hands out, behind one name index; a caller that
//! keeps the handle observes by it ([`DetectorBank::observe_by_handle`])
//! without a name lookup per value.

use std::collections::BTreeMap;
use std::sync::Arc;

use swamp_obs::{Counter, Level, Obs, ObsSnapshot};
use swamp_sim::SimTime;

use crate::detect::{RangeValidator, Verdict};

/// What the range screen recommends for a device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recommendation {
    /// No impossible value since admission or the last review.
    Trust,
    /// Stop trusting this device's data; hold irrigation decisions that
    /// depend on it until a human or cross-check clears it.
    Quarantine,
}

/// A device's place in a [`DetectorBank`]'s device table, valid for the
/// bank that handed it out (devices are never removed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DetectorHandle(u32);

/// Everything the bank holds about one device, admitted on first sight.
#[derive(Clone, Debug)]
struct DeviceEntry {
    /// The device id, shared with the name index's key.
    id: Arc<str>,
    /// Whether the device sent an impossible value since admission or
    /// its last review.
    out_of_range: bool,
}

/// Per-device range screening with aggregated alerting.
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
    /// The configured quantities' physical ranges, by name. A quantity
    /// not configured is not screened, and nothing of it is stored.
    quantities: BTreeMap<String, RangeValidator>,
    /// Device id → handle: the one name index.
    index: BTreeMap<Arc<str>, DetectorHandle>,
    /// Devices by handle.
    devices: Vec<DeviceEntry>,
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
            index: BTreeMap::new(),
            devices: Vec::new(),
            obs,
            alerts_raised,
        }
    }

    /// Typed snapshot of the bank's instruments: the
    /// `security.alerts_raised` counter plus `security.alert` /
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
        self.quantities.insert(quantity.to_owned(), range);
    }

    /// The handle of a device, admitting it (trusted) on first sight.
    ///
    /// # Panics
    /// Panics past 2^32 devices.
    #[expect(clippy::expect_used, reason = "documented under # Panics")]
    pub fn admit(&mut self, device: &str) -> DetectorHandle {
        if let Some(&handle) = self.index.get(device) {
            return handle;
        }
        let handle =
            DetectorHandle(u32::try_from(self.devices.len()).expect("fewer than 2^32 devices"));
        let id: Arc<str> = Arc::from(device);
        self.devices.push(DeviceEntry {
            id: Arc::clone(&id),
            out_of_range: false,
        });
        self.index.insert(id, handle);
        handle
    }

    /// Current recommendation for a device.
    pub fn recommendation(&self, device: &str) -> Recommendation {
        match self.index.get(device) {
            Some(&handle) => self.recommendation_by_handle(handle),
            None => Recommendation::Trust,
        }
    }

    /// [`DetectorBank::recommendation`] for the device behind `handle`.
    pub fn recommendation_by_handle(&self, handle: DetectorHandle) -> Recommendation {
        match self.devices.get(handle.0 as usize) {
            Some(d) if d.out_of_range => Recommendation::Quarantine,
            _ => Recommendation::Trust,
        }
    }

    /// Devices currently recommended for quarantine, in id order.
    pub fn quarantined(&self) -> Vec<&str> {
        self.index
            .iter()
            .filter(|(_, h)| self.devices[h.0 as usize].out_of_range)
            .map(|(id, _)| &**id)
            .collect()
    }

    /// Clears a device's recommendation after manual review.
    pub fn clear_device(&mut self, device: &str) {
        if let Some(&handle) = self.index.get(device) {
            self.devices[handle.0 as usize].out_of_range = false;
        }
    }

    /// Feeds one measured value through its quantity's range check, if
    /// the quantity is configured, and returns the verdict. The check
    /// does not read the observation time, which is accepted for the
    /// caller's record.
    pub fn observe_value(
        &mut self,
        at: SimTime,
        device: &str,
        quantity: &str,
        value: f64,
    ) -> Verdict {
        let handle = self.admit(device);
        self.observe_by_handle(at, handle, quantity, value)
    }

    /// [`DetectorBank::observe_value`] for the device behind `handle`
    /// (see [`DetectorBank::admit`]). A handle this bank never handed out
    /// observes nothing and reads [`Verdict::Normal`].
    ///
    /// A hit is reported through the bounded instruments only: the
    /// `security.alerts_raised` counter and the `security.alert` event
    /// ring. Nothing per alert is kept.
    pub fn observe_by_handle(
        &mut self,
        _at: SimTime,
        handle: DetectorHandle,
        quantity: &str,
        value: f64,
    ) -> Verdict {
        let (Some(entry), Some(range)) = (
            self.devices.get_mut(handle.0 as usize),
            self.quantities.get(quantity),
        ) else {
            return Verdict::Normal;
        };
        let verdict = range.check(value);
        if verdict.is_anomalous() {
            let first = !entry.out_of_range;
            entry.out_of_range = true;
            let id = &*entry.id;
            self.obs.inc(self.alerts_raised);
            self.obs.event(
                Level::Error,
                "security.alert",
                &format!("{id} {quantity} OutOfRange"),
            );
            if first {
                self.obs
                    .event(Level::Error, "security.quarantine_recommended", id);
            }
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
        assert_eq!(b.recommendation("p"), Recommendation::Trust);
        assert_eq!(b.observe().counter("security.alerts_raised").unwrap(), 0);
    }

    #[test]
    fn out_of_range_quarantines_immediately() {
        let mut b = bank();
        let v = b.observe_value(SimTime::ZERO, "p", "moisture_vwc", 1.5);
        assert!(v.is_anomalous());
        assert_eq!(b.recommendation("p"), Recommendation::Quarantine);
        assert_eq!(b.observe().counter("security.alerts_raised").unwrap(), 1);
        assert_eq!(b.quarantined(), vec!["p"]);
    }

    #[test]
    fn obs_counts_alerts_and_emits_one_quarantine_event() {
        let mut b = bank();
        b.observe_value(SimTime::ZERO, "p", "moisture_vwc", 1.5);
        b.observe_value(SimTime::from_secs(1), "p", "moisture_vwc", -0.5);
        let snap = b.observe();
        assert_eq!(snap.counter("security.alerts_raised").unwrap(), 2);
        assert!(snap.counter("security.typo").is_err());
        let codes: Vec<&str> = snap.events().iter().map(|e| e.code.as_str()).collect();
        assert_eq!(
            codes,
            [
                "security.alert",
                "security.quarantine_recommended",
                "security.alert"
            ]
        );
        assert_eq!(snap.events()[0].detail, "p moisture_vwc OutOfRange");
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
    fn a_handle_observes_the_device_its_name_does() {
        let mut by_name = bank();
        let mut by_handle = bank();
        let mut rng = SimRng::seed_from(6);
        let handles: Vec<_> = ["z", "a", "m"].map(|d| by_handle.admit(d)).into();
        assert_eq!(by_handle.admit("a"), handles[1]);
        for i in 0..120 {
            for (d, &h) in ["z", "a", "m"].iter().zip(&handles) {
                let v = if *d == "m" && i == 101 {
                    0.9
                } else {
                    0.25 + rng.normal_with(0.0, 0.004)
                };
                let at = SimTime::from_secs(i);
                let named = by_name.observe_value(at, d, "moisture_vwc", v);
                let handled = by_handle.observe_by_handle(at, h, "moisture_vwc", v);
                assert_eq!(named, handled, "{d} at {i}");
            }
        }
        by_handle.observe_by_handle(SimTime::ZERO, handles[0], "moisture_vwc", 7.0);
        by_name.observe_value(SimTime::ZERO, "z", "moisture_vwc", 7.0);
        for d in ["z", "a", "m"] {
            assert_eq!(by_name.recommendation(d), by_handle.recommendation(d));
        }
        assert_eq!(by_handle.quarantined(), ["m", "z"]);
        assert_eq!(by_name.quarantined(), by_handle.quarantined());
        assert_eq!(by_name.observe(), by_handle.observe());
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
        assert_eq!(b.devices.len(), 1);
        assert_eq!(b.recommendation("d"), Recommendation::Trust);
        assert!(b
            .observe_value(SimTime::ZERO, "d", "moisture_vwc", 0.95)
            .is_anomalous());
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
