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
//!
//! Devices live in one dense table, addressed by the [`DetectorHandle`]
//! [`DetectorBank::admit`] hands out, behind one name index; a caller that
//! keeps the handle observes by it ([`DetectorBank::observe_by_handle`])
//! without a name lookup per value.

use std::collections::BTreeMap;
use std::sync::Arc;

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

/// A device's place in a [`DetectorBank`]'s device table, valid for the
/// bank that handed it out (devices are never removed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DetectorHandle(u32);

/// Everything the bank holds about one device, admitted on first sight.
#[derive(Clone, Debug)]
struct DeviceEntry {
    /// The device id, shared with the name index's key.
    id: Arc<str>,
    /// Rolling alert weight (warning = 1, alert = 3).
    score: u32,
    /// This device's streams, each tagged with its quantity's place in
    /// the bank's quantity table, sorted by tag: a device that sends many
    /// quantities costs a binary search per value, as a map would.
    streams: Vec<(u32, StreamDetectors)>,
}

/// A quantity the bank has configured or seen.
#[derive(Clone, Copy, Debug)]
struct Quantity {
    /// Its place in the quantity table: what device streams are tagged by.
    tag: u32,
    /// Its physical range, if configured.
    range: Option<RangeValidator>,
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
    /// Every quantity configured or seen, by name, with its range.
    quantities: BTreeMap<String, Quantity>,
    /// Device id → handle: the one name index.
    index: BTreeMap<Arc<str>, DetectorHandle>,
    /// Devices by handle.
    devices: Vec<DeviceEntry>,
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
            quantities: BTreeMap::new(),
            index: BTreeMap::new(),
            devices: Vec::new(),
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
        let tag = self.quantity(quantity).tag;
        let range = Some(range);
        self.quantities
            .insert(quantity.to_owned(), Quantity { tag, range });
    }

    /// The quantity table's entry for `quantity`, added on first sight.
    /// An owned key is built only then; afterwards the lookup borrows the
    /// caller's.
    fn quantity(&mut self, quantity: &str) -> Quantity {
        if let Some(&q) = self.quantities.get(quantity) {
            return q;
        }
        let q = Quantity {
            tag: self.quantities.len() as u32,
            range: None,
        };
        self.quantities.insert(quantity.to_owned(), q);
        q
    }

    /// The handle of a device, admitting it (with a clean score and no
    /// streams) on first sight.
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
            score: 0,
            streams: Vec::new(),
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
        match self.devices.get(handle.0 as usize).map_or(0, |d| d.score) {
            0 => Recommendation::Trust,
            1..=2 => Recommendation::Watch,
            _ => Recommendation::Quarantine,
        }
    }

    /// Devices currently recommended for quarantine, in id order.
    pub fn quarantined(&self) -> Vec<&str> {
        self.index
            .iter()
            .filter(|(_, h)| self.devices[h.0 as usize].score >= 3)
            .map(|(id, _)| &**id)
            .collect()
    }

    /// Clears a device's score after manual review.
    pub fn clear_device(&mut self, device: &str) {
        if let Some(&handle) = self.index.get(device) {
            self.devices[handle.0 as usize].score = 0;
        }
    }

    /// Scores one finding against its device and reports it through the
    /// bounded instruments only: the `security.*` counters and the
    /// `security.alert` event ring. Nothing per alert is kept.
    fn raise(&mut self, device: usize, quantity: &str, evidence: Evidence, severity: Severity) {
        let entry = &mut self.devices[device];
        let score = &mut entry.score;
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
        let id = &*entry.id;
        self.obs.event(
            level,
            "security.alert",
            &format!("{id} {quantity} {evidence:?}"),
        );
        if crossed_quarantine {
            self.obs
                .event(Level::Error, "security.quarantine_recommended", id);
        }
    }

    /// Feeds one measured value through range + z-score + CUSUM detectors.
    /// Returns the strongest verdict. The detectors are order-based: the
    /// observation time is accepted for the caller's record and not read.
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
    pub fn observe_by_handle(
        &mut self,
        _at: SimTime,
        handle: DetectorHandle,
        quantity: &str,
        value: f64,
    ) -> Verdict {
        let device = handle.0 as usize;
        if device >= self.devices.len() {
            return Verdict::Normal;
        }
        let Quantity { tag, range } = self.quantity(quantity);
        // Range first: an impossible value must not train the baselines.
        if range.is_some_and(|range| range.check(value).is_anomalous()) {
            self.raise(device, quantity, Evidence::OutOfRange, Severity::Alert);
            return Verdict::Anomalous(Severity::Alert);
        }
        let streams = &mut self.devices[device].streams;
        let pos = match streams.binary_search_by_key(&tag, |&(t, _)| t) {
            Ok(pos) => pos,
            Err(pos) => {
                streams.insert(
                    pos,
                    (
                        tag,
                        StreamDetectors {
                            zscore: ZScoreDetector::for_slow_signal(),
                            cusum: CusumDetector::for_slow_signal(),
                        },
                    ),
                );
                pos
            }
        };
        let stream = &mut streams[pos].1;
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
    fn a_handle_observes_the_device_its_name_does() {
        let mut by_name = bank();
        let mut by_handle = bank();
        let mut rng = SimRng::seed_from(6);
        let handles: Vec<_> = ["z", "a", "m"].map(|d| by_handle.admit(d)).into();
        assert_eq!(by_handle.admit("a"), handles[1]);
        for i in 0..120 {
            for (d, &h) in ["z", "a", "m"].iter().zip(&handles) {
                let step = if *d == "m" && i > 100 { 0.2 } else { 0.0 };
                let v = 0.25 + step + rng.normal_with(0.0, 0.004);
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

    /// A device that sends thousands of invented quantity names keeps its
    /// streams sorted by tag, so each value costs one binary search, and
    /// its real quantity is screened as if it sent nothing else.
    #[test]
    fn invented_quantities_keep_each_lookup_a_binary_search() {
        let mut flooded = bank();
        let mut clean = bank();
        // Another device names every 50th quantity first, so the flooding
        // device's new streams land between tags it already holds.
        for i in 0..100 {
            flooded.observe_value(SimTime::ZERO, "other", &format!("q{}", i * 50), 0.1);
        }
        let mut rng = SimRng::seed_from(9);
        for i in 0..5_000u32 {
            let at = SimTime::from_secs(u64::from(i));
            let step = if i > 4_500 { 0.2 } else { 0.0 };
            let v = 0.25 + step + rng.normal_with(0.0, 0.004);
            flooded.observe_value(at, "d", &format!("q{i}"), 0.1);
            assert_eq!(
                flooded.observe_value(at, "d", "moisture_vwc", v),
                clean.observe_value(at, "d", "moisture_vwc", v),
                "value {i}"
            );
        }
        let streams = &flooded.devices[flooded.index["d"].0 as usize].streams;
        assert_eq!(streams.len(), 5_001);
        assert!(streams.windows(2).all(|w| w[0].0 < w[1].0));
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
