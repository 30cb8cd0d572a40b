//! Streaming behavioral baselining: per-device expected-sequence
//! correlation on the live ingest path.
//!
//! The paper calls behavioral baselining — "correlating the expected
//! sequence of events of an agricultural application" — the most
//! relevant security challenge. [`BehaviorBank`] answers it on the
//! data path: it is fed one observation per accepted record from
//! `Platform::ingest_entities`, learns a per-device first-order symbol
//! model during a training phase, calibrates a per-device score
//! threshold on a held-out phase, and then flags devices whose rolling
//! transition score falls below their own baseline — all in O(1) per
//! observation, with no allocation after device admission.
//!
//! ## Symbols and phases
//!
//! Each observation is quantized into one of ten symbols: the delta
//! from the device's previous report (`JumpDown`, `Fall`, `Steady`,
//! `Rise`, `JumpUp` — dead zone [`STEADY_QUANTUM`], jump threshold
//! [`JUMP_QUANTUM`]) crossed with day/night. The irrigation cycle thus
//! reads `Fall(day)… JumpUp(day) Steady(night)…` and the attack
//! signatures are exactly the transitions the cycle never contains:
//! sustained night rises (tamper drift), back-to-back jumps (actuator
//! takeover), and devices with no trained model at all (Sybil
//! identities that joined after the training horizon).
//!
//! Phases are *observation-timestamp* based (`train_until`,
//! `calibrate_until`), not arrival based, so late-delivered backlogs
//! (drone contacts, partition heals) still train, and an attacker
//! cannot shift a device into a fresh training phase by delaying
//! frames. The default config trains forever — a passive bank that
//! never flags, keeping pre-E16 experiments bit-identical.
//!
//! ## Profile-error margin
//!
//! Partial observability (few probes per hectare) makes the *observed*
//! sequence an imperfect proxy for the true crop state:
//! [`CropProfiler::detection_margin`] quantifies the reconstruction
//! error as `2·field_sd·√(1−coverage)` (VWC units). That error flips
//! delta symbols near quantum boundaries, and each flip costs at most
//! one low-probability transition inside the scoring window, so the
//! score margin widens linearly in the error measured in steady-quanta:
//! `margin = floor + κ·e/Q_s` (see [`BaselineConfig::margin_for`]).
//!
//! ## Handles
//!
//! Device states live in one dense table, addressed by the
//! [`BaselineHandle`] [`BehaviorBank::admit`] hands out, behind one name
//! index; a caller that keeps the handle feeds observations by it
//! ([`BehaviorBank::ingest_by_handle`]) without a name lookup each.

use std::collections::BTreeMap;
use std::sync::Arc;

use swamp_obs::{Counter, Level, Obs, ObsSnapshot};
use swamp_sim::SimTime;

use crate::profile::CropProfiler;

/// Delta dead zone: deltas at or below this magnitude are `Steady`.
/// Sized above sensor noise (σ ≈ 0.0012 VWC per sample keeps honest
/// steady deltas inside it) and below the slowest daytime drawdown step.
pub const STEADY_QUANTUM: f64 = 0.004;

/// Jump threshold: refill events move ~0.09 VWC in one round, ET
/// drawdown never exceeds ~0.01.
pub const JUMP_QUANTUM: f64 = 0.03;

/// Symbol alphabet size: 5 delta classes × day/night.
const ALPHABET: usize = 10;

/// Attribute carrying the behavioral signal; the platform feeds the
/// bank only this attribute's values.
const SIGNAL_ATTR: &str = "moisture_vwc";

/// Rolling scoring window, in transitions (the ring is inline).
const WINDOW: usize = 6;

/// Consecutive sub-threshold windows required before flagging.
const STRIKES: u32 = 3;

/// Observations an untrained (post-training) device may emit before
/// being flagged as Sybil-suspect.
const GRACE: u32 = 4;

/// Smoothing mass for transition probabilities.
const ALPHA: f64 = 0.5;

/// Quantized (delta, day) symbol in `0..ALPHABET`.
fn symbol(delta: f64, day: bool) -> u8 {
    let d = if delta > JUMP_QUANTUM {
        4 // JumpUp
    } else if delta > STEADY_QUANTUM {
        3 // Rise
    } else if delta >= -STEADY_QUANTUM {
        2 // Steady
    } else if delta >= -JUMP_QUANTUM {
        1 // Fall
    } else {
        0 // JumpDown
    };
    d + if day { 5 } else { 0 }
}

/// Configuration for [`BehaviorBank`]. The default is *passive*:
/// `train_until == SimTime::MAX` trains forever and never flags.
#[derive(Clone, Debug, PartialEq)]
pub struct BaselineConfig {
    /// Observations with timestamps before this train the per-device
    /// transition model.
    pub train_until: SimTime,
    /// Observations in `[train_until, calibrate_until)` calibrate the
    /// per-device score threshold (min rolling score − `margin`).
    pub calibrate_until: SimTime,
    /// Profile-error margin subtracted below the calibration minimum
    /// (log-probability units); see [`BaselineConfig::margin_for`].
    pub margin: f64,
}

impl Default for BaselineConfig {
    fn default() -> Self {
        BaselineConfig {
            train_until: SimTime::MAX,
            calibrate_until: SimTime::MAX,
            margin: 1.0,
        }
    }
}

impl BaselineConfig {
    /// A phased config: train until `train_until`, calibrate until
    /// `calibrate_until`, detect afterwards.
    pub fn phased(train_until: SimTime, calibrate_until: SimTime) -> Self {
        BaselineConfig {
            train_until,
            calibrate_until,
            ..BaselineConfig::default()
        }
    }

    /// The profile-error margin for a deployment observing `coverage`
    /// of its zones over a field with standard deviation `field_sd`
    /// (VWC units). The reconstruction error
    /// `e = CropProfiler::detection_margin(coverage, field_sd)` is
    /// converted into score units as `floor + κ · e / Q_s`: an error
    /// of one steady-quantum can flip roughly one symbol per window,
    /// which costs about one unit of mean log-probability.
    pub fn margin_for(coverage: f64, field_sd: f64) -> f64 {
        const FLOOR: f64 = 0.5;
        const KAPPA: f64 = 0.75;
        let e = CropProfiler::detection_margin(coverage, field_sd);
        FLOOR + KAPPA * (e / STEADY_QUANTUM)
    }

    /// Sets the margin from deployment coverage (builder-style).
    pub fn with_coverage(mut self, coverage: f64, field_sd: f64) -> Self {
        self.margin = BaselineConfig::margin_for(coverage, field_sd);
        self
    }
}

/// Per-observation verdict returned by [`BehaviorBank::ingest`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaselineVerdict {
    /// Bank disabled, or the observation was out of order/duplicate
    /// and was not scored.
    Skipped,
    /// Training phase: the transition updated the model.
    Learning,
    /// Calibration phase: the transition updated the threshold.
    Calibrating,
    /// Detection phase, score at or above the device's threshold.
    Normal,
    /// Detection phase, rolling score below the device's threshold.
    Anomalous,
    /// The device has no trained model (first seen after training).
    Untrained,
}

/// Why a device was flagged.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FlagKind {
    /// Rolling transition score stayed below the calibrated threshold
    /// for three consecutive windows.
    Anomalous,
    /// Device appeared after the training horizon and kept emitting.
    Untrained,
}

impl FlagKind {
    /// Stable short name (fingerprints, fixtures).
    pub fn as_str(&self) -> &'static str {
        match self {
            FlagKind::Anomalous => "anomalous",
            FlagKind::Untrained => "untrained",
        }
    }
}

/// A raised per-device flag (at most one per device).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BaselineFlag {
    pub at: SimTime,
    pub kind: FlagKind,
}

/// A device's place in a [`BehaviorBank`]'s state table, valid for the
/// bank that handed it out (devices are never removed).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BaselineHandle(u32);

/// Per-device streaming state: transition counts (frozen when the
/// training phase ends), the rolling window of transition
/// log-probabilities, and the calibrated threshold.
#[derive(Clone, Debug)]
struct DeviceState {
    /// The device id, shared with the name index's key.
    id: Arc<str>,
    /// Whether the device's one flag is raised.
    flagged: bool,
    first_at: SimTime,
    last_at: SimTime,
    last_value: f64,
    last_sym: Option<u8>,
    observed: u32,
    trained: u32,
    counts: [u16; ALPHABET * ALPHABET],
    row_totals: [u32; ALPHABET],
    ring: [f64; WINDOW],
    ring_len: usize,
    ring_pos: usize,
    ring_sum: f64,
    calib_min: f64,
    threshold: f64,
    strikes: u32,
}

impl DeviceState {
    fn new(id: Arc<str>, at: SimTime) -> Self {
        DeviceState {
            id,
            flagged: false,
            first_at: at,
            last_at: at,
            last_value: 0.0,
            last_sym: None,
            observed: 0,
            trained: 0,
            counts: [0; ALPHABET * ALPHABET],
            row_totals: [0; ALPHABET],
            ring: [0.0; WINDOW],
            ring_len: 0,
            ring_pos: 0,
            ring_sum: 0.0,
            calib_min: f64::INFINITY,
            threshold: f64::NAN,
            strikes: 0,
        }
    }

    /// Transition log-probability with unigram backoff (counts are
    /// frozen after training, so this is a pure read). The smoothing
    /// mass is spread according to how often the destination symbol
    /// occurs at all, not uniformly: uniform smoothing caps the
    /// penalty of any transition out of a rarely-seen symbol at
    /// `ln(1/ALPHABET)`, which lets a sustained anomaly (a chain of
    /// transitions between symbols the cycle never visits) hide right
    /// at that cap. Backing off to the unigram keeps honest one-off
    /// surprises cheap while a chain through never-trained symbols
    /// scores deeply negative at every step.
    fn log_prob(&self, prev: u8, next: u8) -> f64 {
        let c = self.counts[prev as usize * ALPHABET + next as usize] as f64;
        let row = self.row_totals[prev as usize] as f64;
        let total = self.trained as f64;
        let unigram = (self.row_totals[next as usize] as f64 + 1.0) / (total + ALPHABET as f64);
        ((c + ALPHA * unigram) / (row + ALPHA)).ln()
    }

    /// Pushes one transition log-probability into the rolling window;
    /// returns the rolling mean once the window is full.
    fn push_score(&mut self, lp: f64) -> Option<f64> {
        if self.ring_len == WINDOW {
            self.ring_sum -= self.ring[self.ring_pos];
        } else {
            self.ring_len += 1;
        }
        self.ring[self.ring_pos] = lp;
        self.ring_sum += lp;
        self.ring_pos = (self.ring_pos + 1) % WINDOW;
        (self.ring_len == WINDOW).then(|| self.ring_sum / WINDOW as f64)
    }
}

/// Typed handles for the bank's `security.baseline.*` instruments.
#[derive(Clone, Debug)]
struct BaselineInstruments {
    observed: Counter,
    trained: Counter,
    scored: Counter,
    out_of_order: Counter,
    anomalous: Counter,
    flagged: Counter,
    untrained_flagged: Counter,
}

impl BaselineInstruments {
    fn register(obs: &mut Obs) -> BaselineInstruments {
        BaselineInstruments {
            observed: obs.counter("security.baseline.observed"),
            trained: obs.counter("security.baseline.trained"),
            scored: obs.counter("security.baseline.scored"),
            out_of_order: obs.counter("security.baseline.out_of_order"),
            anomalous: obs.counter("security.baseline.anomalous"),
            flagged: obs.counter("security.baseline.flagged"),
            untrained_flagged: obs.counter("security.baseline.untrained_flagged"),
        }
    }
}

/// The streaming behavioral-baselining detector.
///
/// # Example
/// ```
/// use swamp_security::baseline::{BaselineConfig, BaselineVerdict, BehaviorBank};
/// use swamp_sim::{SimDuration, SimTime};
///
/// let cfg = BaselineConfig::phased(SimTime::from_days(2), SimTime::from_days(3));
/// let mut bank = BehaviorBank::new(cfg);
/// let v = bank.ingest(SimTime::from_secs(60), "probe-1", 0.25);
/// assert_eq!(v, BaselineVerdict::Learning);
/// ```
#[derive(Clone, Debug)]
pub struct BehaviorBank {
    config: BaselineConfig,
    /// Device id → handle: the one name index.
    index: BTreeMap<Arc<str>, BaselineHandle>,
    /// States by handle.
    devices: Vec<DeviceState>,
    flags: BTreeMap<String, BaselineFlag>,
    obs: Obs,
    ins: BaselineInstruments,
}

impl Default for BehaviorBank {
    fn default() -> Self {
        BehaviorBank::new(BaselineConfig::default())
    }
}

impl BehaviorBank {
    /// Creates a bank with the given phase/margin configuration.
    pub fn new(config: BaselineConfig) -> Self {
        let mut obs = Obs::new();
        let ins = BaselineInstruments::register(&mut obs);
        BehaviorBank {
            config,
            index: BTreeMap::new(),
            devices: Vec::new(),
            flags: BTreeMap::new(),
            obs,
            ins,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &BaselineConfig {
        &self.config
    }

    /// Attribute name the platform should feed (`moisture_vwc`).
    pub fn signal_attr(&self) -> &str {
        SIGNAL_ATTR
    }

    /// Snapshot of the `security.baseline.*` instruments.
    pub fn observe(&self) -> ObsSnapshot {
        self.obs.snapshot()
    }

    /// Enables or disables instrumentation only (the detector keeps
    /// running; for uninstrumented baselines).
    pub fn set_obs_enabled(&mut self, enabled: bool) {
        self.obs.set_enabled(enabled);
    }

    /// All raised flags, keyed by device id (at most one per device).
    pub fn flags(&self) -> &BTreeMap<String, BaselineFlag> {
        &self.flags
    }

    /// The handle of a device, admitting it on first sight (the only
    /// allocation on the ingest path): `at`, its first observation's
    /// time, places it before or after the training horizon.
    ///
    /// # Panics
    /// Panics past 2^32 devices.
    #[expect(clippy::expect_used, reason = "documented under # Panics")]
    pub fn admit(&mut self, at: SimTime, device: &str) -> BaselineHandle {
        if let Some(&handle) = self.index.get(device) {
            return handle;
        }
        let handle =
            BaselineHandle(u32::try_from(self.devices.len()).expect("fewer than 2^32 devices"));
        let id: Arc<str> = Arc::from(device);
        self.devices.push(DeviceState::new(Arc::clone(&id), at));
        self.index.insert(id, handle);
        handle
    }

    /// Feeds one observation of the behavioral signal. O(1), no
    /// allocation after device admission; out-of-order or duplicate
    /// timestamps (per device) are counted and skipped, so a deduped
    /// or replayed record can never double-alert.
    pub fn ingest(&mut self, at: SimTime, device: &str, value: f64) -> BaselineVerdict {
        let handle = self.admit(at, device);
        self.ingest_by_handle(handle, at, value)
    }

    /// [`BehaviorBank::ingest`] for the device behind `handle` (see
    /// [`BehaviorBank::admit`]). A handle this bank never handed out is
    /// counted as observed and [`BaselineVerdict::Skipped`].
    pub fn ingest_by_handle(
        &mut self,
        handle: BaselineHandle,
        at: SimTime,
        value: f64,
    ) -> BaselineVerdict {
        self.obs.inc(self.ins.observed);
        let Some(state) = self.devices.get_mut(handle.0 as usize) else {
            return BaselineVerdict::Skipped;
        };
        if state.observed > 0 && at <= state.last_at {
            self.obs.inc(self.ins.out_of_order);
            return BaselineVerdict::Skipped;
        }

        let training = at < self.config.train_until;
        let calibrating = !training && at < self.config.calibrate_until;

        if state.observed == 0 {
            state.observed = 1;
            state.last_at = at;
            state.last_value = value;
            return if training {
                BaselineVerdict::Learning
            } else if calibrating {
                BaselineVerdict::Calibrating
            } else {
                BaselineVerdict::Normal
            };
        }

        let delta = value - state.last_value;
        // The observation's clock, not its delivery time, decides day.
        let sym = symbol(delta, at.is_day());
        let prev = state.last_sym;
        state.last_sym = Some(sym);
        state.last_at = at;
        state.last_value = value;
        state.observed = state.observed.saturating_add(1);

        if training {
            if let Some(p) = prev {
                state.counts[p as usize * ALPHABET + sym as usize] =
                    state.counts[p as usize * ALPHABET + sym as usize].saturating_add(1);
                state.row_totals[p as usize] += 1;
                state.trained = state.trained.saturating_add(1);
                self.obs.inc(self.ins.trained);
            }
            return BaselineVerdict::Learning;
        }

        // Post-training. Devices with no trained model are
        // Sybil-suspect after `GRACE` observations.
        if state.trained == 0 {
            if state.first_at >= self.config.train_until
                && state.observed >= GRACE
                && !state.flagged
            {
                self.raise_flag(handle, at, FlagKind::Untrained);
            }
            return BaselineVerdict::Untrained;
        }

        let Some(p) = prev else {
            return if calibrating {
                BaselineVerdict::Calibrating
            } else {
                BaselineVerdict::Normal
            };
        };
        let lp = state.log_prob(p, sym);
        self.obs.inc(self.ins.scored);
        let rolling = state.push_score(lp);

        if calibrating {
            if let Some(score) = rolling {
                if score < state.calib_min {
                    state.calib_min = score;
                }
            }
            return BaselineVerdict::Calibrating;
        }

        // Detection phase: freeze the threshold on first entry.
        if state.threshold.is_nan() {
            state.threshold = if state.calib_min.is_finite() {
                state.calib_min - self.config.margin
            } else {
                // Too few calibration observations to hold this
                // device to a threshold — stay conservative.
                f64::NEG_INFINITY
            };
        }
        let Some(score) = rolling else {
            return BaselineVerdict::Normal;
        };
        if score < state.threshold {
            self.obs.inc(self.ins.anomalous);
            state.strikes = state.strikes.saturating_add(1);
            if state.strikes >= STRIKES && !state.flagged {
                self.raise_flag(handle, at, FlagKind::Anomalous);
            }
            BaselineVerdict::Anomalous
        } else {
            state.strikes = 0;
            BaselineVerdict::Normal
        }
    }

    /// Raises a device's one flag and its instruments/event.
    fn raise_flag(&mut self, handle: BaselineHandle, at: SimTime, kind: FlagKind) {
        let state = &mut self.devices[handle.0 as usize];
        state.flagged = true;
        let device = &*state.id;
        self.obs.inc(self.ins.flagged);
        if kind == FlagKind::Untrained {
            self.obs.inc(self.ins.untrained_flagged);
        }
        self.obs.event(
            Level::Warn,
            "security.baseline.flag",
            &format!("{device} {}", kind.as_str()),
        );
        self.flags
            .insert(device.to_owned(), BaselineFlag { at, kind });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swamp_sim::{SimDuration, SimRng};

    const STEP: SimDuration = SimDuration::from_mins(30);

    fn phased() -> BaselineConfig {
        BaselineConfig::phased(SimTime::from_days(4), SimTime::from_days(6))
    }

    /// Drives a synthetic irrigation cycle (day falls, refill jump,
    /// night steady) for `rounds` rounds starting at round `from`.
    fn drive_cycle(
        bank: &mut BehaviorBank,
        device: &str,
        from: usize,
        rounds: usize,
        rng: &mut SimRng,
    ) -> Vec<BaselineVerdict> {
        let mut v = 0.26;
        let mut out = Vec::new();
        for r in from..from + rounds {
            let at = SimTime::from_secs(60) + STEP * r as u64;
            if at.is_day() {
                v -= 0.007;
                if v < 0.17 {
                    v += 0.09;
                }
            } else {
                v -= 0.001;
            }
            let sensed = v + rng.normal_with(0.0, 0.0012);
            out.push(bank.ingest(at, device, sensed));
        }
        out
    }

    #[test]
    fn symbols_cover_the_alphabet() {
        assert_eq!(symbol(0.0, false), 2);
        assert_eq!(symbol(0.0, true), 7);
        assert_eq!(symbol(0.01, true), 8);
        assert_eq!(symbol(-0.01, true), 6);
        assert_eq!(symbol(0.05, false), 4);
        assert_eq!(symbol(-0.05, true), 5);
    }

    #[test]
    fn normal_cycle_never_flags() {
        let mut bank = BehaviorBank::new(phased());
        let mut rng = SimRng::seed_from(1);
        let verdicts = drive_cycle(&mut bank, "p", 0, 48 * 8, &mut rng);
        assert!(bank.flags().is_empty(), "honest device flagged");
        assert!(verdicts.contains(&BaselineVerdict::Learning));
        assert!(verdicts.contains(&BaselineVerdict::Calibrating));
        assert!(verdicts.contains(&BaselineVerdict::Normal));
    }

    #[test]
    fn takeover_jumps_are_flagged() {
        let mut bank = BehaviorBank::new(phased());
        let mut rng = SimRng::seed_from(2);
        drive_cycle(&mut bank, "p", 0, 48 * 6 + 12, &mut rng);
        // Attacker forces irrigation on: repeated upward jumps.
        let mut v: f64 = 0.30;
        let mut flagged = false;
        for r in 0..12 {
            let at = SimTime::from_secs(60) + STEP * (48 * 6 + 12 + r) as u64;
            v = (v + 0.045).min(0.55);
            let verdict = bank.ingest(at, "p", v + rng.normal_with(0.0, 0.0012));
            flagged |= verdict == BaselineVerdict::Anomalous;
        }
        assert!(flagged, "takeover windows must score anomalous");
        assert_eq!(
            bank.flags().get("p").map(|f| f.kind),
            Some(FlagKind::Anomalous)
        );
    }

    #[test]
    fn untrained_device_is_sybil_suspect() {
        let mut bank = BehaviorBank::new(phased());
        let mut rng = SimRng::seed_from(3);
        drive_cycle(&mut bank, "honest", 0, 48 * 6 + 4, &mut rng);
        // A new identity appears after training and keeps emitting.
        let mut last = BaselineVerdict::Skipped;
        for r in 0..8 {
            let at = SimTime::from_days(6) + STEP * r as u64;
            last = bank.ingest(at, "sybil-1", 0.2 + 0.01 * r as f64);
        }
        assert_eq!(last, BaselineVerdict::Untrained);
        assert_eq!(
            bank.flags().get("sybil-1").map(|f| f.kind),
            Some(FlagKind::Untrained)
        );
        assert!(!bank.flags().contains_key("honest"));
    }

    #[test]
    fn out_of_order_and_duplicates_are_skipped_once_flag_is_sticky() {
        let mut bank = BehaviorBank::new(phased());
        let at = SimTime::from_days(1);
        assert_eq!(bank.ingest(at, "p", 0.25), BaselineVerdict::Learning);
        assert_eq!(bank.ingest(at, "p", 0.25), BaselineVerdict::Skipped);
        assert_eq!(
            bank.ingest(at - SimDuration::from_secs(1), "p", 0.25),
            BaselineVerdict::Skipped
        );
        let snap = bank.observe();
        assert_eq!(snap.counter("security.baseline.out_of_order").unwrap(), 2);
        assert_eq!(snap.counter("security.baseline.observed").unwrap(), 3);
    }

    #[test]
    fn default_bank_is_passive() {
        let mut bank = BehaviorBank::default();
        // Default config trains forever: never flags.
        let mut rng = SimRng::seed_from(4);
        drive_cycle(&mut bank, "p", 0, 200, &mut rng);
        assert!(bank.flags().is_empty());
    }

    #[test]
    fn a_handle_feeds_the_device_its_name_does() {
        let mut by_name = BehaviorBank::new(phased());
        let mut by_handle = BehaviorBank::new(phased());
        let mut rng = SimRng::seed_from(8);
        let mut sybil = None;
        for r in 0..48 * 8 {
            let at = SimTime::from_secs(60) + STEP * r as u64;
            let v = 0.25 + 0.02 * (r % 7) as f64 + rng.normal_with(0.0, 0.0012);
            for d in ["p", "q"] {
                let h = by_handle.admit(at, d);
                assert_eq!(
                    by_name.ingest(at, d, v),
                    by_handle.ingest_by_handle(h, at, v)
                );
            }
            if at >= SimTime::from_days(6) {
                let h = *sybil.get_or_insert_with(|| by_handle.admit(at, "sybil"));
                assert_eq!(
                    by_name.ingest(at, "sybil", v),
                    by_handle.ingest_by_handle(h, at, v)
                );
            }
        }
        assert!(by_handle.flags().contains_key("sybil"));
        assert_eq!(by_name.flags(), by_handle.flags());
        assert_eq!(by_name.observe(), by_handle.observe());
    }

    #[test]
    fn margin_widens_with_sparser_coverage() {
        let full = BaselineConfig::margin_for(1.0, 0.04);
        let half = BaselineConfig::margin_for(0.5, 0.04);
        let sparse = BaselineConfig::margin_for(0.1, 0.04);
        assert!(full < half && half < sparse);
        assert!((full - 0.5).abs() < 1e-9, "full coverage → floor margin");
    }

    #[test]
    fn flag_is_raised_once_per_device() {
        let mut bank = BehaviorBank::new(phased());
        let mut rng = SimRng::seed_from(5);
        drive_cycle(&mut bank, "p", 0, 48 * 6, &mut rng);
        let mut v: f64 = 0.30;
        for r in 0..40 {
            let at = SimTime::from_days(6) + SimDuration::from_secs(1) + STEP * r as u64;
            v = (v + 0.045).min(0.55);
            if v >= 0.55 {
                v = 0.30; // keep jumping
            }
            bank.ingest(at, "p", v);
        }
        let snap = bank.observe();
        assert_eq!(snap.counter("security.baseline.flagged").unwrap(), 1);
        assert!(snap.counter("security.baseline.anomalous").unwrap() > 1);
    }
}
