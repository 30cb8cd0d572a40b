//! E16 — pilot-diverse workloads vs the streaming behavioral baseline.
//!
//! The paper names behavioral baselining — "correlating the expected
//! sequence of events of an agricultural application" — the most
//! relevant security challenge, and describes four pilots whose traffic
//! could not look less alike. E16 closes the loop between the two: the
//! [`swamp_workload`] compiler turns each pilot into a seeded, labeled
//! delivery stream (diurnal CBEC, night-shifted seasonal Intercrop,
//! drone-collected Guaspari, open-loop partition-prone MATOPIBA), an
//! attack overlay plants ground truth (Sybil burst, sensor-tamper
//! drift, actuator takeover) in the detection phase, and the stream is
//! driven through a full [`Platform`] whose [`BehaviorBank`] is the
//! only judge. The scorecard is device-level precision/recall per
//! pilot against the compiler's ground-truth labels.
//!
//! [`e16_baseline_detection`] is the per-pilot precision/recall table at
//! the canonical scale, bit-reproducible per seed and part of `run_all`.
//! What the live bank costs in wall-clock time is the reference
//! benchmark's `storm_lossy` workload (`BENCHMARK.json`:
//! `us_per_record_p50`, `security.baseline_us`).
//!
//! Shard invariance — the detector's verdict must not depend on how
//! the fleet is partitioned or how many workers drive it — is proven
//! by `crates/pilots/tests/detector_differential.rs` over
//! [`e16_shard_run`].
//!
//! [`BehaviorBank`]: swamp_security::baseline::BehaviorBank

use std::collections::{BTreeMap, BTreeSet};

use swamp_codec::ngsi::Entity;
use swamp_core::platform::{DeploymentConfig, Platform, PlatformBuilder};
use swamp_core::Drive;
use swamp_net::link::LinkSpec;
use swamp_security::baseline::BaselineConfig;
use swamp_shard::ShardedPlatform;
use swamp_sim::SimDuration;
use swamp_workload::{AttackOverlay, CompiledWorkload, Label, Pilot, WorkloadSpec};

use crate::report::{fmt_pct, Report};

/// Canonical E16 fleet size (per pilot; Sybil identities come on top).
pub const E16_DEVICES: usize = 32;

/// Canonical E16 horizon: 240 rounds at the default 30-minute cadence
/// — five simulated days (2.5 train, 1.25 calibrate, 1.25 detect).
pub const E16_ROUNDS: usize = 240;

/// Deployment coverage assumed for the profile-error margin (fraction
/// of irrigation zones actually carrying a probe).
pub const E16_COVERAGE: f64 = 0.6;

/// Field-scale moisture standard deviation feeding the margin (VWC).
pub const E16_FIELD_SD: f64 = 0.004;

/// The labeled E16 workload for one pilot: the base pilot profile plus
/// all three attack overlays, planted in the detection phase. Victims
/// per overlay scale with the fleet (one in eight, at least one); the
/// actuator takeover is placed at the first daybreak of the detection
/// phase so every pilot cadence (including CBEC's sparse nights)
/// observes the forced-refill jumps.
pub fn e16_spec(pilot: Pilot, seed: u64, devices: usize, rounds: usize) -> WorkloadSpec {
    let victims = (devices / 8).max(1);
    let detect_from = rounds * 3 / 4;
    let attack_start = detect_from + 2;
    // First round at or after `attack_start` that falls at noon of the
    // simulated day (48 rounds/day at the 30-min cadence): a 24-round
    // takeover from there spans 12:00–24:00, so both day-reporting and
    // night-reporting cadences observe the forced-refill jumps.
    let mut noon_start = attack_start;
    while noon_start % 48 != 24 {
        noon_start += 1;
    }
    let takeover_start = if noon_start + 8 <= rounds {
        noon_start
    } else {
        attack_start
    };
    WorkloadSpec::new(pilot, seed, devices, rounds).with_attacks(vec![
        AttackOverlay::SybilBurst {
            start_round: attack_start,
            rounds: rounds.saturating_sub(attack_start),
            count: victims,
        },
        AttackOverlay::TamperDrift {
            start_round: attack_start,
            devices: victims,
            drift_per_round: 0.012,
        },
        AttackOverlay::ActuatorTakeover {
            start_round: takeover_start,
            rounds: 24,
            devices: victims,
        },
    ])
}

/// The detector configuration for an E16 run: train on the first half
/// of the horizon, calibrate on the next quarter, detect on the last —
/// with the partial-observability margin for [`E16_COVERAGE`] probe
/// coverage.
pub fn e16_config(spec: &WorkloadSpec) -> BaselineConfig {
    BaselineConfig::phased(
        spec.round_time(spec.rounds / 2),
        spec.round_time(spec.rounds * 3 / 4),
    )
    .with_coverage(E16_COVERAGE, E16_FIELD_SD)
}

/// The E16 platform: the E14 farm-fog deployment (lossless datacenter
/// uplink, retry timeout above the ack round trip) with the behavioral
/// baseline phased for the given workload.
pub fn e16_builder(seed: u64, config: BaselineConfig) -> PlatformBuilder {
    Platform::builder(DeploymentConfig::FarmFog)
        .seed(seed)
        .uplink_spec(LinkSpec::cloud_backbone())
        .sync_base_timeout(SimDuration::from_secs(300))
        .sync_jitter(0.0)
        .baseline(config)
}

/// Device-level detection scorecard for one pilot.
#[derive(Clone, Debug)]
pub struct E16Row {
    /// Pilot profile.
    pub pilot: Pilot,
    /// Legitimate fleet size.
    pub devices: usize,
    /// Horizon in rounds.
    pub rounds: usize,
    /// Records delivered (and ingested) across the horizon.
    pub records: u64,
    /// Ground-truth attack devices (victims + Sybil identities).
    pub truth: usize,
    /// Devices the bank flagged.
    pub flagged: usize,
    /// Flagged ∩ truth.
    pub tp: usize,
    /// Flagged honest devices.
    pub fp: usize,
    /// Missed attack devices.
    pub fn_missed: usize,
    /// `tp / (tp + fp)` (1.0 when nothing was flagged).
    pub precision: f64,
    /// `tp / truth`.
    pub recall: f64,
    /// Per-label (caught, total) device counts.
    pub caught: BTreeMap<Label, (usize, usize)>,
}

impl E16Row {
    fn caught_cell(&self, label: Label) -> String {
        let (c, t) = self.caught.get(&label).copied().unwrap_or((0, 0));
        format!("{c}/{t}")
    }
}

/// E16 detection-quality results, one row per pilot.
#[derive(Clone, Debug)]
pub struct E16Result {
    /// Rows in paper pilot order.
    pub rows: Vec<E16Row>,
}

impl E16Result {
    /// The per-pilot precision/recall table.
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "E16: behavioral baseline vs pilot workloads — device-level detection \
             (Sybil burst + tamper drift + actuator takeover in the detect phase)",
            &[
                "pilot",
                "devices",
                "records",
                "attack_devs",
                "flagged",
                "tp",
                "fp",
                "fn",
                "precision",
                "recall",
                "sybil",
                "tamper",
                "takeover",
            ],
        );
        for row in &self.rows {
            r.push_row(vec![
                row.pilot.name().to_owned(),
                row.devices.to_string(),
                row.records.to_string(),
                row.truth.to_string(),
                row.flagged.to_string(),
                row.tp.to_string(),
                row.fp.to_string(),
                row.fn_missed.to_string(),
                fmt_pct(row.precision),
                fmt_pct(row.recall),
                row.caught_cell(Label::Sybil),
                row.caught_cell(Label::Tamper),
                row.caught_cell(Label::Takeover),
            ]);
        }
        r
    }

    /// The row for a pilot, if present.
    pub fn row(&self, pilot: Pilot) -> Option<&E16Row> {
        self.rows.iter().find(|r| r.pilot == pilot)
    }
}

/// Scores a flagged-device set against a compiled workload's ground
/// truth.
fn score(w: &CompiledWorkload, predicted: &BTreeSet<String>, spec: &WorkloadSpec) -> E16Row {
    let truth = &w.attack_devices;
    let tp = predicted.intersection(truth).count();
    let fp = predicted.difference(truth).count();
    let fn_missed = truth.difference(predicted).count();
    let mut by_label: BTreeMap<Label, BTreeSet<&str>> = BTreeMap::new();
    for b in &w.batches {
        for rec in &b.records {
            if rec.label != Label::Normal {
                by_label
                    .entry(rec.label)
                    .or_default()
                    .insert(rec.device.as_str());
            }
        }
    }
    let caught = by_label
        .iter()
        .map(|(label, devs)| {
            let c = devs.iter().filter(|d| predicted.contains(**d)).count();
            (*label, (c, devs.len()))
        })
        .collect();
    E16Row {
        pilot: w.pilot,
        devices: spec.devices,
        rounds: spec.rounds,
        records: w.generated,
        truth: truth.len(),
        flagged: predicted.len(),
        tp,
        fp,
        fn_missed,
        precision: if tp + fp > 0 {
            tp as f64 / (tp + fp) as f64
        } else {
            1.0
        },
        recall: if truth.is_empty() {
            1.0
        } else {
            tp as f64 / truth.len() as f64
        },
        caught,
    }
}

/// Runs one pilot's labeled workload through a full platform and
/// scores the bank's flags against ground truth. Returns the platform
/// too, so callers can inspect `security.baseline.*` instruments.
pub fn e16_run_pilot(seed: u64, pilot: Pilot, devices: usize, rounds: usize) -> (E16Row, Platform) {
    let spec = e16_spec(pilot, seed, devices, rounds);
    let w = spec.compile();
    let mut p = e16_builder(seed, e16_config(&spec)).build();
    crate::driver::run_rounds(
        &mut p,
        spec.start,
        spec.step,
        SimDuration::ZERO,
        rounds as u64,
        |p, r, t| {
            let entities: Vec<Entity> = w.batches[r as usize]
                .records
                .iter()
                .map(|rec| rec.entity.clone())
                .collect();
            if !entities.is_empty() {
                p.ingest(t, entities);
            }
        },
        |_, _, _| {},
    );
    let predicted: BTreeSet<String> = p.behavior.flags().keys().cloned().collect();
    (score(&w, &predicted, &spec), p)
}

/// Runs E16: all four pilots at the canonical
/// scale, one precision/recall row each.
pub fn e16_baseline_detection(seed: u64) -> E16Result {
    let rows = Pilot::all()
        .into_iter()
        .map(|pilot| e16_run_pilot(seed, pilot, E16_DEVICES, E16_ROUNDS).0)
        .collect();
    E16Result { rows }
}

/// Deterministic fingerprint of one sharded detector run: the union of
/// per-shard flags (device, kind, flag time) and the summed
/// `security.baseline.*` counters. The detector differential suite
/// requires this to be invariant across shard and worker counts.
pub type DetectorFingerprint = (BTreeSet<(String, String, u64)>, BTreeMap<String, u64>);

/// Drives one pilot's labeled workload through an N-shard,
/// W-worker platform and returns the run's [`DetectorFingerprint`]
/// plus the scored row (flags unioned across shards).
pub fn e16_shard_run(
    seed: u64,
    pilot: Pilot,
    devices: usize,
    rounds: usize,
    shards: usize,
    workers: usize,
) -> (DetectorFingerprint, E16Row) {
    let spec = e16_spec(pilot, seed, devices, rounds);
    let w = spec.compile();
    let mut sp = ShardedPlatform::build(
        &e16_builder(seed, e16_config(&spec))
            .shards(shards)
            .workers(workers),
    );
    crate::driver::run_rounds(
        &mut sp,
        spec.start,
        spec.step,
        SimDuration::ZERO,
        rounds as u64,
        |sp, r, t| {
            let entities: Vec<Entity> = w.batches[r as usize]
                .records
                .iter()
                .map(|rec| rec.entity.clone())
                .collect();
            if !entities.is_empty() {
                sp.ingest_entities(t, entities);
            }
        },
        |_, _, _| {},
    );
    let flags: BTreeSet<(String, String, u64)> = sp
        .shards()
        .flat_map(|p| {
            p.behavior.flags().iter().map(|(device, flag)| {
                (
                    device.clone(),
                    flag.kind.as_str().to_owned(),
                    flag.at.as_millis(),
                )
            })
        })
        .collect();
    let counters: BTreeMap<String, u64> = sp
        .observe()
        .counters()
        .filter(|(name, _)| name.starts_with("security.baseline."))
        .map(|(name, v)| (name.to_owned(), v))
        .collect();
    let predicted: BTreeSet<String> = flags.iter().map(|(d, _, _)| d.clone()).collect();
    ((flags, counters), score(&w, &predicted, &spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e16_detects_planted_attacks_per_pilot() {
        let r = e16_baseline_detection(42);
        assert_eq!(r.rows.len(), 4);
        for row in &r.rows {
            assert!(row.records > 0);
            assert!(row.truth > 0, "{}: no planted attacks", row.pilot.name());
            assert!(
                row.recall >= 0.5,
                "{}: recall {:.2} collapsed",
                row.pilot.name(),
                row.recall
            );
            assert!(
                row.precision >= 0.5,
                "{}: precision {:.2} collapsed",
                row.pilot.name(),
                row.precision
            );
        }
        let table = r.report().to_string();
        assert!(table.contains("guaspari"));
        assert!(table.contains("recall"));
    }

    #[test]
    fn e16_is_deterministic_per_seed() {
        let (a, _) = e16_run_pilot(7, Pilot::Matopiba, 16, 120);
        let (b, _) = e16_run_pilot(7, Pilot::Matopiba, 16, 120);
        assert_eq!(a.records, b.records);
        assert_eq!(a.flagged, b.flagged);
        assert_eq!(a.tp, b.tp);
        assert_eq!(a.fp, b.fp);
    }
}
