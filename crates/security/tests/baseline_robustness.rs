//! Fuzz-style robustness suite for the behavioral baseline (ISSUE 10
//! satellite): the `BehaviorBank` is fed reordered, duplicated and
//! gap-ridden delivery schedules — both hand-rolled and produced by
//! the PR-2 `FaultPlan` fault injector — and must
//!
//! 1. never panic,
//! 2. never double-alert on a replayed/deduped record (the
//!    `security.baseline.flagged` counter always equals the flag-map
//!    size, and replaying a stream verbatim changes nothing),
//! 3. degrade gracefully: honest false-flag fractions stay inside
//!    asserted bounds as loss rises, and a planted post-calibration
//!    tamper ramp is still caught through a moderately lossy path.
//!
//! The honest signal mimics the workload generator's diurnal soil
//! trace (sinusoid + bounded noise at a 30-minute cadence) without
//! depending on `swamp-workload` — the security crate sits below it in
//! the layering DAG.

use swamp_net::fault::FaultOutcome;
use swamp_net::{FaultPlan, FaultSpec, NodeId};
use swamp_obs::ObsSnapshot;
use swamp_security::baseline::{BaselineConfig, BehaviorBank};
use swamp_sim::{SimDuration, SimRng, SimTime};

const DEVICES: usize = 48;
const ROUNDS: usize = 240; // 5 simulated days at 30-minute cadence
const STEP: SimDuration = SimDuration::from_mins(30);

/// E16-shaped phase split: train the first half, calibrate the next
/// quarter, detect the rest.
fn phased_config() -> BaselineConfig {
    let start = SimTime::from_secs(60);
    BaselineConfig::phased(
        start + STEP * (ROUNDS as u64 / 2),
        start + STEP * (ROUNDS as u64 * 3 / 4),
    )
    .with_coverage(0.6, 0.004)
}

/// One honest observation stream per device: diurnal sinusoid plus
/// sub-quantum noise, deterministic per (seed, device).
fn honest_streams(seed: u64) -> Vec<(String, Vec<(SimTime, f64)>)> {
    let start = SimTime::from_secs(60);
    (0..DEVICES)
        .map(|d| {
            let device = format!("urn:swamp:device:fuzz-{d:04}");
            let mut rng = SimRng::seed_from(seed).split(&device);
            let base = 0.22 + 0.06 * rng.uniform_f64();
            let amp = 0.04 + 0.02 * rng.uniform_f64();
            let stream = (0..ROUNDS)
                .map(|r| {
                    let at = start + STEP * r as u64;
                    let phase = at.day_fraction() * std::f64::consts::TAU;
                    let noise = (rng.uniform_f64() - 0.5) * 0.004;
                    (at, base + amp * phase.sin() + noise)
                })
                .collect();
            (device, stream)
        })
        .collect()
}

/// Routes every stream through a `FaultPlan` link and returns the
/// delivery schedule sorted by arrival time: gaps (drops), duplicates
/// and reordering all come from the plan, exactly as the fog uplink
/// would inflict them. Each delivered copy keeps its *sampled*
/// timestamp — arrival order is what the faults scramble.
fn faulted_schedule(
    streams: &[(String, Vec<(SimTime, f64)>)],
    plan: &mut FaultPlan,
) -> Vec<(SimTime, String, SimTime, f64)> {
    let fog = NodeId::from("fog-0");
    let mut deliveries: Vec<(SimTime, String, SimTime, f64)> = Vec::new();
    for (device, stream) in streams {
        let src = NodeId::from(device.as_str());
        for &(at, value) in stream {
            match plan.sample(at, &src, &fog) {
                FaultOutcome::Deliver(delays) => {
                    for delay in delays {
                        deliveries.push((at + delay, device.clone(), at, value));
                    }
                }
                FaultOutcome::Dropped | FaultOutcome::Partitioned => {}
            }
        }
    }
    deliveries.sort_by(|a, b| (a.0, &a.1, a.2).cmp(&(b.0, &b.1, b.2)));
    deliveries
}

/// Flag-map size must always equal the `flagged` counter: one alert
/// per device, ever.
fn assert_no_double_alert(bank: &BehaviorBank, snap: &ObsSnapshot) {
    assert_eq!(
        snap.counter("security.baseline.flagged").unwrap_or(0),
        bank.flags().len() as u64,
        "flagged counter diverged from the flag map — a device alerted twice"
    );
}

#[test]
fn clean_streams_raise_at_most_a_stray_flag() {
    // Control arm: the false-flag bounds below are meaningful only if
    // the clean run is quiet.
    let mut bank = BehaviorBank::new(phased_config());
    for (device, stream) in &honest_streams(11) {
        for &(at, value) in stream {
            bank.ingest(at, device, value);
        }
    }
    assert!(
        bank.flags().len() <= 1,
        "clean honest run flagged {} of {DEVICES} devices",
        bank.flags().len()
    );
    let snap = bank.observe();
    assert_no_double_alert(&bank, &snap);
}

#[test]
fn faultplan_scrambled_streams_degrade_gracefully() {
    // Degraded-WAN sweeps at rising severity: loss + duplication +
    // reordering straight from the PR-2 fault injector. The detector
    // must stay calm — bounded honest false flags — and must never
    // double-alert no matter how mangled the arrival order is.
    for (severity, max_false_frac) in [(0.05, 0.10), (0.15, 0.15), (0.30, 0.25)] {
        let streams = honest_streams(23);
        let mut plan = FaultPlan::new(77);
        plan.set_default_faults(FaultSpec::degraded(severity))
            .expect("valid spec");
        let schedule = faulted_schedule(&streams, &mut plan);
        let offered = DEVICES * ROUNDS;
        assert!(
            schedule.len() != offered,
            "severity {severity}: the plan injected nothing"
        );

        let mut bank = BehaviorBank::new(phased_config());
        for (_arrival, device, sampled_at, value) in &schedule {
            bank.ingest(*sampled_at, device, *value);
        }
        let snap = bank.observe();
        assert_no_double_alert(&bank, &snap);
        // Duplicates and overtaken copies are skipped, not scored.
        let out_of_order = snap.counter("security.baseline.out_of_order").unwrap_or(0);
        assert!(
            out_of_order > 0,
            "severity {severity}: faults never produced a skipped arrival"
        );
        let false_frac = bank.flags().len() as f64 / DEVICES as f64;
        assert!(
            false_frac <= max_false_frac,
            "severity {severity}: honest false-flag fraction {false_frac:.2} \
             above the {max_false_frac} bound"
        );
    }
}

#[test]
fn verbatim_replay_changes_nothing() {
    // A deduped record that slips through twice must be absorbed: same
    // timestamp ⇒ out-of-order skip ⇒ no new training, scoring or
    // flags.
    let streams = honest_streams(31);
    let mut bank = BehaviorBank::new(phased_config());
    for (device, stream) in &streams {
        for &(at, value) in stream {
            bank.ingest(at, device, value);
        }
    }
    let flags_before = bank.flags().clone();
    let scored_before = bank.observe().counter("security.baseline.scored").unwrap();

    for (device, stream) in &streams {
        for &(at, value) in stream {
            bank.ingest(at, device, value);
        }
    }
    let snap = bank.observe();
    assert_eq!(bank.flags(), &flags_before, "replay altered the flag set");
    assert_eq!(
        snap.counter("security.baseline.scored").unwrap(),
        scored_before,
        "replayed records were scored"
    );
    assert_eq!(
        snap.counter("security.baseline.out_of_order").unwrap(),
        (DEVICES * ROUNDS) as u64,
        "every replayed record must be skipped"
    );
    assert_no_double_alert(&bank, &snap);
}

#[test]
fn tamper_ramp_is_still_caught_through_a_lossy_path() {
    // Graceful degradation, recall side: a post-calibration tamper
    // drift on 4 victims must survive a 10%-loss uplink. The ramp
    // mirrors the E16 overlay (0.012 VWC per round, capped).
    let mut streams = honest_streams(47);
    let detect_from = SimTime::from_secs(60) + STEP * (ROUNDS as u64 * 3 / 4);
    let victims: Vec<String> = streams.iter().take(4).map(|(d, _)| d.clone()).collect();
    for (_, stream) in streams.iter_mut().take(4) {
        let mut drift = 0.0;
        for (at, value) in stream.iter_mut() {
            if *at >= detect_from + STEP * 2 {
                drift = f64::min(drift + 0.012, 0.35);
                *value += drift;
            }
        }
    }

    let mut plan = FaultPlan::new(99);
    plan.set_default_faults(FaultSpec::lossy(0.10))
        .expect("valid spec");
    let schedule = faulted_schedule(&streams, &mut plan);

    let mut bank = BehaviorBank::new(phased_config());
    for (_arrival, device, sampled_at, value) in &schedule {
        bank.ingest(*sampled_at, device, *value);
    }
    let snap = bank.observe();
    assert_no_double_alert(&bank, &snap);
    let caught = victims
        .iter()
        .filter(|v| bank.flags().contains_key(v.as_str()))
        .count();
    assert!(
        caught >= 3,
        "only {caught}/4 tampered devices flagged through the lossy path"
    );
    let honest_false = bank.flags().keys().filter(|d| !victims.contains(d)).count();
    assert!(
        honest_false as f64 / DEVICES as f64 <= 0.10,
        "{honest_false} honest devices flagged alongside the tamper victims"
    );
}
