//! Always-on property suite for the workload compiler: determinism,
//! declared arrival-rate bounds, drone-window geometry and partition
//! conservation, at fixed seeds.

use std::collections::BTreeMap;

use swamp_sim::SimTime;
use swamp_workload::{AttackOverlay, CompiledWorkload, Pilot, WorkloadSpec};

/// Rounds covered by a MATOPIBA partition or its heal (the heal round
/// carries the reconnection storm, so rate bounds do not apply there).
fn stormy_rounds(spec: &WorkloadSpec, w: &CompiledWorkload) -> Vec<bool> {
    (0..spec.rounds)
        .map(|r| {
            let at = spec.round_time(r);
            // Inside the partition, or the first round at/after the
            // heal (the storm flush).
            w.partitions
                .iter()
                .any(|&(s, e)| (at >= s && at < e) || (at >= e && at < e + spec.step))
        })
        .collect()
}

#[test]
fn same_seed_compiles_to_byte_identical_streams() {
    for pilot in Pilot::all() {
        let spec = WorkloadSpec::new(pilot, 1234, 24, 96).with_attacks(vec![
            AttackOverlay::SybilBurst {
                start_round: 60,
                rounds: 30,
                count: 3,
            },
            AttackOverlay::TamperDrift {
                start_round: 60,
                devices: 2,
                drift_per_round: 0.01,
            },
        ]);
        let a = spec.compile();
        let b = spec.compile();
        assert_eq!(
            a.stream_digest(),
            b.stream_digest(),
            "{pilot:?}: recompilation changed the stream"
        );
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.label_counts, b.label_counts);
    }
}

#[test]
fn arrival_counts_stay_within_declared_rate_bounds() {
    // Bounds are declared for honest traffic on fleets of >= 64
    // devices, on every round outside partitions/storms.
    for pilot in [Pilot::Cbec, Pilot::Intercrop, Pilot::Matopiba] {
        let spec = WorkloadSpec::new(pilot, 42, 96, 192);
        let (lo, hi) = spec
            .declared_rate_bounds()
            .expect("these pilots declare bounds");
        let w = spec.compile();
        let stormy = stormy_rounds(&spec, &w);
        for (r, batch) in w.batches.iter().enumerate() {
            if stormy[r] {
                continue;
            }
            let frac = batch.records.len() as f64 / spec.devices as f64;
            assert!(
                frac >= lo && frac <= hi,
                "{pilot:?} round {r}: arrival fraction {frac:.3} outside [{lo}, {hi}]"
            );
        }
    }
    assert!(
        WorkloadSpec::new(Pilot::Guaspari, 42, 96, 192)
            .declared_rate_bounds()
            .is_none(),
        "Guaspari is bursty by design: conservation, not rate"
    );
}

#[test]
fn drone_contact_windows_never_overlap_per_node() {
    let spec = WorkloadSpec::new(Pilot::Guaspari, 7, 64, 336);
    let w = spec.compile();
    assert!(!w.contact_windows.is_empty());
    let mut per_node: BTreeMap<usize, Vec<(SimTime, SimTime)>> = BTreeMap::new();
    for cw in &w.contact_windows {
        assert!(cw.start < cw.end, "empty window");
        per_node
            .entry(cw.node)
            .or_default()
            .push((cw.start, cw.end));
    }
    assert_eq!(per_node.len(), 64 / 8, "one drone route per 8 probes");
    for (node, mut windows) in per_node {
        windows.sort_unstable();
        for pair in windows.windows(2) {
            assert!(
                pair[0].1 <= pair[1].0,
                "node {node}: windows {pair:?} overlap"
            );
        }
    }
    // Deliveries only happen inside this node schedule (or the
    // end-of-horizon flush).
    let last_at = spec.round_time(spec.rounds - 1);
    for batch in &w.batches {
        if batch.records.is_empty() || batch.at == last_at {
            continue;
        }
        assert!(
            w.contact_windows
                .iter()
                .any(|cw| batch.at >= cw.start && batch.at < cw.end),
            "delivery at {:?} outside every contact window",
            batch.at
        );
    }
}

#[test]
fn reconnection_storm_conserves_queued_records() {
    let spec = WorkloadSpec::new(Pilot::Matopiba, 9, 64, 200);
    let w = spec.compile();
    assert_eq!(w.partitions.len(), 2);
    assert_eq!(
        w.generated, w.offered,
        "heal must release every queued record"
    );
    // Samples taken during a partition are delivered, in order, at or
    // after the heal.
    let mut queued_seen = 0u64;
    for batch in &w.batches {
        for rec in &batch.records {
            let inside = w
                .partitions
                .iter()
                .any(|&(s, e)| rec.sampled_at >= s && rec.sampled_at < e);
            if inside {
                queued_seen += 1;
                let (_, e) = w
                    .partitions
                    .iter()
                    .find(|&&(s, e)| rec.sampled_at >= s && rec.sampled_at < e)
                    .unwrap();
                assert!(
                    batch.at >= *e,
                    "{}: queued sample delivered before the heal",
                    rec.device
                );
            }
        }
    }
    assert!(queued_seen > 0, "partitions queued nothing");
    // Per-device delivery order is preserved through the storm.
    let mut last: BTreeMap<&str, SimTime> = BTreeMap::new();
    for batch in &w.batches {
        for rec in &batch.records {
            if let Some(prev) = last.get(rec.device.as_str()) {
                assert!(rec.sampled_at > *prev, "{} reordered", rec.device);
            }
            last.insert(rec.device.as_str(), rec.sampled_at);
        }
    }
}

#[test]
fn sybil_identities_ride_on_top_of_the_honest_fleet() {
    let spec =
        WorkloadSpec::new(Pilot::Cbec, 5, 32, 96).with_attacks(vec![AttackOverlay::SybilBurst {
            start_round: 48,
            rounds: 24,
            count: 5,
        }]);
    let w = spec.compile();
    assert_eq!(w.devices.len(), 32, "legitimate fleet size unchanged");
    assert_eq!(w.attack_devices.len(), 5);
    for d in &w.attack_devices {
        assert!(d.contains("-sybil-"), "{d} is not a sybil id");
    }
    let honest = WorkloadSpec::new(Pilot::Cbec, 5, 32, 96).compile();
    let honest_records: u64 = honest.generated;
    assert_eq!(
        w.generated - w.label_count(swamp_workload::Label::Sybil),
        honest_records,
        "the overlay must not disturb honest traffic"
    );
}
