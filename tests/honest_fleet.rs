//! The honest-fleet gate: each pilot's workload, sealed by its devices and
//! admitted through the platform, which quarantines a device on its first
//! impossible value, for ten simulated days at seeds 42 and 1337.
//!
//! Irrigated fields draw down by day and refill in one jump; a detector
//! that reads that as tampering cuts honest devices off and loses their
//! data. So the gate holds the platform to two things:
//!
//! - an honest fleet keeps every device: nothing is quarantined, no frame
//!   is refused as unregistered, no value trips the range screen, and
//!   every device stays enabled;
//! - one planted device that sends an impossible `moisture_vwc` five days
//!   in is cut off, and it is the only one.

mod common;

use swamp::core::platform::{DeploymentConfig, Platform};
use swamp::sim::SimTime;
use swamp_workload::{Pilot, WorkloadSpec};

const DEVICES: usize = 64;
/// Ten days of 30-minute rounds.
const ROUNDS: usize = 480;
const SEEDS: [u64; 2] = [42, 1337];
/// When the planted device sends its impossible value.
const PLANT_AT: SimTime = SimTime::from_hours(5 * 24);

/// What a run leaves behind.
struct Run {
    p: Platform,
    ids: Vec<String>,
    /// Records the workload generated.
    generated: u64,
    /// Frames the planted device published in and after the round of its
    /// impossible one, that one aside: the frames that may arrive after it.
    sent_after_plant: usize,
}

/// `pilot`'s workload through the sealed path. With `plant`, the first
/// device's first record sampled at or after [`PLANT_AT`] reads 0.95
/// instead.
fn run(pilot: Pilot, seed: u64, plant: bool) -> Run {
    let workload = WorkloadSpec::new(pilot, seed, DEVICES, ROUNDS).compile();
    let mut p = Platform::builder(DeploymentConfig::FarmFog)
        .seed(seed)
        .build();
    let victim = &workload.devices[0];
    // The victim's records with their delivery rounds, in sending order.
    let from_victim: Vec<(SimTime, SimTime)> = workload
        .batches
        .iter()
        .flat_map(|batch| batch.records.iter().map(move |r| (batch.at, r)))
        .filter(|(_, r)| r.device == *victim)
        .map(|(round, r)| (round, r.sampled_at))
        .collect();
    let planted = plant.then(|| {
        *from_victim
            .iter()
            .find(|(_, sampled_at)| *sampled_at >= PLANT_AT)
            .unwrap()
    });
    // Sent in order, but a burst may reorder on the radio: the frames
    // that can arrive after the planted one are the victim's others of
    // its round and every later one.
    let sent_after_plant = planted.map_or(0, |(round, _)| {
        from_victim.iter().filter(|(at, _)| *at >= round).count() - 1
    });
    let ids = common::publish_sealed(&mut p, &workload, |record, entity| {
        if record.device == *victim && planted.map(|(_, at)| at) == Some(record.sampled_at) {
            entity.set("moisture_vwc", 0.95);
        }
    });
    Run {
        p,
        ids,
        generated: workload.generated,
        sent_after_plant,
    }
}

fn disabled(run: &Run) -> Vec<&str> {
    run.ids
        .iter()
        .map(String::as_str)
        .filter(|id| run.p.device_enabled(id) == Some(false))
        .collect()
}

#[test]
fn an_honest_fleet_keeps_every_device() {
    for pilot in Pilot::all() {
        for seed in SEEDS {
            let run = run(pilot, seed, false);
            let snap = run.p.observe();
            let case = format!("{pilot:?}/{seed}");
            assert_eq!(snap.counter("ingest.quarantined").unwrap(), 0, "{case}");
            assert_eq!(
                snap.counter("ingest.rejected_unregistered").unwrap(),
                0,
                "{case}"
            );
            assert_eq!(snap.counter("security.alerts_raised").unwrap(), 0, "{case}");
            assert_eq!(disabled(&run), Vec::<&str>::new(), "{case}");
            // The fleet's data arrived: the radio loses a frame in fifty.
            let accepted = snap.counter("ingest.accepted").unwrap();
            assert!(
                accepted > run.generated * 9 / 10,
                "{case}: {accepted} of {} records admitted",
                run.generated
            );
        }
    }
}

#[test]
fn an_impossible_value_cuts_off_only_its_sender() {
    for pilot in Pilot::all() {
        for seed in SEEDS {
            let run = run(pilot, seed, true);
            let snap = run.p.observe();
            let case = format!("{pilot:?}/{seed}");
            let victim = run.ids[0].as_str();
            assert_eq!(snap.counter("ingest.quarantined").unwrap(), 1, "{case}");
            assert_eq!(disabled(&run), [victim], "{case}");
            // Only the victim's later frames are refused, and at least one
            // of them arrived to be.
            let refused = snap.counter("ingest.rejected_unregistered").unwrap();
            assert!(
                (1..=run.sent_after_plant as u64).contains(&refused),
                "{case}: {refused} refused, {} sent after the plant",
                run.sent_after_plant
            );
        }
    }
}
