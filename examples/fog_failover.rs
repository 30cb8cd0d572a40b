//! Fog-based availability: the platform keeps irrigating through a 12-hour
//! Internet outage, then replicates the buffered history to the cloud —
//! the paper's availability requirement, live.
//!
//! Run with: `cargo run --release --example fog_failover`

use swamp::codec::ngsi::Entity;
use swamp::core::platform::{DeploymentConfig, Platform};
use swamp::fog::availability::{AvailabilityTracker, OutageSchedule};
use swamp::sensors::device::DeviceKind;
use swamp::sim::{SimDuration, SimTime};

fn run(config: DeploymentConfig, label: &str) {
    // Internet outage from hour 6 to hour 18 of a 36-hour window.
    let mut outage = OutageSchedule::new();
    outage.add_outage(SimTime::from_hours(6), SimTime::from_hours(18));

    let mut platform = Platform::builder(config)
        .seed(7)
        .uplink_outages(&outage)
        .build();
    platform
        .register_device(
            SimTime::ZERO,
            "probe-1",
            DeviceKind::SoilProbe,
            "owner:farm",
        )
        .unwrap();

    let mut tracker = AvailabilityTracker::default();
    for h in 0..36u64 {
        let t = SimTime::from_hours(h);
        let mut update = Entity::new("urn:swamp:device:probe-1", "SoilProbe");
        update.set("moisture_vwc", 0.25 - 0.002 * h as f64);
        update.set("seq", h as f64);
        let _ = platform.device_publish(t, "probe-1", &update);
        platform.pump(t + SimDuration::from_mins(30));

        tracker.record(platform.service_point());
    }
    // Outage over; let replication drain.
    for extra in 0..12 {
        platform.pump(SimTime::from_hours(36 + extra));
    }

    let (cloud, fog, unserved) = tracker.breakdown();
    println!("== {label} ==");
    println!(
        "availability: {:.1}%  (cloud-served {cloud} h, fog-served {fog} h, unserved {unserved} h)",
        tracker.availability() * 100.0
    );
    let snap = platform.observe();
    let ingested = snap.counter("ingest.accepted").unwrap();
    println!("telemetry ingested at the platform: {ingested} of 36 published");
    let duplicates = snap.counter("cloud.duplicates").unwrap();
    if let Some(replica) = platform.cloud_replica() {
        println!(
            "cloud replica after reconnect: {} records ({duplicates} duplicates discarded)",
            replica.record_count()
        );
    } else {
        println!(
            "cloud-only: the gateway buffered through the outage ({duplicates} relay duplicates discarded)"
        );
    }
    println!();
}

fn main() {
    println!("12-hour Internet outage, hourly irrigation decisions, 36-hour window\n");
    run(DeploymentConfig::CloudOnly, "cloud-only deployment");
    run(DeploymentConfig::FarmFog, "farm-fog deployment");
}
