//! Replication throughput at fleet scale, in pumps rather than seconds: the
//! uplink engine's in-flight window is the only limit on how fast the
//! farm's records reach the cloud, at both places [`Platform::pump`] runs
//! a sync round. A backlog of `n` records over a lossless uplink needs one
//! ack round trip (two pumps) per window, plus the pump that applies the
//! last window and one of slack — `2·⌈n / W⌉ + 2` — and the window holds
//! after every pump. A per-pump cap smaller than the window (the 256 the
//! platform used to pass) fails both cases by a factor of several.

use swamp_codec::ngsi::Entity;
use swamp_core::platform::{DeploymentConfig, Platform};
use swamp_fog::sync::DEFAULT_WINDOW;
use swamp_net::link::LinkSpec;
use swamp_sensors::device::DeviceKind;
use swamp_sim::{SimDuration, SimTime};

fn pump_bound(records: usize) -> usize {
    2 * records.div_ceil(DEFAULT_WINDOW) + 2
}

fn lossless(config: DeploymentConfig) -> Platform {
    Platform::builder(config)
        .seed(42)
        .uplink_spec(LinkSpec::cloud_backbone())
        .sync_base_timeout(SimDuration::from_secs(300))
        .build()
}

fn probe(i: usize) -> Entity {
    let mut e = Entity::new(format!("urn:swamp:device:probe-{i}"), "SoilProbe");
    e.set("moisture_vwc", 0.2 + i as f64 * 1e-6);
    e.set("seq", 0.0);
    e
}

/// Pumps a second apart until `done`, checking the window after each;
/// returns the pumps it took.
fn pump_until(p: &mut Platform, now: &mut SimTime, done: impl Fn(&Platform) -> bool) -> usize {
    for pumps in 1..=200 {
        *now += SimDuration::from_secs(1);
        p.pump(*now);
        let in_flight = p.observe().gauge("sync.in_flight").unwrap().unwrap_or(0.0);
        assert!(
            in_flight <= DEFAULT_WINDOW as f64,
            "pump {pumps}: {in_flight} records in flight, window {DEFAULT_WINDOW}"
        );
        if done(p) {
            return pumps;
        }
    }
    panic!("replication did not complete in 200 pumps");
}

fn assert_clean_uplink(p: &Platform) {
    let snap = p.observe();
    for counter in [
        "sync.retransmissions",
        "sync.timeouts",
        "sync.dropped",
        "cloud.duplicates",
    ] {
        assert_eq!(snap.counter(counter).unwrap(), 0, "{counter}");
    }
}

#[test]
fn fog_replica_catches_up_at_window_rate() {
    const RECORDS: usize = 10_000;
    let mut p = lossless(DeploymentConfig::FarmFog);
    let mut now = SimTime::from_secs(60);
    assert_eq!(p.ingest_entities(now, (0..RECORDS).map(probe)), RECORDS);

    let pumps = pump_until(&mut p, &mut now, |p| {
        p.cloud_replica().unwrap().record_count() == RECORDS
    });
    assert!(
        pumps <= pump_bound(RECORDS),
        "the replica took {pumps} pumps to hold {RECORDS} records; \
         a window of {DEFAULT_WINDOW} per round trip allows {}",
        pump_bound(RECORDS)
    );
    assert_clean_uplink(&p);
}

#[test]
fn cloud_only_gateway_relays_at_window_rate() {
    // More devices than one window holds, each publishing one sealed frame
    // over its field radio; the radio's own loss decides how many reach
    // the gateway, all of them before the first pump.
    const DEVICES: usize = 5_000;
    let mut p = lossless(DeploymentConfig::CloudOnly);
    for i in 0..DEVICES {
        p.register_device(
            SimTime::ZERO,
            &format!("probe-{i}"),
            DeviceKind::SoilProbe,
            "owner:test",
        )
        .unwrap();
    }
    let mut now = SimTime::from_secs(60);
    for i in 0..DEVICES {
        p.device_publish(now, &format!("probe-{i}"), &probe(i))
            .unwrap();
    }
    now += SimDuration::from_secs(9);

    let relayed = |p: &Platform| p.observe().counter("sync.enqueued").unwrap() as usize;
    let accepted = |p: &Platform| p.observe().counter("ingest.accepted").unwrap() as usize;
    let pumps = pump_until(&mut p, &mut now, |p| accepted(p) == relayed(p));

    let received = relayed(&p);
    assert!(
        received > DEFAULT_WINDOW && received <= DEVICES,
        "the gateway received {received} frames; the case needs more than a window"
    );
    assert!(
        pumps <= pump_bound(received),
        "the cloud took {pumps} pumps to ingest the {received} frames the gateway \
         received; a window of {DEFAULT_WINDOW} per round trip allows {}",
        pump_bound(received)
    );
    assert_eq!(p.observe().counter("relay.refused").unwrap(), 0);
    assert_eq!(p.context.entity_count(), received);
    assert_clean_uplink(&p);
}
