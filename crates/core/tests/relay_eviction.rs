//! A CloudOnly gateway whose bounded buffer evicts frames during an uplink
//! outage. The cloud's relay store releases frames in gateway-seq order,
//! and an evicted seq never arrives. The floor each record carries settles
//! the evicted seqs, so every frame the gateway kept is ingested within
//! minutes of the outage healing. No timer waits out the gap.

use swamp_codec::ngsi::Entity;
use swamp_core::platform::{DeploymentConfig, Platform};
use swamp_fog::availability::OutageSchedule;
use swamp_sensors::device::DeviceKind;
use swamp_sim::{SimDuration, SimTime};

#[test]
fn relay_releases_past_evicted_frames_within_minutes_of_healing() {
    let heal = SimTime::from_secs(30 * 60);
    let mut outage = OutageSchedule::new();
    outage.add_outage(SimTime::from_secs(10 * 60), heal);
    let mut p = Platform::builder(DeploymentConfig::CloudOnly)
        .seed(7)
        .sync_capacity(8)
        .sync_base_timeout(SimDuration::from_secs(10))
        .uplink_outages(&outage)
        .build();
    p.register_device(
        SimTime::ZERO,
        "probe-1",
        DeviceKind::SoilProbe,
        "owner:test",
    )
    .unwrap();

    // One frame every 30 s for the first 5 min, all acked before the
    // outage; then one every 30 s through the outage, so the buffer
    // overflows and evicts frames that never left the gateway. (A frame
    // evicted after it reached the cloud would count as dropped too.)
    let mut published = 0u64;
    let mut now = SimTime::ZERO;
    while now < heal + SimDuration::from_mins(10) {
        now += SimDuration::from_secs(30);
        if now <= SimTime::from_secs(5 * 60) || outage.is_down(now) {
            let mut e = Entity::new("urn:swamp:device:probe-1", "SoilProbe");
            e.set("moisture_vwc", 0.3);
            e.set("seq", published as f64);
            p.device_publish(now, "probe-1", &e).unwrap();
            published += 1;
        }
        p.pump(now + SimDuration::from_secs(15));
    }

    let snap = p.observe();
    let counter = |name: &str| snap.counter(name).unwrap();
    // Every frame reached the gateway (the field link is lossy, the seed
    // is chosen so none is lost), and the outage overflowed its buffer.
    assert_eq!(counter("sync.enqueued"), published);
    let dropped = counter("sync.dropped");
    assert!(dropped > 0, "the outage must evict frames");
    assert_eq!(
        counter("ingest.accepted"),
        published - dropped,
        "every frame the gateway kept is ingested 10 min after the heal"
    );
    assert_eq!(counter("ingest.rejected_replay"), 0);
}
