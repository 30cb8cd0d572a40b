//! Integration: a drone as a *mobile fog node* — the paper's "possibly
//! mobile fog nodes acting in the field (e.g., drones…)". The drone surveys
//! NDVI across the field while out of radio range, buffers locally, and
//! drains its store-and-forward backlog during its short docking contacts.

use swamp::fog::sync::{CloudStore, FogSync};
use swamp::net::link::LinkSpec;
use swamp::net::network::Network;
use swamp::sim::{SimDuration, SimRng, SimTime};

#[test]
fn drone_surveys_offline_and_syncs_at_contacts() {
    let mut net = Network::new(77);
    net.add_node("drone");
    net.add_node("farm-fog");
    net.connect("drone", "farm-fog", LinkSpec::farm_lan());

    // 15 minutes docked at the start of every 2-hour survey circuit.
    let docked = |t: SimTime| t.as_millis() % (2 * 3_600_000) < 15 * 60_000;
    let mut sync = FogSync::builder("drone", "farm-fog")
        .capacity(10_000)
        .base_timeout(SimDuration::from_secs(30))
        .backoff(1.0, SimDuration::from_secs(30))
        .jitter(0.0)
        .build();
    let mut base = CloudStore::new("farm-fog");
    let mut rng = SimRng::seed_from(5);

    let truth_ndvi = [0.82, 0.74, 0.55, 0.79];
    let mut surveys = 0u64;
    let mut ups = 0;
    let mut downs = 0;
    let mut was_up = None;

    // 12 hours in 5-minute ticks.
    let mut t = SimTime::ZERO;
    for _ in 0..144 {
        let up = docked(t);
        match was_up {
            Some(false) if up => ups += 1,
            Some(true) if !up => downs += 1,
            _ => {}
        }
        was_up = Some(up);
        net.set_link_up(&"drone".into(), &"farm-fog".into(), up);

        if !up {
            // Out of range: surveying. One reading per zone per tick.
            for (zone, &truth) in truth_ndvi.iter().enumerate() {
                let ndvi: f64 = rng.normal_with(truth, 0.02);
                sync.enqueue(t, &format!("ndvi_zone_{zone}"), ndvi.to_be_bytes().to_vec())
                    .unwrap();
                surveys += 1;
            }
        } else {
            // Docked: drain the backlog, at most 128 records per round.
            sync.sync_round(&mut net, t, 128);
            net.advance_to(t + SimDuration::from_secs(30));
            base.process(&mut net, t + SimDuration::from_secs(30));
            net.advance_to(t + SimDuration::from_secs(60));
            sync.poll_acks(&mut net, t + SimDuration::from_secs(60));
        }
        t += SimDuration::from_mins(5);
    }
    // Final docking to flush the tail.
    net.set_link_up(&"drone".into(), &"farm-fog".into(), true);
    for i in 0..20 {
        let at = t + SimDuration::from_mins(i);
        sync.sync_round(&mut net, at, 256);
        net.advance_to(at + SimDuration::from_secs(20));
        base.process(&mut net, at + SimDuration::from_secs(20));
        net.advance_to(at + SimDuration::from_secs(40));
        sync.poll_acks(&mut net, at + SimDuration::from_secs(40));
        if sync.pending() == 0 {
            break;
        }
    }

    assert!(
        surveys > 400,
        "most of the circuit is out of range: {surveys}"
    );
    assert_eq!(sync.pending(), 0, "backlog fully drained");
    // Exactly once: every survey reached the base, none twice.
    assert_eq!(base.record_count() as u64, surveys, "no survey lost");
    assert_eq!(sync.stats().acked, surveys);
    // The link actually cycled: five contacts came and went in 12 h of
    // 2-hour circuits.
    assert!(ups >= 5 && downs >= 5, "{ups} up, {downs} down");
    // The base's latest NDVI per zone is close to the field truth.
    for (zone, &truth) in truth_ndvi.iter().enumerate() {
        let rec = base
            .latest(&format!("ndvi_zone_{zone}"))
            .expect("zone reported");
        let value = f64::from_be_bytes(rec.payload.as_slice().try_into().unwrap());
        assert!(
            (value - truth).abs() < 0.1,
            "zone {zone}: {value} vs {truth}"
        );
    }
}
