//! Integration: the range screen feeding auto-quarantine — a compromised
//! probe starts reporting impossible values and the platform cuts it off
//! without operator intervention, while honest peers continue. A possible
//! but abnormal value is the behavioural baseline's to flag, and the
//! operator's to act on.

mod common;

use swamp::codec::ngsi::Entity;
use swamp::core::platform::{DeploymentConfig, IngestError, Platform};
use swamp::security::baseline::{BaselineConfig, FlagKind};
use swamp::security::pipeline::Recommendation;
use swamp::sensors::device::DeviceKind;
use swamp::sim::SimTime;
use swamp_workload::{Pilot, WorkloadSpec};

fn sealed(p: &Platform, device: &str, seq: f64, vwc: f64, nonce: u8) -> Vec<u8> {
    let key = p.keystore.device_key(device).unwrap().key;
    let mut e = Entity::new(format!("urn:swamp:device:{device}"), "SoilProbe");
    e.set("moisture_vwc", vwc);
    e.set("seq", seq);
    key.seal(
        &[nonce; 12],
        device.as_bytes(),
        e.to_json().to_compact_string().as_bytes(),
    )
}

#[test]
fn impossible_values_auto_quarantine_the_device() {
    let mut p = Platform::builder(DeploymentConfig::FarmFog)
        .seed(21)
        .build();
    p.set_auto_quarantine(true);
    p.register_device(SimTime::ZERO, "victim", DeviceKind::SoilProbe, "owner:x")
        .unwrap();
    p.register_device(SimTime::ZERO, "honest", DeviceKind::SoilProbe, "owner:x")
        .unwrap();

    // Honest traffic flows.
    let f = sealed(&p, "honest", 0.0, 0.24, 1);
    p.ingest_frame(SimTime::ZERO, "honest", &f).unwrap();

    // The compromised device reports a physically impossible reading. The
    // frame authenticates (the attacker holds the device), the value is
    // stored once — and the device is immediately quarantined.
    let f = sealed(&p, "victim", 0.0, 7.5, 2);
    p.ingest_frame(SimTime::from_secs(10), "victim", &f)
        .unwrap();
    assert_eq!(
        p.detectors.recommendation("victim"),
        Recommendation::Quarantine
    );
    let snap = p.observe();
    assert_eq!(snap.counter("ingest.quarantined").unwrap(), 1);
    // The export says why: the bank's recommendation event names the device.
    assert!(snap
        .events()
        .iter()
        .any(|e| e.code == "security.quarantine_recommended" && e.detail == "victim"));

    // The next frame from the victim is rejected at the registry gate.
    let f = sealed(&p, "victim", 1.0, 7.5, 3);
    let err = p
        .ingest_frame(SimTime::from_secs(20), "victim", &f)
        .unwrap_err();
    assert!(matches!(err, IngestError::UnregisteredDevice(_)));

    // The honest peer is untouched.
    let f = sealed(&p, "honest", 1.0, 0.25, 4);
    p.ingest_frame(SimTime::from_secs(30), "honest", &f)
        .unwrap();
    assert_eq!(p.detectors.recommendation("honest"), Recommendation::Trust);

    // Operator review clears and re-enables the device.
    p.detectors.clear_device("victim");
    p.registry.set_enabled("victim", true).unwrap();
    let f = sealed(&p, "victim", 2.0, 0.22, 5);
    p.ingest_frame(SimTime::from_secs(40), "victim", &f)
        .unwrap();
}

#[test]
fn quarantine_off_by_default_but_alerts_still_raised() {
    let mut p = Platform::builder(DeploymentConfig::FarmFog)
        .seed(22)
        .build();
    p.register_device(SimTime::ZERO, "d", DeviceKind::SoilProbe, "owner:x")
        .unwrap();
    let f = sealed(&p, "d", 0.0, 9.0, 1);
    p.ingest_frame(SimTime::ZERO, "d", &f).unwrap();
    // Alert exists, recommendation is quarantine, but the registry still
    // accepts the device (operator-in-the-loop mode).
    assert!(
        p.detectors
            .observe()
            .counter("security.alerts_raised")
            .unwrap()
            > 0
    );
    assert_eq!(p.detectors.recommendation("d"), Recommendation::Quarantine);
    let f = sealed(&p, "d", 1.0, 9.0, 2);
    p.ingest_frame(SimTime::from_secs(5), "d", &f).unwrap();
    assert_eq!(p.observe().counter("ingest.quarantined").unwrap(), 0);
}

/// An attacker who holds a probe pins it at 0.55, a reading soil can give:
/// not the range screen's evidence but the behavioural baseline's. The
/// baseline flags the device for the operator; auto-quarantine, which acts
/// on impossible values only, leaves it and every honest peer enabled
/// until the operator acts.
#[test]
fn pinned_value_is_flagged_for_the_operator_not_cut_off() {
    let workload = WorkloadSpec::new(Pilot::Cbec, 42, 64, 240).compile();
    let mut p = Platform::builder(DeploymentConfig::FarmFog)
        .seed(42)
        .baseline(BaselineConfig::phased(
            SimTime::from_hours(60),
            SimTime::from_hours(90),
        ))
        .build();
    p.set_auto_quarantine(true);
    let victim = workload.devices[0].clone();
    let ids = common::publish_sealed(&mut p, &workload, |record, entity| {
        if record.device == victim && record.sampled_at >= SimTime::from_hours(96) {
            entity.set("moisture_vwc", 0.55);
        }
    });

    let flag = p.behavior.flags()[&victim];
    assert_eq!(flag.kind, FlagKind::Anomalous);
    assert!(
        flag.at >= SimTime::from_hours(96),
        "flagged at {:?}",
        flag.at
    );
    let snap = p.observe();
    assert_eq!(snap.counter("ingest.quarantined").unwrap(), 0);
    assert_eq!(snap.counter("ingest.rejected_unregistered").unwrap(), 0);
    for id in &ids {
        assert!(p.registry.get(id).unwrap().enabled, "{id}");
        assert_eq!(p.detectors.recommendation(id), Recommendation::Trust);
    }

    // The operator acts on the flag: the device's next frame is refused.
    p.registry.set_enabled(&ids[0], false).unwrap();
    let f = sealed(&p, &ids[0], 1e6, 0.55, 7);
    let err = p
        .ingest_frame(SimTime::from_hours(200), &ids[0], &f)
        .unwrap_err();
    assert!(matches!(err, IngestError::UnregisteredDevice(_)));
}
