//! Integration: the detection pipeline feeding auto-quarantine — a
//! compromised probe starts reporting impossible values and the platform
//! cuts it off without operator intervention, while honest peers continue.

use swamp::codec::ngsi::Entity;
use swamp::core::platform::{DeploymentConfig, IngestError, Platform};
use swamp::security::pipeline::Recommendation;
use swamp::sensors::device::DeviceKind;
use swamp::sim::SimTime;

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

#[test]
fn tamper_step_attack_is_caught_and_cut_off() {
    let mut p = Platform::builder(DeploymentConfig::FarmFog)
        .seed(23)
        .build();
    p.set_auto_quarantine(true);
    p.register_device(SimTime::ZERO, "probe", DeviceKind::SoilProbe, "owner:x")
        .unwrap();

    // 60 in-range baseline frames.
    let mut seq = 0.0;
    for i in 0..60u64 {
        let vwc = 0.24 + 0.002 * ((i % 7) as f64 - 3.0) / 3.0;
        let f = sealed(&p, "probe", seq, vwc, (i % 250) as u8 + 1);
        p.ingest_frame(SimTime::from_secs(i * 3600), "probe", &f)
            .unwrap();
        seq += 1.0;
    }
    assert_eq!(p.detectors.recommendation("probe"), Recommendation::Trust);

    // The attacker pins the value to 0.55 (in range, but a huge step).
    let mut cut_off = false;
    for i in 60..80u64 {
        let f = sealed(&p, "probe", seq, 0.55, (i % 250) as u8 + 1);
        seq += 1.0;
        match p.ingest_frame(SimTime::from_secs(i * 3600), "probe", &f) {
            Ok(()) => {}
            Err(IngestError::UnregisteredDevice(_)) => {
                cut_off = true;
                break;
            }
            Err(e) => panic!("unexpected {e:?}"),
        }
    }
    assert!(cut_off, "step attack must lead to quarantine");
}
