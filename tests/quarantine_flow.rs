//! Integration: the range screen quarantining a device — a compromised
//! probe starts reporting impossible values and the platform cuts it off
//! without operator intervention, while honest peers continue; one
//! registry call after review lets it back in. A possible but abnormal
//! value is the behavioural baseline's to flag, and the operator's to act
//! on.

mod common;

use swamp::codec::ngsi::Entity;
use swamp::core::platform::{DeploymentConfig, IngestError, Platform};
use swamp::core::query::{QueryRequest, QueryResponse};
use swamp::security::baseline::{BaselineConfig, FlagKind};
use swamp::sensors::device::DeviceKind;
use swamp::sim::SimTime;
use swamp_workload::{Pilot, WorkloadSpec};

/// A frame from `device` carrying `seq` and each of `values`.
fn sealed_with(p: &Platform, device: &str, seq: f64, values: &[(&str, f64)], nonce: u8) -> Vec<u8> {
    let key = p.keystore.device_key(device).unwrap().key;
    let mut e = Entity::new(format!("urn:swamp:device:{device}"), "SoilProbe");
    for &(name, value) in values {
        e.set(name, value);
    }
    e.set("seq", seq);
    key.seal(
        &[nonce; 12],
        device.as_bytes(),
        e.to_json().to_compact_string().as_bytes(),
    )
}

fn sealed(p: &Platform, device: &str, seq: f64, vwc: f64, nonce: u8) -> Vec<u8> {
    sealed_with(p, device, seq, &[("moisture_vwc", vwc)], nonce)
}

/// A platform with a `victim` and an `honest` probe, the honest one's
/// first frame admitted.
fn two_probes(seed: u64) -> Platform {
    let mut p = Platform::builder(DeploymentConfig::FarmFog)
        .seed(seed)
        .build();
    p.register_device(SimTime::ZERO, "victim", DeviceKind::SoilProbe, "owner:x")
        .unwrap();
    p.register_device(SimTime::ZERO, "honest", DeviceKind::SoilProbe, "owner:x")
        .unwrap();
    let f = sealed(&p, "honest", 0.0, 0.24, 1);
    p.ingest_frame(SimTime::ZERO, "honest", &f).unwrap();
    p
}

fn counter(p: &Platform, name: &str) -> u64 {
    p.observe().counter(name).unwrap()
}

#[test]
fn impossible_values_auto_quarantine_the_device() {
    // One impossible value, then two in one frame: each frame raises an
    // alert per value, is refused, and quarantines its sender once.
    let impossible: [&[(&str, f64)]; 2] = [
        &[("moisture_vwc", 7.5)],
        &[("moisture_vwc", 7.5), ("battery_fraction", 1.7)],
    ];
    for values in impossible {
        let mut p = two_probes(21);

        // The compromised device reports a physically impossible reading.
        // The frame authenticates (the attacker holds the device), but it
        // is refused — the value is stored nowhere — and the device is
        // quarantined at once.
        let f = sealed_with(&p, "victim", 0.0, values, 2);
        let err = p
            .ingest_frame(SimTime::from_secs(10), "victim", &f)
            .unwrap_err();
        assert!(matches!(err, IngestError::ImpossibleValue(_)), "{err}");
        assert!(!p.registry.get("victim").unwrap().enabled, "{values:?}");
        let snap = p.observe();
        assert_eq!(snap.counter("ingest.quarantined").unwrap(), 1, "{values:?}");
        assert_eq!(
            snap.counter("ingest.accepted").unwrap(),
            1,
            "the honest frame alone"
        );
        let stored = p.query(&QueryRequest::Range {
            entity: "urn:swamp:device:victim".into(),
            attr: "moisture_vwc".into(),
            from: SimTime::ZERO,
            to: SimTime::from_secs(60),
        });
        assert_eq!(stored, QueryResponse::Samples(vec![]), "{values:?}");
        assert_eq!(p.context.entity_count(), 1, "the honest probe alone");
        assert_eq!(
            snap.counter("security.alerts_raised").unwrap(),
            values.len() as u64,
            "{values:?}"
        );
        // The export says why: an alert per value, one quarantine event,
        // each naming the device.
        let events = |code: &str| {
            snap.events()
                .iter()
                .filter(|e| e.code == code)
                .map(|e| e.detail.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(events("ingest.quarantine"), ["victim"], "{values:?}");
        let alerts = events("security.alert");
        assert_eq!(alerts.len(), values.len(), "{values:?}");
        assert!(
            alerts.iter().all(|a| a.starts_with("victim ")),
            "{alerts:?}"
        );

        // The next frame from the victim is rejected at the registry gate.
        let f = sealed(&p, "victim", 1.0, 0.22, 3);
        let err = p
            .ingest_frame(SimTime::from_secs(20), "victim", &f)
            .unwrap_err();
        assert!(matches!(err, IngestError::UnregisteredDevice(_)));

        // The honest peer is untouched.
        let f = sealed(&p, "honest", 1.0, 0.25, 4);
        p.ingest_frame(SimTime::from_secs(30), "honest", &f)
            .unwrap();
        assert!(p.registry.get("honest").unwrap().enabled);
        assert_eq!(counter(&p, "ingest.quarantined"), 1);
    }
}

/// The operator's review is one registry call: a re-enabled device's
/// in-range frames are admitted and leave it enabled. (A trust bit kept
/// beside the registry row, still set from the old hit, would cut it off
/// again at its next frame.)
#[test]
fn one_registry_call_re_enables_a_quarantined_device() {
    let mut p = two_probes(23);
    let f = sealed(&p, "victim", 0.0, 7.5, 2);
    p.ingest_frame(SimTime::from_secs(10), "victim", &f)
        .unwrap_err();
    assert!(!p.registry.get("victim").unwrap().enabled);

    p.registry.set_enabled("victim", true).unwrap();
    for (seq, at) in [(1.0, 40), (2.0, 50)] {
        let f = sealed(&p, "victim", seq, 0.22, 3 + seq as u8);
        p.ingest_frame(SimTime::from_secs(at), "victim", &f)
            .unwrap();
        assert!(p.registry.get("victim").unwrap().enabled, "seq {seq}");
    }
    assert_eq!(counter(&p, "ingest.quarantined"), 1);
    assert_eq!(counter(&p, "ingest.rejected_unregistered"), 0);
    assert_eq!(counter(&p, "security.alerts_raised"), 1);
}

/// An attacker who holds a probe pins it at 0.55, a reading soil can give:
/// not the range screen's evidence but the behavioural baseline's. The
/// baseline flags the device for the operator; the platform, which
/// quarantines on impossible values only, leaves it and every honest peer
/// enabled until the operator acts.
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
    assert_eq!(snap.counter("security.alerts_raised").unwrap(), 0);
    for id in &ids {
        assert!(p.registry.get(id).unwrap().enabled, "{id}");
    }

    // The operator acts on the flag: the device's next frame is refused.
    p.registry.set_enabled(&ids[0], false).unwrap();
    let f = sealed(&p, &ids[0], 1e6, 0.55, 7);
    let err = p
        .ingest_frame(SimTime::from_hours(200), &ids[0], &f)
        .unwrap_err();
    assert!(matches!(err, IngestError::UnregisteredDevice(_)));
}
