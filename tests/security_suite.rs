//! Integration tests of the full threat model against the assembled
//! platform: every attack in the paper's §III, each met by the defense the
//! paper prescribes.

use swamp::codec::json::Json;
use swamp::codec::ngsi::Entity;
use swamp::core::platform::{DeploymentConfig, IngestError, Platform};
use swamp::crypto::keystore::KeyEpoch;
use swamp::net::link::LinkSpec;
use swamp::net::message::Message;
use swamp::security::attacks::{Eavesdropper, Interception, ReplayAttacker};
use swamp::sensors::device::DeviceKind;
use swamp::sim::{SimDuration, SimTime};

fn platform_with_probe() -> Platform {
    let mut p = Platform::builder(DeploymentConfig::FarmFog)
        .seed(99)
        .build();
    p.register_device(
        SimTime::ZERO,
        "probe-1",
        DeviceKind::SoilProbe,
        "owner:farm",
    )
    .unwrap();
    p
}

fn sealed_update(p: &Platform, device: &str, seq: f64, nonce_byte: u8) -> Vec<u8> {
    let key = p.keystore.device_key(device).unwrap().key;
    let mut e = Entity::new(format!("urn:swamp:device:{device}"), "SoilProbe");
    e.set("moisture_vwc", 0.23);
    e.set("seq", seq);
    key.seal(
        &[nonce_byte; 12],
        device.as_bytes(),
        e.to_json().to_compact_string().as_bytes(),
    )
}

/// Eavesdropping (paper: market manipulation from crop data): the wire tap
/// sees only ciphertext once devices seal their telemetry.
#[test]
fn eavesdropper_learns_nothing_from_sealed_telemetry() {
    let mut p = platform_with_probe();
    let farm = p.farm_node();
    let tap = p.net.add_tap("probe-1", farm);

    let mut e = Entity::new("urn:swamp:device:probe-1", "SoilProbe");
    e.set("moisture_vwc", 0.23);
    e.set("seq", 0.0);
    p.device_publish(SimTime::ZERO, "probe-1", &e).unwrap();

    let captures: Vec<Vec<u8>> = p
        .net
        .tap_captures(tap)
        .iter()
        .map(|d| d.message.payload.clone())
        .collect();
    assert!(!captures.is_empty(), "the tap saw the transmission");

    let mut eve = Eavesdropper::new();
    eve.process(captures.iter().map(Vec::as_slice));
    assert_eq!(eve.leak_fraction(), 0.0, "all captures opaque");
    assert!(matches!(eve.intercepted()[0], Interception::Opaque { .. }));
}

/// Replay (captured sealed frame re-injected): rejected by the sequence
/// monitor even though the frame authenticates.
#[test]
fn replayed_sealed_frame_is_rejected() {
    let mut p = platform_with_probe();
    let frame = sealed_update(&p, "probe-1", 7.0, 1);
    p.ingest_frame(SimTime::ZERO, "probe-1", &frame).unwrap();

    let mut attacker = ReplayAttacker::new();
    attacker.capture(&frame);
    assert_eq!(attacker.captured_count(), 1);

    // Re-inject through the network from a compromised position.
    p.net.add_node("mitm");
    let farm = p.farm_node();
    p.net.connect("mitm", farm.clone(), LinkSpec::farm_lan());
    let injected = attacker.replay_all(
        &mut p.net,
        SimTime::from_secs(60),
        &"mitm".into(),
        &farm,
        "telemetry/probe-1",
    );
    assert_eq!(injected, 1);
    p.pump(SimTime::from_secs(120));
    assert_eq!(p.observe().counter("ingest.rejected_replay").unwrap(), 1);
    assert_eq!(
        p.observe().counter("ingest.accepted").unwrap(),
        1,
        "only the original"
    );
}

/// Sensor tampering in flight: any bit flip fails authentication.
#[test]
fn in_flight_modification_fails_authentication() {
    let mut p = platform_with_probe();
    let mut frame = sealed_update(&p, "probe-1", 0.0, 2);
    // The attacker tries to inflate the moisture value by flipping bits.
    for idx in [12, 20, frame.len() - 1] {
        let mut tampered = frame.clone();
        tampered[idx] ^= 0x01;
        let err = p
            .ingest_frame(SimTime::ZERO, "probe-1", &tampered)
            .unwrap_err();
        assert!(
            matches!(err, IngestError::AuthenticationFailed(_)),
            "idx {idx}"
        );
    }
    // Untampered frame still ingests (the checks above were side-effect-free).
    frame.truncate(frame.len()); // no-op, clarity
    p.ingest_frame(SimTime::ZERO, "probe-1", &frame).unwrap();
}

/// Rogue node (paper: "unauthorized node … may send false information"):
/// unregistered devices are dropped at the registry; plaintext spoofs of a
/// registered device fail authentication.
#[test]
fn rogue_and_spoofing_nodes_are_rejected() {
    let mut p = platform_with_probe();

    // Unregistered identity.
    let err = p
        .ingest_frame(SimTime::ZERO, "ghost-device", b"anything")
        .unwrap_err();
    assert!(matches!(err, IngestError::UnregisteredDevice(_)));

    // Spoofing a real identity without its key: craft a plausible plaintext
    // JSON (not sealed) claiming to be probe-1.
    let fake = Json::object([
        ("id", Json::from("urn:swamp:device:probe-1")),
        ("type", Json::from("SoilProbe")),
    ])
    .to_compact_string();
    let err = p
        .ingest_frame(SimTime::ZERO, "probe-1", fake.as_bytes())
        .unwrap_err();
    assert!(matches!(err, IngestError::AuthenticationFailed(_)));
}

/// Two registered probes; probe-2 has one admitted reading (moisture
/// 0.20 at seq 0) in its history and broker entity.
fn platform_with_two_probes(config: DeploymentConfig) -> Platform {
    let mut p = Platform::builder(config).seed(99).build();
    for id in ["probe-1", "probe-2"] {
        p.register_device(SimTime::ZERO, id, DeviceKind::SoilProbe, "owner:farm")
            .unwrap();
    }
    let mut e = Entity::new("urn:swamp:device:probe-2", "SoilProbe");
    e.set("moisture_vwc", 0.20);
    e.set("seq", 0.0);
    p.device_publish(SimTime::ZERO, "probe-2", &e).unwrap();
    for s in 1..=60 {
        p.pump(SimTime::from_secs(s));
    }
    assert_eq!(probe_2_readings(&p), vec![0.20]);
    p
}

/// Probe-2's moisture history and its broker entity's current reading.
fn probe_2_readings(p: &Platform) -> Vec<f64> {
    let id = "urn:swamp:device:probe-2";
    let history: Vec<f64> = p
        .history
        .range(id, "moisture_vwc", SimTime::ZERO, SimTime::from_hours(1))
        .iter()
        .map(|s| s.value)
        .collect();
    let current = p
        .context
        .entity(&id.into())
        .and_then(|e| e.number("moisture_vwc"));
    assert_eq!(history.last().copied(), current);
    history
}

/// probe-1 seals, under its own valid key, an update that claims to be
/// probe-2 (a fresh seq and a fake reading).
fn frame_from_probe_1_for_probe_2(p: &Platform) -> Vec<u8> {
    let key = p.keystore.device_key("probe-1").unwrap().key;
    let mut e = Entity::new("urn:swamp:device:probe-2", "SoilProbe");
    e.set("moisture_vwc", 0.99);
    e.set("seq", 5.0);
    key.seal(
        &[7u8; 12],
        b"probe-1",
        e.to_json().to_compact_string().as_bytes(),
    )
}

/// Ownership at ingest (paper: "each owner controls their data"): a
/// registered device's valid seal authenticates only its own entity, so
/// probe-1 cannot write probe-2's history or context.
#[test]
fn sealed_frame_writes_only_its_senders_entity() {
    let mut p = platform_with_two_probes(DeploymentConfig::FarmFog);
    let forged = frame_from_probe_1_for_probe_2(&p);
    let err = p
        .ingest_frame(SimTime::from_secs(120), "probe-1", &forged)
        .unwrap_err();
    assert!(matches!(err, IngestError::AuthenticationFailed(_)));
    assert_eq!(probe_2_readings(&p), vec![0.20]);
    assert_eq!(p.observe().counter("ingest.rejected_auth").unwrap(), 1);

    // The refusal left probe-1's own replay window where it was.
    let own = sealed_update(&p, "probe-1", 0.0, 8);
    p.ingest_frame(SimTime::from_secs(121), "probe-1", &own)
        .unwrap();
}

/// The same refusal on the CloudOnly path: the forged frame travels the
/// LPWAN, is relayed by the gateway and is refused at the cloud's ingest.
#[test]
fn relayed_frame_writes_only_its_senders_entity() {
    let mut p = platform_with_two_probes(DeploymentConfig::CloudOnly);
    let forged = frame_from_probe_1_for_probe_2(&p);
    let farm = p.farm_node();
    p.net
        .send(
            SimTime::from_secs(120),
            "probe-1",
            &farm,
            Message::new("telemetry/probe-1", forged),
        )
        .unwrap();
    for s in 121..=240 {
        p.pump(SimTime::from_secs(s));
    }
    assert_eq!(probe_2_readings(&p), vec![0.20]);
    assert_eq!(p.observe().counter("ingest.rejected_auth").unwrap(), 1);
}

/// Key revocation (compromised device response): frames stop ingesting the
/// moment the keystore revokes and the registry disables the device.
#[test]
fn revoked_device_is_cut_off_everywhere() {
    let mut p = platform_with_probe();
    let frame = sealed_update(&p, "probe-1", 0.0, 3);
    p.ingest_frame(SimTime::ZERO, "probe-1", &frame).unwrap();

    // Compromise detected: revoke key, quarantine registry entry.
    p.keystore.revoke("probe-1");
    p.registry.set_enabled("probe-1", false).unwrap();
    assert!(p.keystore.is_revoked("probe-1"));
    assert!(p.keystore.device_key("probe-1").is_err());

    let frame2 = {
        // Even a frame sealed with the (stolen) old key is now rejected.
        let stolen_key = p.keystore.derive("probe-1", KeyEpoch(0));
        let mut e = Entity::new("urn:swamp:device:probe-1", "SoilProbe");
        e.set("seq", 1.0);
        stolen_key.seal(
            &[4u8; 12],
            b"probe-1",
            e.to_json().to_compact_string().as_bytes(),
        )
    };
    let err = p
        .ingest_frame(SimTime::from_secs(20), "probe-1", &frame2)
        .unwrap_err();
    assert!(matches!(err, IngestError::UnregisteredDevice(_)));
}

/// Key rotation on the platform path: once the keystore moves a device to
/// a new epoch, a frame sealed under the old key no longer authenticates,
/// and the device's own next publish (sealed under the new key) is
/// admitted.
#[test]
fn rotated_key_refuses_the_old_epoch_and_admits_the_new() {
    let mut p = platform_with_probe();
    let old = sealed_update(&p, "probe-1", 0.0, 5);
    assert_eq!(p.keystore.rotate("probe-1").unwrap(), KeyEpoch(1));

    let err = p.ingest_frame(SimTime::ZERO, "probe-1", &old).unwrap_err();
    assert!(matches!(err, IngestError::AuthenticationFailed(_)));
    assert_eq!(p.observe().counter("ingest.rejected_auth").unwrap(), 1);

    let mut e = Entity::new("urn:swamp:device:probe-1", "SoilProbe");
    e.set("moisture_vwc", 0.31);
    e.set("seq", 1.0);
    p.device_publish(SimTime::from_secs(1), "probe-1", &e)
        .unwrap();
    assert_eq!(p.pump(SimTime::from_secs(10)), 1);
    assert_eq!(
        p.context
            .entity(&"urn:swamp:device:probe-1".into())
            .and_then(|e| e.number("moisture_vwc")),
        Some(0.31)
    );
}

/// SDN quarantine: after the controller denies a source, nothing from it
/// crosses the network, while peers are unaffected.
#[test]
fn sdn_quarantine_is_surgical() {
    use swamp::net::sdn::{FlowAction, FlowMatch};
    let mut p = Platform::builder(DeploymentConfig::FarmFog).seed(5).build();
    p.register_device(SimTime::ZERO, "good", DeviceKind::SoilProbe, "owner:x")
        .unwrap();
    p.register_device(SimTime::ZERO, "bad", DeviceKind::SoilProbe, "owner:x")
        .unwrap();

    p.net
        .flow_table_mut()
        .install(10, FlowMatch::from_src("bad"), FlowAction::Deny);

    let farm = p.farm_node();
    let err = p.net.send(
        SimTime::ZERO,
        "bad",
        farm.clone(),
        Message::new("telemetry/bad", vec![1, 2, 3]),
    );
    assert!(err.is_err());
    let ok = p.net.send(
        SimTime::ZERO,
        "good",
        farm,
        Message::new("telemetry/good", vec![1, 2, 3]),
    );
    assert!(ok.is_ok());
}

/// Expired and revoked tokens cannot read anything.
#[test]
fn token_lifecycle_enforced_at_the_read_path() {
    let mut p = platform_with_probe();
    p.context.upsert(SimTime::ZERO, {
        let mut e = Entity::new("urn:swamp:device:probe-1", "SoilProbe");
        e.set("moisture_vwc", 0.2);
        e
    });
    p.idm.register_user("owner", "pw", &["owner:farm"]);
    let token = p.idm.password_grant(SimTime::ZERO, "owner", "pw").unwrap();

    assert!(p
        .authorized_read(SimTime::ZERO, &token, "urn:swamp:device:probe-1")
        .is_ok());

    // Expired (tokens live 8 h in the platform's IdM).
    let late = SimTime::ZERO + SimDuration::from_hours(9);
    assert!(p
        .authorized_read(late, &token, "urn:swamp:device:probe-1")
        .is_err());

    // Revoked.
    let token2 = p.idm.password_grant(SimTime::ZERO, "owner", "pw").unwrap();
    p.idm.revoke(&token2);
    assert!(p
        .authorized_read(SimTime::ZERO, &token2, "urn:swamp:device:probe-1")
        .is_err());
}
