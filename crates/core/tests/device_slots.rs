//! A sealed frame resolves its sender once, to a registry slot, and every
//! later table is reached through the handles the device's row keeps. These
//! tests hold that path to the by-name one and to the keystore's authority:
//!
//! - the same sealed frames fed to two platforms of one seed, one through
//!   `pump` (the slot path) and one through `validate_frame` +
//!   `ingest_entities` (the by-name path), leave the same history, baseline
//!   flags, quarantined devices and counters behind;
//! - a warm row caches no key: revoking or rotating a device in
//!   `p.keystore` decides its very next frame;
//! - a device registered after a thousand other frames starts enabled and
//!   from fresh baseline state, not another device's.

use std::collections::BTreeMap;

use swamp_codec::ngsi::Entity;
use swamp_core::platform::{DeploymentConfig, IngestError, Platform};
use swamp_core::query::{QueryRequest, QueryResponse};
use swamp_crypto::aead::NonceSequence;
use swamp_crypto::keystore::KeyEpoch;
use swamp_net::link::LinkSpec;
use swamp_net::message::Message;
use swamp_security::baseline::{BaselineConfig, FlagKind};
use swamp_sensors::device::DeviceKind;
use swamp_sim::{SimDuration, SimTime};

const DEVICES: usize = 24;
const ROUNDS: u64 = 120;
const STEP: SimDuration = SimDuration::from_mins(30);
/// The round a device registered late first reports in: after the
/// baseline's training horizon, so it is flagged untrained.
const LATE_ROUND: u64 = 60;
/// The round probe-3 reads an impossible moisture value in.
const BAD_VWC_ROUND: u64 = 50;
/// The round probe-6 reads an impossible battery fraction in.
const BAD_BATTERY_ROUND: u64 = 70;

fn telemetry(id: &str, seq: u64, vwc: f64, battery: Option<f64>) -> Entity {
    let mut e = Entity::new(format!("urn:swamp:device:{id}"), "SoilProbe");
    e.set("moisture_vwc", vwc);
    e.set("seq", seq as f64);
    if let Some(b) = battery {
        e.set("battery_fraction", b);
    }
    e
}

fn seal(p: &Platform, id: &str, nonces: &mut NonceSequence, entity: &Entity) -> Vec<u8> {
    let key = p.keystore.device_key(id).unwrap().key;
    let mut wire = String::new();
    entity.write_compact(&mut wire);
    key.seal(&nonces.next_nonce(), id.as_bytes(), wire.as_bytes())
}

/// Registers a device with a lossless radio, so every frame sent arrives.
fn register(p: &mut Platform, id: &str) {
    p.register_device(SimTime::ZERO, id, DeviceKind::SoilProbe, "owner:test")
        .unwrap();
    let farm = p.farm_node();
    p.net.connect(id, farm, LinkSpec::cloud_backbone());
}

fn platform() -> Platform {
    let mut p = Platform::builder(DeploymentConfig::FarmFog)
        .seed(11)
        .uplink_spec(LinkSpec::cloud_backbone())
        .baseline(BaselineConfig::phased(
            SimTime::from_hours(24),
            SimTime::from_hours(36),
        ))
        .build();
    for i in 0..DEVICES {
        register(&mut p, &format!("probe-{i}"));
    }
    // An id with a radio but no registration: its frames are refused.
    p.net.add_node("ghost");
    let farm = p.farm_node();
    p.net.connect("ghost", farm, LinkSpec::cloud_backbone());
    p
}

/// One round of frames, sealed by `p`'s keystore: an irrigation cycle per
/// device, an impossible moisture value from probe-3, an impossible
/// battery reading from probe-6, an actuator takeover from probe-5 after
/// calibration, a replay of probe-2's previous frame, a frame from the
/// unregistered `ghost`, and a device registered late.
struct Fleet {
    ids: Vec<String>,
    nonces: Vec<NonceSequence>,
    vwc: Vec<f64>,
    previous: Option<(String, Vec<u8>)>,
}

impl Fleet {
    fn new() -> Self {
        let ids: Vec<String> = (0..DEVICES).map(|i| format!("probe-{i}")).collect();
        Fleet {
            nonces: (1..=ids.len() as u32).map(NonceSequence::new).collect(),
            vwc: (0..ids.len()).map(|i| 0.26 + 0.001 * i as f64).collect(),
            ids,
            previous: None,
        }
    }

    fn round(&mut self, p: &Platform, r: u64, at: SimTime) -> Vec<(String, Vec<u8>)> {
        let mut frames = Vec::new();
        for i in 0..self.ids.len() {
            let day = (0.25..0.75).contains(&at.day_fraction());
            let v = &mut self.vwc[i];
            if i == 5 && r >= 80 {
                *v = if *v >= 0.5 { 0.3 } else { *v + 0.045 };
            } else if day {
                *v -= 0.007;
                if *v < 0.17 {
                    *v += 0.09;
                }
            } else {
                *v -= 0.001;
            }
            let vwc = if i == 3 && r == BAD_VWC_ROUND {
                0.95
            } else {
                *v
            };
            let battery = match i {
                6 if r == BAD_BATTERY_ROUND => Some(1.7),
                _ => (i % 2 == 0).then_some(0.9 - 0.001 * r as f64),
            };
            let id = &self.ids[i];
            let entity = telemetry(id, r, vwc, battery);
            frames.push((id.clone(), seal(p, id, &mut self.nonces[i], &entity)));
        }
        if r == 10 {
            frames.extend(self.previous.take());
        }
        self.previous = Some(frames[2].clone());
        if r == 20 {
            let key = p.keystore.derive("ghost", KeyEpoch(0));
            let mut wire = String::new();
            telemetry("ghost", r, 0.3, None).write_compact(&mut wire);
            let nonce = NonceSequence::new(9_999).next_nonce();
            frames.push((
                "ghost".to_owned(),
                key.seal(&nonce, b"ghost", wire.as_bytes()),
            ));
        }
        frames
    }
}

fn counters(p: &Platform) -> BTreeMap<String, u64> {
    p.observe()
        .counters()
        .filter(|(name, _)| !name.starts_with("net."))
        .map(|(name, v)| (name.to_owned(), v))
        .collect()
}

#[test]
fn the_slot_path_and_the_by_name_path_leave_the_same_state() {
    let mut slotted = platform();
    let mut named = platform();
    let mut fleet = Fleet::new();
    let mut at = SimTime::from_secs(60);
    for r in 0..ROUNDS {
        if r == LATE_ROUND {
            for p in [&mut slotted, &mut named] {
                register(p, "late-0");
            }
            fleet.ids.push("late-0".to_owned());
            fleet.nonces.push(NonceSequence::new(500));
            fleet.vwc.push(0.3);
        }
        let frames = fleet.round(&slotted, r, at);
        let pumped_at = at + SimDuration::from_secs(5);

        // Over the radio, through the pump: admission hands the storage
        // stage each sender's slot.
        let farm = slotted.farm_node();
        for (id, frame) in &frames {
            let msg = Message::new(format!("telemetry/{id}"), frame.clone());
            slotted.net.send(at, id.as_str(), &farm, msg).unwrap();
        }
        slotted.pump(pumped_at);

        // By name: the same frames validated one by one, then ingested as
        // entities, which reach every table through its name index.
        let mut batch = Vec::new();
        for (id, frame) in &frames {
            if let Ok(entity) = named.validate_frame(pumped_at, id, frame) {
                batch.push(entity);
            }
        }
        named.pump(pumped_at);
        named.ingest_entities(pumped_at, batch);
        at += STEP;
    }
    for k in 1..=10 {
        let now = at + SimDuration::from_secs(10 * k);
        slotted.pump(now);
        named.pump(now);
    }

    let dump = |p: &mut Platform| match p.query(&QueryRequest::SeriesDump) {
        QueryResponse::Series(series) => series,
        other => panic!("a series dump answers series, not {other:?}"),
    };
    let history = dump(&mut slotted);
    assert_eq!(history, dump(&mut named));
    // Every device's two or three series, the late one's included.
    assert_eq!(history.len(), (DEVICES + 1) * 2 + DEVICES / 2 + 1);
    assert_eq!(slotted.behavior.flags(), named.behavior.flags());
    let disabled = |p: &Platform| -> Vec<String> {
        fleet
            .ids
            .iter()
            .filter(|id| !p.registry.get(id).unwrap().enabled)
            .cloned()
            .collect()
    };
    assert_eq!(disabled(&slotted), disabled(&named));
    assert_eq!(counters(&slotted), counters(&named));
    assert_eq!(
        slotted.cloud_replica().unwrap().record_count(),
        named.cloud_replica().unwrap().record_count()
    );

    // The run exercised what it compares.
    let flags = slotted.behavior.flags();
    assert_eq!(
        flags.get("urn:swamp:device:late-0").map(|f| f.kind),
        Some(FlagKind::Untrained)
    );
    assert_eq!(
        flags.get("urn:swamp:device:probe-5").map(|f| f.kind),
        Some(FlagKind::Anomalous)
    );
    // The two senders of an impossible value, and only they, are
    // quarantined on both sides: a hit that disabled another device's
    // row would show. Each impossible frame is refused (counted on
    // `ingest.quarantined`), and so is every later frame of theirs, beside
    // the ghost's one.
    assert_eq!(disabled(&slotted), ["probe-3", "probe-6"]);
    let cut_off = (ROUNDS - BAD_VWC_ROUND) + (ROUNDS - BAD_BATTERY_ROUND);
    let c = counters(&slotted);
    assert_eq!(c["ingest.quarantined"], 2);
    assert_eq!(c["security.alerts_raised"], 2);
    assert_eq!(c["ingest.rejected_replay"], 1);
    assert_eq!(c["ingest.rejected_unregistered"], 1 + cut_off - 2);
    assert_eq!(
        c["ingest.accepted"],
        DEVICES as u64 * ROUNDS + (ROUNDS - LATE_ROUND) - cut_off
    );
}

/// A device's frame sealed under `epoch`'s key.
fn sealed_under(
    p: &Platform,
    id: &str,
    epoch: u32,
    seq: u64,
    nonces: &mut NonceSequence,
) -> Vec<u8> {
    let key = p.keystore.derive(id, KeyEpoch(epoch));
    let mut wire = String::new();
    telemetry(id, seq, 0.25, None).write_compact(&mut wire);
    key.seal(&nonces.next_nonce(), id.as_bytes(), wire.as_bytes())
}

#[test]
fn a_warm_row_caches_no_key() {
    let mut p = platform();
    let mut nonces = NonceSequence::new(1);
    for id in ["probe-1", "probe-2"] {
        for seq in 0..3 {
            let frame = sealed_under(&p, id, 0, seq, &mut nonces);
            p.ingest_frame(SimTime::from_secs(seq), id, &frame).unwrap();
        }
    }

    // Revoked in the keystore: the very next frame is refused, and counted.
    p.keystore.revoke("probe-1");
    let frame = sealed_under(&p, "probe-1", 0, 3, &mut nonces);
    assert!(matches!(
        p.ingest_frame(SimTime::from_secs(3), "probe-1", &frame),
        Err(IngestError::AuthenticationFailed(_))
    ));
    assert_eq!(p.observe().counter("ingest.rejected_auth").unwrap(), 1);
    // The pump's path reads the keystore the same way: what the revoked
    // device publishes is refused too.
    let entity = telemetry("probe-1", 4, 0.25, None);
    p.device_publish(SimTime::from_secs(4), "probe-1", &entity)
        .unwrap();
    p.pump(SimTime::from_secs(10));
    assert_eq!(p.observe().counter("ingest.rejected_auth").unwrap(), 2);

    // Rotated: the old epoch's key opens nothing, the new one's does.
    assert_eq!(p.keystore.rotate("probe-2").unwrap(), KeyEpoch(1));
    let stale = sealed_under(&p, "probe-2", 0, 3, &mut nonces);
    assert!(matches!(
        p.ingest_frame(SimTime::from_secs(11), "probe-2", &stale),
        Err(IngestError::AuthenticationFailed(_))
    ));
    let fresh = sealed_under(&p, "probe-2", 1, 3, &mut nonces);
    p.ingest_frame(SimTime::from_secs(12), "probe-2", &fresh)
        .unwrap();
    // And the device side seals with the new epoch through the pump.
    let entity = telemetry("probe-2", 4, 0.25, None);
    p.device_publish(SimTime::from_secs(13), "probe-2", &entity)
        .unwrap();
    let before = p.observe().counter("ingest.accepted").unwrap();
    p.pump(SimTime::from_secs(20));
    assert_eq!(p.observe().counter("ingest.accepted").unwrap(), before + 1);
    assert_eq!(p.observe().counter("ingest.rejected_auth").unwrap(), 3);
}

#[test]
fn a_device_registered_late_starts_from_fresh_state() {
    let mut p = Platform::builder(DeploymentConfig::FarmFog)
        .seed(5)
        .uplink_spec(LinkSpec::cloud_backbone())
        .baseline(BaselineConfig::phased(
            SimTime::from_hours(1),
            SimTime::from_hours(2),
        ))
        .build();
    // A thousand frames from 100 devices, each of which reads an
    // impossible value in its first: every one of them is quarantined
    // there, that frame and its nine later frames refused.
    let mut nonces = NonceSequence::new(1);
    for i in 0..100 {
        register(&mut p, &format!("probe-{i}"));
    }
    for seq in 0..10u64 {
        for i in 0..100 {
            let id = format!("probe-{i}");
            let vwc = if seq == 0 { 0.99 } else { 0.25 };
            let key = p.keystore.device_key(&id).unwrap().key;
            let mut wire = String::new();
            telemetry(&id, seq, vwc, None).write_compact(&mut wire);
            let frame = key.seal(&nonces.next_nonce(), id.as_bytes(), wire.as_bytes());
            let admitted = p.ingest_frame(SimTime::from_secs(600 * seq), &id, &frame);
            match admitted {
                Err(IngestError::ImpossibleValue(_)) => assert_eq!(seq, 0, "{id}"),
                Err(IngestError::UnregisteredDevice(_)) => assert_ne!(seq, 0, "{id}"),
                other => panic!("{id} seq {seq}: {other:?}"),
            }
        }
    }
    let disabled = p.registry.iter().filter(|(_, row)| !row.enabled).count();
    assert_eq!(disabled, 100);
    let snap = p.observe();
    assert_eq!(snap.counter("ingest.accepted").unwrap(), 0);
    assert_eq!(snap.counter("ingest.quarantined").unwrap(), 100);
    assert_eq!(snap.counter("ingest.rejected_unregistered").unwrap(), 900);

    // Registered after the baseline's training horizon, the new device
    // reads as one the platform admits and the baseline never trained.
    register(&mut p, "late");
    for seq in 0..6u64 {
        let at = SimTime::from_hours(3) + SimDuration::from_mins(10 * seq);
        let key = p.keystore.device_key("late").unwrap().key;
        let mut wire = String::new();
        telemetry("late", seq, 0.25, None).write_compact(&mut wire);
        let frame = key.seal(&nonces.next_nonce(), b"late", wire.as_bytes());
        p.ingest_frame(at, "late", &frame).unwrap();
        assert!(p.registry.get("late").unwrap().enabled);
    }
    let flag = p.behavior.flags()["urn:swamp:device:late"];
    assert_eq!(flag.kind, FlagKind::Untrained);
    // Flagged on its fourth observation: its state started at its own
    // first frame.
    assert_eq!(flag.at, SimTime::from_hours(3) + SimDuration::from_mins(30));
    let QueryResponse::Samples(samples) = p.query(&QueryRequest::Range {
        entity: "urn:swamp:device:late".to_owned(),
        attr: "moisture_vwc".to_owned(),
        from: SimTime::ZERO,
        to: SimTime::from_hours(4),
    }) else {
        panic!("a range answers samples");
    };
    assert_eq!(samples.len(), 6);
}
