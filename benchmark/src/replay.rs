//! Per-layer cost by replay. `Platform::pump` is opaque from outside, so
//! the layers inside it are measured on standalone instances fed the
//! same generated inputs through public functions only: each layer's
//! busy time is the wall time of the calls into it, and its `*_us`
//! metric is that busy time divided by the records that went through.

use std::collections::BTreeMap;
use std::time::Instant;

use swamp_codec::json::Json;
use swamp_codec::ngsi::Entity;
use swamp_core::broker::{ContextBroker, SubscriptionFilter};
use swamp_core::history::HistoryStore;
use swamp_core::platform::nodes;
use swamp_crypto::aead::NonceSequence;
use swamp_fog::sync::{CloudStore, FogSync};
use swamp_net::link::LinkSpec;
use swamp_net::message::{Message, NodeId};
use swamp_net::network::Network;
use swamp_security::baseline::BehaviorBank;
use swamp_security::detect::RangeValidator;
use swamp_security::pipeline::DetectorBank;
use swamp_sensors::device::DeviceKind;
use swamp_sim::{SimDuration, SimTime};
use swamp_views::ViewIndexer;

use crate::deploy::Deployment;
use crate::inputs::{self, Inputs, Kind, Workload, SYNC_BATCH};

/// Busy time of one layer and the records that went through it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Busy {
    pub ns: u64,
    pub records: u64,
}

impl Busy {
    pub fn us_per_record(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.ns as f64 / 1e3 / self.records as f64
        }
    }

    fn time<T>(&mut self, records: u64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = std::hint::black_box(f());
        self.ns += t0.elapsed().as_nanos() as u64;
        self.records += records;
        out
    }
}

/// Busy time per layer, keyed by the layer's `*_us` metric name, and the
/// counts the replays produce on the way.
#[derive(Default)]
pub struct LayerCosts {
    pub busy: BTreeMap<&'static str, Busy>,
    pub frame_bytes: f64,
}

impl LayerCosts {
    fn layer(&mut self, name: &'static str) -> &mut Busy {
        self.busy.entry(name).or_default()
    }

    /// Busy time of the layers that partition a round: nested layers
    /// (`crypto.open` inside `core.validate`, `core.history_append`
    /// inside `core.ingest`, ...) are left out so nothing counts twice.
    /// `codec.write` is the device-side serialisation and counts only
    /// where devices publish.
    pub fn top_level_ns(&self, over_radio: bool) -> u64 {
        let mut names = vec![
            "core.ingest_us",
            "fog.sync_round_us",
            "fog.cloud_apply_us",
            "fog.ack_us",
            "shard.aggregate_us",
        ];
        if over_radio {
            names.extend([
                "crypto.seal_us",
                "codec.write_us",
                "net.send_us",
                "net.deliver_us",
                "core.validate_us",
            ]);
        }
        names
            .iter()
            .filter_map(|n| self.busy.get(n))
            .map(|b| b.ns)
            .sum()
    }
}

fn compact(e: &Entity) -> String {
    e.to_json().to_compact_string()
}

/// Replays every layer of workload `w` over freshly generated inputs.
pub fn replay(w: &Workload, seed: u64) -> LayerCosts {
    let mut costs = LayerCosts::default();
    let over_radio = w.kind == Kind::SealedSteady;
    codec_and_storage(&inputs::generate(w, seed), over_radio, &mut costs);
    platform_path(w, inputs::generate(w, seed), &mut costs);
    fog(inputs::generate(w, seed), &mut costs);
    costs
}

/// Serialisation, parsing, the history store, the broker and the two
/// detector banks, each on a fresh instance.
fn codec_and_storage(inputs: &Inputs, over_radio: bool, costs: &mut LayerCosts) {
    // A built platform is the one place the builder's layer settings
    // can be read back from.
    let configured = inputs.builder.clone().build();
    let mut history = HistoryStore::new();
    history.set_segment_threshold(configured.history.segment_threshold());
    let mut broker = ContextBroker::new();
    let sub = over_radio.then(|| broker.subscribe(SubscriptionFilter::for_type("SoilProbe")));
    let mut detectors = DetectorBank::new();
    detectors.configure_quantity("moisture_vwc", RangeValidator::soil_moisture());
    detectors.configure_quantity("battery_fraction", RangeValidator::new(0.0, 1.0));
    let mut baseline = BehaviorBank::new(configured.behavior.config().clone());
    let mut drained = Vec::new();

    for round in &inputs.rounds {
        let n = round.entities.len() as u64;
        let texts: Vec<String> = costs
            .layer("codec.write_us")
            .time(n, || round.entities.iter().map(compact).collect());
        costs.layer("codec.parse_us").time(n, || {
            for text in &texts {
                let json = Json::parse(text).expect("serialised by the codec itself");
                std::hint::black_box(Entity::from_json(&json).expect("an entity round-trips"));
            }
        });
        costs.layer("core.history_append_us").time(n, || {
            for e in &round.entities {
                for (name, attr) in e.attributes() {
                    if let Some(v) = attr.value.as_number() {
                        let at = attr.observed_at_ms.map_or(round.at, SimTime::from_millis);
                        history.append(e.id().as_str(), name, at, v);
                    }
                }
            }
        });
        if over_radio {
            costs.layer("security.detectors_us").time(n, || {
                for e in &round.entities {
                    let device = e.id().as_str().trim_start_matches("urn:swamp:device:");
                    for (name, attr) in e.attributes() {
                        if let (false, Some(v)) = (name == "seq", attr.value.as_number()) {
                            detectors.observe_value(round.at, device, name, v);
                        }
                    }
                }
            });
        }
        costs.layer("security.baseline_us").time(n, || {
            for e in &round.entities {
                if let Some(attr) = e.attribute(baseline.signal_attr()) {
                    if let Some(v) = attr.value.as_number() {
                        let at = attr.observed_at_ms.map_or(round.at, SimTime::from_millis);
                        baseline.ingest(at, e.id().as_str(), v);
                    }
                }
            }
        });
        let batch = round.entities.clone();
        costs
            .layer("core.broker_upsert_us")
            .time(n, || broker.upsert_batch(round.at, batch));
        if let Some(sub) = sub {
            let _ = broker.drain_notifications_into(sub, &mut drained);
            drained.clear();
        }
    }
}

/// The platform's own entry points on a second deployment: seal and
/// radio for the sealed path, `validate_frame` + `ingest_entities` frame
/// by frame, `Drive::ingest` batch by batch elsewhere; on the sharded
/// tier the round's pump is split into its per-shard pumps and the
/// aggregation pass.
fn platform_path(w: &Workload, mut inputs: Inputs, costs: &mut LayerCosts) {
    // Never pumped to completion between rounds on the sealed path, so
    // the buffer must hold the run rather than start dropping.
    let builder = inputs
        .builder
        .clone()
        .sync_capacity(inputs.offered() as usize + 1);
    let mut dep = Deployment::build(&builder);

    if w.kind == Kind::SealedSteady {
        let p = dep.one_mut();
        let farm: NodeId = nodes::FOG.into();
        let mut radio = Network::new(builder.configured_seed());
        radio.add_node(farm.clone());
        let mut nonces = Vec::new();
        for (i, id) in inputs.device_ids.iter().enumerate() {
            p.register_device(SimTime::ZERO, id, DeviceKind::SoilProbe, "owner:bench")
                .expect("generated device ids are unique");
            radio.add_node(id.as_str());
            radio.connect(id.as_str(), farm.clone(), LinkSpec::lpwan_field());
            nonces.push(NonceSequence::new(i as u32 + 1));
        }
        let mut frame_bytes = 0u64;
        let mut frames_total = 0u64;
        for round in &inputs.rounds {
            let n = round.entities.len() as u64;
            let texts: Vec<String> = round.entities.iter().map(compact).collect();
            // As `device_publish` and `validate_frame` do, the device's key
            // is looked up in the keystore for every frame.
            let frames: Vec<Vec<u8>> = costs.layer("crypto.seal_us").time(n, || {
                texts
                    .iter()
                    .zip(nonces.iter_mut().zip(&inputs.device_ids))
                    .map(|(text, (nonce, id))| {
                        let key = p.keystore.device_key(id).expect("provisioned above").key;
                        key.seal(&nonce.next_nonce(), id.as_bytes(), text.as_bytes())
                    })
                    .collect()
            });
            frame_bytes += frames.iter().map(|f| f.len() as u64).sum::<u64>();
            frames_total += n;
            costs.layer("crypto.open_us").time(n, || {
                for (frame, id) in frames.iter().zip(&inputs.device_ids) {
                    let key = p.keystore.device_key(id).expect("provisioned above").key;
                    std::hint::black_box(key.open(id.as_bytes(), frame).expect("sealed above"));
                }
            });
            costs.layer("net.send_us").time(n, || {
                for (frame, id) in frames.iter().zip(&inputs.device_ids) {
                    let msg = Message::new(format!("telemetry/{id}"), frame.clone());
                    radio
                        .send(round.at, id.as_str(), farm.clone(), msg)
                        .expect("connected above");
                }
            });
            let delivered = costs.layer("net.deliver_us").time(0, || {
                radio.advance_to(round.at + SimDuration::from_secs(5));
                radio.drain(&farm).len() as u64
            });
            costs.layer("net.deliver_us").records += delivered;
            let mut validated = Vec::with_capacity(frames.len());
            costs.layer("core.validate_us").time(n, || {
                for (frame, id) in frames.iter().zip(&inputs.device_ids) {
                    validated.push(
                        p.validate_frame(round.at, id, frame)
                            .expect("fresh sequence numbers from a registered device"),
                    );
                }
            });
            costs.layer("core.ingest_us").time(n, || {
                for entity in validated {
                    p.ingest_entities(round.at, std::iter::once(entity));
                }
            });
        }
        costs.frame_bytes = frame_bytes as f64 / frames_total.max(1) as f64;
        return;
    }

    let mut now = SimTime::ZERO;
    let mut accepted_total = 0u64;
    for round in &mut inputs.rounds {
        now = now.max(round.at);
        let entities = std::mem::take(&mut round.entities);
        let n = entities.len() as u64;
        accepted_total += costs
            .layer("core.ingest_us")
            .time(n, || dep.drive().ingest(now, entities)) as u64;
        // Drain between rounds as the measured run does. On the sharded
        // tier the pump is taken apart: each shard's own pump, serially,
        // then the cross-shard aggregation pass.
        for _ in 0..round.plan.max_pumps() {
            now += SimDuration::from_millis(round.plan.spacing_ms());
            match &mut dep {
                Deployment::One(p) => {
                    p.pump(now);
                }
                Deployment::Sharded(sp) => {
                    let before = sp.aggregate_store().record_count() as u64;
                    costs.layer("shard.pump_us").time(0, || {
                        for i in 0..sp.shard_count() {
                            sp.shard_mut(i).expect("index below shard_count").pump(now);
                        }
                    });
                    costs
                        .layer("shard.aggregate_us")
                        .time(0, || sp.aggregate(now));
                    let moved = sp.aggregate_store().record_count() as u64 - before;
                    costs.layer("shard.pump_us").records += moved;
                    costs.layer("shard.aggregate_us").records += moved;
                }
            }
            if dep.cloud().record_count() as u64 == accepted_total
                && round.plan.stops_when_complete()
            {
                break;
            }
        }
    }
}

/// The replication engine on its own, in the shape of `bench_sync`: a
/// `FogSync` and a `CloudStore` over a bare network with the workload's
/// uplink and faults, driven at the workload's pump cadence. Applying at
/// the cloud includes what `Platform::pump` does with applied records:
/// parse them back and upsert the cloud-side context mirror. The views
/// then catch up over the replica's applied run.
fn fog(mut inputs: Inputs, costs: &mut LayerCosts) {
    // A built platform's fabric carries exactly the uplink, fault plan
    // and partitions of the workload.
    let mut p = inputs.builder.clone().build();
    let fog_node: NodeId = nodes::FOG.into();
    // The retry timer of the workload's builder: its lossless override,
    // or the platform default (backoff, window and capacity defaults are
    // the engine's own).
    let (timeout_s, jitter) = if inputs.lossless {
        (300, 0.0)
    } else {
        (60, 0.1)
    };
    let mut engine = FogSync::builder(fog_node, nodes::CLOUD)
        .base_timeout(SimDuration::from_secs(timeout_s))
        .jitter(jitter)
        .seed(inputs.builder.configured_seed())
        .build();
    let mut cloud = CloudStore::new(nodes::CLOUD);
    let mut mirror = ContextBroker::new();
    let net = &mut p.net;

    let mut now = SimTime::ZERO;
    let mut enqueued = 0u64;
    for round in &mut inputs.rounds {
        now = now.max(round.at);
        let entities = std::mem::take(&mut round.entities);
        let n = entities.len() as u64;
        let payloads: Vec<Vec<u8>> = entities.iter().map(|e| compact(e).into_bytes()).collect();
        let items = entities.iter().map(|e| e.id().as_str()).zip(payloads);
        enqueued += costs
            .layer("fog.enqueue_us")
            .time(n, || engine.enqueue_batch(now, items))
            .expect("entity ids are far below the key-length limit") as u64;
        for _ in 0..round.plan.max_pumps() {
            now += SimDuration::from_millis(round.plan.spacing_ms());
            net.advance_to(now);
            let acked = costs
                .layer("fog.ack_us")
                .time(0, || engine.poll_acks(net, now).released as u64);
            costs.layer("fog.ack_us").records += acked;
            let sent = costs
                .layer("fog.sync_round_us")
                .time(0, || engine.sync_round(net, now, SYNC_BATCH) as u64);
            costs.layer("fog.sync_round_us").records += sent;
            net.advance_to(now);
            let applied = costs.layer("fog.cloud_apply_us").time(0, || {
                let applied = cloud.process(net, now) as u64;
                let replicated = cloud.drain_new().iter().filter_map(|r| {
                    let text = std::str::from_utf8(&r.payload).ok()?;
                    Entity::from_json(&Json::parse(text).ok()?).ok()
                });
                mirror.upsert_batch(now, replicated);
                applied
            });
            costs.layer("fog.cloud_apply_us").records += applied;
            if cloud.record_count() as u64 == enqueued && round.plan.stops_when_complete() {
                break;
            }
        }
    }
    let mut views = ViewIndexer::new();
    let n = cloud.history().len() as u64;
    costs
        .layer("views.catch_up_us")
        .time(n, || views.catch_up(cloud.history()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::WORKLOADS;
    use crate::report::PER_LAYER;

    /// Every replayed layer is a listed per-layer metric, and the layers a
    /// workload does not use stay empty.
    #[test]
    fn replayed_layers_are_listed_metrics() {
        for w in &WORKLOADS {
            let small = Workload {
                devices: 200,
                rounds: if w.kind == Kind::StormLossy { 48 } else { 2 },
                ..*w
            };
            let costs = replay(&small, 3);
            for (name, busy) in &costs.busy {
                assert!(PER_LAYER.iter().any(|(n, _)| n == name), "{name}");
                assert!(busy.records > 0, "{} {name}", w.name);
            }
            let sealed = w.kind == Kind::SealedSteady;
            assert_eq!(costs.busy.contains_key("crypto.seal_us"), sealed);
            assert_eq!(costs.busy.contains_key("net.send_us"), sealed);
            assert_eq!(
                costs.busy.contains_key("shard.aggregate_us"),
                w.kind == Kind::FleetSharded
            );
            assert!(costs.top_level_ns(sealed) > 0);
        }
    }
}
