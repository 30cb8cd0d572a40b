//! A compiled workload driven through the sealed path, as its devices
//! would send it: each device registered, each record sealed and
//! published with a per-device `seq`, and the platform pumped a minute
//! into each round, at the next round's start and for five hours after
//! the last.

use swamp::codec::ngsi::Entity;
use swamp::core::platform::Platform;
use swamp::sensors::device::DeviceKind;
use swamp::sim::{SimDuration, SimTime};
use swamp_workload::{CompiledWorkload, LabeledRecord};

/// Registers `workload`'s devices on `p` and publishes every record,
/// after `tamper` has had the chance to rewrite its entity. Returns the
/// device ids, in fleet order.
pub fn publish_sealed(
    p: &mut Platform,
    workload: &CompiledWorkload,
    mut tamper: impl FnMut(&LabeledRecord, &mut Entity),
) -> Vec<String> {
    let ids: Vec<String> = workload
        .devices
        .iter()
        .map(|urn| urn.trim_start_matches("urn:swamp:device:").to_owned())
        .collect();
    for id in &ids {
        p.register_device(SimTime::ZERO, id, DeviceKind::SoilProbe, "owner:farm")
            .unwrap();
    }
    let mut seqs = vec![0u64; ids.len()];
    let mut at = SimTime::ZERO;
    for batch in &workload.batches {
        at = batch.at;
        p.pump(at);
        for record in &batch.records {
            let i = workload
                .devices
                .iter()
                .position(|d| *d == record.device)
                .unwrap();
            let mut entity = record.entity.clone();
            entity.set("seq", seqs[i] as f64);
            seqs[i] += 1;
            tamper(record, &mut entity);
            p.device_publish(at, &ids[i], &entity).unwrap();
        }
        p.pump(at + SimDuration::from_secs(60));
    }
    for k in 1..=10 {
        p.pump(at + SimDuration::from_mins(30 * k));
    }
    ids
}
