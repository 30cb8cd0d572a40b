//! Merge-barrier ordering proof.
//!
//! The worker count must be unobservable: whatever order the worker
//! threads *finish* a round in, the cross-shard aggregation pass runs only
//! after the barrier and always in shard-id order, so the aggregate
//! CloudStore's record stream and the labelled obs export are byte-identical
//! to a one-worker run. To make the proof sharp rather than lucky, the
//! test drives the wall-clock stagger seam
//! (`set_round_stagger_for_tests`): shard 0 is made the *slowest* worker
//! and shard N−1 the fastest, inverting the natural finish order — if the
//! merge depended on completion order at all, shard N−1's records would
//! jump the queue and the history comparison below would fail.
//!
//! Pumps and ingests share one fan-out, so the stagger skews both. An
//! ingest round is also checked on its own, before any pump: its returned
//! count and each shard's `ingest.accepted` right after it must equal the
//! serial schedule's, so a batch handed to the shard whose worker finished
//! first, rather than to the shard it was routed to, fails it.

use swamp_codec::ngsi::Entity;
use swamp_core::platform::{DeploymentConfig, Platform, PlatformBuilder};
use swamp_fog::sync::UpdateRecord;
use swamp_obs::ObsReport;
use swamp_sensors::device::DeviceKind;
use swamp_shard::ShardedPlatform;
use swamp_sim::{SimDuration, SimTime};

const SHARDS: usize = 8;
const DEVICES: usize = 64;

fn builder(seed: u64) -> PlatformBuilder {
    Platform::builder(DeploymentConfig::FarmFog)
        .seed(seed)
        .shards(SHARDS)
}

fn probe_update(i: usize, seq: f64) -> Entity {
    let mut e = Entity::new(format!("urn:swamp:device:probe-{i}"), "SoilProbe");
    e.set("moisture_vwc", 0.2 + (i % 10) as f64 * 0.01);
    e.set("seq", seq);
    e
}

/// The observable fingerprint of one run: the aggregate store's record
/// stream *in order*, the labelled export, and every round's returned
/// counts with each shard's `ingest.accepted` right after each ingest.
type Fingerprint = (Vec<UpdateRecord>, String, Vec<(usize, Vec<u64>)>);

/// Drives a fixed seeded workload — registrations, per-round publishes,
/// direct ingest batches — and returns its [`Fingerprint`].
fn run_workload(sp: &mut ShardedPlatform) -> Fingerprint {
    let t0 = SimTime::from_secs(1);
    for i in 0..DEVICES {
        sp.register_device(
            t0,
            &format!("probe-{i}"),
            DeviceKind::SoilProbe,
            "owner:par",
        )
        .expect("registration succeeds");
    }
    let mut now = t0;
    let mut rounds = Vec::new();
    for round in 0..12u64 {
        for i in 0..DEVICES {
            let _ = sp.device_publish(now, &format!("probe-{i}"), &probe_update(i, round as f64));
        }
        if round % 3 == 0 {
            let batch: Vec<Entity> = (0..DEVICES)
                .map(|i| probe_update(i, 1000.0 + round as f64))
                .collect();
            let applied = sp.ingest_entities(now, batch);
            let accepted = sp
                .shards()
                .map(|shard| shard.observe().counter("ingest.accepted").unwrap_or(0))
                .collect();
            rounds.push((applied, accepted));
        }
        now = now.saturating_add(SimDuration::from_secs(60));
        rounds.push((sp.pump(now), Vec::new()));
    }
    // Drain in-flight replication so the fingerprint covers every record.
    for _ in 0..20 {
        now = now.saturating_add(SimDuration::from_secs(60));
        rounds.push((sp.pump(now), Vec::new()));
    }
    let history = sp.aggregate_store().history().to_vec();
    let export = ObsReport::array_to_json_string(&sp.observe_labelled("par"));
    (history, export, rounds)
}

#[test]
fn skewed_parallel_rounds_merge_in_shard_id_order() {
    let mut serial = ShardedPlatform::build(&builder(42));
    assert_eq!(serial.workers(), 1);
    let (serial_history, serial_export, serial_rounds) = run_workload(&mut serial);
    assert!(
        !serial_history.is_empty(),
        "workload must replicate records to the aggregate store"
    );

    for workers in [2usize, 8] {
        let mut parallel = ShardedPlatform::build(&builder(42).workers(workers));
        // Invert the natural finish order: shard 0 sleeps longest, shard
        // N−1 not at all, so workers complete in reverse shard order.
        let stagger: Vec<u64> = (0..SHARDS).map(|i| ((SHARDS - 1 - i) * 5) as u64).collect();
        parallel.set_round_stagger_for_tests(stagger);
        let (par_history, par_export, par_rounds) = run_workload(&mut parallel);

        assert_eq!(
            par_rounds, serial_rounds,
            "{workers} workers: a round's counts or a shard's accepted ingest diverged"
        );
        assert_eq!(
            par_history.len(),
            serial_history.len(),
            "{workers} workers: aggregate record count diverged"
        );
        for (i, (s, p)) in serial_history.iter().zip(&par_history).enumerate() {
            assert_eq!(
                s, p,
                "{workers} workers: aggregate record {i} diverged from the serial schedule"
            );
        }
        assert_eq!(
            par_export, serial_export,
            "{workers} workers: labelled obs export diverged from the serial schedule"
        );
    }
}
