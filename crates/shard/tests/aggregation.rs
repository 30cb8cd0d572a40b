//! The aggregate store is current after every pump.
//!
//! Cross-shard aggregation is an in-process append, so there is no transit
//! to wait out: the moment `pump` returns — no `flush_aggregation` — the
//! aggregate `CloudStore` holds exactly what the shard replicas have
//! applied, pass by pass, each pass in shard-id order and each shard's
//! share in that replica's own apply order. The uplink here is the
//! default lossy, jittered one, so records land over many passes and the
//! shards fall out of step with each other: a merge that lagged a pass
//! behind, or visited shards in any other order, would interleave
//! differently.

use swamp_codec::ngsi::Entity;
use swamp_core::platform::{DeploymentConfig, Platform};
use swamp_fog::sync::UpdateRecord;
use swamp_shard::ShardedPlatform;
use swamp_sim::{SimDuration, SimTime};

const SHARDS: usize = 4;
const DEVICES: usize = 48;

fn probe_update(i: usize, round: u64) -> Entity {
    let mut e = Entity::new(format!("urn:swamp:device:probe-{i}"), "SoilProbe");
    e.set("moisture_vwc", 0.2 + (i % 10) as f64 * 0.01);
    e.set("seq", round as f64);
    e
}

#[test]
fn aggregate_follows_every_pump_in_shard_id_order() {
    let mut sp = ShardedPlatform::build(
        &Platform::builder(DeploymentConfig::FarmFog)
            .seed(42)
            .shards(SHARDS),
    );
    let mut expected: Vec<UpdateRecord> = Vec::new();
    let mut seen = [0usize; SHARDS];
    let mut busy_passes = 0;
    let mut now = SimTime::from_secs(1);
    for round in 0..40u64 {
        if round < 8 {
            sp.ingest_entities(now, (0..DEVICES).map(|i| probe_update(i, round)));
        }
        now = now.saturating_add(SimDuration::from_secs(60));
        sp.pump(now);

        let mut shards_with_news = 0;
        for (i, shard) in sp.shards().enumerate() {
            let applied = shard.cloud_replica().expect("fog shard").history();
            expected.extend_from_slice(&applied[seen[i]..]);
            shards_with_news += usize::from(applied.len() > seen[i]);
            seen[i] = applied.len();
        }
        busy_passes += usize::from(shards_with_news > 1);

        assert_eq!(
            sp.aggregate_store().record_count(),
            seen.iter().sum::<usize>(),
            "pump {round}: aggregate count must equal the shard replicas' total"
        );
        // `assert!`, not `assert_eq!`: a mismatch would dump both record
        // runs, payload bytes and all.
        assert!(
            sp.aggregate_store().history() == expected,
            "pump {round}: aggregate history must be the pass-by-pass, shard-id-ordered concatenation"
        );
    }
    assert_eq!(expected.len(), 8 * DEVICES, "the workload fully replicates");
    assert!(
        busy_passes >= 8,
        "the order assertion only bites when several shards apply in one pass ({busy_passes})"
    );
}
