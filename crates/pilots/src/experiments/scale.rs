//! E14 — sharded multi-farm scale-out.
//!
//! The paper runs one platform per pilot; the ROADMAP's north star demands
//! scale-out. E14 partitions the deployment into per-farm shards
//! ([`swamp_shard::ShardedPlatform`]) and asks whether sharding is an
//! implementation detail: an N-shard run must produce the same merged
//! history, the same cloud-applied record set, the same summed
//! `ingest.*`/`sync.*`/`cloud.*`/`security.baseline.*` counters and the
//! same behavioral-baseline flag set as the 1-shard run of the same
//! workload. The full differential harness lives in
//! `crates/pilots/tests/shard_differential.rs`; the E14 table records the
//! equivalence verdict per cell. What sharding costs or buys in wall-clock
//! time is the reference benchmark's `fleet_sharded` workload
//! (`BENCHMARK.json`: `us_per_record_p50`, `shard.speedup_vs_wide`).
//!
//! The equivalence cells run a lossless datacenter uplink with a retry
//! timeout longer than the ack round trip, so every `sync.*` counter is
//! workload-determined (transmissions = enqueued, zero retransmissions,
//! zero duplicates) — any cross-shard-count difference is a real routing
//! or merge bug, never channel noise.

use std::collections::{BTreeMap, BTreeSet};

use swamp_codec::ngsi::Entity;
use swamp_core::platform::{DeploymentConfig, Platform, PlatformBuilder};
use swamp_core::query::{QueryRequest, QueryResponse};
use swamp_core::shard::route_device;
use swamp_net::link::LinkSpec;
use swamp_shard::ShardedPlatform;
use swamp_sim::{SimDuration, SimRng, SimTime};

use crate::report::{fmt_f, Report};

/// Canonical deterministic fingerprint of one sharded run: everything the
/// differential property quantifies over.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunFingerprint {
    /// Merged history: (entity, attr) → time-sorted samples, with the
    /// value bit pattern (histories of disjoint shards merge by key).
    pub history: BTreeMap<(String, String), Vec<(u64, u64)>>,
    /// Aggregate-store record set: (key, created_at ms, payload).
    pub records: BTreeSet<(String, u64, Vec<u8>)>,
    /// Summed `ingest.*`/`sync.*`/`cloud.*`/`security.baseline.*`
    /// counters from the merged tier snapshot.
    pub counters: BTreeMap<String, u64>,
    /// Behavioral-baseline verdicts: the union of per-shard flags as
    /// (device, flag kind, flag time ms). Devices are disjoint across
    /// shards and the bank's state is per-device, so the set must not
    /// depend on the shard or worker count (E14 runs a passive bank,
    /// so here the set is empty — the phased-detector equivalence runs
    /// in `crates/pilots/tests/detector_differential.rs`).
    pub flags: BTreeSet<(String, String, u64)>,
}

/// Builds the E14 platform configuration: a farm-fog deployment on a
/// lossless datacenter uplink whose retry timeout exceeds the ack round
/// trip (pump cadence is 60 s), so replication counters are
/// workload-determined.
pub fn e14_builder(seed: u64, shards: usize) -> PlatformBuilder {
    Platform::builder(DeploymentConfig::FarmFog)
        .seed(seed)
        .shards(shards)
        .uplink_spec(LinkSpec::cloud_backbone())
        .sync_base_timeout(SimDuration::from_secs(300))
        .sync_jitter(0.0)
}

/// Drives one seeded workload — `devices` probes publishing `rounds`
/// batches of soil telemetry — through an N-shard platform on `workers`
/// worker threads, pumps until replication settles, and returns the run's
/// [`RunFingerprint`] plus the platform for further inspection. The
/// fingerprint must not depend on `workers` — that is the parallel half of
/// the differential property (`crates/pilots/tests/shard_differential.rs`
/// quantifies over worker counts {1, 2, 8}).
pub fn e14_run_cell(
    seed: u64,
    shards: usize,
    devices: usize,
    rounds: usize,
    workers: usize,
) -> (RunFingerprint, ShardedPlatform) {
    let mut sp = ShardedPlatform::build(&e14_builder(seed, shards).workers(workers));
    let mut rng = SimRng::seed_from(seed).split("e14-workload");
    crate::driver::run_rounds(
        &mut sp,
        SimTime::from_secs(60),
        SimDuration::from_secs(60),
        SimDuration::ZERO,
        rounds as u64,
        |sp, round, t| {
            let batch: Vec<Entity> = (0..devices)
                .map(|i| {
                    let mut e = Entity::new(format!("urn:swamp:device:probe-{i}"), "SoilProbe");
                    e.set("moisture_vwc", 0.15 + rng.uniform_f64() * 0.2);
                    e.set("seq", round as f64);
                    e
                })
                .collect();
            sp.ingest_entities(t, batch);
        },
        |_, _, _| {},
    );
    // Drain the replication backlog (window-limited); every pump ends
    // with an aggregation pass, so the aggregate store is current. The
    // pump that fills it leaves that round's acks in flight: one more
    // round brings them home, so the fingerprint's `sync.*` counters are
    // settled rather than cut mid-handshake at a shard-count-dependent
    // point.
    let expected = (devices * rounds) as u64;
    let last_round = SimTime::ZERO + SimDuration::from_secs(60) * rounds as u64;
    let (now, _) = crate::driver::run_until(
        &mut sp,
        last_round,
        SimDuration::from_secs(60),
        10_000,
        |sp| sp.aggregate_store().record_count() as u64 >= expected,
    );
    sp.pump(now.saturating_add(SimDuration::from_secs(60)));
    (fingerprint(&mut sp), sp)
}

/// Extracts the deterministic fingerprint of a settled run. Takes the
/// platform mutably because the history read goes through the typed
/// query surface ([`swamp_core::drive::Drive::query`] — instrumented,
/// and the sharded implementation fans out/merges in shard-id order).
pub fn fingerprint(sp: &mut ShardedPlatform) -> RunFingerprint {
    let mut history: BTreeMap<(String, String), Vec<(u64, u64)>> = BTreeMap::new();
    if let QueryResponse::Series(entries) = sp.query(&QueryRequest::SeriesDump) {
        for entry in entries {
            // Devices are disjoint across shards, but two shards may
            // intern the same (entity, attr) only if routing broke — the
            // entry().extend merges such keys and the per-key sample
            // equality catches the breakage.
            history
                .entry((entry.entity, entry.attr))
                .or_default()
                .extend(
                    entry
                        .samples
                        .iter()
                        .map(|s| (s.at.as_millis(), s.value.to_bits())),
                );
        }
    }
    for samples in history.values_mut() {
        samples.sort_unstable();
    }
    let records: BTreeSet<(String, u64, Vec<u8>)> = sp
        .aggregate_store()
        .history()
        .iter()
        .map(|r| (r.key.clone(), r.created_at.as_millis(), r.payload.clone()))
        .collect();
    let snap = sp.observe();
    let counters: BTreeMap<String, u64> = snap
        .counters()
        .filter(|(name, _)| {
            name.starts_with("ingest.")
                || name.starts_with("sync.")
                || name.starts_with("cloud.")
                || name.starts_with("security.baseline.")
        })
        .map(|(name, v)| (name.to_owned(), v))
        .collect();
    let flags: BTreeSet<(String, String, u64)> = sp
        .shards()
        .flat_map(|p| {
            p.behavior.flags().iter().map(|(device, flag)| {
                (
                    device.clone(),
                    flag.kind.as_str().to_owned(),
                    flag.at.as_millis(),
                )
            })
        })
        .collect();
    RunFingerprint {
        history,
        records,
        counters,
        flags,
    }
}

/// One cell of the E14 equivalence table.
#[derive(Clone, Debug)]
pub struct E14Row {
    /// Shard count.
    pub shards: usize,
    /// Worker threads driving the shard set.
    pub workers: usize,
    /// Fleet size.
    pub devices: usize,
    /// Updates ingested.
    pub updates: u64,
    /// Records applied by the aggregate cloud store.
    pub agg_records: u64,
    /// Max/min devices per shard (1.0 when perfectly balanced; ∞ guarded
    /// by the balance property test, reported here for the table).
    pub balance: f64,
    /// Whether this cell's fingerprint equals the 1-shard baseline's.
    pub matches_single_shard: bool,
}

/// E14 results.
#[derive(Clone, Debug)]
pub struct E14Result {
    /// One row per shard count.
    pub rows: Vec<E14Row>,
}

impl E14Result {
    /// The equivalence table.
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "E14: sharded scale-out — N-shard/W-worker vs serial 1-shard equivalence (lossless uplink, 60 s pumps)",
            &[
                "shards",
                "workers",
                "devices",
                "updates",
                "agg_records",
                "balance_max_min",
                "matches_1shard",
            ],
        );
        for row in &self.rows {
            r.push_row(vec![
                row.shards.to_string(),
                row.workers.to_string(),
                row.devices.to_string(),
                row.updates.to_string(),
                row.agg_records.to_string(),
                fmt_f(row.balance, 2),
                row.matches_single_shard.to_string(),
            ]);
        }
        r
    }
}

/// Runs E14: a 240-device, 5-round workload replayed
/// across shard counts {1, 4, 16} *and* worker-thread counts — the serial
/// schedule plus genuinely parallel rounds at 2 and 8 workers. Every
/// (shards, workers) fingerprint must equal the serial 1-shard baseline:
/// sharding is an implementation detail, and so is the thread count that
/// drives the shards.
pub fn e14_shard_scale(seed: u64) -> E14Result {
    let devices = 240;
    let rounds = 5;
    let (baseline, _) = e14_run_cell(seed, 1, devices, rounds, 1);
    let mut rows = Vec::new();
    for (shards, workers) in [(1usize, 1usize), (4, 1), (4, 2), (16, 1), (16, 8)] {
        let (fp, sp) = e14_run_cell(seed, shards, devices, rounds, workers);
        let mut per_shard = vec![0u64; shards];
        for i in 0..devices {
            per_shard[route_device(&format!("probe-{i}"), shards)] += 1;
        }
        let max = *per_shard.iter().max().unwrap_or(&0) as f64;
        let min = *per_shard.iter().min().unwrap_or(&0) as f64;
        rows.push(E14Row {
            shards,
            workers,
            devices,
            updates: (devices * rounds) as u64,
            agg_records: sp.aggregate_store().record_count() as u64,
            balance: if min > 0.0 { max / min } else { f64::INFINITY },
            matches_single_shard: fp == baseline,
        });
    }
    E14Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e14_equivalence_holds_at_test_scale() {
        let r = e14_shard_scale(42);
        assert_eq!(r.rows.len(), 5);
        for row in &r.rows {
            assert!(
                row.matches_single_shard,
                "{} shards / {} workers: fingerprint diverged from serial 1-shard baseline",
                row.shards, row.workers
            );
            assert_eq!(row.agg_records, row.updates);
            assert!(row.balance.is_finite());
        }
        assert!(
            r.rows.iter().any(|row| row.workers > 1),
            "the table must cover genuinely parallel schedules"
        );
        let table = r.report().to_string();
        assert!(table.contains("matches_1shard"));
        assert!(table.contains("workers"));
    }
}
