//! Differential determinism harness for the sharded scale-out tier
//! (ISSUE 5 tentpole proof, extended by ISSUE 7 with the parallel
//! scheduler): an N-shard platform must be an implementation detail —
//! and so must the number of worker threads driving it. For the same
//! seeded workload at shards ∈ {1, 3, 8} × workers ∈ {1, 2, 8} we
//! require:
//!
//! 1. identical merged history contents,
//! 2. identical cloud-applied record sets (key, timestamp, payload),
//! 3. identical summed `ingest.*` / `sync.*` / `cloud.*` counters,
//!
//! and, independently, that two runs of the same seed are byte-identical
//! down to the labelled observability export — serial and parallel
//! schedules included.
//!
//! The workload runs on the E14 lossless configuration (datacenter
//! uplink, retry timeout above the ack round trip), so replication
//! counters are workload-determined: any divergence is a routing or
//! merge bug, never channel noise. Every test runs at both [`SEEDS`].

use std::collections::BTreeMap;

use swamp_codec::ngsi::Entity;
use swamp_obs::ObsReport;
use swamp_pilots::driver::{run_rounds, run_until};
use swamp_pilots::experiments::scale::{e14_builder, e14_run_cell, RunFingerprint};
use swamp_shard::ShardedPlatform;
use swamp_sim::{SimDuration, SimRng, SimTime};

const SHARD_COUNTS: [usize; 3] = [1, 3, 8];
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];

/// Equivalence must hold as a property of the seed family, not of one
/// lucky constant.
const SEEDS: [u64; 2] = [42, 1337];

#[test]
fn n_shard_equals_single_shard_at_every_worker_count() {
    for seed in SEEDS {
        let devices = 300;
        let rounds = 6;
        let (baseline, base_sp) = e14_run_cell(seed, 1, devices, rounds, 1);
        // The workload must actually exercise the pipeline.
        assert_eq!(
            baseline.records.len(),
            devices * rounds,
            "baseline run must fully replicate"
        );
        assert!(!baseline.history.is_empty());
        assert!(baseline.counters.contains_key("ingest.accepted"));
        assert_eq!(base_sp.shard_count(), 1);

        for shards in SHARD_COUNTS {
            for workers in WORKER_COUNTS {
                let (fp, sp) = e14_run_cell(seed, shards, devices, rounds, workers);
                assert_eq!(sp.shard_count(), shards);
                assert_eq!(
                    fp.history, baseline.history,
                    "seed {seed}: merged history diverged at {shards} shards / {workers} workers"
                );
                assert_eq!(
                    fp.records, baseline.records,
                    "seed {seed}: cloud-applied record set diverged at {shards} shards / {workers} workers"
                );
                assert_eq!(
                    fp.counters, baseline.counters,
                    "seed {seed}: summed ingest./sync./cloud. counters diverged at {shards} shards / {workers} workers"
                );
            }
        }
    }
}

#[test]
fn cloud_dedup_is_workload_determined() {
    // On the lossless differential configuration nothing is ever lost or
    // retransmitted, so the dedup stats are fully determined by the
    // workload — identical at every shard count, with zero duplicates.
    for seed in SEEDS {
        let devices = 120;
        let rounds = 4;
        let mut stats: Vec<(usize, BTreeMap<String, u64>)> = Vec::new();
        for shards in SHARD_COUNTS {
            let (fp, _) = e14_run_cell(seed, shards, devices, rounds, 1);
            let dedup: BTreeMap<String, u64> = fp
                .counters
                .iter()
                .filter(|(name, _)| name.starts_with("cloud.") || name.starts_with("sync."))
                .map(|(name, v)| (name.clone(), *v))
                .collect();
            stats.push((shards, dedup));
        }
        // Each update is applied once by its shard's cloud replica and once
        // by the cross-shard aggregate store, and the merged snapshot sums
        // both tiers' `cloud.accepted`.
        let expected = 2 * (devices * rounds) as u64;
        for (shards, dedup) in &stats {
            assert_eq!(
                dedup.get("cloud.accepted"),
                Some(&expected),
                "{shards} shards: every update applied exactly once per tier"
            );
            assert_eq!(
                dedup.get("cloud.duplicates").copied().unwrap_or(0),
                0,
                "{shards} shards: lossless run must see no duplicates"
            );
            assert_eq!(
                dedup.get("sync.retransmissions").copied().unwrap_or(0),
                0,
                "{shards} shards: lossless run must not retransmit"
            );
            assert_eq!(
                dedup, &stats[0].1,
                "{shards} shards: dedup stats diverged from 1-shard baseline"
            );
        }
    }
}

/// Replays the full labelled-export path for one seed and returns the
/// byte-exact observability document, driving the deployment through the
/// shared driver on `workers` threads.
fn labelled_export(seed: u64, workers: usize) -> String {
    let mut sp = ShardedPlatform::build(&e14_builder(seed, 3).workers(workers));
    let mut rng = SimRng::seed_from(seed).split("diff-export");
    run_rounds(
        &mut sp,
        SimTime::from_secs(60),
        SimDuration::from_secs(60),
        SimDuration::ZERO,
        5,
        |sp, round, t| {
            let batch: Vec<Entity> = (0..64)
                .map(|i| {
                    let mut e = Entity::new(format!("urn:swamp:device:probe-{i}"), "SoilProbe");
                    e.set("moisture_vwc", rng.uniform_f64());
                    e.set("seq", round as f64);
                    e
                })
                .collect();
            sp.ingest_entities(t, batch);
        },
        |_, _, _| {},
    );
    run_until(
        &mut sp,
        SimTime::from_secs(5 * 60),
        SimDuration::from_secs(60),
        20,
        |_| false,
    );
    ObsReport::array_to_json_string(&sp.observe_labelled("diff"))
}

#[test]
fn same_seed_runs_are_byte_identical_serial_and_parallel() {
    for seed in SEEDS {
        let first = labelled_export(seed, 1);
        for workers in WORKER_COUNTS {
            let replay = labelled_export(seed, workers);
            assert_eq!(
                first, replay,
                "seed {seed}: {workers}-worker run must export byte-identical labelled obs"
            );
        }
        // And the export is non-trivial: one report per shard plus the merged
        // roll-up.
        assert_eq!(first.matches("\"label\"").count(), 4);
        // Different seeds must not collapse onto the same export (guards
        // against the export accidentally ignoring the run).
        assert_ne!(first, labelled_export(seed ^ 0x5eed, 1));
    }
}

#[test]
fn run_fingerprints_are_reproducible() {
    for seed in SEEDS {
        let (a, _) = e14_run_cell(seed, 8, 150, 3, 1);
        let (b, _) = e14_run_cell(seed, 8, 150, 3, 8);
        let same: (RunFingerprint, RunFingerprint) = (a, b);
        assert_eq!(
            same.0, same.1,
            "seed {seed}: fingerprint must be a pure function of (seed, config), not the schedule"
        );
    }
}
