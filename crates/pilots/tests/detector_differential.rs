//! Differential determinism harness for the behavioral-baseline
//! detector (ISSUE 10 tentpole proof): the verdicts the `BehaviorBank`
//! reaches must be an implementation-independent function of the
//! workload — not of the shard layout or the worker schedule driving
//! it. For the E16 labeled attack workload at shards ∈ {1, 3, 8} ×
//! workers ∈ {1, 2, 8} we require:
//!
//! 1. an identical flag set (device, flag kind, flag time) across the
//!    whole grid,
//! 2. identical summed `security.baseline.*` counters,
//! 3. an identical precision/recall scorecard row,
//!
//! all compared against the 1-shard / 1-worker baseline. This holds
//! because the bank's state is strictly per-device, shards partition
//! devices disjointly, and per-device arrival order is preserved by
//! the routing tier — any divergence is a routing or merge bug.
//!
//! Every test runs at both [`SEEDS`], same convention as
//! `shard_differential.rs`.

use swamp_pilots::experiments::e16_shard_run;
use swamp_workload::Pilot;

const SHARD_COUNTS: [usize; 3] = [1, 3, 8];
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];
const DEVICES: usize = 16;
const ROUNDS: usize = 240;

/// Equivalence must hold as a property of the seed family, not of one
/// lucky constant.
const SEEDS: [u64; 2] = [42, 1337];

#[test]
fn detector_verdicts_are_invariant_across_shards_and_workers() {
    for seed in SEEDS {
        let (baseline, base_row) = e16_shard_run(seed, Pilot::Cbec, DEVICES, ROUNDS, 1, 1);
        // The run must actually exercise the detector: attacks planted,
        // flags raised, counters moving.
        assert!(base_row.truth > 0, "no planted attack devices");
        assert!(
            !baseline.0.is_empty(),
            "seed {seed}: baseline run raised no flags — the differential would be vacuous"
        );
        assert!(
            baseline
                .1
                .get("security.baseline.scored")
                .copied()
                .unwrap_or(0)
                > 0,
            "baseline counters never scored a window"
        );

        for shards in SHARD_COUNTS {
            for workers in WORKER_COUNTS {
                let (fp, row) = e16_shard_run(seed, Pilot::Cbec, DEVICES, ROUNDS, shards, workers);
                assert_eq!(
                    fp.0, baseline.0,
                    "seed {seed}: flag set diverged at {shards} shards / {workers} workers"
                );
                assert_eq!(
                    fp.1, baseline.1,
                    "seed {seed}: summed security.baseline.* counters diverged at \
                     {shards} shards / {workers} workers"
                );
                assert_eq!(
                    (row.tp, row.fp, row.fn_missed, row.flagged),
                    (
                        base_row.tp,
                        base_row.fp,
                        base_row.fn_missed,
                        base_row.flagged
                    ),
                    "seed {seed}: precision/recall scorecard diverged at {shards} shards / \
                     {workers} workers"
                );
            }
        }
    }
}

#[test]
fn sharded_detector_matches_the_single_platform_run() {
    // The sharded deployment is an implementation detail all the way
    // up: the 3-shard grid cell must reproduce the plain single
    // `Platform` scorecard used by E16 itself.
    for seed in SEEDS {
        let (row, _) = swamp_pilots::experiments::e16_run_pilot(seed, Pilot::Cbec, DEVICES, ROUNDS);
        let (_, sharded) = e16_shard_run(seed, Pilot::Cbec, DEVICES, ROUNDS, 3, 2);
        assert_eq!(
            (row.tp, row.fp, row.fn_missed, row.flagged, row.records),
            (
                sharded.tp,
                sharded.fp,
                sharded.fn_missed,
                sharded.flagged,
                sharded.records
            ),
            "seed {seed}: sharded run must reproduce the single-platform scorecard"
        );
    }
}

#[test]
fn different_seeds_reach_different_flag_times() {
    // Guards against the fingerprint accidentally ignoring the run:
    // two seeds must not collapse onto the same flag set.
    for seed in SEEDS {
        let (a, _) = e16_shard_run(seed, Pilot::Cbec, DEVICES, ROUNDS, 1, 1);
        let (b, _) = e16_shard_run(seed ^ 0x5eed, Pilot::Cbec, DEVICES, ROUNDS, 1, 1);
        assert_ne!(
            a, b,
            "distinct seeds produced identical detector fingerprints"
        );
    }
}
