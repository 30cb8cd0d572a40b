//! Differential proof that segment compaction is observationally free at
//! platform scope (ISSUE 9 tentpole): for the same seeded workload —
//! out-of-order `observedAt` samples included, with a mid-run retention
//! pass whose cutoff lands *inside* frozen segments — every read through
//! the typed query surface must serialize byte-identically across
//! compaction cadences {never, every round, every 64 appends} and shard
//! counts {1, 3, 8}.
//!
//! "Never" runs the flat pre-segment layout (threshold `None`, no
//! `compact_history` calls), so it doubles as the behavioral baseline
//! from before the columnar read path landed. The suite runs at both
//! [`SEEDS`].

use swamp_codec::ngsi::{Attribute, Entity};
use swamp_core::query::QueryRequest;
use swamp_pilots::driver::run_rounds;
use swamp_pilots::experiments::scale::e14_builder;
use swamp_shard::ShardedPlatform;
use swamp_sim::{SimDuration, SimRng, SimTime};

const SHARD_COUNTS: [usize; 3] = [1, 3, 8];
const ROUNDS: u64 = 8;
const BATCHES_PER_ROUND: u64 = 20;
const DEVICES: usize = 30;
/// Retention pass fires after this round; the cutoff falls mid-round-2,
/// inside the first frozen segment of every deep series.
const PRUNE_AFTER_ROUND: u64 = 5;

/// Equivalence must hold as a property of the seed family, not of one
/// lucky constant.
const SEEDS: [u64; 2] = [42, 1337];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Cadence {
    /// Flat layout: threshold `None`, never compacts.
    Never,
    /// Threshold `None`, but `compact_history()` freezes every tail at
    /// the end of every round.
    EveryRound,
    /// Auto-freeze: tails freeze as they reach 64 samples.
    Every64,
}

/// What one (cadence, shards) cell produced.
struct Cell {
    /// Concatenated compact-JSON serialization of a fixed battery of
    /// query responses — dump, range, aggregate, downsample, extremes,
    /// last — with windows chosen to straddle segment boundaries.
    doc: String,
    /// Frozen segments at the end of the run, summed over shards.
    segments: usize,
    /// `query.segments_pruned` over the battery: frozen segments a
    /// window skipped by summary without decoding.
    pruned: u64,
    /// `query.segments_summarized` over the battery: frozen segments an
    /// envelope read answered from the summary alone.
    summarized: u64,
}

/// Drives the seeded workload at one (cadence, shards) cell.
fn run_cell(seed: u64, shards: usize, cadence: Cadence) -> Cell {
    let mut builder = e14_builder(seed, shards);
    if cadence == Cadence::Every64 {
        builder = builder.history_segment_threshold(Some(64));
    }
    let mut sp = ShardedPlatform::build(&builder);
    let mut rng = SimRng::seed_from(seed).split("compaction-diff");
    run_rounds(
        &mut sp,
        SimTime::from_secs(60),
        SimDuration::from_secs(60),
        SimDuration::ZERO,
        ROUNDS,
        |sp, _round, t| {
            // Each round every device reports BATCHES_PER_ROUND flow and
            // level samples (deep series → multiple frozen segments) plus
            // one in-order moisture sample. ~20% of flow samples carry an
            // out-of-order `observedAt` up to three rounds in the past —
            // far enough behind the frozen watermark to force thaws; the
            // level samples are always in order.
            for k in 0..BATCHES_PER_ROUND {
                let batch: Vec<Entity> = (0..DEVICES)
                    .map(|i| {
                        let mut e = Entity::new(format!("urn:swamp:device:probe-{i}"), "SoilProbe");
                        let in_order = t.as_millis() + k * 250;
                        let at = if rng.chance(0.2) {
                            in_order.saturating_sub(rng.below(3) * 60_000 + 500)
                        } else {
                            in_order
                        };
                        e.set_attribute(
                            "water_flow",
                            Attribute::new(1.0 + rng.uniform_f64()).observed_at(at),
                        );
                        e.set_attribute(
                            "canal_level",
                            Attribute::new(0.5 + 0.01 * ((i as u64 + k) % 7) as f64)
                                .observed_at(in_order),
                        );
                        if k == 0 {
                            e.set("moisture_vwc", 0.15 + rng.uniform_f64() * 0.2);
                        }
                        e
                    })
                    .collect();
                sp.ingest_entities(t, batch);
            }
        },
        |sp, round, t| {
            if cadence == Cadence::EveryRound {
                sp.compact_history();
            }
            if round == PRUNE_AFTER_ROUND {
                // Retention: cut mid-way through round 2's samples, deep
                // inside the oldest frozen segments.
                let cutoff = SimTime::from_secs(60) + SimDuration::from_millis(2 * 60_000 + 2_500);
                assert!(cutoff < t, "cutoff must land in already-frozen data");
                for i in 0..sp.shard_count() {
                    sp.shard_mut(i)
                        .expect("index < shard_count")
                        .history
                        .prune_before(cutoff);
                }
            }
        },
    );
    let probe = "urn:swamp:device:probe-3";
    let mid = SimTime::from_secs(60) + SimDuration::from_secs(3 * 60 + 7);
    let end = SimTime::from_secs(60) + SimDuration::from_secs(ROUNDS * 60);
    let battery = [
        QueryRequest::SeriesDump,
        QueryRequest::Range {
            entity: probe.to_owned(),
            attr: "water_flow".to_owned(),
            from: SimTime::ZERO,
            to: SimTime::MAX,
        },
        QueryRequest::Range {
            entity: probe.to_owned(),
            attr: "water_flow".to_owned(),
            from: mid,
            to: mid + SimDuration::from_secs(95),
        },
        QueryRequest::Aggregate {
            entity: probe.to_owned(),
            attr: "water_flow".to_owned(),
            from: mid,
            to: mid + SimDuration::from_secs(150),
        },
        QueryRequest::Downsample {
            entity: probe.to_owned(),
            attr: "water_flow".to_owned(),
            from: SimTime::from_secs(60),
            to: end,
            bucket: SimDuration::from_secs(30),
        },
        // Wide envelope: summary-served on segmented layouts, a full
        // sample walk on the flat baseline — the two fold paths must
        // agree byte-for-byte (count/min/max compose exactly).
        QueryRequest::Extremes {
            entity: probe.to_owned(),
            attr: "water_flow".to_owned(),
            from: SimTime::ZERO,
            to: SimTime::MAX,
        },
        // Windowed envelope straddling segment boundaries: partial
        // segments decode, interior segments answer from summaries.
        QueryRequest::Extremes {
            entity: probe.to_owned(),
            attr: "water_flow".to_owned(),
            from: mid,
            to: mid + SimDuration::from_secs(150),
        },
        // The in-order series keeps its segments apart, so these two
        // exercise what the thaw-merged flow series cannot: a recent
        // window (the dashboard read) skips every earlier segment by
        // summary, and a mid-run envelope folds interior segments
        // undecoded.
        QueryRequest::Aggregate {
            entity: probe.to_owned(),
            attr: "canal_level".to_owned(),
            from: end - SimDuration::from_secs(60),
            to: end,
        },
        QueryRequest::Extremes {
            entity: probe.to_owned(),
            attr: "canal_level".to_owned(),
            from: mid,
            to: mid + SimDuration::from_secs(150),
        },
        QueryRequest::Last {
            entity: probe.to_owned(),
            attr: "moisture_vwc".to_owned(),
        },
    ];
    let mut doc = String::new();
    for req in &battery {
        doc.push_str(&sp.query(req).to_json().to_compact_string());
        doc.push('\n');
    }
    let snap = sp.observe();
    Cell {
        doc,
        segments: sp.shards().map(|p| p.history.segment_count()).sum(),
        pruned: snap
            .counter("query.segments_pruned")
            .expect("registered counter"),
        summarized: snap
            .counter("query.segments_summarized")
            .expect("registered counter"),
    }
}

#[test]
fn compaction_cadence_and_shard_count_are_observationally_free() {
    for seed in SEEDS {
        let baseline = run_cell(seed, 1, Cadence::Never).doc;
        assert!(
            baseline.contains("water_flow"),
            "the battery must actually read data back"
        );
        for shards in SHARD_COUNTS {
            for cadence in [Cadence::Never, Cadence::EveryRound, Cadence::Every64] {
                let cell = run_cell(seed, shards, cadence);
                assert_eq!(
                    cell.doc, baseline,
                    "seed {seed}: query battery diverged at {shards} shards / {cadence:?}"
                );
                let at = format!("seed {seed}: {shards} shards / {cadence:?}");
                if cadence == Cadence::Never {
                    // The flat layout has no segments to freeze, skip or
                    // answer from.
                    assert_eq!(cell.segments, 0, "{at}: flat layout froze segments");
                    assert_eq!(cell.pruned, 0, "{at}: flat layout pruned segments");
                    assert_eq!(cell.summarized, 0, "{at}: flat layout read summaries");
                } else {
                    // The summary path must engage, or the differential is
                    // vacuous: windowed reads skip outside segments and
                    // envelope reads fold interior segments undecoded.
                    assert!(cell.segments > 0, "{at}: froze no segments");
                    assert!(cell.pruned > 0, "{at}: no window pruned a segment");
                    assert!(
                        cell.summarized > 0,
                        "{at}: no Extremes read was served from a frozen summary"
                    );
                }
            }
        }
    }
}
