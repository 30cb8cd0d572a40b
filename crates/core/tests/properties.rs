//! Seeded property loops for [`swamp_core::history::HistoryStore`]:
//! appends in any order — duplicates and heavy reordering included — leave
//! every series time-sorted and complete, and segment compaction is
//! invisible to every read. Inputs come from a fixed [`SimRng`] stream, so
//! a failure reproduces exactly.

use swamp_core::history::HistoryStore;
use swamp_sim::{SimRng, SimTime};

const CASES: usize = 256;

fn probe(series: u64) -> String {
    format!("urn:swamp:device:probe-{series}")
}

/// Arbitrary interleavings of (series, timestamp, value) appends: each
/// series comes back sorted by time and contains exactly the samples
/// appended to it, like a stable sort of the inputs.
#[test]
fn appends_in_any_order_match_sorted_model() {
    let mut rng = SimRng::seed_from(0xC02E_0001);
    for _ in 0..CASES {
        let mut store = HistoryStore::new();
        let mut model: Vec<Vec<(u64, f64)>> = vec![Vec::new(); 3];
        for _ in 0..rng.below(200) {
            let series = rng.below(3);
            let at_ms = rng.below(1_000);
            let value = rng.uniform_range(-50.0, 50.0);
            store.append(
                &probe(series),
                "moisture_vwc",
                SimTime::from_millis(at_ms),
                value,
            );
            model[series as usize].push((at_ms, value));
        }
        for (series, expected) in model.iter_mut().enumerate() {
            // Stable sort: equal timestamps keep append order, which is
            // what the binary-search insert (`partition_point` on `>`)
            // guarantees.
            expected.sort_by_key(|(at, _)| *at);
            let got = store.range(
                &probe(series as u64),
                "moisture_vwc",
                SimTime::ZERO,
                SimTime::from_millis(1_000),
            );
            let got: Vec<(u64, f64)> = got.iter().map(|s| (s.at.as_millis(), s.value)).collect();
            assert_eq!(&got, expected);
        }
    }
}

/// Segment compaction is observationally free under arbitrary
/// interleavings: a store that freezes aggressively (tiny threshold,
/// random extra `compact()` calls, mid-stream `prune_before` cutting
/// through segment interiors) dumps exactly what a never-compacting
/// flat store holding the same appends dumps — duplicate-time order
/// included. Property twin of the deterministic edge-case tests in
/// `history.rs`.
#[test]
fn compaction_is_observationally_free_under_random_ops() {
    let mut rng = SimRng::seed_from(0xC02E_0002);
    for _ in 0..CASES {
        let mut compacting = HistoryStore::new();
        compacting.set_segment_threshold(Some(1 + rng.below(7) as usize));
        let mut flat = HistoryStore::new();
        for _ in 0..rng.below(200) {
            let at = SimTime::from_millis(rng.below(1_000));
            match rng.below(10) {
                8 => {
                    compacting.compact();
                }
                9 => assert_eq!(compacting.prune_before(at), flat.prune_before(at)),
                _ => {
                    let entity = probe(rng.below(3));
                    let value = rng.uniform_range(-50.0, 50.0);
                    compacting.append(&entity, "moisture_vwc", at, value);
                    flat.append(&entity, "moisture_vwc", at, value);
                }
            }
        }
        assert_eq!(compacting.len(), flat.len());
        assert_eq!(compacting.dump_sorted(), flat.dump_sorted());
    }
}
