//! The correctness gate: a flat-layout reference the platform's answers
//! must equal, the digest that must repeat across repetitions, and the
//! conservation identities over `Drive::observe()` counters.

use swamp_codec::ngsi::Entity;
use swamp_core::history::{HistoryStore, Sample};
use swamp_core::query::{QueryRequest, QueryResponse, SeriesEntry};
use swamp_obs::ObsSnapshot;
use swamp_sim::SimTime;

use crate::inputs::Inputs;
use crate::stats::{fnv, Fnv};

/// A flat (never-compacted) history store fed the offered inputs
/// directly, bypassing every layer under test.
#[derive(Default)]
pub struct Reference {
    store: HistoryStore,
}

impl Reference {
    /// Applies `Platform::ingest_entities`' storage rule: one sample per
    /// numeric attribute, at the attribute's own timestamp if it has one.
    pub fn append(&mut self, now: SimTime, entities: &[Entity]) {
        for e in entities {
            for (name, attr) in e.attributes() {
                if let Some(v) = attr.value.as_number() {
                    let at = attr.observed_at_ms.map_or(now, SimTime::from_millis);
                    self.store.append(e.id().as_str(), name, at, v);
                }
            }
        }
    }

    pub fn prune_before(&mut self, cutoff: SimTime) {
        self.store.prune_before(cutoff);
    }

    /// A reference rebuilt from a series dump: what the same samples
    /// answer on the flat layout (used where radio loss makes the stored
    /// set unknowable from the inputs alone).
    pub fn from_series(series: &[SeriesEntry]) -> Reference {
        let mut r = Reference::default();
        for entry in series {
            for s in &entry.samples {
                r.store.append(&entry.entity, &entry.attr, s.at, s.value);
            }
        }
        r
    }

    /// The flat-layout answer to a per-series read; `None` for requests
    /// the history store alone cannot answer.
    pub fn answer(&self, req: &QueryRequest) -> Option<QueryResponse> {
        let h = &self.store;
        Some(match req {
            QueryRequest::Range {
                entity,
                attr,
                from,
                to,
            } => QueryResponse::Samples(h.range(entity, attr, *from, *to)),
            QueryRequest::Aggregate {
                entity,
                attr,
                from,
                to,
            } => QueryResponse::Aggregate(h.aggregate(entity, attr, *from, *to)),
            QueryRequest::Extremes {
                entity,
                attr,
                from,
                to,
            } => QueryResponse::Extremes(h.extremes(entity, attr, *from, *to)),
            QueryRequest::Downsample {
                entity,
                attr,
                from,
                to,
                bucket,
            } => QueryResponse::Buckets(h.downsample(entity, attr, *from, *to, *bucket)),
            QueryRequest::Last { entity, attr } => QueryResponse::Sample(h.last(entity, attr)),
            QueryRequest::SeriesDump | QueryRequest::ReplicaSeqs | QueryRequest::Views => {
                return None
            }
        })
    }

    pub fn series_digest(&self) -> u64 {
        series_digest(
            self.store
                .dump_sorted()
                .iter()
                .map(|(e, a, s)| (*e, *a, s.as_slice())),
        )
    }
}

/// Digest of a `(entity, attr)`-sorted series dump: ids, timestamps and
/// value bit patterns.
pub fn series_digest<'a>(series: impl Iterator<Item = (&'a str, &'a str, &'a [Sample])>) -> u64 {
    let mut h = Fnv::default();
    for (entity, attr, samples) in series {
        h.write(entity.as_bytes());
        h.write(&[0xff]);
        h.write(attr.as_bytes());
        h.write(&[0xfe]);
        for s in samples {
            h.write_u64(s.at.as_millis());
            h.write_u64(s.value.to_bits());
        }
    }
    h.finish()
}

/// Digest of one answer's deterministic serialization; two answers are
/// byte-equal iff their serializations are.
pub fn answer_digest(resp: &QueryResponse) -> u64 {
    fnv(resp.to_json().to_compact_string().as_bytes())
}

/// Expected answer digests of every in-round read, in issue order, plus
/// the reference as it stands after the last round. `None` entries are
/// reads the reference cannot answer (the views), compared across
/// repetitions instead.
pub fn expected_answers(inputs: &Inputs) -> (Vec<Vec<Option<u64>>>, Reference) {
    let mut reference = Reference::default();
    let mut expected = Vec::with_capacity(inputs.rounds.len());
    for round in &inputs.rounds {
        reference.append(round.at, &round.entities);
        expected.push(
            round
                .bursts
                .iter()
                .flat_map(|b| &b.reqs)
                .map(|req| reference.answer(req).as_ref().map(answer_digest))
                .collect(),
        );
        if let Some(cutoff) = round.prune_before {
            reference.prune_before(cutoff);
        }
    }
    (expected, reference)
}

/// Counts mismatches between answers and their expected digests.
pub fn mismatches(answers: &[QueryResponse], expected: &[Option<u64>]) -> u64 {
    let compared = answers
        .iter()
        .zip(expected)
        .filter(|(got, want)| want.is_some_and(|w| answer_digest(got) != w))
        .count() as u64;
    compared + answers.len().abs_diff(expected.len()) as u64
}

fn counter(snap: &ObsSnapshot, name: &str) -> u64 {
    snap.counter(name).unwrap_or(0)
}

/// Where every offered record went, from the driver's own count and the
/// platform's counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Conservation {
    pub offered: u64,
    pub accepted: u64,
    pub rejected: u64,
    /// Frames the modelled radio lost before ingestion (counted, not a
    /// failure). Only `sealed_steady` offers over the radio; elsewhere
    /// `net.lost` counts uplink replication traffic and is not ingress.
    pub radio_lost: u64,
    /// Unique sequence numbers applied at the cloud.
    pub cloud_unique: u64,
    /// Records the cloud holds more than once.
    pub duplicate_applies: u64,
}

impl Conservation {
    pub fn from_run(
        offered: u64,
        over_radio: bool,
        snap: &ObsSnapshot,
        replica_seqs: &[Vec<u64>],
    ) -> Conservation {
        let rejected = [
            "ingest.rejected_unregistered",
            "ingest.rejected_auth",
            "ingest.rejected_malformed",
            "ingest.rejected_replay",
        ]
        .iter()
        .map(|n| counter(snap, n))
        .sum();
        let mut cloud_unique = 0;
        let mut duplicate_applies = 0;
        for seqs in replica_seqs {
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            cloud_unique += sorted.len() as u64;
            duplicate_applies += (seqs.len() - sorted.len()) as u64;
        }
        Conservation {
            offered,
            accepted: counter(snap, "ingest.accepted"),
            rejected,
            radio_lost: if over_radio {
                counter(snap, "net.lost")
            } else {
                0
            },
            cloud_unique,
            duplicate_applies,
        }
    }

    /// Records that did not end up applied exactly once at the cloud,
    /// radio loss aside.
    pub fn failed(&self) -> u64 {
        let expected = self.offered.saturating_sub(self.radio_lost);
        expected.abs_diff(self.cloud_unique) + self.duplicate_applies
    }

    /// The identities, as human-readable violations.
    pub fn violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.offered != self.accepted + self.rejected + self.radio_lost {
            out.push(format!(
                "conservation: offered {} != accepted {} + rejected {} + radio-lost {}",
                self.offered, self.accepted, self.rejected, self.radio_lost
            ));
        }
        if self.accepted != self.cloud_unique {
            out.push(format!(
                "conservation: accepted {} != unique seqs applied at the cloud {}",
                self.accepted, self.cloud_unique
            ));
        }
        if self.duplicate_applies != 0 {
            out.push(format!(
                "conservation: {} duplicate applies at the cloud",
                self.duplicate_applies
            ));
        }
        out
    }
}

/// On a lossless uplink the retry machinery must stay idle.
pub fn lossless_violations(snap: &ObsSnapshot) -> Vec<String> {
    [
        "sync.retransmissions",
        "sync.dropped",
        "sync.timeouts",
        "cloud.duplicates",
        "net.fault.dropped",
        "net.fault.duplicated",
    ]
    .iter()
    .filter(|n| counter(snap, n) != 0)
    .map(|n| format!("lossless uplink but {n} = {}", counter(snap, n)))
    .collect()
}

/// Device-level precision and recall of a flagged set against truth.
pub fn precision_recall(
    flagged: &std::collections::BTreeSet<String>,
    truth: &std::collections::BTreeSet<String>,
) -> (f64, f64) {
    let tp = flagged.intersection(truth).count() as f64;
    let precision = if flagged.is_empty() {
        1.0
    } else {
        tp / flagged.len() as f64
    };
    let recall = if truth.is_empty() {
        1.0
    } else {
        tp / truth.len() as f64
    };
    (precision, recall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use swamp_codec::ngsi::Attribute;

    fn sample(ms: u64, v: f64) -> Sample {
        Sample {
            at: SimTime::from_millis(ms),
            value: v,
        }
    }

    #[test]
    fn series_digest_is_stable_and_sensitive() {
        let a = [sample(1, 0.5), sample(2, 0.25)];
        let b = [sample(1, 0.5), sample(2, 0.250_000_1)];
        let d = |s: &[Sample]| series_digest([("e", "x", s)].into_iter());
        assert_eq!(d(&a), d(&a));
        assert_ne!(d(&a), d(&b));
        assert_ne!(d(&a), series_digest([("e", "y", &a[..])].into_iter()));
        // -0.0 and 0.0 compare equal but are different stored bits.
        assert_ne!(d(&[sample(1, 0.0)]), d(&[sample(1, -0.0)]));
        // Pinned: the digest is part of what repetitions are compared on.
        assert_eq!(d(&a), 0x9017_5f09_983d_0f54);
    }

    #[test]
    fn reference_follows_the_ingest_storage_rule() {
        let mut e = Entity::new("urn:swamp:device:probe-1", "SoilProbe");
        e.set("moisture_vwc", 0.3);
        e.set("note", "text is not stored");
        e.set_attribute("water_flow", Attribute::new(2.0).observed_at(5_000));
        let mut r = Reference::default();
        r.append(SimTime::from_secs(60), &[e]);
        let last = |attr: &str| {
            r.answer(&QueryRequest::Last {
                entity: "urn:swamp:device:probe-1".into(),
                attr: attr.into(),
            })
        };
        assert_eq!(
            last("moisture_vwc"),
            Some(QueryResponse::Sample(Some(sample(60_000, 0.3))))
        );
        assert_eq!(
            last("water_flow"),
            Some(QueryResponse::Sample(Some(sample(5_000, 2.0))))
        );
        assert_eq!(last("note"), Some(QueryResponse::Sample(None)));
        assert_eq!(r.answer(&QueryRequest::Views), None);
    }

    #[test]
    fn mismatches_count_wrong_and_missing_answers() {
        let right = QueryResponse::Sample(Some(sample(1, 1.0)));
        let wrong = QueryResponse::Sample(Some(sample(1, 2.0)));
        let want = Some(answer_digest(&right));
        assert_eq!(
            mismatches(&[right.clone(), right.clone()], &[want, None]),
            0
        );
        assert_eq!(mismatches(&[wrong.clone(), wrong], &[want, None]), 1);
        assert_eq!(mismatches(&[right], &[want, want, want]), 2);
    }

    #[test]
    fn conservation_counts_loss_but_not_as_failure() {
        let mut snap = ObsSnapshot::default();
        snap.put_counter("ingest.accepted", 95);
        snap.put_counter("ingest.rejected_replay", 2);
        snap.put_counter("net.lost", 3);
        let seqs = vec![(0..95).collect::<Vec<u64>>()];
        let c = Conservation::from_run(100, true, &snap, &seqs);
        assert_eq!(c.rejected, 2);
        assert!(c.violations().is_empty(), "{:?}", c.violations());
        // Two rejected frames are failures; three lost to the radio are not.
        assert_eq!(c.failed(), 2);

        // The same counters without a radio: net.lost is uplink traffic.
        let c = Conservation::from_run(100, false, &snap, &seqs);
        assert_eq!(c.violations().len(), 1);

        let dup = vec![vec![0, 1, 1, 2]];
        let c = Conservation::from_run(3, false, &ObsSnapshot::default(), &dup);
        assert_eq!((c.cloud_unique, c.duplicate_applies), (3, 1));
        assert!(c.violations().iter().any(|v| v.contains("duplicate")));
    }

    #[test]
    fn precision_recall_edge_cases() {
        let set = |xs: &[&str]| xs.iter().map(|s| s.to_string()).collect();
        let (p, r) = precision_recall(&set(&["a", "b", "x"]), &set(&["a", "b", "c", "d"]));
        assert!((p - 2.0 / 3.0).abs() < 1e-12 && (r - 0.5).abs() < 1e-12);
        assert_eq!(precision_recall(&set(&[]), &set(&["a"])), (1.0, 0.0));
        assert_eq!(precision_recall(&set(&["a"]), &set(&[])), (0.0, 1.0));
    }
}
