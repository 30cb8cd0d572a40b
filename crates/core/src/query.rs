//! The typed query API — **one read surface** for the whole platform.
//!
//! [`QueryRequest`]/[`QueryResponse`] sit behind
//! [`Drive::query`](crate::drive::Drive::query) so that no consumer sees
//! a storage detail (sample layout, entity table, replica records) and
//! the storage layer can change shape without breaking them: a
//! single-shard [`Platform`](crate::platform::Platform) answers from its
//! own stores, and a `ShardedPlatform` answers the *same request* by
//! fanning out to its shards in shard-id order and merging with
//! [`QueryResponse::merge`] — callers cannot tell the difference, which
//! is the point.
//!
//! Responses serialize deterministically ([`QueryResponse::to_json`]):
//! the compaction differential suite byte-compares serialized responses
//! across segment cadences and layouts.

use swamp_codec::json::Json;
use swamp_sim::{SimDuration, SimTime};
use swamp_views::ViewSnapshot;

use crate::history::{Extremes, Sample, WindowAggregate};

/// A read request. Time windows are half-open `[from, to)`, matching the
/// history store.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryRequest {
    /// Raw samples of one series in a window.
    Range {
        /// Entity id.
        entity: String,
        /// Attribute name.
        attr: String,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        to: SimTime,
    },
    /// Window aggregate (count/mean/min/max/last) of one series.
    Aggregate {
        /// Entity id.
        entity: String,
        /// Attribute name.
        attr: String,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        to: SimTime,
    },
    /// Count/min/max of one series — the summary-served aggregate. On a
    /// compacted store, segments wholly inside the window are answered
    /// from their frozen summaries without decoding (count/min/max
    /// compose exactly under any grouping, unlike `Aggregate`'s
    /// sequential mean), so wide windows over deep series cost
    /// O(segments) instead of O(samples).
    Extremes {
        /// Entity id.
        entity: String,
        /// Attribute name.
        attr: String,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        to: SimTime,
    },
    /// Fixed-bucket downsample of one series.
    Downsample {
        /// Entity id.
        entity: String,
        /// Attribute name.
        attr: String,
        /// Window start (inclusive).
        from: SimTime,
        /// Window end (exclusive).
        to: SimTime,
        /// Bucket width; a zero width answers no buckets.
        bucket: SimDuration,
    },
    /// The most recent sample of one series.
    Last {
        /// Entity id.
        entity: String,
        /// Attribute name.
        attr: String,
    },
    /// Every series, sorted by `(entity, attr)` — the fingerprint read
    /// the differential suites use.
    SeriesDump,
    /// Sequence numbers of the applied cloud-replica records. Per-fog
    /// sequence spaces are independent, so a sharded answer is the sorted
    /// concatenation of per-shard spaces.
    ReplicaSeqs,
    /// The materialized views (farm rollups, top-K consumers, alert
    /// digest), caught up to the cloud replica as of this call.
    Views,
}

/// One series of a [`QueryResponse::Series`] dump.
#[derive(Clone, Debug, PartialEq)]
pub struct SeriesEntry {
    /// Entity id.
    pub entity: String,
    /// Attribute name.
    pub attr: String,
    /// Time-sorted samples.
    pub samples: Vec<Sample>,
}

/// A read response; variants correspond 1:1 to [`QueryRequest`].
#[derive(Clone, Debug, PartialEq)]
pub enum QueryResponse {
    /// Answer to [`QueryRequest::Range`].
    Samples(Vec<Sample>),
    /// Answer to [`QueryRequest::Aggregate`] (`None`: empty window).
    Aggregate(Option<WindowAggregate>),
    /// Answer to [`QueryRequest::Extremes`] (`None`: empty window).
    Extremes(Option<Extremes>),
    /// Answer to [`QueryRequest::Downsample`]: non-empty buckets with
    /// their start times.
    Buckets(Vec<(SimTime, WindowAggregate)>),
    /// Answer to [`QueryRequest::Last`] (`None`: unknown series).
    Sample(Option<Sample>),
    /// Answer to [`QueryRequest::SeriesDump`], sorted by `(entity, attr)`.
    Series(Vec<SeriesEntry>),
    /// Answer to [`QueryRequest::ReplicaSeqs`].
    Seqs(Vec<u64>),
    /// Answer to [`QueryRequest::Views`].
    Views(ViewSnapshot),
}

impl QueryResponse {
    /// The identity element for [`QueryResponse::merge`] of the given
    /// request — what a fan-out starts from before folding in shard
    /// answers (and what a shard with no matching data returns).
    pub fn empty_for(req: &QueryRequest) -> QueryResponse {
        match req {
            QueryRequest::Range { .. } => QueryResponse::Samples(Vec::new()),
            QueryRequest::Aggregate { .. } => QueryResponse::Aggregate(None),
            QueryRequest::Extremes { .. } => QueryResponse::Extremes(None),
            QueryRequest::Downsample { .. } => QueryResponse::Buckets(Vec::new()),
            QueryRequest::Last { .. } => QueryResponse::Sample(None),
            QueryRequest::SeriesDump => QueryResponse::Series(Vec::new()),
            QueryRequest::ReplicaSeqs => QueryResponse::Seqs(Vec::new()),
            QueryRequest::Views => QueryResponse::Views(ViewSnapshot::default()),
        }
    }

    /// Folds a sibling shard's answer into this one. Entity routing makes
    /// per-series reads single-owner (at most one shard answers
    /// non-empty), series/entity key sets disjoint, and per-fog sequence
    /// spaces independent — so: single-owner variants take the non-empty
    /// answer, `Series` merges sorted by `(entity, attr)`, `Seqs` sorts
    /// the concatenation, and `Views` delegates to
    /// [`ViewSnapshot::merge`]. Folding in shard-id order from
    /// [`QueryResponse::empty_for`] is deterministic in the shard count
    /// for everything except `Seqs` (whose per-shard spaces overlap
    /// numerically by design). Mismatched variants (a protocol bug) keep
    /// `self`.
    pub fn merge(&mut self, other: QueryResponse) {
        match (self, other) {
            (QueryResponse::Samples(a), QueryResponse::Samples(b)) => {
                if a.is_empty() {
                    *a = b;
                }
            }
            (QueryResponse::Aggregate(a), QueryResponse::Aggregate(b)) => {
                if a.is_none() {
                    *a = b;
                }
            }
            (QueryResponse::Extremes(a), QueryResponse::Extremes(b)) => {
                if a.is_none() {
                    *a = b;
                }
            }
            (QueryResponse::Buckets(a), QueryResponse::Buckets(b)) => {
                if a.is_empty() {
                    *a = b;
                }
            }
            (QueryResponse::Sample(a), QueryResponse::Sample(b)) => {
                if a.is_none() {
                    *a = b;
                }
            }
            (QueryResponse::Series(a), QueryResponse::Series(b)) => {
                a.extend(b);
                a.sort_by(|x, y| (&x.entity, &x.attr).cmp(&(&y.entity, &y.attr)));
            }
            (QueryResponse::Seqs(a), QueryResponse::Seqs(b)) => {
                a.extend(b);
                a.sort_unstable();
            }
            (QueryResponse::Views(a), QueryResponse::Views(b)) => {
                if a.applied == 0 && a.malformed == 0 && a.entities.is_empty() {
                    // Folding into the identity: adopt wholesale so the
                    // config (top-K, thresholds) comes from the shard,
                    // not the default.
                    *a = b;
                } else {
                    a.merge(b);
                }
            }
            _ => debug_assert!(false, "merging mismatched QueryResponse variants"),
        }
    }

    /// Serializes deterministically: object keys are sorted
    /// (`Json::Object` is a `BTreeMap`), arrays keep fold order, numbers
    /// are the exact `f64`s the stores produced. Two responses are equal
    /// iff their serializations are byte-equal — what the differential
    /// suites compare.
    pub fn to_json(&self) -> Json {
        fn sample(s: &Sample) -> Json {
            Json::object([
                ("at", Json::Number(s.at.as_millis() as f64)),
                ("value", Json::Number(s.value)),
            ])
        }
        fn agg(a: &WindowAggregate) -> Json {
            Json::object([
                ("count", Json::Number(a.count as f64)),
                ("mean", Json::Number(a.mean)),
                ("min", Json::Number(a.min)),
                ("max", Json::Number(a.max)),
                ("last", Json::Number(a.last)),
            ])
        }
        match self {
            QueryResponse::Samples(samples) => {
                Json::object([("samples", Json::Array(samples.iter().map(sample).collect()))])
            }
            QueryResponse::Aggregate(a) => {
                Json::object([("aggregate", a.as_ref().map(agg).unwrap_or(Json::Null))])
            }
            QueryResponse::Extremes(e) => Json::object([(
                "extremes",
                e.as_ref()
                    .map(|e| {
                        Json::object([
                            ("count", Json::Number(e.count as f64)),
                            ("min", Json::Number(e.min)),
                            ("max", Json::Number(e.max)),
                        ])
                    })
                    .unwrap_or(Json::Null),
            )]),
            QueryResponse::Buckets(buckets) => Json::object([(
                "buckets",
                Json::Array(
                    buckets
                        .iter()
                        .map(|(at, a)| {
                            Json::object([
                                ("at", Json::Number(at.as_millis() as f64)),
                                ("aggregate", agg(a)),
                            ])
                        })
                        .collect(),
                ),
            )]),
            QueryResponse::Sample(s) => {
                Json::object([("sample", s.as_ref().map(sample).unwrap_or(Json::Null))])
            }
            QueryResponse::Series(series) => Json::object([(
                "series",
                Json::Array(
                    series
                        .iter()
                        .map(|e| {
                            Json::object([
                                ("entity", Json::String(e.entity.clone())),
                                ("attr", Json::String(e.attr.clone())),
                                (
                                    "samples",
                                    Json::Array(e.samples.iter().map(sample).collect()),
                                ),
                            ])
                        })
                        .collect(),
                ),
            )]),
            QueryResponse::Seqs(seqs) => Json::object([(
                "seqs",
                Json::Array(seqs.iter().map(|s| Json::Number(*s as f64)).collect()),
            )]),
            QueryResponse::Views(snap) => Json::object([("views", snap.to_json())]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(ms: u64, v: f64) -> Sample {
        Sample {
            at: SimTime::from_millis(ms),
            value: v,
        }
    }

    #[test]
    fn empty_for_matches_variants() {
        let reqs = [
            QueryRequest::Range {
                entity: "e".into(),
                attr: "a".into(),
                from: SimTime::ZERO,
                to: SimTime::from_hours(1),
            },
            QueryRequest::Extremes {
                entity: "e".into(),
                attr: "a".into(),
                from: SimTime::ZERO,
                to: SimTime::from_hours(1),
            },
            QueryRequest::SeriesDump,
            QueryRequest::ReplicaSeqs,
            QueryRequest::Views,
        ];
        for req in &reqs {
            let empty = QueryResponse::empty_for(req);
            // Identity law: empty.merge(x) == x for a same-variant x.
            let mut folded = QueryResponse::empty_for(req);
            folded.merge(empty.clone());
            assert_eq!(folded, empty);
        }
    }

    #[test]
    fn single_owner_merge_takes_nonempty() {
        let mut base = QueryResponse::Samples(Vec::new());
        base.merge(QueryResponse::Samples(vec![s(1, 1.0)]));
        base.merge(QueryResponse::Samples(Vec::new()));
        assert_eq!(base, QueryResponse::Samples(vec![s(1, 1.0)]));

        let mut base = QueryResponse::Sample(None);
        base.merge(QueryResponse::Sample(Some(s(2, 2.0))));
        assert_eq!(base, QueryResponse::Sample(Some(s(2, 2.0))));
    }

    #[test]
    fn series_merge_sorts_by_key() {
        let entry = |e: &str, a: &str| SeriesEntry {
            entity: e.into(),
            attr: a.into(),
            samples: vec![],
        };
        let mut base = QueryResponse::Series(vec![entry("b", "x")]);
        base.merge(QueryResponse::Series(vec![
            entry("a", "y"),
            entry("a", "x"),
        ]));
        match base {
            QueryResponse::Series(entries) => {
                let keys: Vec<(String, String)> =
                    entries.into_iter().map(|e| (e.entity, e.attr)).collect();
                assert_eq!(
                    keys,
                    vec![
                        ("a".into(), "x".into()),
                        ("a".into(), "y".into()),
                        ("b".into(), "x".into())
                    ]
                );
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn json_is_deterministic_and_distinguishes_values() {
        let a = QueryResponse::Samples(vec![s(1, 0.5), s(2, 0.25)]);
        let b = QueryResponse::Samples(vec![s(1, 0.5), s(2, 0.25)]);
        assert_eq!(
            a.to_json().to_compact_string(),
            b.to_json().to_compact_string()
        );
        let c = QueryResponse::Samples(vec![s(1, 0.5), s(2, 0.250001)]);
        assert_ne!(
            a.to_json().to_compact_string(),
            c.to_json().to_compact_string()
        );
        assert_eq!(
            QueryResponse::Aggregate(None).to_json().to_compact_string(),
            "{\"aggregate\":null}"
        );
        assert_eq!(
            QueryResponse::Extremes(Some(Extremes {
                count: 2,
                min: -1.5,
                max: 3.0,
            }))
            .to_json()
            .to_compact_string(),
            "{\"extremes\":{\"count\":2,\"max\":3,\"min\":-1.5}}"
        );
    }
}
