//! # swamp-views — incremental materialized views over the cloud replica
//!
//! The paper's consumers — farmers, consortium operators, dashboards —
//! *read*: per-farm water rollups, the biggest consumers, the fields
//! currently below their moisture floor. Recomputing those from raw
//! history on every request is what "A Scalable and Dependable Data
//! Analytics Platform for Water Infrastructure Monitoring" (PAPERS.md)
//! warns against at scale; this crate keeps them **materialized and
//! incrementally maintained** instead, in the cometindex style: an
//! indexer owns a *cursor* over the cloud store's append-only run of
//! applied [`UpdateRecord`]s and folds only the records it has not seen
//! yet. It **tails** [`CloudStore::history`] behind a cursor of its own
//! (as the scale-out tier's `forwarded_upto` does), so any number of
//! readers follow the same run without disturbing one another.
//!
//! ## Determinism across shards
//!
//! State is kept **per entity** in a `BTreeMap`. Shard routing assigns
//! each entity to exactly one shard, and each shard's replica applies
//! that entity's updates in ingest order, so every per-entity
//! accumulator — including its order-sensitive `f64` consumption sum —
//! is identical whether the fleet ran on one shard or eight. A merged
//! view is the *disjoint union* of per-shard entity maps; the derived
//! views (farm rollups, top-K, alert digest) are folded from the merged
//! map in `BTreeMap` key order at snapshot time, so they are bit-stable
//! in the shard count. The sharded differential suite holds
//! `merge(shard views) == single-shard view` byte-for-byte.
//!
//! [`CloudStore::history`]: swamp_fog::sync::CloudStore::history

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use swamp_codec::json::Json;
use swamp_codec::ngsi::Entity;
use swamp_fog::sync::UpdateRecord;
use swamp_sim::SimTime;

/// Numeric attribute summed into per-entity/farm consumption totals:
/// the pilot fleet's water flow, liters per report.
const CONSUMPTION_ATTR: &str = "water_flow";
/// Numeric attribute checked against the alert floor.
const ALERT_ATTR: &str = "moisture_vwc";
/// Alert when [`ALERT_ATTR`] falls strictly below this value (10 %
/// volumetric soil moisture).
const ALERT_BELOW: f64 = 0.10;
/// How many entries [`ViewSnapshot::top_consumers`] returns.
const TOP_K: usize = 5;

/// Per-entity accumulator — the unit of cross-shard merging.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EntityAccum {
    /// Farm key derived from the entity id (see [`farm_of`]).
    pub farm: String,
    /// Updates applied for this entity.
    pub records: u64,
    /// Running sum of the consumption attribute, in per-entity apply
    /// order (deterministic: one entity lives on one shard).
    pub consumption: f64,
    /// Latest observed value of the alert attribute.
    pub last_alert_value: Option<f64>,
    /// Updates whose alert attribute was below the floor.
    pub low_events: u64,
    /// Sequence number of the last applied update.
    pub last_seq: u64,
    /// Creation time of the last applied update.
    pub last_at: SimTime,
}

/// The farm key of an entity id: the penultimate `:`-separated segment
/// (`urn:swamp:farm-3:probe-17` → `farm-3`), or `"unassigned"` when the
/// id has fewer than two segments. Pure in the id, so every shard derives
/// the same key without coordination.
pub fn farm_of(entity_id: &str) -> &str {
    let mut iter = entity_id.rsplit(':');
    let _leaf = iter.next();
    iter.next()
        .filter(|s| !s.is_empty())
        .unwrap_or("unassigned")
}

/// Cursor-driven incremental indexer; see the crate docs.
#[derive(Clone, Debug, Default)]
pub struct ViewIndexer {
    /// The read position: how many applied records have been folded in.
    cursor: usize,
    entities: BTreeMap<String, EntityAccum>,
    applied: u64,
    /// Records whose payload failed to parse as an NGSI entity. They still
    /// advance per-entity record counts (the update *was* applied by the
    /// store), but contribute no attribute state.
    malformed: u64,
}

impl ViewIndexer {
    /// An empty indexer with its cursor at the start of the run.
    pub fn new() -> Self {
        ViewIndexer::default()
    }

    /// Folds every record past the cursor into the views and advances the
    /// cursor to `history.len()`. `history` must be the same append-only
    /// run on every call (`CloudStore::history` is); passing a *shorter*
    /// run than last time is a contract violation and applies nothing.
    /// Returns how many records were applied.
    pub fn catch_up(&mut self, history: &[UpdateRecord]) -> usize {
        let from = self.cursor.min(history.len());
        let fresh = &history[from..];
        for rec in fresh {
            self.apply(rec);
        }
        self.cursor = history.len();
        fresh.len()
    }

    fn apply(&mut self, rec: &UpdateRecord) {
        self.applied += 1;
        // The key is cloned, and its farm derived, on first sight only.
        let acc = match self.entities.get_mut(&rec.key) {
            Some(acc) => acc,
            None => self
                .entities
                .entry(rec.key.clone())
                .or_insert_with(|| EntityAccum {
                    farm: farm_of(&rec.key).to_owned(),
                    ..EntityAccum::default()
                }),
        };
        acc.records += 1;
        acc.last_seq = rec.seq;
        acc.last_at = rec.created_at;
        match Entity::read_compact(&rec.payload) {
            Ok(e) => {
                if let Some(v) = e.number(CONSUMPTION_ATTR) {
                    acc.consumption += v;
                }
                if let Some(v) = e.number(ALERT_ATTR) {
                    acc.last_alert_value = Some(v);
                    if v < ALERT_BELOW {
                        acc.low_events += 1;
                    }
                }
            }
            Err(_) => self.malformed += 1,
        }
    }

    /// Materializes the current view state for merging/serving.
    pub fn snapshot(&self) -> ViewSnapshot {
        ViewSnapshot {
            entities: self.entities.clone(),
            applied: self.applied,
            malformed: self.malformed,
        }
    }
}

/// A point-in-time copy of the indexer state: the per-entity
/// accumulators. Snapshots from sibling shards merge with
/// [`ViewSnapshot::merge`]; derived views are computed on demand and are
/// bit-stable in the shard count (crate docs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ViewSnapshot {
    /// Per-entity state, keyed by entity id.
    pub entities: BTreeMap<String, EntityAccum>,
    /// Records applied across all entities.
    pub applied: u64,
    /// Records whose payload failed to parse.
    pub malformed: u64,
}

impl ViewSnapshot {
    /// Merges a sibling shard's snapshot into this one. Entity key sets
    /// are disjoint under shard routing; if a key *does* collide (e.g.
    /// merging overlapping replicas), the accumulator with the higher
    /// `last_seq` wins and the counts sum — deterministic in merge order
    /// for the sharded case because disjoint unions commute.
    pub fn merge(&mut self, other: ViewSnapshot) {
        for (key, theirs) in other.entities {
            match self.entities.entry(key) {
                Entry::Vacant(slot) => {
                    slot.insert(theirs);
                }
                Entry::Occupied(mut slot) => {
                    let ours = slot.get_mut();
                    ours.records += theirs.records;
                    ours.consumption += theirs.consumption;
                    ours.low_events += theirs.low_events;
                    if theirs.last_seq >= ours.last_seq {
                        ours.last_seq = theirs.last_seq;
                        ours.last_at = theirs.last_at;
                        ours.last_alert_value = theirs.last_alert_value;
                    }
                }
            }
        }
        self.applied += other.applied;
        self.malformed += other.malformed;
    }

    /// Per-farm rollups, folded from the entity map in key order and
    /// returned sorted by farm key.
    pub fn farm_rollups(&self) -> Vec<FarmRollup> {
        let mut farms: BTreeMap<&str, FarmRollup> = BTreeMap::new();
        for acc in self.entities.values() {
            let farm = farms
                .entry(acc.farm.as_str())
                .or_insert_with(|| FarmRollup {
                    farm: acc.farm.clone(),
                    ..FarmRollup::default()
                });
            farm.devices += 1;
            farm.records += acc.records;
            farm.consumption += acc.consumption;
            farm.low_events += acc.low_events;
        }
        farms.into_values().collect()
    }

    /// The five heaviest water consumers: sorted by total descending,
    /// ties broken by entity id ascending (total ordering — stable across
    /// shard counts and merge orders).
    pub fn top_consumers(&self) -> Vec<TopConsumer> {
        let mut all: Vec<TopConsumer> = self
            .entities
            .iter()
            .map(|(id, acc)| TopConsumer {
                entity: id.clone(),
                farm: acc.farm.clone(),
                consumption: acc.consumption,
            })
            .collect();
        all.sort_by(|a, b| {
            b.consumption
                .total_cmp(&a.consumption)
                .then_with(|| a.entity.cmp(&b.entity))
        });
        all.truncate(TOP_K);
        all
    }

    /// The alert digest: entities whose *latest* alert-attribute reading
    /// is below the floor (key order), plus the total count of
    /// below-floor events ever applied.
    pub fn alert_digest(&self) -> AlertDigest {
        let mut low_now = Vec::new();
        let mut low_events = 0;
        for (id, acc) in &self.entities {
            low_events += acc.low_events;
            if acc.last_alert_value.is_some_and(|v| v < ALERT_BELOW) {
                low_now.push(id.clone());
            }
        }
        AlertDigest {
            low_now,
            low_events,
        }
    }

    /// A deterministic JSON document of the derived views — what
    /// `Drive::query` returns for view reads and what the differential
    /// suites byte-compare. Keys are sorted (`Json::Object` is a
    /// `BTreeMap`) and every number is an exact `f64` the fold produced.
    pub fn to_json(&self) -> Json {
        let farms = Json::Array(
            self.farm_rollups()
                .into_iter()
                .map(|f| {
                    Json::object([
                        ("farm", Json::String(f.farm)),
                        ("devices", Json::Number(f.devices as f64)),
                        ("records", Json::Number(f.records as f64)),
                        ("consumption", Json::Number(f.consumption)),
                        ("low_events", Json::Number(f.low_events as f64)),
                    ])
                })
                .collect(),
        );
        let top = Json::Array(
            self.top_consumers()
                .into_iter()
                .map(|t| {
                    Json::object([
                        ("entity", Json::String(t.entity)),
                        ("farm", Json::String(t.farm)),
                        ("consumption", Json::Number(t.consumption)),
                    ])
                })
                .collect(),
        );
        let digest = self.alert_digest();
        let alerts = Json::object([
            (
                "low_now",
                Json::Array(digest.low_now.into_iter().map(Json::String).collect()),
            ),
            ("low_events", Json::Number(digest.low_events as f64)),
        ]);
        Json::object([
            ("applied", Json::Number(self.applied as f64)),
            ("malformed", Json::Number(self.malformed as f64)),
            ("entities", Json::Number(self.entities.len() as f64)),
            ("farms", farms),
            ("top_consumers", top),
            ("alerts", alerts),
        ])
    }
}

/// Rollup of one farm's fleet.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FarmRollup {
    /// Farm key (see [`farm_of`]).
    pub farm: String,
    /// Distinct devices seen.
    pub devices: u64,
    /// Updates applied across the farm.
    pub records: u64,
    /// Total consumption-attribute sum across the farm.
    pub consumption: f64,
    /// Below-floor alert events across the farm.
    pub low_events: u64,
}

/// One entry of the top-K consumers view.
#[derive(Clone, Debug, PartialEq)]
pub struct TopConsumer {
    /// Entity id.
    pub entity: String,
    /// Farm key.
    pub farm: String,
    /// Total consumption-attribute sum.
    pub consumption: f64,
}

/// The alert digest view.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AlertDigest {
    /// Entities currently below the floor, in id order.
    pub low_now: Vec<String>,
    /// Total below-floor events ever applied.
    pub low_events: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use swamp_codec::ngsi::Attribute;

    fn rec(seq: u64, id: &str, attrs: &[(&str, f64)]) -> UpdateRecord {
        let mut e = Entity::new(id, "SoilProbe");
        for (name, v) in attrs {
            e.set_attribute(*name, Attribute::new(*v));
        }
        UpdateRecord {
            seq,
            key: id.to_owned(),
            payload: e.to_json().to_compact_string().into_bytes(),
            created_at: SimTime::from_secs(seq),
        }
    }

    #[test]
    fn farm_key_derivation() {
        assert_eq!(farm_of("urn:swamp:farm-3:probe-17"), "farm-3");
        assert_eq!(farm_of("urn:swamp:device:probe-1"), "device");
        assert_eq!(farm_of("loner"), "unassigned");
        assert_eq!(farm_of(""), "unassigned");
    }

    #[test]
    fn cursor_only_folds_fresh_records() {
        let mut idx = ViewIndexer::new();
        let history = vec![
            rec(1, "urn:s:f1:d1", &[("water_flow", 2.0)]),
            rec(2, "urn:s:f1:d2", &[("water_flow", 3.0)]),
        ];
        assert_eq!(idx.catch_up(&history), 2);
        assert_eq!(idx.cursor, 2);
        // Re-presenting the same run applies nothing.
        assert_eq!(idx.catch_up(&history), 0);
        assert_eq!(idx.applied, 2);
        let mut longer = history.clone();
        longer.push(rec(3, "urn:s:f1:d1", &[("water_flow", 5.0)]));
        assert_eq!(idx.catch_up(&longer), 1);
        let snap = idx.snapshot();
        assert_eq!(snap.entities["urn:s:f1:d1"].consumption, 7.0);
        assert_eq!(snap.entities["urn:s:f1:d1"].records, 2);
        assert_eq!(snap.entities["urn:s:f1:d1"].last_seq, 3);
    }

    #[test]
    fn alerts_track_latest_value_and_event_count() {
        let mut idx = ViewIndexer::new();
        idx.catch_up(&[
            rec(1, "urn:s:f1:d1", &[("moisture_vwc", 0.05)]), // low
            rec(2, "urn:s:f1:d1", &[("moisture_vwc", 0.20)]), // recovered
            rec(3, "urn:s:f1:d2", &[("moisture_vwc", 0.08)]), // low now
        ]);
        let digest = idx.snapshot().alert_digest();
        assert_eq!(digest.low_events, 2);
        assert_eq!(digest.low_now, vec!["urn:s:f1:d2".to_owned()]);
    }

    #[test]
    fn malformed_payloads_count_but_do_not_poison() {
        let mut idx = ViewIndexer::new();
        let mut bad = rec(1, "urn:s:f1:d1", &[]);
        bad.payload = b"not json".to_vec();
        idx.catch_up(&[bad, rec(2, "urn:s:f1:d1", &[("water_flow", 4.0)])]);
        let snap = idx.snapshot();
        assert_eq!(snap.malformed, 1);
        assert_eq!(snap.entities["urn:s:f1:d1"].records, 2);
        assert_eq!(snap.entities["urn:s:f1:d1"].consumption, 4.0);
    }

    #[test]
    fn sharded_merge_equals_single_indexer() {
        // Route records by device parity onto two "shards"; the merged
        // snapshot must equal the one-indexer run bit-for-bit, including
        // the serialized JSON.
        let all: Vec<UpdateRecord> = (0..40u64)
            .map(|i| {
                let dev = i % 7;
                let farm = dev % 2;
                rec(
                    i + 1,
                    &format!("urn:s:farm-{farm}:d{dev}"),
                    &[
                        ("water_flow", (i % 5) as f64 + 0.25),
                        ("moisture_vwc", if i % 11 == 0 { 0.05 } else { 0.2 }),
                    ],
                )
            })
            .collect();
        let mut single = ViewIndexer::new();
        single.catch_up(&all);
        let mut a = ViewIndexer::new();
        let mut b = ViewIndexer::new();
        let shard_a: Vec<UpdateRecord> = all
            .iter()
            .filter(|r| r.key.ends_with(['0', '2', '4', '6']))
            .cloned()
            .collect();
        let shard_b: Vec<UpdateRecord> = all
            .iter()
            .filter(|r| r.key.ends_with(['1', '3', '5']))
            .cloned()
            .collect();
        a.catch_up(&shard_a);
        b.catch_up(&shard_b);
        let mut merged = a.snapshot();
        merged.merge(b.snapshot());
        let solo = single.snapshot();
        assert_eq!(merged.entities, solo.entities);
        assert_eq!(merged.applied, solo.applied);
        assert_eq!(
            merged.to_json().to_compact_string(),
            solo.to_json().to_compact_string()
        );
        // And merge order does not matter.
        let mut merged_rev = b.snapshot();
        merged_rev.merge(a.snapshot());
        assert_eq!(
            merged_rev.to_json().to_compact_string(),
            solo.to_json().to_compact_string()
        );
    }

    #[test]
    fn top_consumers_orders_and_breaks_ties_deterministically() {
        let mut idx = ViewIndexer::new();
        idx.catch_up(&[
            rec(1, "urn:s:f:b", &[("water_flow", 5.0)]),
            rec(2, "urn:s:f:a", &[("water_flow", 5.0)]),
            rec(3, "urn:s:f:c", &[("water_flow", 9.0)]),
            rec(4, "urn:s:f:d", &[("water_flow", 1.0)]),
            rec(5, "urn:s:f:e", &[("water_flow", 7.0)]),
            rec(6, "urn:s:f:g", &[("water_flow", 2.0)]),
        ]);
        let top = idx.snapshot().top_consumers();
        let ids: Vec<&str> = top.iter().map(|t| t.entity.as_str()).collect();
        assert_eq!(
            ids,
            [
                "urn:s:f:c",
                "urn:s:f:e",
                "urn:s:f:a",
                "urn:s:f:b",
                "urn:s:f:g"
            ]
        );
    }

    #[test]
    fn farm_rollups_fold_in_key_order() {
        let mut idx = ViewIndexer::new();
        idx.catch_up(&[
            rec(1, "urn:s:farm-b:d1", &[("water_flow", 1.0)]),
            rec(2, "urn:s:farm-a:d1", &[("water_flow", 2.0)]),
            rec(3, "urn:s:farm-a:d2", &[("water_flow", 3.0)]),
        ]);
        let farms = idx.snapshot().farm_rollups();
        assert_eq!(farms.len(), 2);
        assert_eq!(farms[0].farm, "farm-a");
        assert_eq!(farms[0].devices, 2);
        assert_eq!(farms[0].consumption, 5.0);
        assert_eq!(farms[1].farm, "farm-b");
        assert_eq!(farms[1].records, 1);
    }
}
