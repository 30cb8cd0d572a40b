//! # swamp-shard — the SWAMP scale-out tier
//!
//! The paper deploys one SWAMP platform per pilot (CBEC, Intercrop,
//! Guaspari, MATOPIBA); this crate runs *several farms at once* by
//! partitioning the deployment into per-farm **shards**. Each shard owns a
//! full [`Platform`] — its own network fabric, broker, history store and
//! fog→cloud sync engine — so shards never contend and a fault on one
//! farm's uplink cannot stall another's ingestion.
//!
//! Three pieces make the partitioning safe:
//!
//! - **Stable routing** ([`swamp_core::shard::route_device`]): a pure
//!   FNV-1a hash of the device id picks the shard, so assignment survives
//!   re-registration and restart, and a device's telemetry entities
//!   ([`swamp_core::shard::route_entity`]) follow it.
//! - **One schedule**: each round, every shard advances on the worker
//!   pool ([`pool`]; [`PlatformBuilder::workers`] threads, one meaning
//!   shard-index order on the calling thread) and the scope join is a
//!   barrier before aggregation. Because shards are fully isolated, no
//!   pump order or interleaving is observable; a sharded run replays
//!   bit-for-bit from its seed at any worker count.
//! - **Cross-shard aggregation**: after the round barrier, every shard
//!   replica's newly applied records are appended — *in shard-id order*,
//!   each shard's suffix in its own apply order — to one aggregate
//!   [`CloudStore`] through [`CloudStore::apply_record`], the same
//!   per-source dedup and `cloud.accepted` accounting a first-hand cloud
//!   applies to arrivals off the wire. The stores share a process, so
//!   there is nothing to encode, deliver or ack in between.
//!
//! The headline correctness property — proven by the differential harness
//! in `crates/pilots/tests/shard_differential.rs` — is that **sharding is
//! an implementation detail**: for any seeded workload, an N-shard run and
//! a 1-shard run produce identical merged history, identical
//! cloud-applied record sets and identical summed ingest/sync counters.

pub mod pool;

pub use swamp_core::shard::shard_seed;

use swamp_codec::ngsi::Entity;
use swamp_core::drive::Drive;
use swamp_core::platform::{DeploymentConfig, Platform, PlatformBuilder};
use swamp_core::query::{QueryRequest, QueryResponse};
use swamp_core::shard::{route_device, route_entity, ShardIndex};
use swamp_core::Error;
use swamp_fog::sync::CloudStore;
use swamp_net::message::NodeId;
use swamp_obs::{Counter, Gauge, Obs, ObsReport, ObsSnapshot};
use swamp_sensors::device::DeviceKind;
use swamp_sim::SimTime;

/// Typed handles for the tier's own instruments.
struct ShardInstruments {
    query_fanout: Counter,
    shard_count: Gauge,
}

impl ShardInstruments {
    fn register(obs: &mut Obs) -> ShardInstruments {
        ShardInstruments {
            query_fanout: obs.counter("query.fanout"),
            shard_count: obs.gauge("shard.count"),
        }
    }
}

/// A deployment partitioned into per-farm shards.
///
/// Build one from a [`PlatformBuilder`] with
/// [`PlatformBuilder::shards`] configured; every builder knob (deployment,
/// sync tuning, fault plan, uplink outages) applies to *each* shard, and
/// one fault plan is shared — cloned into every shard's fabric — so a
/// scheduled regional outage hits all farms alike.
///
/// # Example
/// ```
/// use swamp_core::platform::{DeploymentConfig, Platform};
/// use swamp_shard::ShardedPlatform;
/// use swamp_sensors::device::DeviceKind;
/// use swamp_sim::SimTime;
///
/// let builder = Platform::builder(DeploymentConfig::FarmFog).seed(7).shards(3);
/// let mut sp = ShardedPlatform::build(&builder);
/// let shard = sp
///     .register_device(SimTime::ZERO, "probe-1", DeviceKind::SoilProbe, "owner:demo")
///     .unwrap();
/// assert!(shard < 3);
/// ```
pub struct ShardedPlatform {
    shards: Vec<Platform>,
    workers: usize,
    /// Test seam for the merge-barrier ordering test: wall-clock
    /// milliseconds to delay each shard's step in a round (pump or ingest)
    /// by (never observable in exported state). Empty in production.
    stagger_ms: Vec<u64>,
    agg_store: CloudStore,
    /// Shard `i`'s identity as a record source in the aggregate store
    /// (every shard's engine numbers its records from 0, so the dedup
    /// must be per shard).
    sources: Vec<NodeId>,
    /// Per-shard cursor into the replica's append-only applied history:
    /// records before it are already in the aggregate store.
    forwarded_upto: Vec<usize>,
    obs: Obs,
    ins: ShardInstruments,
    base_seed: u64,
    config: DeploymentConfig,
}

impl ShardedPlatform {
    /// Builds `builder.shard_count()` platform shards plus the aggregation
    /// tier. Shard `i` gets the derived seed [`shard_seed`]`(base, i)` and
    /// a clone of the builder's fault plan and outage schedule.
    ///
    /// Takes the builder by reference: every shard is cloned from the same
    /// intact configuration through [`PlatformBuilder::build_shard`], and
    /// the caller keeps the builder — e.g. to also build the 1-shard
    /// serial baseline the differential suite compares against.
    pub fn build(builder: &PlatformBuilder) -> ShardedPlatform {
        let n = builder.shard_count();
        let base_seed = builder.configured_seed();
        let config = builder.deployment();

        let shards: Vec<Platform> = (0..n).map(|i| builder.build_shard(i)).collect();

        let mut obs = Obs::new();
        let ins = ShardInstruments::register(&mut obs);
        obs.set(ins.shard_count, n as f64);

        ShardedPlatform {
            shards,
            workers: builder.worker_count(),
            stagger_ms: Vec::new(),
            agg_store: CloudStore::new("cloud-agg"),
            sources: (0..n).map(|i| NodeId::new(format!("shard{i}"))).collect(),
            forwarded_upto: vec![0; n],
            obs,
            ins,
            base_seed,
            config,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of worker threads rounds run on (1 = the calling thread;
    /// see [`PlatformBuilder::workers`]).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Test seam for the merge-barrier ordering test: delays shard `i`'s
    /// pump and ingest by `stagger_ms[i]` wall-clock milliseconds, so a
    /// test can force shard 0 to finish last and shard N−1 first. Output
    /// must be unaffected — the delays are invisible to simulated time and
    /// to every exported snapshot.
    #[doc(hidden)]
    pub fn set_round_stagger_for_tests(&mut self, stagger_ms: Vec<u64>) {
        self.stagger_ms = stagger_ms;
    }

    /// The deployment configuration every shard runs.
    pub fn config(&self) -> DeploymentConfig {
        self.config
    }

    /// The shard a device id routes to.
    pub fn shard_of(&self, device_id: &str) -> ShardIndex {
        route_device(device_id, self.shards.len())
    }

    /// Mutable access to one shard's platform (fault drills, direct
    /// publishes).
    pub fn shard_mut(&mut self, i: ShardIndex) -> Option<&mut Platform> {
        self.shards.get_mut(i)
    }

    /// Iterates the shards in index order.
    pub fn shards(&self) -> impl Iterator<Item = &Platform> {
        self.shards.iter()
    }

    /// Registers a device on the shard its id routes to, returning that
    /// shard's index.
    ///
    /// # Errors
    /// [`Error::Registry`] if the id is already registered on its shard
    /// (routing is stable, so re-registration always lands on the same
    /// shard and is caught there).
    pub fn register_device(
        &mut self,
        now: SimTime,
        device_id: &str,
        kind: DeviceKind,
        owner: &str,
    ) -> Result<ShardIndex, Error> {
        let idx = self.shard_of(device_id);
        self.shards[idx].register_device(now, device_id, kind, owner)?;
        Ok(idx)
    }

    /// Device-side publish, routed to the device's shard.
    ///
    /// # Errors
    /// [`Error::Send`] if the shard's network refuses the send.
    pub fn device_publish(
        &mut self,
        now: SimTime,
        device_id: &str,
        entity: &Entity,
    ) -> Result<ShardIndex, Error> {
        let idx = self.shard_of(device_id);
        self.shards[idx].device_publish(now, device_id, entity)?;
        Ok(idx)
    }

    /// Applies a batch of already-validated entity updates, partitioned to
    /// each entity's shard by [`route_entity`] (device URNs follow their
    /// device). Returns the number of updates applied.
    ///
    /// The per-shard batches apply across the worker pool — shards are
    /// disjoint, so the applied count and every shard's state are the
    /// same at any worker count.
    pub fn ingest_entities(
        &mut self,
        now: SimTime,
        entities: impl IntoIterator<Item = Entity>,
    ) -> usize {
        let n = self.shards.len();
        let mut per_shard: Vec<Vec<Entity>> = (0..n).map(|_| Vec::new()).collect();
        for entity in entities {
            per_shard[route_entity(entity.id().as_str(), n)].push(entity);
        }
        pool::round(
            &mut self.shards,
            self.workers,
            &self.stagger_ms,
            per_shard,
            |shard, batch| {
                // An empty batch never enters the shard's ingest span.
                if batch.is_empty() {
                    0
                } else {
                    shard.ingest_entities(now, batch)
                }
            },
        )
    }

    /// Advances every shard one round, then runs one aggregation pass.
    /// Returns the number of entity updates ingested across all shards.
    ///
    /// Each shard's round runs on the worker pool ([`pool`]) and the
    /// scope join is the merge barrier; the aggregation pass that follows
    /// appends applied-record batches in shard-id order, so every worker
    /// count produces byte-identical fingerprints and obs exports.
    pub fn pump(&mut self, now: SimTime) -> usize {
        let inputs = vec![(); self.shards.len()];
        let ingested = pool::round(
            &mut self.shards,
            self.workers,
            &self.stagger_ms,
            inputs,
            |shard, ()| shard.pump(now),
        );
        self.aggregate(now);
        ingested
    }

    /// One aggregation pass: appends each shard replica's newly applied
    /// records to the aggregate [`CloudStore`], shard by shard in shard-id
    /// order. The replica's applied history is append-only, so a cursor
    /// per shard picks up exactly the records applied since the last
    /// pass; when the pass returns the aggregate holds everything the
    /// shards have applied. Applying is untimed, so `_now` is not read.
    pub fn aggregate(&mut self, _now: SimTime) {
        for (idx, shard) in self.shards.iter().enumerate() {
            let Some(replica) = shard.cloud_replica() else {
                continue;
            };
            let history = replica.history();
            for record in &history[self.forwarded_upto[idx].min(history.len())..] {
                self.agg_store
                    .apply_record(&self.sources[idx], record.clone());
            }
            self.forwarded_upto[idx] = history.len();
        }
    }

    /// One [`ShardedPlatform::aggregate`] pass at `now`, returning `now`:
    /// aggregation has no transit to settle, so this exists for callers
    /// that flush after their last round without pumping again.
    pub fn flush_aggregation(&mut self, now: SimTime) -> SimTime {
        self.aggregate(now);
        now
    }

    /// The aggregate cloud store built from every shard's replicated
    /// records.
    pub fn aggregate_store(&self) -> &CloudStore {
        &self.agg_store
    }

    /// Answers a typed read by fanning it out to every shard **in
    /// shard-id order** and folding the answers with
    /// [`QueryResponse::merge`] — the same barrier discipline the pump's
    /// merge step follows, so a query observes a consistent post-round
    /// state. Entity routing makes per-series reads single-owner; series
    /// dumps and views merge byte-stably (disjoint key sets, shard-id
    /// fold order). Counts each fan-out leg on `query.fanout`.
    pub fn query(&mut self, req: &QueryRequest) -> QueryResponse {
        let mut merged = QueryResponse::empty_for(req);
        for shard in &mut self.shards {
            merged.merge(shard.query(req));
        }
        self.obs
            .add(self.ins.query_fanout, self.shards.len() as u64);
        merged
    }

    /// Freezes every shard's history tails into columnar segments (in
    /// shard-id order; see [`Platform::compact_history`]). Returns the
    /// total segments created.
    pub fn compact_history(&mut self) -> usize {
        self.shards.iter_mut().map(Platform::compact_history).sum()
    }

    /// One merged snapshot across the whole tier: every shard's
    /// [`Platform::observe`] (counters add, so `ingest.*`/`sync.*` totals
    /// are fleet-wide), the aggregate store, and the tier's own
    /// `query.fanout`/`shard.count` instruments. Byte-stable: shards
    /// merge in index order and [`ObsSnapshot`] serialization is sorted.
    pub fn observe(&self) -> ObsSnapshot {
        let mut snap = self.obs.snapshot();
        for shard in &self.shards {
            snap.merge(&shard.observe());
        }
        snap.merge(&self.agg_store.observe());
        snap
    }

    /// Per-shard labelled reports plus the merged tier report: one
    /// [`ObsReport`] labelled `<base>/shard<i>` per shard (carrying that
    /// shard's derived seed) followed by `<base>/merged` (base seed,
    /// merged snapshot from [`ShardedPlatform::observe`]). Label order is
    /// deterministic, so serializing the vec is byte-stable run-to-run.
    pub fn observe_labelled(&self, base: &str) -> Vec<ObsReport> {
        let mut reports: Vec<ObsReport> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                ObsReport::new(&format!("{base}/shard{i}"), shard.seed(), shard.observe())
            })
            .collect();
        reports.push(ObsReport::new(
            &format!("{base}/merged"),
            self.base_seed,
            self.observe(),
        ));
        reports
    }
}

impl Drive for ShardedPlatform {
    fn round(&mut self, now: SimTime) -> usize {
        self.pump(now)
    }

    fn ingest(&mut self, now: SimTime, batch: Vec<Entity>) -> usize {
        self.ingest_entities(now, batch)
    }

    fn observe(&self) -> ObsSnapshot {
        ShardedPlatform::observe(self)
    }

    fn observe_labelled(&self, base: &str) -> Vec<ObsReport> {
        ShardedPlatform::observe_labelled(self, base)
    }

    fn query(&mut self, req: &QueryRequest) -> QueryResponse {
        ShardedPlatform::query(self, req)
    }
}

impl std::fmt::Debug for ShardedPlatform {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedPlatform")
            .field("shards", &self.shards.len())
            .field("config", &self.config)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swamp_sim::SimDuration;

    fn build(n: usize, seed: u64) -> ShardedPlatform {
        ShardedPlatform::build(
            &Platform::builder(DeploymentConfig::FarmFog)
                .seed(seed)
                .shards(n),
        )
    }

    fn probe_update(i: usize, seq: f64) -> Entity {
        let mut e = Entity::new(format!("urn:swamp:device:probe-{i}"), "SoilProbe");
        e.set("moisture_vwc", 0.2 + (i % 10) as f64 * 0.01);
        e.set("seq", seq);
        e
    }

    #[test]
    fn shard_zero_matches_plain_platform_seed() {
        assert_eq!(shard_seed(42, 0), 42);
        assert_ne!(shard_seed(42, 1), 42);
    }

    #[test]
    fn zero_bucket_downsample_answers_no_buckets_on_both_tiers() {
        // A reader-supplied zero bucket reaches `HistoryStore::downsample`
        // through `Drive::query`; it must answer, not panic the platform.
        let downsample = |bucket| QueryRequest::Downsample {
            entity: "urn:swamp:device:probe-1".into(),
            attr: "moisture_vwc".into(),
            from: SimTime::ZERO,
            to: SimTime::from_secs(10),
            bucket,
        };
        let mut single = Platform::builder(DeploymentConfig::FarmFog)
            .seed(42)
            .build();
        let mut sharded = build(3, 42);
        let tiers: [&mut dyn Drive; 2] = [&mut single, &mut sharded];
        for tier in tiers {
            assert_eq!(
                tier.ingest(SimTime::from_secs(1), vec![probe_update(1, 0.0)]),
                1
            );
            for (bucket, expected) in [(SimDuration::ZERO, 0), (SimDuration::from_secs(1), 1)] {
                match tier.query(&downsample(bucket)) {
                    QueryResponse::Buckets(b) => assert_eq!(b.len(), expected, "{bucket:?}"),
                    other => panic!("wrong response: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn devices_route_to_owning_shard() {
        let mut sp = build(4, 7);
        let idx = sp
            .register_device(SimTime::ZERO, "probe-1", DeviceKind::SoilProbe, "owner:t")
            .unwrap();
        assert_eq!(idx, sp.shard_of("probe-1"));
        // Re-registration lands on the same shard and errors there.
        assert!(sp
            .register_device(SimTime::ZERO, "probe-1", DeviceKind::SoilProbe, "owner:t")
            .is_err());
    }

    #[test]
    fn ingest_partitions_and_aggregates() {
        let mut sp = build(3, 42);
        let updates: Vec<Entity> = (0..30).map(|i| probe_update(i, 0.0)).collect();
        let applied = sp.ingest_entities(SimTime::from_secs(1), updates);
        assert_eq!(applied, 30);
        // Per-shard history totals sum to the batch (2 samples per update).
        let total: u64 = sp.shards().map(|s| s.history.len()).sum();
        assert_eq!(total, 60);
        // Pump until replication lands.
        let mut now = SimTime::from_secs(1);
        for _ in 0..50 {
            now = now.saturating_add(SimDuration::from_secs(60));
            sp.pump(now);
        }
        assert_eq!(sp.aggregate_store().history().len(), 30);
        let snap = sp.observe();
        assert_eq!(
            snap.counter("cloud.accepted").unwrap(),
            60,
            "30 per-shard + 30 agg"
        );
    }

    #[test]
    fn builder_survives_shard_fanout_with_fault_plan_intact() {
        // Regression (seed-cloning footgun): the fan-out path used to
        // consume one builder clone per shard, so a caller could end up
        // building later shards — or a serial baseline — from a builder
        // whose fault plan had already been moved out. `build(&builder)`
        // must leave the builder reusable with its full configuration.
        let mut schedule = swamp_fog::availability::OutageSchedule::new();
        schedule.add_outage(SimTime::from_secs(10), SimTime::from_secs(300));
        let builder = Platform::builder(DeploymentConfig::FarmFog)
            .seed(42)
            .shards(3)
            .uplink_outages(&schedule);

        let run = |sp: &mut ShardedPlatform| {
            let updates: Vec<Entity> = (0..12).map(|i| probe_update(i, 0.0)).collect();
            sp.ingest_entities(SimTime::from_secs(1), updates);
            let mut now = SimTime::from_secs(1);
            for _ in 0..10 {
                now = now.saturating_add(SimDuration::from_secs(60));
                sp.pump(now);
            }
            ObsReport::array_to_json_string(&sp.observe_labelled("t"))
        };

        let mut first = ShardedPlatform::build(&builder);
        let mut second = ShardedPlatform::build(&builder);
        let a = run(&mut first);
        let b = run(&mut second);
        assert_eq!(a, b, "same builder must build identical deployments");
        // The outage window reached every shard's fabric both times: the
        // scheduled partition fired during the pumped window.
        assert!(
            first.observe().counter("net.fault.partitioned").unwrap() > 0,
            "fault plan must survive the fan-out"
        );
    }

    #[test]
    fn worker_knob_is_clamped_and_reported() {
        let sp = ShardedPlatform::build(
            &Platform::builder(DeploymentConfig::FarmFog)
                .seed(1)
                .shards(2)
                .workers(0),
        );
        assert_eq!(sp.workers(), 1, "workers(0) clamps to the calling thread");
    }

    #[test]
    fn labelled_reports_are_deterministic() {
        let run = |_| {
            let mut sp = build(2, 42);
            let updates: Vec<Entity> = (0..8).map(|i| probe_update(i, 0.0)).collect();
            sp.ingest_entities(SimTime::from_secs(1), updates);
            let mut now = SimTime::from_secs(1);
            for _ in 0..20 {
                now = now.saturating_add(SimDuration::from_secs(60));
                sp.pump(now);
            }
            ObsReport::array_to_json_string(&sp.observe_labelled("t"))
        };
        assert_eq!(
            run(0),
            run(1),
            "two seed-42 runs must serialize identically"
        );
    }
}
