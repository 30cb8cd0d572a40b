//! The assembled SWAMP platform: network + secure ingestion + context
//! broker + history + fog tier, in the deployment configurations the paper
//! describes ("smart algorithms and analytics in the cloud, fog-based smart
//! decisions located on the farm premises").
//!
//! One [`Platform`] instance is one pilot deployment, assembled by
//! [`PlatformBuilder`] (see [`Platform::builder`]). Devices are registered
//! (keystore provisioning + registry), publish sealed NGSI entity updates
//! over the simulated network, and the ingestion pipeline authenticates,
//! replay-checks and stores them.
//!
//! Both deployment configurations now ride the same retry/ack engine over
//! the unreliable uplink ([`swamp_fog::sync::FogSync`]):
//!
//! - [`DeploymentConfig::FarmFog`] — the context lives on the farm fog
//!   node; accepted updates are replicated to the cloud store-and-forward,
//!   so the platform keeps serving during Internet outages.
//! - [`DeploymentConfig::CloudOnly`] — the gateway store-and-forwards
//!   sealed frames to the cloud through the same engine (replacing the old
//!   fire-and-forget relay, which silently lost frames to uplink loss).
//!
//! The engine's [`DegradedMode`] is surfaced through
//! [`Platform::degraded_mode`], and deterministic faults
//! (loss/duplication/reordering/partitions) can be injected at build time
//! with [`PlatformBuilder::fault_plan`] and
//! [`PlatformBuilder::uplink_outages`].

use std::collections::BTreeMap;

use swamp_codec::ngsi::Entity;
use swamp_crypto::aead::NonceSequence;
use swamp_crypto::keystore::{KeyEpoch, Keystore};
use swamp_fog::availability::{OutageSchedule, ServedBy};
use swamp_fog::sync::{CloudStore, DegradedMode, FogSync, ACK_TOPIC, SYNC_TOPIC};
use swamp_net::fault::FaultPlan;
use swamp_net::link::LinkSpec;
use swamp_net::message::{Delivery, Message, NodeId};
use swamp_net::network::Network;
use swamp_obs::{Counter, Level, Obs, ObsSnapshot, Span};
use swamp_security::access::{Action, Decision, Pdp, Resource};
use swamp_security::baseline::{BaselineConfig, BehaviorBank};
use swamp_security::detect::RangeValidator;
use swamp_security::identity::{AuthError, IdentityProvider, Token};
use swamp_security::pipeline::DetectorBank;
use swamp_sensors::device::DeviceKind;
use swamp_sim::{SimDuration, SimTime};
use swamp_views::ViewIndexer;

use crate::broker::ContextBroker;
use crate::error::Error;
use crate::history::{HistoryStore, SeriesId};
use crate::query::{QueryRequest, QueryResponse, SeriesEntry};
use crate::registry::{DeviceRecord, DeviceRegistry, DeviceSlot, RegistryError};
use crate::shard::DEVICE_URN_PREFIX;

/// Where the platform's decision logic runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeploymentConfig {
    /// Everything in the cloud; the farm gateway store-and-forwards sealed
    /// frames upstream. Decisions stall during Internet outages, but
    /// telemetry is buffered rather than lost.
    CloudOnly,
    /// A farm-premises fog node hosts the context broker and decisions;
    /// the cloud receives replicated state asynchronously.
    FarmFog,
}

/// Why a telemetry frame was rejected by ingestion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// Device not in the registry (rogue node) or quarantined.
    UnregisteredDevice(String),
    /// Authenticated decryption failed (wrong key, tampered frame), or
    /// the frame's entity is not the sender's own
    /// (`urn:swamp:device:<device_id>`).
    AuthenticationFailed(String),
    /// Payload did not parse as an entity.
    MalformedPayload(String),
    /// The frame's `seq` is missing, negative or not a whole number; or it
    /// is 64 or more behind the highest seq admitted from the device; or
    /// the device's replay window already admitted it (a replay or a
    /// duplicate). A fresh seq fewer than 64 behind the highest, from a
    /// frame a later one overtook, is admitted once.
    Replay(String),
    /// The frame carries a physically impossible value: it is refused and
    /// its sender quarantined (counted on `ingest.quarantined`).
    ImpossibleValue(String),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::UnregisteredDevice(d) => write!(f, "unregistered device {d:?}"),
            IngestError::AuthenticationFailed(d) => {
                write!(f, "authentication failed for {d:?}")
            }
            IngestError::MalformedPayload(d) => write!(f, "malformed payload from {d:?}"),
            IngestError::Replay(d) => write!(f, "replayed frame from {d:?}"),
            IngestError::ImpossibleValue(d) => {
                write!(f, "impossible value from {d:?}; device quarantined")
            }
        }
    }
}
impl std::error::Error for IngestError {}

/// The assembled platform.
pub struct Platform {
    config: DeploymentConfig,
    /// The seed every stochastic process was derived from (see
    /// [`PlatformBuilder::seed`]); labelled obs reports carry it.
    seed: u64,
    /// The simulated network fabric (public for attack/SDN experiments).
    pub net: Network,
    /// The context broker (public: the platform API surface).
    pub context: ContextBroker,
    /// Historical time-series store.
    pub history: HistoryStore,
    /// Device registry.
    pub registry: DeviceRegistry,
    /// Key management.
    pub keystore: Keystore,
    /// Identity provider (OAuth2-style).
    pub idm: IdentityProvider,
    /// Policy decision point.
    pub pdp: Pdp,
    /// The range screen every sealed frame passes ("avoid fake data").
    /// It keeps no per-device state: a hit disables the sender's registry
    /// row, and its alerts reach [`Platform::observe`].
    detectors: DetectorBank,
    /// Streaming behavioral baseline ("expected sequence of events"), the
    /// one statistical detector, fed one observation per accepted record
    /// of its signal attribute by [`Platform::ingest_entities`]. Its flags
    /// are reported to the operator, never acted on by the platform.
    /// Passive by default (see [`BaselineConfig`]); configure phases via
    /// [`PlatformBuilder::baseline`].
    pub behavior: BehaviorBank,
    /// Each registered device's nonce sequence, by registry slot. This is
    /// device-side state (the sender half of its frames' AEAD nonces),
    /// kept apart from the admission row the fog side reads.
    nonces: Vec<NonceSequence>,
    /// The attribute names whose history series registry rows cache, each
    /// with the tag a row files its series of that name under. A name is
    /// added only for a row with room, so the table holds at most
    /// [`ROW_SERIES`] names per registered device and no device can fill
    /// it for the others.
    series_attrs: BTreeMap<Box<str>, u32>,
    /// The topology's node ids, made once: the cloud, the farm-side node
    /// devices talk to, and the node ingestion runs on (one of the two).
    cloud_id: NodeId,
    farm_id: NodeId,
    node_id: NodeId,
    /// Serialisation scratch of the write path: each entity's wire form
    /// is streamed here, then copied out at its exact size.
    wire_scratch: String,
    /// Decryption scratch of the read path: each authenticated frame's
    /// plaintext lands here and is read into its entity in place.
    plaintext: Vec<u8>,
    /// The chunk of entities [`Platform::ingest_entities`] is working on,
    /// each with its sender's registry slot when admission resolved one;
    /// empty between calls, its capacity (`INGEST_CHUNK`) kept.
    ingest_chunk: Vec<(Option<DeviceSlot>, Entity)>,
    /// The deliveries [`Platform::pump`] is routing; empty between pumps,
    /// its capacity kept, so a pump that receives a window of acks or
    /// relayed frames allocates nothing window-sized.
    inbox: Vec<Delivery>,
    /// The one store-and-forward engine over the farm↔cloud uplink; its
    /// role follows `config`: fog→cloud replication of accepted context
    /// (FarmFog), or the gateway relaying sealed frames (CloudOnly).
    uplink: FogSync,
    /// The cloud-side receiver for `uplink`: the replica of applied
    /// context (FarmFog, exposed by [`Platform::cloud_replica`]), or the
    /// in-order deduplicator of relayed frames (CloudOnly — sealed frames
    /// in transit, not replicated context, so never exposed). Either way
    /// its one per-source seq watermark, raised by the floor each record
    /// carries, both deduplicates and (CloudOnly) releases.
    cloud_store: CloudStore,
    /// Incremental materialized views (farm rollups, top-K, alerts):
    /// tails the cloud replica's applied-record run behind its own
    /// cursor. Caught up lazily on [`Platform::query`].
    views: ViewIndexer,
    obs: Obs,
    ins: PlatformInstruments,
}

/// Typed handles for the platform's own instruments (`ingest.*`,
/// `relay.*`, `query.*`, `view.*`, and the `platform.*`/`query.run`
/// spans); the network, uplink engine, cloud store
/// and detector bank each own their instruments, merged on demand by
/// [`Platform::observe`].
struct PlatformInstruments {
    accepted: Counter,
    rejected_unregistered: Counter,
    rejected_auth: Counter,
    rejected_malformed: Counter,
    rejected_replay: Counter,
    quarantined: Counter,
    replication_refused: Counter,
    non_finite: Counter,
    sync_malformed_ack: Counter,
    relay_malformed_ack: Counter,
    relay_refused: Counter,
    query_requests: Counter,
    query_segments_pruned: Counter,
    query_segments_summarized: Counter,
    query_segments_decoded: Counter,
    view_applied: Counter,
    pump_span: Span,
    ingest_span: Span,
    query_span: Span,
}

impl PlatformInstruments {
    fn register(obs: &mut Obs) -> PlatformInstruments {
        PlatformInstruments {
            accepted: obs.counter("ingest.accepted"),
            rejected_unregistered: obs.counter("ingest.rejected_unregistered"),
            rejected_auth: obs.counter("ingest.rejected_auth"),
            rejected_malformed: obs.counter("ingest.rejected_malformed"),
            rejected_replay: obs.counter("ingest.rejected_replay"),
            quarantined: obs.counter("ingest.quarantined"),
            replication_refused: obs.counter("ingest.replication_refused"),
            non_finite: obs.counter("ingest.non_finite"),
            sync_malformed_ack: obs.counter("sync.malformed_ack"),
            relay_malformed_ack: obs.counter("relay.malformed_ack"),
            relay_refused: obs.counter("relay.refused"),
            query_requests: obs.counter("query.requests"),
            query_segments_pruned: obs.counter("query.segments_pruned"),
            query_segments_summarized: obs.counter("query.segments_summarized"),
            query_segments_decoded: obs.counter("query.segments_decoded"),
            view_applied: obs.counter("view.applied"),
            pump_span: obs.span("platform.pump"),
            ingest_span: obs.span("platform.ingest"),
            query_span: obs.span("query.run"),
        }
    }
}

/// How many entities [`Platform::ingest_entities`] carries through its
/// stages at a time. Small enough that a chunk and what the stages touch
/// for it stay cache-resident and that ingest's working memory does not
/// grow with the fleet; large enough that each stage runs long enough to
/// keep its own tables hot.
const INGEST_CHUNK: usize = 256;

/// How many history series one registry row caches. Telemetry carries a
/// handful of attributes; a device's attribute past its row's room is
/// interned by name on every append instead, so a device that invents
/// names cannot make its row's scan long.
const ROW_SERIES: usize = 16;

/// The nonce sender id of a frame [`Platform::device_publish`] seals for
/// an unregistered id (whose frame is refused at ingest).
const ROGUE_SENDER: u32 = 9999;

/// Node names used by the platform topology.
pub mod nodes {
    /// The cloud datacenter node.
    pub const CLOUD: &str = "cloud";
    /// The farm fog node (FarmFog config).
    pub const FOG: &str = "farm-fog";
    /// The farm gateway/relay node (CloudOnly config).
    pub const GATEWAY: &str = "farm-gw";
}

/// Assembles a [`Platform`] with named, defaulted knobs: seed, uplink
/// retry/backoff tuning, and deterministic fault injection.
///
/// # Example
/// ```
/// use swamp_core::platform::{DeploymentConfig, Platform};
/// use swamp_sim::SimDuration;
///
/// let p = Platform::builder(DeploymentConfig::FarmFog)
///     .seed(42)
///     .sync_base_timeout(SimDuration::from_secs(30))
///     .sync_jitter(0.0)
///     .build();
/// assert_eq!(p.config(), DeploymentConfig::FarmFog);
/// ```
#[derive(Clone, Debug)]
pub struct PlatformBuilder {
    seed: u64,
    config: DeploymentConfig,
    sync_capacity: usize,
    sync_base_timeout: SimDuration,
    sync_jitter: f64,
    fault_plan: Option<FaultPlan>,
    uplink_outages: Vec<(SimTime, SimTime)>,
    uplink_spec: Option<LinkSpec>,
    shards: usize,
    workers: usize,
    history_segment_threshold: Option<usize>,
    baseline: BaselineConfig,
}

impl PlatformBuilder {
    fn new(config: DeploymentConfig) -> Self {
        PlatformBuilder {
            seed: 0,
            config,
            sync_capacity: 100_000,
            sync_base_timeout: SimDuration::from_secs(60),
            sync_jitter: 0.1,
            fault_plan: None,
            uplink_outages: Vec::new(),
            uplink_spec: None,
            shards: 1,
            workers: 1,
            history_segment_threshold: None,
            baseline: BaselineConfig::default(),
        }
    }

    /// Configures the streaming behavioral baseline (training/
    /// calibration horizons, profile-error margin). The default config
    /// trains forever and never flags — a passive bank.
    pub fn baseline(mut self, config: BaselineConfig) -> Self {
        self.baseline = config;
        self
    }

    /// Auto-freeze cadence of the history store's columnar segments:
    /// every `Some(n)` tail samples a series' tail is frozen into an
    /// immutable segment (see [`HistoryStore::compact`]). `None` (the
    /// default) never auto-freezes — the flat pre-segment layout.
    /// Compaction is observationally free either way; this knob trades
    /// append-side freeze work for query-side segment pruning.
    pub fn history_segment_threshold(mut self, threshold: Option<usize>) -> Self {
        self.history_segment_threshold = threshold;
        self
    }

    /// Seeds every stochastic process (network, fault plan, retry jitter).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Capacity of the uplink store-and-forward buffer.
    pub fn sync_capacity(mut self, capacity: usize) -> Self {
        self.sync_capacity = capacity;
        self
    }

    /// First-retransmission timeout of the uplink engine.
    pub fn sync_base_timeout(mut self, timeout: SimDuration) -> Self {
        self.sync_base_timeout = timeout;
        self
    }

    /// Jitter fraction applied to uplink retry timers (`[0, 1]`).
    pub fn sync_jitter(mut self, fraction: f64) -> Self {
        self.sync_jitter = fraction;
        self
    }

    /// Installs a deterministic fault-injection plan on the network
    /// fabric (loss, duplication, reordering, delay, partitions).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Overrides the farm↔cloud uplink link characteristics (default:
    /// [`LinkSpec::rural_internet`]). The shard differential harness runs
    /// a lossless, jitter-free uplink so retry/duplicate counters are
    /// workload-determined rather than channel-determined; benchmarks can
    /// model fatter or thinner pipes.
    pub fn uplink_spec(mut self, spec: LinkSpec) -> Self {
        self.uplink_spec = Some(spec);
        self
    }

    /// Number of per-farm shards the deployment is partitioned into
    /// (≥ 1; zero is clamped to one). [`PlatformBuilder::build`] always
    /// builds a *single* shard — the scale-out tier
    /// (`swamp_shard::ShardedPlatform::build`) reads this via
    /// [`PlatformBuilder::shard_count`] and instantiates one platform per
    /// shard, routing devices with [`crate::shard::route_device`].
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// The configured shard count (see [`PlatformBuilder::shards`]).
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Number of worker threads the scale-out tier may advance shards on
    /// (≥ 1; zero is clamped to one). `1` means the serial schedule; the
    /// parallel schedule is fingerprint-identical to it (the shard
    /// differential suite proves this), so this knob trades wall-clock for
    /// cores without changing behavior. Ignored by
    /// [`PlatformBuilder::build`], which always assembles one platform.
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// The configured worker-thread count (see
    /// [`PlatformBuilder::workers`]).
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// The configured base seed (see [`PlatformBuilder::seed`]). The
    /// scale-out tier derives per-shard seeds from this.
    pub fn configured_seed(&self) -> u64 {
        self.seed
    }

    /// The configured deployment (see [`Platform::builder`]).
    pub fn deployment(&self) -> DeploymentConfig {
        self.config
    }

    /// Schedules farm↔cloud uplink partitions from an outage schedule:
    /// each `[start, end)` window becomes a fault-plan partition on the
    /// uplink pair (creating a fault plan if none was supplied).
    pub fn uplink_outages(mut self, schedule: &OutageSchedule) -> Self {
        self.uplink_outages.extend_from_slice(schedule.windows());
        self
    }

    /// Builds the platform.
    ///
    /// # Panics
    /// Panics if [`PlatformBuilder::uplink_outages`] windows overlap
    /// partitions already scheduled on the uplink pair in a supplied
    /// [`PlatformBuilder::fault_plan`] (both sources are caller-authored
    /// configuration, so the overlap is a configuration bug).
    #[expect(clippy::expect_used, reason = "documented under # Panics")]
    pub fn build(self) -> Platform {
        let PlatformBuilder {
            seed,
            config,
            sync_capacity,
            sync_base_timeout,
            sync_jitter,
            mut fault_plan,
            uplink_outages,
            uplink_spec,
            // One builder always yields one shard; ShardedPlatform::build
            // fans a builder out into `shards` platforms across `workers`
            // threads.
            shards: _,
            workers: _,
            history_segment_threshold,
            baseline,
        } = self;

        let mut net = Network::new(seed);
        let cloud_id = net.add_node(nodes::CLOUD);
        let farm = match config {
            DeploymentConfig::CloudOnly => nodes::GATEWAY,
            DeploymentConfig::FarmFog => nodes::FOG,
        };
        let farm_id = net.add_node(farm);
        let node_id = match config {
            DeploymentConfig::CloudOnly => cloud_id.clone(),
            DeploymentConfig::FarmFog => farm_id.clone(),
        };
        net.connect(
            farm,
            nodes::CLOUD,
            uplink_spec.unwrap_or_else(LinkSpec::rural_internet),
        );

        if !uplink_outages.is_empty() {
            let plan = fault_plan.get_or_insert_with(|| FaultPlan::new(seed));
            plan.add_partitions_from(farm, nodes::CLOUD, uplink_outages)
                .expect("uplink outage windows overlap partitions already in the fault plan");
        }
        if let Some(plan) = fault_plan {
            net.install_fault_plan(plan);
        }

        let uplink = FogSync::builder(farm, nodes::CLOUD)
            .capacity(sync_capacity)
            .base_timeout(sync_base_timeout)
            .jitter(sync_jitter)
            .seed(seed ^ 0x73796e635f656e67) // "sync_eng"
            .build();
        let cloud_store = match config {
            DeploymentConfig::FarmFog => CloudStore::new(nodes::CLOUD),
            // In-order release: relayed frames meet the replay window in
            // each device's registry row, which rejects any frame that
            // arrives 64 or more seqs behind the highest it admitted — and
            // retransmissions on a lossy uplink reorder without bound. A seq the
            // gateway's bounded buffer evicted is released past as soon as
            // a record carrying the gateway's raised floor lands.
            DeploymentConfig::CloudOnly => CloudStore::in_order(nodes::CLOUD),
        };

        let mut detectors = DetectorBank::new();
        detectors.configure_quantity("moisture_vwc", RangeValidator::soil_moisture());
        detectors.configure_quantity("battery_fraction", RangeValidator::new(0.0, 1.0));
        detectors.configure_quantity("rh_mean_pct", RangeValidator::new(0.0, 100.0));

        let mut obs = Obs::new();
        let ins = PlatformInstruments::register(&mut obs);
        let mut history = HistoryStore::new();
        history.set_segment_threshold(history_segment_threshold);
        Platform {
            config,
            seed,
            net,
            context: ContextBroker::new(),
            history,
            registry: DeviceRegistry::new(),
            keystore: Keystore::new(&seed.to_be_bytes()),
            idm: IdentityProvider::new(b"swamp-idm-signing", SimDuration::from_hours(8)),
            pdp: Pdp::new(),
            detectors,
            behavior: BehaviorBank::new(baseline),
            nonces: Vec::new(),
            series_attrs: BTreeMap::new(),
            cloud_id,
            farm_id,
            node_id,
            wire_scratch: String::new(),
            plaintext: Vec::new(),
            ingest_chunk: Vec::with_capacity(INGEST_CHUNK),
            inbox: Vec::new(),
            uplink,
            cloud_store,
            views: ViewIndexer::new(),
            obs,
            ins,
        }
    }

    /// Builds shard `i` of a scale-out deployment *without consuming the
    /// builder*: the configuration (fault plan, outage windows, uplink
    /// spec, sync tuning) is cloned per shard and the shard's seed is
    /// derived with [`crate::shard::shard_seed`], so shard 0 of an
    /// N-shard deployment is byte-identical to the 1-shard build from the
    /// same builder.
    ///
    /// Taking `&self` is load-bearing: the old fan-out path consumed the
    /// builder per shard, so a caller holding only getters could end up
    /// building later shards from a builder whose fault plan had already
    /// been moved out. Every shard now clones from the same intact
    /// configuration.
    ///
    /// # Panics
    /// As [`PlatformBuilder::build`], if outage windows overlap fault-plan
    /// partitions.
    pub fn build_shard(&self, shard: crate::shard::ShardIndex) -> Platform {
        let seed = crate::shard::shard_seed(self.seed, shard);
        self.clone().seed(seed).build()
    }
}

impl Platform {
    /// Starts building a platform in the given deployment configuration.
    pub fn builder(config: DeploymentConfig) -> PlatformBuilder {
        PlatformBuilder::new(config)
    }

    /// The deployment configuration.
    pub fn config(&self) -> DeploymentConfig {
        self.config
    }

    /// The seed this platform was built with (see
    /// [`PlatformBuilder::seed`]).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The farm-side node devices connect to.
    pub fn farm_node(&self) -> NodeId {
        self.farm_id.clone()
    }

    /// One merged, typed snapshot of every subsystem's instruments: the
    /// platform's own `ingest.*`/`relay.*` counters and `platform.*` spans,
    /// the network's `net.*` instruments, the uplink engine's `sync.*`
    /// instruments, the cloud store's `cloud.*` counters and the detector
    /// bank's `security.*` instruments. Counters with the same name add,
    /// gauges take the later value, summaries merge, events interleave by
    /// `(tick, seq)` — with each deployment owning exactly one engine and
    /// one store, merged names never collide in practice.
    pub fn observe(&self) -> ObsSnapshot {
        let mut snap = self.obs.snapshot();
        snap.merge(&self.net.observe());
        snap.merge(&self.uplink.observe());
        snap.merge(&self.cloud_store.observe());
        snap.merge(&self.detectors.observe());
        snap.merge(&self.behavior.observe());
        snap
    }

    /// Enables or disables instrumentation across every subsystem (the
    /// uninstrumented baseline for overhead benchmarks).
    pub fn set_obs_enabled(&mut self, enabled: bool) {
        self.obs.set_enabled(enabled);
        self.net.set_obs_enabled(enabled);
        self.uplink.set_obs_enabled(enabled);
        self.cloud_store.set_obs_enabled(enabled);
        self.detectors.set_obs_enabled(enabled);
        self.behavior.set_obs_enabled(enabled);
    }

    /// The cloud replica store, if this is a fog deployment. (The CloudOnly
    /// gateway relay also uses a store internally, but it holds sealed
    /// frames in transit, not replicated context, so it is not exposed
    /// here.)
    pub fn cloud_replica(&self) -> Option<&CloudStore> {
        match self.config {
            DeploymentConfig::FarmFog => Some(&self.cloud_store),
            DeploymentConfig::CloudOnly => None,
        }
    }

    /// Freezes every history series' mutable tail into a columnar
    /// segment now (see [`HistoryStore::compact`]); queries before and
    /// after are byte-identical. Returns the segments created.
    pub fn compact_history(&mut self) -> usize {
        self.history.compact()
    }

    /// Answers a typed read — the [`crate::drive::Drive::query`] entry
    /// point. Instrumented with the `query.requests` /
    /// `query.segments_pruned` / `query.segments_summarized` /
    /// `query.segments_decoded` / `view.applied`
    /// counters and the `query.run` span; [`QueryRequest::Views`] first
    /// catches the view indexer's cursor up to the cloud replica's
    /// applied-record run.
    pub fn query(&mut self, req: &QueryRequest) -> QueryResponse {
        let token = self.obs.enter(self.ins.query_span);
        self.obs.inc(self.ins.query_requests);
        let resp = match req {
            QueryRequest::Range {
                entity,
                attr,
                from,
                to,
            } => QueryResponse::Samples(self.history.range(entity, attr, *from, *to)),
            QueryRequest::Aggregate {
                entity,
                attr,
                from,
                to,
            } => QueryResponse::Aggregate(self.history.aggregate(entity, attr, *from, *to)),
            QueryRequest::Extremes {
                entity,
                attr,
                from,
                to,
            } => QueryResponse::Extremes(self.history.extremes(entity, attr, *from, *to)),
            QueryRequest::Downsample {
                entity,
                attr,
                from,
                to,
                bucket,
            } => QueryResponse::Buckets(self.history.downsample(entity, attr, *from, *to, *bucket)),
            QueryRequest::Last { entity, attr } => {
                QueryResponse::Sample(self.history.last(entity, attr))
            }
            QueryRequest::SeriesDump => QueryResponse::Series(
                self.history
                    .dump_sorted()
                    .into_iter()
                    .map(|(entity, attr, samples)| SeriesEntry {
                        entity: entity.to_owned(),
                        attr: attr.to_owned(),
                        samples,
                    })
                    .collect(),
            ),
            QueryRequest::ReplicaSeqs => QueryResponse::Seqs(
                self.cloud_replica()
                    .map(|s| s.history().iter().map(|r| r.seq).collect())
                    .unwrap_or_default(),
            ),
            QueryRequest::Views => {
                let run = match self.config {
                    DeploymentConfig::FarmFog => self.cloud_store.history(),
                    DeploymentConfig::CloudOnly => &[],
                };
                let applied = self.views.catch_up(run);
                self.obs.add(self.ins.view_applied, applied as u64);
                QueryResponse::Views(self.views.snapshot())
            }
        };
        let stats = self.history.take_scan_stats();
        self.obs
            .add(self.ins.query_segments_pruned, stats.segments_pruned);
        self.obs.add(
            self.ins.query_segments_summarized,
            stats.segments_summarized,
        );
        self.obs
            .add(self.ins.query_segments_decoded, stats.segments_decoded);
        self.obs.exit(token);
        resp
    }

    /// The uplink engine's degraded-mode state.
    pub fn degraded_mode(&self) -> DegradedMode {
        self.uplink.mode()
    }

    /// Registers a field device: network node + link, key provisioning and
    /// registry entry. The registry row keeps the node and the keystore
    /// handle; the device's nonce sequence is kept by its slot.
    ///
    /// # Errors
    /// [`Error::Registry`] if the device id is empty, is already
    /// registered, or names the cloud or farm node (the topology holds it:
    /// connecting it would rewire the uplink); no platform state changes
    /// in any of these cases.
    pub fn register_device(
        &mut self,
        now: SimTime,
        device_id: &str,
        kind: DeviceKind,
        owner: &str,
    ) -> Result<(), Error> {
        if device_id == self.cloud_id.as_str() || device_id == self.farm_id.as_str() {
            return Err(RegistryError::AlreadyRegistered(device_id.to_owned()).into());
        }
        // The registry checks the id before it runs the closure: it is the
        // fallible step, and erroring before any other mutation keeps
        // registration atomic.
        let slot = self.registry.register(device_id, kind, owner, now, || {
            let node = self.net.add_node(device_id);
            self.net
                .connect(&node, &self.farm_id, LinkSpec::lpwan_field());
            (node, self.keystore.provision(device_id))
        })?;
        // Only this method registers, and slots are dense: the device's
        // sequence lands at its slot.
        self.nonces
            .push(NonceSequence::new(slot.index() as u32 + 1));
        Ok(())
    }

    /// Device-side publish: seals the entity with the device's provisioned
    /// key and offers it to the network toward the farm node. A registered
    /// device is found by one registry lookup, which yields its key
    /// handle, nonce sequence and network node.
    ///
    /// # Errors
    /// [`Error::Registry`] ([`RegistryError::EmptyId`]) for the empty id,
    /// which no network node carries, before anything is sealed;
    /// [`Error::Send`] if the network refuses the send synchronously (an
    /// id with no network node among them).
    pub fn device_publish(
        &mut self,
        now: SimTime,
        device_id: &str,
        entity: &Entity,
    ) -> Result<(), Error> {
        if device_id.is_empty() {
            return Err(RegistryError::EmptyId.into());
        }
        let slot = self.registry.slot(device_id);
        let row = slot.and_then(|slot| self.registry.row(slot));
        let key = row
            .and_then(|row| self.keystore.key_by_handle(row.key).ok())
            .map(|dk| dk.key)
            .unwrap_or_else(|| {
                // Unregistered or revoked device: derive a garbage key —
                // its frames will fail authentication at ingest (rogue-node
                // path).
                self.keystore.derive("rogue", KeyEpoch(0))
            });
        // Registered devices have their sequence. An unregistered sender
        // gets none: its frame fails at ingest whatever its nonce, and a
        // sequence per fresh id would grow without bound.
        let nonce = match slot.and_then(|slot| self.nonces.get_mut(slot.index())) {
            Some(nonces) => nonces.next_nonce(),
            None => NonceSequence::new(ROGUE_SENDER).next_nonce(),
        };
        let src = match row.map(|row| row.node.clone()) {
            Some(node) => node,
            None => NodeId::from(device_id),
        };
        self.wire_scratch.clear();
        entity.write_compact(&mut self.wire_scratch);
        let sealed = key.seal(&nonce, device_id.as_bytes(), self.wire_scratch.as_bytes());
        self.net
            .send(
                now,
                src,
                &self.farm_id,
                Message::new(format!("telemetry/{device_id}"), sealed),
            )
            .map(|_| ())
            .map_err(Error::from)
    }

    /// Advances the network and processes everything that arrived: the
    /// gateway relay (CloudOnly), secure ingestion, replication acks and
    /// fog→cloud replication. Returns the number of entity updates
    /// ingested this round.
    pub fn pump(&mut self, now: SimTime) -> usize {
        let token = self.obs.enter(self.ins.pump_span);
        let ingested = self.pump_inner(now);
        self.obs.exit(token);
        ingested
    }

    fn pump_inner(&mut self, now: SimTime) -> usize {
        self.net.advance_to(now);

        let fog = self.config == DeploymentConfig::FarmFog;

        // Both drains of a pump go through one kept buffer, taken locally
        // because routing a delivery needs `&mut self`.
        let mut inbox = std::mem::take(&mut self.inbox);

        // CloudOnly: the gateway store-and-forwards farm traffic to the
        // cloud through the retry/ack engine (the old fire-and-forget
        // relay lost frames to uplink loss with no retransmission).
        if !fog {
            self.net.drain_into(&self.farm_id, &mut inbox);
            for d in inbox.drain(..) {
                if d.message.topic == ACK_TOPIC {
                    if self.uplink.process_ack(now, &d.message.payload).is_err() {
                        self.obs.inc(self.ins.relay_malformed_ack);
                    }
                } else if d.message.topic != SYNC_TOPIC
                    && self
                        .uplink
                        .enqueue(now, &d.message.topic, d.message.payload)
                        .is_err()
                {
                    self.obs.inc(self.ins.relay_refused);
                }
            }
            self.uplink.sync_round(&mut self.net, now, usize::MAX);
            self.net.advance_to(now);
        }

        // One drain of the platform node's inbox, routed by topic: sealed
        // telemetry to validation, ack payloads to the retry engine
        // (FarmFog — these used to be discarded by the telemetry filter
        // here, leaving every record to retransmit until the cloud's
        // duplicate path re-acked it). Relayed records (CloudOnly) stay in
        // the buffer for the relay store below, which skips the rest.
        self.net.drain_into(&self.node_id, &mut inbox);
        let mut batch: Vec<(Option<DeviceSlot>, Entity)> = Vec::new();
        for d in &inbox {
            if let Some(device_id) = d.message.topic.strip_prefix("telemetry/") {
                if let Ok((slot, entity)) =
                    self.validate_slotted(now, device_id, &d.message.payload)
                {
                    batch.push((Some(slot), entity));
                }
            } else if d.message.topic == ACK_TOPIC
                && fog
                && self.uplink.process_ack(now, &d.message.payload).is_err()
            {
                self.obs.inc(self.ins.sync_malformed_ack);
            }
        }

        // CloudOnly: store/dedup the relayed records, ack the gateway, and
        // ingest the sealed frames they carry in gateway-seq order. A frame
        // is released once every earlier seq has landed or fallen below
        // the gateway's floor (evicted there), so an eviction stalls the
        // stream for no longer than the next record to land.
        if !fog {
            let store = &mut self.cloud_store;
            store.process_deliveries(&mut self.net, now, inbox.drain(..));
            let frames = store.drain_ready();
            self.net.advance_to(now);
            for frame in frames {
                if let Some(device_id) = frame.key.strip_prefix("telemetry/") {
                    if let Ok((slot, entity)) =
                        self.validate_slotted(now, device_id, &frame.payload)
                    {
                        batch.push((Some(slot), entity));
                    }
                }
            }
        }

        inbox.clear();
        self.inbox = inbox;

        // The storage stage only: the round below transmits what it
        // enqueued, after the due retransmissions, in one ascending seq
        // order.
        let ingested = self.store_entities(now, batch);

        // Fog→cloud replication: one round out — due retransmissions, then
        // as much as the engine's in-flight window admits, no per-pump cap
        // — and the cloud applies and acks what earlier rounds delivered.
        // Every link has latency, so nothing sent at `now` arrives at
        // `now`: the acks come back through the topic router above on a
        // later pump.
        if fog {
            self.uplink.sync_round(&mut self.net, now, usize::MAX);
            self.cloud_store.process(&mut self.net, now);
        }
        ingested
    }

    /// The secure ingestion path for one sealed frame: validation followed
    /// by a single-update apply. Bursts should go through
    /// [`Platform::validate_frame`] + [`Platform::ingest_entities`], which
    /// is what [`Platform::pump`] does.
    ///
    /// # Errors
    /// [`IngestError`] describing which defense rejected the frame.
    pub fn ingest_frame(
        &mut self,
        now: SimTime,
        device_id: &str,
        sealed: &[u8],
    ) -> Result<(), IngestError> {
        let (slot, entity) = self.validate_slotted(now, device_id, sealed)?;
        self.ingest_slotted(now, std::iter::once((Some(slot), entity)));
        Ok(())
    }

    /// Runs the defensive half of ingestion for one sealed frame — registry
    /// check, authenticated decryption, payload decode, the sender check
    /// (the entity must be the device's own), replay detection
    /// and the anomaly pipeline — returning the validated entity update
    /// without applying it. A rejection is counted here, on the
    /// `ingest.rejected_*` counter of its kind.
    ///
    /// # Errors
    /// [`IngestError`] describing which defense rejected the frame.
    pub fn validate_frame(
        &mut self,
        now: SimTime,
        device_id: &str,
        sealed: &[u8],
    ) -> Result<Entity, IngestError> {
        self.validate_slotted(now, device_id, sealed)
            .map(|(_, entity)| entity)
    }

    /// [`Platform::validate_frame`], returning the sender's registry slot
    /// beside the entity, for the storage stage to reach the device's
    /// tables by.
    fn validate_slotted(
        &mut self,
        now: SimTime,
        device_id: &str,
        sealed: &[u8],
    ) -> Result<(DeviceSlot, Entity), IngestError> {
        let verdict = self.admit_frame(now, device_id, sealed);
        if let Err(e) = &verdict {
            self.obs.inc(match e {
                IngestError::UnregisteredDevice(_) => self.ins.rejected_unregistered,
                IngestError::AuthenticationFailed(_) => self.ins.rejected_auth,
                IngestError::MalformedPayload(_) => self.ins.rejected_malformed,
                IngestError::Replay(_) => self.ins.rejected_replay,
                IngestError::ImpossibleValue(_) => self.ins.quarantined,
            });
        }
        verdict
    }

    /// [`Platform::validate_frame`]'s checks, uncounted. The device's
    /// registry slot is looked up once, the frame's one string-keyed
    /// lookup, and its row serves the enabled check, the keystore handle,
    /// the replay window and quarantine.
    fn admit_frame(
        &mut self,
        now: SimTime,
        device_id: &str,
        sealed: &[u8],
    ) -> Result<(DeviceSlot, Entity), IngestError> {
        let unregistered = || IngestError::UnregisteredDevice(device_id.to_owned());
        let slot = self.registry.slot(device_id).ok_or_else(unregistered)?;
        let row = match self.registry.row_mut(slot) {
            Some(row) if row.enabled => row,
            _ => return Err(unregistered()),
        };
        let key = self
            .keystore
            .key_by_handle(row.key)
            .map_err(|_| IngestError::AuthenticationFailed(device_id.to_owned()))?;
        key.key
            .open_into(device_id.as_bytes(), sealed, &mut self.plaintext)
            .map_err(|_| IngestError::AuthenticationFailed(device_id.to_owned()))?;
        let entity = Entity::read_compact(&self.plaintext)
            .map_err(|_| IngestError::MalformedPayload(device_id.to_owned()))?;

        // A device's key authenticates only its own entity: a registered
        // device must not write another owner's history or context.
        if entity.id().as_str().strip_prefix(DEVICE_URN_PREFIX) != Some(device_id) {
            return Err(IngestError::AuthenticationFailed(device_id.to_owned()));
        }

        // Replay detection on the firmware sequence number: a frame must
        // carry a whole, non-negative `seq` the device's replay window has
        // not admitted (above the highest, or fewer than 64 below it and
        // unseen), or it could be captured and re-ingested at will.
        let seq = entity
            .number("seq")
            .filter(|seq| *seq >= 0.0 && seq.fract() == 0.0);
        if !seq.is_some_and(|seq| row.admit_seq(seq as u64)) {
            return Err(IngestError::Replay(device_id.to_owned()));
        }

        // The range screen: every numeric attribute is checked against its
        // quantity's physical range before it can influence decisions
        // ("mechanisms to avoid fake data"). An impossible value is hard
        // enough evidence to cut the device off: the frame is refused, so
        // the value reaches neither history, subscribers nor the replica,
        // and the row is disabled, so the device's later frames are refused
        // until an operator re-enables it. The behavioural baseline's flags
        // are the operator's to act on.
        let mut hit = false;
        for (name, attr) in entity.attributes() {
            if name == "seq" {
                continue;
            }
            if let Some(v) = attr.value.as_number() {
                hit |= self
                    .detectors
                    .observe_value(now, device_id, name, v)
                    .is_anomalous();
            }
        }
        if hit {
            row.enabled = false;
            self.obs.event(Level::Warn, "ingest.quarantine", device_id);
            return Err(IngestError::ImpossibleValue(device_id.to_owned()));
        }
        Ok((slot, entity))
    }

    /// Applies a batch of *already validated* entity updates and, in
    /// FarmFog, puts the replicated records on the uplink at once — as
    /// many as the engine's in-flight window has room for
    /// ([`FogSync::admit`]); the rest wait for the window to drain at a
    /// later [`Platform::pump`]. Retransmissions, retry timers and the
    /// degraded-mode grading stay on the pump.
    ///
    /// The storage stage applies the batch a fixed-size
    /// chunk (256 entities, in a reused buffer) at a time and,
    /// within a chunk, a stage at a time: history samples for the numeric
    /// attributes (and the behavioral baseline's signal); then each wire
    /// form streamed into a reused buffer and enqueued for fog→cloud
    /// replication at its exact size; then the entities themselves move
    /// into the context broker (zero-copy fan-out to subscribers). Nothing
    /// round-sized is staged, and each stage runs over a cache-sized run of
    /// entities instead of taking turns with the other three per entity.
    /// This is the storage half of the ingestion hot path; callers are
    /// responsible for authentication — frames from the network must come
    /// through [`Platform::validate_frame`] first.
    ///
    /// An entity id longer than the sync key limit
    /// ([`swamp_fog::sync::MAX_KEY_LEN`]) refuses replication of that one
    /// record — counted on `ingest.replication_refused` per record, while
    /// history and context still take it — rather than of the whole batch;
    /// device URNs cannot produce one.
    ///
    /// A NaN or infinite number travels as `null` on the wire, which the
    /// cloud's views skip, so the history and the baseline skip it too
    /// (counted on `ingest.non_finite` per value): fog and cloud keep the
    /// same samples. The entity itself still reaches the broker.
    ///
    /// Returns the number of updates applied.
    pub fn ingest_entities(
        &mut self,
        now: SimTime,
        entities: impl IntoIterator<Item = Entity>,
    ) -> usize {
        self.ingest_slotted(now, entities.into_iter().map(|entity| (None, entity)))
    }

    /// [`Platform::ingest_entities`] for entities that may come with their
    /// sender's registry slot (see [`Platform::store_entities`]).
    fn ingest_slotted(
        &mut self,
        now: SimTime,
        entities: impl IntoIterator<Item = (Option<DeviceSlot>, Entity)>,
    ) -> usize {
        let applied = self.store_entities(now, entities);
        if self.config == DeploymentConfig::FarmFog {
            // The network cannot schedule into its past: a caller's `now`
            // behind the last pump sends at the network clock.
            let at = now.max(self.net.now());
            self.uplink.admit(&mut self.net, at, usize::MAX);
        }
        applied
    }

    /// The storage stage of [`Platform::ingest_entities`]: history,
    /// baseline, the uplink's backlog and the broker, with nothing put on
    /// the wire.
    ///
    /// An entity that comes with its sender's registry slot (a frame
    /// admission validated) reaches its history series and baseline state
    /// through the handles its row keeps, taken on first sight. Any other
    /// entity (ingested directly, or from an unregistered fleet) goes
    /// through the history's interner and the baseline's name index, and
    /// no row is grown for it. Both ways end in the same series and state.
    fn store_entities(
        &mut self,
        now: SimTime,
        entities: impl IntoIterator<Item = (Option<DeviceSlot>, Entity)>,
    ) -> usize {
        let token = self.obs.enter(self.ins.ingest_span);
        // Fog deployments replicate the accepted updates to the cloud.
        let replicate = self.config == DeploymentConfig::FarmFog;
        let mut applied = 0;
        let mut entities = entities.into_iter();
        loop {
            self.ingest_chunk
                .extend(entities.by_ref().take(INGEST_CHUNK));
            if self.ingest_chunk.is_empty() {
                break;
            }
            for (slot, entity) in &self.ingest_chunk {
                let id = entity.id().as_str();
                let mut row = slot.and_then(|slot| self.registry.row_mut(slot));
                for (name, attr) in entity.attributes() {
                    if let Some(v) = attr.value.as_number() {
                        if !v.is_finite() {
                            self.obs.inc(self.ins.non_finite);
                            continue;
                        }
                        let at = attr.observed_at_ms.map(SimTime::from_millis).unwrap_or(now);
                        let signal = name == self.behavior.signal_attr();
                        match row.as_deref_mut() {
                            Some(row) => {
                                let series = cached_series(
                                    &mut self.history,
                                    &mut self.series_attrs,
                                    row,
                                    id,
                                    name,
                                );
                                self.history.append_to(series, at, v);
                                if signal {
                                    let baseline = *row
                                        .baseline
                                        .get_or_insert_with(|| self.behavior.admit(at, id));
                                    self.behavior.ingest_by_handle(baseline, at, v);
                                }
                            }
                            None => {
                                self.history.append(id, name, at, v);
                                if signal {
                                    self.behavior.ingest(at, id, v);
                                }
                            }
                        }
                    }
                }
                self.obs.inc(self.ins.accepted);
                applied += 1;
            }
            if replicate {
                for (_, entity) in &self.ingest_chunk {
                    self.wire_scratch.clear();
                    entity.write_compact(&mut self.wire_scratch);
                    let payload = self.wire_scratch.as_bytes().to_vec();
                    let key = entity.id().as_str();
                    if self.uplink.enqueue(now, key, payload).is_err() {
                        self.obs.inc(self.ins.replication_refused);
                    }
                }
            }
            self.context
                .upsert_batch(now, self.ingest_chunk.drain(..).map(|(_, entity)| entity));
        }
        self.obs.exit(token);
        applied
    }

    /// Whether the platform can serve its function at the network clock,
    /// and where.
    ///
    /// CloudOnly requires the uplink, which is down exactly inside a
    /// fault-plan partition window of the farm↔cloud pair (see
    /// [`PlatformBuilder::uplink_outages`]); FarmFog decides locally
    /// regardless.
    pub fn service_point(&self) -> Option<ServedBy> {
        match self.config {
            DeploymentConfig::CloudOnly => {
                let partitioned = self.net.fault_plan().is_some_and(|plan| {
                    plan.is_partitioned(self.net.now(), &self.farm_id, &self.cloud_id)
                });
                (!partitioned).then_some(ServedBy::Cloud)
            }
            DeploymentConfig::FarmFog => Some(ServedBy::Fog),
        }
    }

    /// Reads an entity on behalf of a token holder, enforcing ownership
    /// policies (the paper's "each owner controls their data").
    ///
    /// # Errors
    /// `Err(Some(AuthError))` for token problems, `Err(None)` for a policy
    /// denial or a missing entity.
    pub fn authorized_read(
        &mut self,
        now: SimTime,
        token: &Token,
        entity_id: &str,
    ) -> Result<Entity, Option<AuthError>> {
        let info = self.idm.validate(now, token).map_err(Some)?;
        let owner = entity_id
            .strip_prefix(DEVICE_URN_PREFIX)
            .and_then(|d| self.registry.get(d))
            .map(|r| r.owner.clone())
            .unwrap_or_else(|| "owner:platform".to_owned());
        let resource = Resource::new(entity_id, owner);
        let decision = self.pdp.decide(&info, &resource, Action::Read);
        if !decision.is_permit() {
            return Err(None);
        }
        self.context.entity(&entity_id.into()).cloned().ok_or(None)
    }

    /// Authorizes a command against a device on behalf of a token holder.
    pub fn authorize_command(
        &mut self,
        now: SimTime,
        token: &Token,
        device_id: &str,
    ) -> Result<Decision, AuthError> {
        let info = self.idm.validate(now, token)?;
        let owner = self
            .registry
            .get(device_id)
            .map(|r| r.owner.clone())
            .unwrap_or_else(|| "owner:platform".to_owned());
        let resource = Resource::new(format!("{DEVICE_URN_PREFIX}{device_id}"), owner);
        Ok(self.pdp.decide(&info, &resource, Action::Command))
    }
}

/// The history series of attribute `name` of `row`'s entity `entity`: the
/// id the row cached, or the interner's, cached on first sight. The row
/// tags each cached series with its attribute's tag in `attrs`, the
/// platform's attribute table, so it keeps no copy of a name. An attribute
/// a full row has no place for is interned by name every time.
fn cached_series(
    history: &mut HistoryStore,
    attrs: &mut BTreeMap<Box<str>, u32>,
    row: &mut DeviceRecord,
    entity: &str,
    name: &str,
) -> SeriesId {
    let tag = attrs.get(name).copied();
    if let Some(&(_, series)) = tag.and_then(|tag| row.series.iter().find(|(t, _)| *t == tag)) {
        return series;
    }
    let series = history.intern(entity, name);
    if row.series.len() < ROW_SERIES {
        let tag = tag.unwrap_or_else(|| {
            let tag = attrs.len() as u32;
            attrs.insert(name.into(), tag);
            tag
        });
        row.series.push((tag, series));
    }
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use swamp_codec::ngsi::Entity;

    fn telemetry(device: &str, seq: f64, vwc: f64) -> Entity {
        let mut e = Entity::new(format!("urn:swamp:device:{device}"), "SoilProbe");
        e.set("moisture_vwc", vwc);
        e.set("seq", seq);
        e
    }

    fn fog_platform() -> Platform {
        let mut p = Platform::builder(DeploymentConfig::FarmFog)
            .seed(42)
            .build();
        p.register_device(
            SimTime::ZERO,
            "probe-1",
            DeviceKind::SoilProbe,
            "owner:test",
        )
        .unwrap();
        p
    }

    #[test]
    fn end_to_end_publish_ingest() {
        let mut p = fog_platform();
        p.device_publish(SimTime::ZERO, "probe-1", &telemetry("probe-1", 0.0, 0.27))
            .unwrap();
        // LPWAN link has loss; retry a few times at increasing times.
        let mut ingested = 0;
        for i in 1..10 {
            ingested += p.pump(SimTime::from_secs(i * 10));
            if ingested > 0 {
                break;
            }
            p.device_publish(
                SimTime::from_secs(i * 10),
                "probe-1",
                &telemetry("probe-1", i as f64, 0.27),
            )
            .unwrap();
        }
        assert!(ingested > 0, "telemetry must eventually ingest");
        let e = p
            .context
            .entity(&"urn:swamp:device:probe-1".into())
            .unwrap();
        assert_eq!(e.number("moisture_vwc"), Some(0.27));
        assert!(p
            .history
            .last("urn:swamp:device:probe-1", "moisture_vwc")
            .is_some());
        assert!(p.observe().counter("ingest.accepted").unwrap() >= 1);
        // The pump and ingest spans nest: every pump entered the span, and
        // ingest ran inside it.
        let snap = p.observe();
        assert!(snap.span("platform.pump").unwrap().count >= 1);
        assert!(
            snap.span("platform.pump")
                .unwrap()
                .children
                .get("platform.ingest")
                .copied()
                .unwrap_or(0)
                >= 1
        );
    }

    #[test]
    fn duplicate_registration_is_a_typed_error() {
        let mut p = fog_platform();
        let err = p
            .register_device(
                SimTime::ZERO,
                "probe-1",
                DeviceKind::SoilProbe,
                "owner:test",
            )
            .unwrap_err();
        assert!(matches!(err, Error::Registry(_)));
        assert!(err.to_string().contains("registry"));
    }

    #[test]
    fn a_device_named_after_a_topology_node_is_refused() {
        for config in [DeploymentConfig::FarmFog, DeploymentConfig::CloudOnly] {
            let mut p = Platform::builder(config)
                .seed(42)
                .uplink_spec(LinkSpec::cloud_backbone())
                .sync_base_timeout(SimDuration::from_secs(300))
                .build();
            let farm = p.farm_node();
            for id in [nodes::CLOUD, farm.as_str()] {
                let err = p
                    .register_device(SimTime::ZERO, id, DeviceKind::SoilProbe, "owner:test")
                    .unwrap_err();
                assert!(
                    matches!(err, Error::Registry(RegistryError::AlreadyRegistered(_))),
                    "{config:?} {id}: {err}"
                );
                assert!(p.registry.get(id).is_none(), "{config:?} {id}");
            }
            // The uplink keeps its lossless spec: 200 records cross it and
            // the network loses nothing. Each device's radio is swapped for
            // the backbone too, so any loss would be the uplink's.
            const RECORDS: u64 = 200;
            for i in 0..RECORDS {
                let id = format!("probe-{i}");
                p.register_device(SimTime::ZERO, &id, DeviceKind::SoilProbe, "owner:test")
                    .unwrap();
                p.net
                    .connect(id.as_str(), farm.clone(), LinkSpec::cloud_backbone());
                p.device_publish(SimTime::ZERO, &id, &telemetry(&id, 0.0, 0.3))
                    .unwrap();
            }
            let acked = |p: &Platform| p.observe().counter("sync.acked").unwrap();
            for pump in 1..=20 {
                p.pump(SimTime::from_secs(pump));
                if acked(&p) == RECORDS {
                    break;
                }
            }
            assert_eq!(acked(&p), RECORDS, "{config:?}");
            assert_eq!(p.observe().counter("net.lost").unwrap(), 0, "{config:?}");
        }
    }

    #[test]
    fn the_empty_device_id_is_refused_before_any_state_changes() {
        let mut p = fog_platform();
        let err = p
            .register_device(SimTime::ZERO, "", DeviceKind::SoilProbe, "owner:test")
            .unwrap_err();
        assert_eq!(err, Error::Registry(RegistryError::EmptyId));
        assert_eq!(p.registry.len(), 1);
        assert_eq!(p.nonces.len(), 1);
        assert!(p.keystore.device_key("").is_err());
    }

    #[test]
    fn publishing_from_the_empty_id_is_a_typed_error() {
        let mut p = fog_platform();
        let err = p
            .device_publish(SimTime::ZERO, "", &telemetry("", 0.0, 0.5))
            .unwrap_err();
        assert_eq!(err, Error::Registry(RegistryError::EmptyId));
        // An id without a network node is refused by the network.
        let err = p
            .device_publish(SimTime::ZERO, "nowhere", &telemetry("nowhere", 0.0, 0.5))
            .unwrap_err();
        assert!(matches!(err, Error::Send(_)), "{err}");
        assert_eq!(p.observe().counter("net.sent").unwrap(), 0);
    }

    #[test]
    fn unregistered_publishers_leave_no_nonce_sequence() {
        let mut p = fog_platform();
        let sequences = p.nonces.len();
        for i in 0..10_000 {
            let id = format!("rogue-{i}");
            // No node carries an unregistered id: the network refuses it.
            assert!(p
                .device_publish(SimTime::ZERO, &id, &telemetry(&id, 0.0, 0.5))
                .is_err());
        }
        assert_eq!(p.nonces.len(), sequences);
    }

    #[test]
    fn rogue_device_rejected() {
        let mut p = fog_platform();
        // "rogue-9" has a network node but is never registered/provisioned.
        p.net.add_node("rogue-9");
        let farm = p.farm_node();
        p.net
            .connect("rogue-9", farm, swamp_net::link::LinkSpec::farm_lan());
        let fake = telemetry("rogue-9", 0.0, 0.99);
        p.device_publish(SimTime::ZERO, "rogue-9", &fake).unwrap();
        let ingested = p.pump(SimTime::from_secs(5));
        assert_eq!(ingested, 0);
        assert_eq!(
            p.observe().counter("ingest.rejected_unregistered").unwrap(),
            1
        );
        assert!(p
            .context
            .entity(&"urn:swamp:device:rogue-9".into())
            .is_none());
    }

    #[test]
    fn tampered_frame_rejected() {
        let mut p = fog_platform();
        // Build a valid sealed frame, then flip a ciphertext bit.
        let key = p.keystore.device_key("probe-1").unwrap().key;
        let entity = telemetry("probe-1", 0.0, 0.2);
        let mut sealed = key.seal(
            &[7u8; 12],
            b"probe-1",
            entity.to_json().to_compact_string().as_bytes(),
        );
        sealed[14] ^= 0x40;
        let err = p
            .ingest_frame(SimTime::ZERO, "probe-1", &sealed)
            .unwrap_err();
        assert!(matches!(err, IngestError::AuthenticationFailed(_)));
    }

    #[test]
    fn replayed_frame_rejected() {
        let mut p = fog_platform();
        let key = p.keystore.device_key("probe-1").unwrap().key;
        let entity = telemetry("probe-1", 5.0, 0.2);
        let sealed = key.seal(
            &[1u8; 12],
            b"probe-1",
            entity.to_json().to_compact_string().as_bytes(),
        );
        p.ingest_frame(SimTime::ZERO, "probe-1", &sealed).unwrap();
        let err = p
            .ingest_frame(SimTime::from_secs(10), "probe-1", &sealed)
            .unwrap_err();
        assert!(matches!(err, IngestError::Replay(_)));
    }

    /// A device that invents attribute names fills only its own row's
    /// series cache: the attribute table takes at most `ROW_SERIES` names
    /// for it, a device seen later still caches its own series, and every
    /// value lands in its own series either way.
    #[test]
    fn invented_attributes_fill_only_the_inventing_row() {
        let mut p = fog_platform();
        p.register_device(
            SimTime::ZERO,
            "probe-2",
            DeviceKind::SoilProbe,
            "owner:test",
        )
        .unwrap();
        let frame = |p: &Platform, id: &str, seq: u32, extra: &str| {
            let mut e = telemetry(id, f64::from(seq), 0.2);
            e.set(extra, f64::from(seq));
            let mut nonce = [0u8; 12];
            nonce[..4].copy_from_slice(&seq.to_le_bytes());
            let key = p.keystore.device_key(id).unwrap().key;
            key.seal(
                &nonce,
                id.as_bytes(),
                e.to_json().to_compact_string().as_bytes(),
            )
        };
        for seq in 0..2_000 {
            let sealed = frame(&p, "probe-1", seq, &format!("x{seq}"));
            assert_eq!(p.ingest_frame(SimTime::ZERO, "probe-1", &sealed), Ok(()));
        }
        let row = |p: &Platform, id: &str| p.registry.get(id).unwrap().series.len();
        assert_eq!(row(&p, "probe-1"), ROW_SERIES);
        assert_eq!(p.series_attrs.len(), ROW_SERIES);
        let sealed = frame(&p, "probe-2", 0, "battery_v");
        assert_eq!(p.ingest_frame(SimTime::ZERO, "probe-2", &sealed), Ok(()));
        assert_eq!(row(&p, "probe-2"), 3, "moisture_vwc, seq, battery_v");
        assert_eq!(p.series_attrs.len(), ROW_SERIES + 1);
        let urn = |id: &str| format!("urn:swamp:device:{id}");
        let all = |p: &Platform, id: &str, attr: &str| {
            p.history
                .range(&urn(id), attr, SimTime::ZERO, SimTime::from_secs(1))
        };
        assert_eq!(all(&p, "probe-1", "moisture_vwc").len(), 2_000);
        for seq in [0, 13, 14, 1_999] {
            let samples = all(&p, "probe-1", &format!("x{seq}"));
            assert_eq!(samples.len(), 1, "x{seq}");
            assert_eq!(samples[0].value, f64::from(seq));
        }
        assert_eq!(all(&p, "probe-2", "battery_v").len(), 1);
        assert_eq!(all(&p, "probe-2", "moisture_vwc").len(), 1);
    }

    /// Frames overtaken on the device hop are honest: a device's frames
    /// fed in reverse order are each admitted once, inside the replay
    /// window, and each replayed capture is still refused.
    #[test]
    fn reordered_frames_are_admitted_once() {
        let mut p = fog_platform();
        let key = p.keystore.device_key("probe-1").unwrap().key;
        let frames: Vec<Vec<u8>> = (0..8u8)
            .map(|seq| {
                let entity = telemetry("probe-1", f64::from(seq), 0.2);
                key.seal(
                    &[seq; 12],
                    b"probe-1",
                    entity.to_json().to_compact_string().as_bytes(),
                )
            })
            .collect();
        for (seq, sealed) in frames.iter().enumerate().rev() {
            let at = SimTime::from_secs(8 - seq as u64);
            assert_eq!(p.ingest_frame(at, "probe-1", sealed), Ok(()), "seq {seq}");
        }
        for (seq, sealed) in frames.iter().enumerate() {
            let err = p
                .ingest_frame(SimTime::from_secs(10), "probe-1", sealed)
                .unwrap_err();
            assert!(matches!(err, IngestError::Replay(_)), "seq {seq}: {err}");
        }
        let snap = p.observe();
        assert_eq!(snap.counter("ingest.accepted").unwrap(), 8);
        assert_eq!(snap.counter("ingest.rejected_replay").unwrap(), 8);
    }

    #[test]
    fn frame_without_a_whole_seq_is_refused_as_a_replay() {
        let mut p = fog_platform();
        let key = p.keystore.device_key("probe-1").unwrap().key;
        let mut seqless = Entity::new("urn:swamp:device:probe-1", "SoilProbe");
        seqless.set("moisture_vwc", 0.2);
        let mut frames = vec![seqless];
        frames.extend([-1.0, 2.5].map(|seq| telemetry("probe-1", seq, 0.2)));
        for (i, entity) in frames.iter().enumerate() {
            let sealed = key.seal(
                &[3u8; 12],
                b"probe-1",
                entity.to_json().to_compact_string().as_bytes(),
            );
            // Each twice: without a provable seq, the capture replays.
            for t in 0..2 {
                let err = p
                    .ingest_frame(SimTime::from_secs(t), "probe-1", &sealed)
                    .unwrap_err();
                assert!(matches!(err, IngestError::Replay(_)), "frame {i}: {err}");
            }
        }
        let snap = p.observe();
        assert_eq!(snap.counter("ingest.rejected_replay").unwrap(), 6);
        assert_eq!(snap.counter("ingest.accepted").unwrap(), 0);
        // The refusals left the floor unset: the device's first whole seq
        // is still fresh.
        let sealed = key.seal(
            &[4u8; 12],
            b"probe-1",
            telemetry("probe-1", 0.0, 0.2)
                .to_json()
                .to_compact_string()
                .as_bytes(),
        );
        p.ingest_frame(SimTime::from_secs(5), "probe-1", &sealed)
            .unwrap();
    }

    #[test]
    fn ingest_frame_counts_its_rejection() {
        let mut p = fog_platform();
        let key = p.keystore.device_key("probe-1").unwrap().key;
        let sealed = key.seal(
            &[1u8; 12],
            b"probe-1",
            telemetry("probe-1", 5.0, 0.2)
                .to_json()
                .to_compact_string()
                .as_bytes(),
        );
        p.ingest_frame(SimTime::ZERO, "probe-1", &sealed).unwrap();
        assert!(p
            .ingest_frame(SimTime::from_secs(10), "probe-1", &sealed)
            .is_err());
        assert_eq!(p.observe().counter("ingest.rejected_replay").unwrap(), 1);
    }

    #[test]
    fn malformed_payload_rejected() {
        let mut p = fog_platform();
        let key = p.keystore.device_key("probe-1").unwrap().key;
        let sealed = key.seal(&[2u8; 12], b"probe-1", b"not json at all");
        let err = p
            .ingest_frame(SimTime::ZERO, "probe-1", &sealed)
            .unwrap_err();
        assert!(matches!(err, IngestError::MalformedPayload(_)));
    }

    #[test]
    fn service_point_and_partitions_follow_one_outage_schedule() {
        let windows = [
            (SimTime::from_hours(6), SimTime::from_hours(9)),
            (
                SimTime::from_secs(20 * 3_600 + 1_800),
                SimTime::from_hours(32),
            ),
        ];
        let mut schedule = OutageSchedule::new();
        for (start, end) in windows {
            schedule.add_outage(start, end);
        }
        let build = |config| {
            Platform::builder(config)
                .seed(1)
                .uplink_outages(&schedule)
                .build()
        };
        let mut fog = build(DeploymentConfig::FarmFog);
        let mut cloud = build(DeploymentConfig::CloudOnly);
        let mut edges_seen = 0;
        for minute in 0..48 * 60 {
            let now = SimTime::from_secs(minute * 60);
            fog.pump(now);
            cloud.pump(now);
            let down = schedule.is_down(now);
            assert_eq!(cloud.service_point().is_none(), down, "at {now}");
            assert_eq!(fog.service_point(), Some(ServedBy::Fog), "at {now}");
            let plan = cloud.net.fault_plan().expect("outages install a plan");
            let (farm, cloud_node) = (&cloud.farm_id, &cloud.cloud_id);
            assert_eq!(plan.is_partitioned(now, farm, cloud_node), down);
            assert_eq!(plan.is_partitioned(now, cloud_node, farm), down);
            // Half-open windows: down at each start, up again at each end.
            for (start, end) in windows {
                if now == start {
                    assert_eq!(cloud.service_point(), None);
                    edges_seen += 1;
                }
                if now == end {
                    assert_eq!(cloud.service_point(), Some(ServedBy::Cloud));
                    edges_seen += 1;
                }
            }
        }
        assert_eq!(edges_seen, 4);
    }

    #[test]
    fn fog_replicates_to_cloud() {
        let mut p = fog_platform();
        let key = p.keystore.device_key("probe-1").unwrap().key;
        let entity = telemetry("probe-1", 0.0, 0.31);
        let sealed = key.seal(
            &[3u8; 12],
            b"probe-1",
            entity.to_json().to_compact_string().as_bytes(),
        );
        p.ingest_frame(SimTime::ZERO, "probe-1", &sealed).unwrap();
        // Pump a few rounds so sync+ack complete.
        for i in 1..10 {
            p.pump(SimTime::from_secs(i * 120));
        }
        let replica = p.cloud_replica().unwrap();
        assert_eq!(replica.record_count(), 1);
        // The cloud holds a decodable latest state: the replicated payload
        // parses back into the very entity the fog's context serves.
        let latest = replica.latest("urn:swamp:device:probe-1").unwrap();
        let at_cloud = Entity::read_compact(&latest.payload).unwrap();
        let at_fog = p
            .context
            .entity(&"urn:swamp:device:probe-1".into())
            .unwrap();
        assert_eq!(&at_cloud, at_fog);
        assert_eq!(at_cloud.number("moisture_vwc"), Some(0.31));
        // The ack made it back to the fog engine (regression: acks used to
        // be discarded by the pump's telemetry filter, so every record
        // retransmitted forever).
        let snap = p.observe();
        assert_eq!(snap.gauge("sync.pending").unwrap(), Some(0.0));
        assert!(snap.counter("sync.acked").unwrap() >= 1);
        assert_eq!(snap.gauge("sync.in_flight").unwrap(), Some(0.0));
    }

    /// Records handed to `ingest_entities` between pumps are on the uplink
    /// when the call returns, so the next pump applies them at the cloud.
    #[test]
    fn ingested_records_leave_at_once() {
        let mut p = Platform::builder(DeploymentConfig::FarmFog)
            .seed(42)
            .uplink_spec(LinkSpec::cloud_backbone())
            .build();
        let batch = (0..3).map(|i| telemetry(&format!("probe-{i}"), 0.0, 0.3));
        assert_eq!(p.ingest_entities(SimTime::from_secs(1), batch), 3);
        let snap = p.observe();
        assert_eq!(snap.counter("sync.transmissions").unwrap(), 3);
        assert_eq!(snap.gauge("sync.in_flight").unwrap(), Some(3.0));
        p.pump(SimTime::from_secs(2));
        assert_eq!(p.cloud_replica().unwrap().record_count(), 3);
        // A caller behind the network clock sends at the clock.
        let late = telemetry("probe-9", 0.0, 0.3);
        assert_eq!(p.ingest_entities(SimTime::ZERO, [late]), 1);
        assert_eq!(p.observe().counter("sync.transmissions").unwrap(), 4);
    }

    #[test]
    fn non_finite_numbers_stay_out_of_the_history_as_out_of_the_cloud_views() {
        let mut p = Platform::builder(DeploymentConfig::FarmFog)
            .seed(42)
            .build();
        let id = "urn:swamp:device:probe-1";
        for (i, vwc) in [0.2, f64::NAN, f64::INFINITY].into_iter().enumerate() {
            let at = SimTime::from_secs(60 * (i as u64 + 1));
            assert_eq!(
                p.ingest_entities(at, [telemetry("probe-1", i as f64, vwc)]),
                1
            );
        }
        for i in 1..10 {
            p.pump(SimTime::from_secs(300 + i * 120));
        }
        assert_eq!(p.cloud_replica().unwrap().record_count(), 3);
        // The cloud's view of the series skips the two `null`s the wire
        // carried; the fog's history holds the same one sample.
        let QueryResponse::Views(views) = p.query(&QueryRequest::Views) else {
            panic!("views answer views");
        };
        let at_cloud = &views.entities[id];
        assert_eq!(at_cloud.records, 3);
        assert_eq!(at_cloud.last_alert_value, Some(0.2));
        let range = |attr: &str| QueryRequest::Range {
            entity: id.to_owned(),
            attr: attr.to_owned(),
            from: SimTime::ZERO,
            to: SimTime::from_secs(3_600),
        };
        let QueryResponse::Samples(at_fog) = p.query(&range("moisture_vwc")) else {
            panic!("a range answers samples");
        };
        let values: Vec<f64> = at_fog.iter().map(|s| s.value).collect();
        assert_eq!(values, [0.2]);
        assert_eq!(
            p.query(&QueryRequest::Last {
                entity: id.to_owned(),
                attr: "moisture_vwc".to_owned(),
            }),
            QueryResponse::Sample(at_fog.first().copied())
        );
        // The finite attribute of the same updates is kept every time.
        let QueryResponse::Samples(seq) = p.query(&range("seq")) else {
            panic!("a range answers samples");
        };
        assert_eq!(seq.len(), 3);
        assert_eq!(p.observe().counter("ingest.non_finite").unwrap(), 2);
    }

    #[test]
    fn cloud_only_deployment_exposes_no_replica() {
        let p = Platform::builder(DeploymentConfig::CloudOnly)
            .seed(7)
            .build();
        assert!(p.cloud_replica().is_none());
        // It still has an uplink engine (the gateway relay): its sync.*
        // instruments show up in the merged snapshot.
        assert!(p.observe().counter("sync.enqueued").is_ok());
    }

    #[test]
    fn cloud_only_relay_retries_through_uplink_loss() {
        let mut p = Platform::builder(DeploymentConfig::CloudOnly)
            .seed(11)
            .sync_base_timeout(SimDuration::from_secs(20))
            .build();
        p.register_device(
            SimTime::ZERO,
            "probe-1",
            DeviceKind::SoilProbe,
            "owner:test",
        )
        .unwrap();
        // Make the gateway→cloud hop very lossy: the retry engine must
        // still get every frame through (the old relay just lost them).
        let mut plan = swamp_net::FaultPlan::new(5);
        plan.set_link_faults(
            nodes::GATEWAY,
            nodes::CLOUD,
            swamp_net::FaultSpec::lossy(0.5),
        )
        .unwrap();
        p.net.install_fault_plan(plan);

        let mut ingested = 0;
        let mut seq = 0.0;
        for i in 1..40 {
            if ingested == 0 {
                p.device_publish(
                    SimTime::from_secs(i * 30),
                    "probe-1",
                    &telemetry("probe-1", seq, 0.3),
                )
                .unwrap();
                seq += 1.0;
            }
            ingested += p.pump(SimTime::from_secs(i * 30 + 15));
        }
        assert!(ingested > 0, "relay must deliver through 50% uplink loss");
        let snap = p.observe();
        assert!(snap.counter("sync.transmissions").unwrap() >= snap.counter("sync.acked").unwrap());
        assert!(snap.counter("sync.acked").unwrap() >= 1);
        // The engine's backoff timing is captured per retry.
        assert!(
            snap.summary("sync.retry_interval_ms")
                .unwrap()
                .stats
                .count()
                >= snap.counter("sync.transmissions").unwrap()
        );
    }

    #[test]
    fn degraded_mode_surfaces_through_platform() {
        let mut outage = OutageSchedule::new();
        outage.add_outage(SimTime::ZERO, SimTime::from_secs(400));
        let mut p = Platform::builder(DeploymentConfig::FarmFog)
            .seed(3)
            .sync_base_timeout(SimDuration::from_secs(10))
            .sync_jitter(0.0)
            .uplink_outages(&outage)
            .build();
        p.register_device(
            SimTime::ZERO,
            "probe-1",
            DeviceKind::SoilProbe,
            "owner:test",
        )
        .unwrap();
        assert_eq!(p.degraded_mode(), DegradedMode::Connected);

        p.ingest_entities(SimTime::from_secs(1), [telemetry("probe-1", 0.0, 0.25)]);
        // Each pump's refused sync round is a strike; walk into Degraded.
        for i in 1..4 {
            p.pump(SimTime::from_secs(1 + i * 60));
        }
        assert_ne!(p.degraded_mode(), DegradedMode::Connected);
        // The fog keeps serving decisions locally throughout.
        assert_eq!(p.service_point(), Some(ServedBy::Fog));

        // The uplink heals: replication drains and the engine reconnects.
        for i in 0..6 {
            p.pump(SimTime::from_secs(400 + i * 60));
        }
        assert_eq!(p.degraded_mode(), DegradedMode::Connected);
        assert_eq!(p.cloud_replica().unwrap().record_count(), 1);
    }

    #[test]
    fn builder_uplink_outages_partition_the_fault_plan() {
        let mut schedule = OutageSchedule::new();
        schedule.add_outage(SimTime::from_secs(10), SimTime::from_secs(500));
        let mut p = Platform::builder(DeploymentConfig::FarmFog)
            .seed(9)
            .sync_base_timeout(SimDuration::from_secs(30))
            .uplink_outages(&schedule)
            .build();
        p.register_device(
            SimTime::ZERO,
            "probe-1",
            DeviceKind::SoilProbe,
            "owner:test",
        )
        .unwrap();
        // Ingested inside the outage window, the record leaves at once into
        // the partition, and nothing replicates while it lasts.
        p.ingest_entities(SimTime::from_secs(11), [telemetry("probe-1", 0.0, 0.3)]);
        for i in 1..5 {
            p.pump(SimTime::from_secs(i * 60));
        }
        assert_eq!(p.cloud_replica().unwrap().record_count(), 0);
        assert!(p.net.observe().counter("net.fault.partitioned").unwrap() > 0);
        // After the window the retry engine recovers on its own.
        for i in 0..8 {
            p.pump(SimTime::from_secs(520 + i * 60));
        }
        assert_eq!(p.cloud_replica().unwrap().record_count(), 1);
        assert_eq!(p.degraded_mode(), DegradedMode::Connected);
    }

    #[test]
    fn ingest_entities_batch_matches_frame_loop() {
        // Same updates applied through the batch path and the per-frame
        // path must leave identical context + history state behind.
        let mut batch_p = fog_platform();
        let mut loop_p = fog_platform();
        let updates: Vec<Entity> = (0..5)
            .map(|i| telemetry("probe-1", i as f64, 0.2 + 0.01 * i as f64))
            .collect();

        let applied = batch_p.ingest_entities(SimTime::from_secs(1), updates.clone());
        assert_eq!(applied, 5);
        for u in updates {
            loop_p.ingest_entities(SimTime::from_secs(1), std::iter::once(u));
        }

        let id = "urn:swamp:device:probe-1".into();
        assert_eq!(
            batch_p
                .context
                .entity(&id)
                .unwrap()
                .to_json()
                .to_compact_string(),
            loop_p
                .context
                .entity(&id)
                .unwrap()
                .to_json()
                .to_compact_string()
        );
        assert_eq!(
            batch_p.history.range(
                "urn:swamp:device:probe-1",
                "moisture_vwc",
                SimTime::ZERO,
                SimTime::from_secs(10),
            ),
            loop_p.history.range(
                "urn:swamp:device:probe-1",
                "moisture_vwc",
                SimTime::ZERO,
                SimTime::from_secs(10),
            )
        );
        assert_eq!(
            batch_p.observe().counter("ingest.accepted").unwrap(),
            loop_p.observe().counter("ingest.accepted").unwrap()
        );
    }

    /// With a live subscriber, batched ingest notifies exactly as the
    /// broker's documented semantics say, written out naively here: per
    /// update, in order, the names whose value differs from the stored
    /// entity and a snapshot of the entity after a copying merge.
    #[test]
    fn ingest_entities_notification_sequence_matches_reference() {
        let mut p = fog_platform();
        let sub = p
            .context
            .subscribe(crate::broker::SubscriptionFilter::for_type("SoilProbe"));
        let mut reference: BTreeMap<String, Entity> = Default::default();
        let mut expected: Vec<(Entity, Vec<String>, SimTime)> = Vec::new();
        let mut got = Vec::new();
        for round in 0..3u64 {
            let now = SimTime::from_secs(60 + 600 * round);
            let batch: Vec<Entity> = (0..16u64)
                .map(|i| {
                    // Device 5 is stored as a Valve and device 6 as a probe;
                    // each later claims the other's type. The stored type
                    // routes, so 6 keeps notifying and 5 never does.
                    let kind = match (i, round) {
                        (5, 0 | 2) | (6, 2) => "Valve",
                        _ => "SoilProbe",
                    };
                    let mut e = Entity::new(format!("urn:swamp:device:probe-{i}"), kind);
                    // Device 3 never changes; device 4 changes one of two.
                    let step = if i == 3 { 0 } else { round };
                    e.set("moisture_vwc", 0.2 + 0.01 * step as f64 + 0.001 * i as f64);
                    e.set("seq", if i == 4 { 0.0 } else { step as f64 });
                    if round == 2 && i % 4 == 0 {
                        e.set("battery_fraction", 0.9);
                    }
                    e
                })
                .collect();
            for update in &batch {
                let stored = reference.get(update.id().as_str());
                let changed: Vec<String> = update
                    .attributes()
                    .filter(|(n, a)| stored.and_then(|s| s.attribute(n)) != Some(*a))
                    .map(|(n, _)| n.to_owned())
                    .collect();
                let merged = reference
                    .entry(update.id().as_str().to_owned())
                    .and_modify(|s| {
                        for (name, attr) in update.attributes() {
                            s.set_attribute(name, attr.clone());
                        }
                    })
                    .or_insert_with(|| update.clone());
                if !changed.is_empty() && merged.entity_type() == "SoilProbe" {
                    expected.push((merged.clone(), changed, now));
                }
            }
            assert_eq!(p.ingest_entities(now, batch), 16);
            p.context.drain_notifications_into(sub, &mut got).unwrap();
        }
        // 15 probes on first sight, then 14 moving probes per round.
        assert_eq!(expected.len(), 15 + 14 + 14);
        assert_eq!(got.len(), expected.len());
        for (n, (entity, changed, at)) in got.iter().zip(&expected) {
            assert_eq!(n.subscription, sub);
            assert_eq!(&*n.entity, entity);
            assert_eq!(&n.changed_attrs[..], &changed[..]);
            assert_eq!(n.at, *at);
        }
        assert_eq!(p.observe().counter("ingest.accepted").unwrap(), 48);
    }

    #[test]
    fn builder_reports_seed_and_config() {
        let p = Platform::builder(DeploymentConfig::FarmFog)
            .seed(42)
            .build();
        assert_eq!(p.config(), DeploymentConfig::FarmFog);
        assert_eq!(p.seed(), 42);
    }

    #[test]
    fn authorized_read_enforces_ownership() {
        let mut p = fog_platform();
        // Put an entity in context directly.
        p.context
            .upsert(SimTime::ZERO, telemetry("probe-1", 0.0, 0.2));
        p.idm.register_user("owner", "pw", &["owner:test"]);
        p.idm.register_user("stranger", "pw", &[]);
        let owner_token = p.idm.password_grant(SimTime::ZERO, "owner", "pw").unwrap();
        let stranger_token = p
            .idm
            .password_grant(SimTime::ZERO, "stranger", "pw")
            .unwrap();

        let e = p
            .authorized_read(SimTime::ZERO, &owner_token, "urn:swamp:device:probe-1")
            .unwrap();
        assert_eq!(e.number("moisture_vwc"), Some(0.2));
        assert!(p
            .authorized_read(SimTime::ZERO, &stranger_token, "urn:swamp:device:probe-1")
            .is_err());
        // Bad token.
        let forged = Token::from_raw_for_tests("junk");
        assert!(matches!(
            p.authorized_read(SimTime::ZERO, &forged, "urn:swamp:device:probe-1"),
            Err(Some(AuthError::InvalidToken))
        ));
    }

    #[test]
    fn command_authorization() {
        let mut p = fog_platform();
        p.idm.register_user("owner", "pw", &["owner:test"]);
        let token = p.idm.password_grant(SimTime::ZERO, "owner", "pw").unwrap();
        let d = p
            .authorize_command(SimTime::ZERO, &token, "probe-1")
            .unwrap();
        assert!(d.is_permit());
        let d = p
            .authorize_command(SimTime::ZERO, &token, "other-device")
            .unwrap();
        assert!(!d.is_permit());
    }
}
