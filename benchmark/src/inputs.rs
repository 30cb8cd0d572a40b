//! The five workloads and the inputs each one is made of. Inputs are a
//! pure function of the workload and the seed; the platform only ever
//! sees what is generated here.

use std::collections::BTreeSet;

use swamp_codec::ngsi::{Attribute, Entity};
use swamp_core::platform::{DeploymentConfig, Platform, PlatformBuilder};
use swamp_core::query::QueryRequest;
use swamp_fog::availability::OutageSchedule;
use swamp_net::fault::{FaultPlan, FaultSpec};
use swamp_net::link::LinkSpec;
use swamp_security::baseline::BaselineConfig;
use swamp_sim::{SimDuration, SimRng, SimTime};
use swamp_workload::{AttackOverlay, Pilot, WorkloadSpec};

/// Records the sync engine transmits per pump (`Platform::pump` passes
/// this batch to `FogSync::sync_round`).
pub const SYNC_BATCH: usize = 256;
/// Default capacity of the fog's store-and-forward buffer; past it the
/// engine drops the oldest record.
pub const SYNC_CAPACITY: usize = 100_000;
/// Queries per timed burst.
pub const BURST: usize = 256;
/// Bursts of each class in the owner-read pass that ends every
/// repetition of a workload without reads of its own.
const FINAL_BURSTS_PER_CLASS: usize = 24;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SealedSteady,
    FleetWide,
    FleetSharded,
    StormLossy,
    ReadMixed,
}

/// One named workload at a stated size.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    pub devices: usize,
    pub rounds: usize,
}

/// The reference sizes. Rounds are cut from the issue's scratch sizing
/// (100 / 10 / 10 / 240 / 16) so that a fresh-platform repetition takes
/// two to four seconds and several fit the contract's `run_seconds`;
/// fleets are not cut. `storm_lossy` keeps its 240 rounds because the
/// baseline's train/calibrate/detect phases are fractions of the horizon.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        kind: Kind::SealedSteady,
        name: "sealed_steady",
        devices: 2_000,
        rounds: 8,
    },
    Workload {
        kind: Kind::FleetWide,
        name: "fleet_wide",
        devices: 50_000,
        rounds: 3,
    },
    Workload {
        kind: Kind::FleetSharded,
        name: "fleet_sharded",
        devices: 50_000,
        rounds: 3,
    },
    Workload {
        kind: Kind::StormLossy,
        name: "storm_lossy",
        devices: 1_000,
        rounds: 240,
    },
    Workload {
        kind: Kind::ReadMixed,
        name: "read_mixed",
        devices: 10_000,
        rounds: 5,
    },
];

pub fn workload(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Shards and pool workers of `fleet_sharded`.
pub const SHARDS: usize = 4;
pub const WORKERS: usize = 2;

/// How a round is pumped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PumpPlan {
    /// Exactly `count` pumps, `spacing_ms` of simulated time apart.
    Fixed { count: usize, spacing_ms: u64 },
    /// Pump until the cloud holds every accepted record.
    UntilComplete { spacing_ms: u64 },
}

impl PumpPlan {
    /// The most pumps the round may take. `UntilComplete` is bounded so
    /// that a stalled replication fails the run rather than hangs it.
    pub fn max_pumps(self) -> usize {
        match self {
            PumpPlan::Fixed { count, .. } => count,
            PumpPlan::UntilComplete { .. } => SYNC_CAPACITY,
        }
    }

    pub fn spacing_ms(self) -> u64 {
        match self {
            PumpPlan::Fixed { spacing_ms, .. } | PumpPlan::UntilComplete { spacing_ms } => {
                spacing_ms
            }
        }
    }

    /// Whether the round ends as soon as the cloud holds everything.
    pub fn stops_when_complete(self) -> bool {
        matches!(self, PumpPlan::UntilComplete { .. })
    }
}

/// Pumps a round of `offered` records needs so that replication keeps
/// up: the engine moves [`SYNC_BATCH`] records per pump, and a record
/// needs two more pumps to be applied and acknowledged.
pub fn pumps_for(offered: usize) -> usize {
    offered.div_ceil(SYNC_BATCH) + 2
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum QueryClass {
    Recent,
    Wide,
    Downsample,
    Last,
    Views,
}

impl QueryClass {
    pub const ALL: [QueryClass; 5] = [
        QueryClass::Recent,
        QueryClass::Wide,
        QueryClass::Downsample,
        QueryClass::Last,
        QueryClass::Views,
    ];

    pub fn span_name(self) -> &'static str {
        match self {
            QueryClass::Recent => "query.recent",
            QueryClass::Wide => "query.wide",
            QueryClass::Downsample => "query.downsample",
            QueryClass::Last => "query.last",
            QueryClass::Views => "query.views",
        }
    }
}

pub struct Burst {
    pub class: QueryClass,
    pub reqs: Vec<QueryRequest>,
}

pub struct RoundInput {
    pub at: SimTime,
    pub entities: Vec<Entity>,
    pub plan: PumpPlan,
    /// Read bursts run after the round's pumps (`read_mixed` only).
    pub bursts: Vec<Burst>,
    /// Retention cutoff applied after the reads (`read_mixed` only).
    pub prune_before: Option<SimTime>,
}

/// Ground truth of the `storm_lossy` overlays.
pub struct StormTruth {
    pub attack_devices: BTreeSet<String>,
}

pub struct Inputs {
    pub builder: PlatformBuilder,
    /// Bare device ids to register and publish as (`sealed_steady`
    /// only), index-aligned with every round's entities.
    pub device_ids: Vec<String>,
    pub rounds: Vec<RoundInput>,
    /// Owner reads after the last round has settled.
    pub final_bursts: Vec<Burst>,
    pub storm: Option<StormTruth>,
    /// Whether the uplink can lose, duplicate or reorder.
    pub lossless: bool,
}

impl Inputs {
    pub fn offered(&self) -> u64 {
        self.rounds.iter().map(|r| r.entities.len() as u64).sum()
    }
}

/// Zipfian rank sampler (s = 1) by inverse CDF; rank 0 is the hottest.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 0..n {
            acc += 1.0 / (rank + 1) as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c < u)
            .min(self.cdf.len().saturating_sub(1))
    }
}

fn back(now: SimTime, d: SimDuration) -> SimTime {
    SimTime::ZERO + (now - SimTime::ZERO).saturating_sub(d)
}

/// One burst of `class` reads at `now`, zipfian over `ids`.
fn burst(
    class: QueryClass,
    ids: &[String],
    attr: &str,
    now: SimTime,
    recent: SimDuration,
    zipf: &Zipf,
    rng: &mut SimRng,
) -> Burst {
    if class == QueryClass::Views {
        return Burst {
            class,
            reqs: vec![QueryRequest::Views],
        };
    }
    let ahead = now + SimDuration::from_secs(60);
    let reqs = (0..BURST)
        .map(|k| {
            let entity = ids[zipf.sample(rng.uniform_f64())].clone();
            let attr = attr.to_owned();
            match class {
                QueryClass::Recent if k % 2 == 0 => QueryRequest::Aggregate {
                    entity,
                    attr,
                    from: back(now, recent),
                    to: ahead,
                },
                QueryClass::Recent => QueryRequest::Range {
                    entity,
                    attr,
                    from: back(now, recent),
                    to: ahead,
                },
                QueryClass::Wide => QueryRequest::Extremes {
                    entity,
                    attr,
                    from: SimTime::ZERO,
                    to: ahead,
                },
                QueryClass::Downsample => QueryRequest::Downsample {
                    entity,
                    attr,
                    from: back(now, recent * 2),
                    to: ahead,
                    bucket: recent / 2,
                },
                QueryClass::Last | QueryClass::Views => QueryRequest::Last { entity, attr },
            }
        })
        .collect();
    Burst { class, reqs }
}

fn final_bursts(
    ids: &[String],
    attr: &str,
    now: SimTime,
    recent: SimDuration,
    rng: &mut SimRng,
) -> Vec<Burst> {
    let zipf = Zipf::new(ids.len());
    let mut out = Vec::new();
    for _ in 0..FINAL_BURSTS_PER_CLASS {
        for class in QueryClass::ALL {
            if class != QueryClass::Views {
                out.push(burst(class, ids, attr, now, recent, &zipf, rng));
            }
        }
    }
    out.push(burst(QueryClass::Views, ids, attr, now, recent, &zipf, rng));
    out
}

/// The lossless farm-fog deployment four of the workloads share: a
/// datacenter-grade uplink and a retry timeout far above the ack round
/// trip, so every `sync.*` counter is determined by the workload.
fn lossless_builder(seed: u64) -> PlatformBuilder {
    Platform::builder(DeploymentConfig::FarmFog)
        .seed(seed)
        .uplink_spec(LinkSpec::cloud_backbone())
        .sync_base_timeout(SimDuration::from_secs(300))
        .sync_jitter(0.0)
}

fn probe_urn(i: usize) -> String {
    format!("urn:swamp:device:probe-{i}")
}

pub fn generate(w: &Workload, seed: u64) -> Inputs {
    // The two fleet workloads draw from one stream, so that the sharded
    // tier is offered byte-identical entities.
    let stream = match w.kind {
        Kind::FleetWide | Kind::FleetSharded => "fleet",
        _ => w.name,
    };
    let mut rng = SimRng::seed_from(seed).split("benchmark").split(stream);
    match w.kind {
        Kind::SealedSteady => sealed_steady(w, seed, &mut rng),
        Kind::FleetWide => fleet(w, lossless_builder(seed), &mut rng),
        Kind::FleetSharded => fleet(
            w,
            lossless_builder(seed).shards(SHARDS).workers(WORKERS),
            &mut rng,
        ),
        Kind::StormLossy => storm_lossy(w, seed, &mut rng),
        Kind::ReadMixed => read_mixed(w, seed, &mut rng),
    }
}

/// Every device seals one SoilProbe update per round and sends it over
/// its LPWAN link at the round start; ten pumps five seconds apart
/// deliver, ingest and replicate it.
fn sealed_steady(w: &Workload, seed: u64, rng: &mut SimRng) -> Inputs {
    let period = SimDuration::from_secs(60);
    let mut vwc: Vec<f64> = (0..w.devices)
        .map(|_| rng.uniform_range(0.18, 0.38))
        .collect();
    let rounds = (0..w.rounds)
        .map(|r| {
            let entities = vwc
                .iter_mut()
                .enumerate()
                .map(|(i, v)| {
                    *v = (*v + rng.uniform_range(-0.002, 0.002)).clamp(0.12, 0.45);
                    let mut e = Entity::new(probe_urn(i), "SoilProbe");
                    e.set("moisture_vwc", *v);
                    e.set("battery_fraction", 1.0 - r as f64 * 1e-4);
                    e.set("seq", r as f64);
                    e
                })
                .collect();
            RoundInput {
                at: SimTime::from_secs(60) + period * r as u64,
                entities,
                plan: PumpPlan::Fixed {
                    count: pumps_for(w.devices),
                    spacing_ms: 5_000,
                },
                bursts: Vec::new(),
                prune_before: None,
            }
        })
        .collect::<Vec<_>>();
    let ids: Vec<String> = (0..w.devices).map(probe_urn).collect();
    let end = SimTime::from_secs(60) + period * w.rounds as u64;
    Inputs {
        builder: lossless_builder(seed),
        device_ids: (0..w.devices).map(|i| format!("probe-{i}")).collect(),
        final_bursts: final_bursts(&ids, "moisture_vwc", end, period * 4, rng),
        rounds,
        storm: None,
        lossless: true,
    }
}

/// One already-validated update per device per round through
/// `Drive::ingest`, each round pumped until the cloud holds it all.
fn fleet(w: &Workload, builder: PlatformBuilder, rng: &mut SimRng) -> Inputs {
    let period = SimDuration::from_secs(600);
    let rounds = (0..w.rounds)
        .map(|r| RoundInput {
            at: SimTime::from_secs(60) + period * r as u64,
            entities: (0..w.devices)
                .map(|i| {
                    let mut e = Entity::new(probe_urn(i), "SoilProbe");
                    e.set("moisture_vwc", 0.15 + rng.uniform_f64() * 0.2);
                    e.set("seq", r as f64);
                    e
                })
                .collect(),
            plan: PumpPlan::UntilComplete { spacing_ms: 1_000 },
            bursts: Vec::new(),
            prune_before: None,
        })
        .collect();
    let ids: Vec<String> = (0..w.devices).map(probe_urn).collect();
    let end = SimTime::from_secs(60) + period * w.rounds as u64;
    Inputs {
        builder,
        device_ids: Vec::new(),
        final_bursts: final_bursts(&ids, "moisture_vwc", end, period * 2, rng),
        rounds,
        storm: None,
        lossless: true,
    }
}

/// Pump spacing of `storm_lossy`: under half the 60 s base retry timeout
/// less its 10 % jitter, so an ack is always polled before its record's
/// timer fires and every retransmission is caused by a modelled fault.
pub const STORM_PUMP_SPACING_MS: u64 = 20_000;

/// The MATOPIBA pilot with all three attack overlays in the detection
/// quarter, over a degraded uplink that also partitions when the
/// compiled workload says the region is cut off.
fn storm_lossy(w: &Workload, seed: u64, rng: &mut SimRng) -> Inputs {
    let victims = (w.devices / 8).max(1);
    let attack_start = w.rounds * 3 / 4 + 2;
    // Start the takeover at the first simulated noon of the detection
    // phase (48 half-hour rounds a day) so day and night cadences see it.
    let noon = (attack_start..w.rounds)
        .find(|r| r % 48 == 24)
        .filter(|r| r + 8 <= w.rounds)
        .unwrap_or(attack_start);
    let spec = WorkloadSpec::new(Pilot::Matopiba, seed, w.devices, w.rounds).with_attacks(vec![
        AttackOverlay::SybilBurst {
            start_round: attack_start,
            rounds: w.rounds.saturating_sub(attack_start),
            count: victims,
        },
        AttackOverlay::TamperDrift {
            start_round: attack_start,
            devices: victims,
            drift_per_round: 0.012,
        },
        AttackOverlay::ActuatorTakeover {
            start_round: noon,
            rounds: 24,
            devices: victims,
        },
    ]);
    let compiled = spec.compile();

    let mut plan = FaultPlan::new(seed);
    plan.set_link_faults(
        swamp_core::platform::nodes::FOG,
        swamp_core::platform::nodes::CLOUD,
        FaultSpec::degraded(0.10),
    )
    .expect("degraded(0.10) holds valid probabilities");
    let mut outages = OutageSchedule::new();
    for &(start, end) in &compiled.partitions {
        outages.add_outage(start, end);
    }
    let baseline = BaselineConfig::phased(
        spec.round_time(w.rounds / 2),
        spec.round_time(w.rounds * 3 / 4),
    )
    .with_coverage(0.6, 0.004);
    let builder = Platform::builder(DeploymentConfig::FarmFog)
        .seed(seed)
        .fault_plan(plan)
        .uplink_outages(&outages)
        .baseline(baseline);

    let pumps = (spec.step.as_millis() / STORM_PUMP_SPACING_MS) as usize;
    let ids = compiled.devices.clone();
    let end = spec.round_time(w.rounds);
    let rounds = compiled
        .batches
        .into_iter()
        .map(|b| RoundInput {
            at: b.at,
            entities: b.records.into_iter().map(|rec| rec.entity).collect(),
            plan: PumpPlan::Fixed {
                count: pumps,
                spacing_ms: STORM_PUMP_SPACING_MS,
            },
            bursts: Vec::new(),
            prune_before: None,
        })
        .collect();
    Inputs {
        builder,
        device_ids: Vec::new(),
        final_bursts: final_bursts(&ids, "moisture_vwc", end, spec.step * 8, rng),
        rounds,
        storm: Some(StormTruth {
            attack_devices: compiled.attack_devices,
        }),
        lossless: false,
    }
}

/// Sub-round samples a hot device reports per round.
const HOT_SUBSAMPLES: u64 = 512;
/// Retention horizon of `read_mixed`.
const RETENTION: SimDuration = SimDuration::from_secs(120);

/// Reads beside writes: 1 % of the fleet reports a deep series, every
/// round ends in zipfian read bursts, retention and compaction.
fn read_mixed(w: &Workload, seed: u64, rng: &mut SimRng) -> Inputs {
    let period = SimDuration::from_secs(60);
    let hot = (w.devices / 100).max(1);
    let ids: Vec<String> = (0..w.devices).map(probe_urn).collect();
    let zipf = Zipf::new(w.devices);
    let rounds = (0..w.rounds)
        .map(|r| {
            let at = SimTime::from_secs(60) + period * r as u64;
            let mut entities = Vec::with_capacity(w.devices + hot * HOT_SUBSAMPLES as usize);
            for (i, id) in ids.iter().enumerate() {
                let subs = if i < hot { HOT_SUBSAMPLES } else { 1 };
                for k in 0..subs {
                    let mut e = Entity::new(id.as_str(), "SoilProbe");
                    e.set_attribute(
                        "water_flow",
                        Attribute::new(1.0 + rng.uniform_f64())
                            .observed_at(at.as_millis() + k * (57_600 / HOT_SUBSAMPLES)),
                    );
                    entities.push(e);
                }
            }
            let bursts = QueryClass::ALL
                .into_iter()
                .map(|class| burst(class, &ids, "water_flow", at, period, &zipf, rng))
                .collect();
            RoundInput {
                at,
                plan: PumpPlan::Fixed {
                    count: pumps_for(entities.len()),
                    spacing_ms: 200,
                },
                entities,
                bursts,
                prune_before: Some(back(at, RETENTION)),
            }
        })
        .collect();
    let end = SimTime::from_secs(60) + period * w.rounds as u64;
    Inputs {
        builder: lossless_builder(seed).history_segment_threshold(Some(64)),
        device_ids: Vec::new(),
        final_bursts: final_bursts(&ids, "water_flow", end, period, rng),
        rounds,
        storm: None,
        lossless: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pumps_per_round_never_overflow_the_sync_buffer() {
        assert_eq!(pumps_for(0), 2);
        assert_eq!(pumps_for(1), 3);
        assert_eq!(pumps_for(256), 3);
        assert_eq!(pumps_for(257), 4);
        assert_eq!(pumps_for(50_000), 198);
        // At the reference fleet sizes every round is offered at most what
        // the buffer holds, and every fixed-plan round gets enough pumps to
        // transmit all of it with two to spare for the apply and the ack.
        for w in &WORKLOADS {
            if w.kind == Kind::StormLossy {
                continue;
            }
            let inputs = generate(&Workload { rounds: 1, ..*w }, 7);
            for round in &inputs.rounds {
                assert!(round.entities.len() <= SYNC_CAPACITY, "{}", w.name);
                if let PumpPlan::Fixed { count, .. } = round.plan {
                    assert!(
                        (count - 2) * SYNC_BATCH >= round.entities.len(),
                        "{}",
                        w.name
                    );
                }
            }
        }
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let digest = |w: &Workload, seed: u64| {
            let mut h = crate::stats::Fnv::default();
            for round in &generate(w, seed).rounds {
                h.write_u64(round.at.as_millis());
                for e in &round.entities {
                    h.write(e.to_json().to_compact_string().as_bytes());
                }
            }
            h.finish()
        };
        for w in &WORKLOADS {
            let small = Workload {
                devices: 200,
                rounds: if w.kind == Kind::StormLossy { 48 } else { 3 },
                ..*w
            };
            assert_eq!(digest(&small, 42), digest(&small, 42), "{}", w.name);
            assert_ne!(digest(&small, 42), digest(&small, 1337), "{}", w.name);
        }
        // The sharded workload is offered the wide workload's stream.
        let wide = Workload {
            devices: 300,
            ..WORKLOADS[1]
        };
        let sharded = Workload {
            devices: 300,
            ..WORKLOADS[2]
        };
        assert_eq!(digest(&wide, 9), digest(&sharded, 9));
    }

    #[test]
    fn zipf_head_is_hot() {
        let z = Zipf::new(1_000);
        assert_eq!(z.sample(0.05), 0);
        assert!(z.sample(0.999) > 100);
        assert_eq!(Zipf::new(1).sample(0.7), 0);
    }
}
