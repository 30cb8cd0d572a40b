//! Cross-crate properties on system invariants, as seeded loops: every
//! input comes from a fixed [`SimRng`] stream, so a failure reproduces
//! exactly.

use swamp::agro::soil::{SoilProperties, SoilWaterBalance, WaterFlux};
use swamp::codec::ngsi::Entity;
use swamp::core::platform::{DeploymentConfig, IngestError, Platform};
use swamp::fog::OutageSchedule;
use swamp::irrigation::network::{Allocation, DistributionNetwork};
use swamp::sensors::device::DeviceKind;
use swamp::sim::{SimDuration, SimRng, SimTime};

const CASES: usize = 64;

/// Crosses the batched ingest path (`ingest_entities` → history append,
/// context `upsert_batch`, replication enqueue) with a scheduled uplink
/// partition: every update enqueued during the outage must still reach
/// the cloud replica once the uplink returns. Asserted entirely through
/// `Platform::observe()`.
#[test]
fn batched_ingest_survives_scheduled_partition() {
    let seed = 42u64;
    let mut schedule = OutageSchedule::new();
    // One-hour partition starting 10 minutes in: long enough to force
    // retry/backoff cycles at the 60 s base timeout.
    let outage_start = SimTime::from_secs(600);
    let outage_end = SimTime::from_secs(4_200);
    schedule.add_outage(outage_start, outage_end);

    let mut p = Platform::builder(DeploymentConfig::FarmFog)
        .seed(seed)
        .sync_base_timeout(SimDuration::from_secs(60))
        .sync_jitter(0.1)
        .uplink_outages(&schedule)
        .build();

    let mut rng = SimRng::seed_from(seed).split("cross-partition");
    let mut ingested = 0u64;
    // 3 h of minute-grained pumps; a batch of 8 entities lands every
    // 5 minutes for the first 2 h (so batches fall before, inside and
    // after the partition window), the final hour drains the backlog.
    for minute in 0..180u64 {
        let now = SimTime::ZERO.saturating_add(SimDuration::from_mins(minute));
        if minute < 120 && minute % 5 == 0 {
            let batch: Vec<Entity> = (0..8)
                .map(|i| {
                    let mut e = Entity::new(format!("urn:swamp:device:probe-{i}"), "SoilProbe");
                    e.set("moisture_vwc", 0.1 + rng.uniform_f64() * 0.3);
                    e.set("seq", minute as f64);
                    e
                })
                .collect();
            ingested += p.ingest_entities(now, batch) as u64;
        }
        p.pump(now);
    }

    assert_eq!(ingested, 24 * 8, "every batch is accepted locally");
    let snap = p.observe();
    let read = |name: &str| snap.counter(name).expect("counter registered");
    assert_eq!(
        read("ingest.accepted"),
        ingested,
        "batched ingest counts every update"
    );
    assert_eq!(
        read("sync.enqueued"),
        ingested,
        "fog replication enqueues every accepted update"
    );
    assert_eq!(
        read("sync.acked"),
        ingested,
        "eventual delivery: the partition delays acks, never loses them"
    );
    assert!(
        read("cloud.accepted") + read("cloud.duplicates") <= read("sync.transmissions"),
        "arrivals (applied + deduplicated) cannot exceed transmissions"
    );
    assert_eq!(
        read("cloud.accepted"),
        ingested,
        "the cloud replica applies each update exactly once"
    );
    assert!(
        read("sync.retransmissions") > 0,
        "the hour-long partition must force at least one retry cycle"
    );
    assert!(
        read("sync.timeouts") > 0,
        "in-flight records time out during the partition"
    );
}

/// Soil water balance conserves mass for arbitrary flux sequences.
#[test]
fn soil_mass_balance_closes() {
    let mut rng = SimRng::seed_from(0xC205_0001);
    for _ in 0..CASES {
        let mut swb = SoilWaterBalance::new(SoilProperties::loam(), 0.6, 0.5);
        swb.set_depletion_mm(rng.uniform_f64() * swb.taw_mm());
        let d0 = swb.depletion_mm();
        let mut in_sum = 0.0;
        let mut out_sum = 0.0;
        for _ in 0..1 + rng.below(59) {
            let flux = WaterFlux {
                rain_mm: rng.uniform_range(0.0, 40.0),
                irrigation_mm: rng.uniform_range(0.0, 30.0),
                etc_mm: rng.uniform_range(0.0, 9.0),
            };
            let out = swb.step(flux);
            in_sum += flux.rain_mm + flux.irrigation_mm;
            out_sum += out.eta_mm + out.drainage_mm + out.runoff_mm;
            assert!((0.0..=1.0).contains(&out.ks));
            assert!(out.eta_mm <= flux.etc_mm + 1e-9);
            assert!(swb.depletion_mm() >= -1e-9);
            assert!(swb.depletion_mm() <= swb.taw_mm() + 1e-9);
        }
        let storage_gain = d0 - swb.depletion_mm();
        assert!(
            (in_sum - out_sum - storage_gain).abs() < 1e-6,
            "mass balance: in={in_sum} out={out_sum} Δ={storage_gain}"
        );
    }
}

/// Canal allocation never exceeds any capacity or any demand, for
/// arbitrary two-level trees, under both policies.
#[test]
fn distribution_respects_capacities() {
    let mut rng = SimRng::seed_from(0xC205_0002);
    for _ in 0..CASES {
        let source = rng.uniform_range(50.0, 2000.0);
        let mut net = DistributionNetwork::new(source);
        let mut farm_demands = Vec::new();
        let mut branches = Vec::new();
        for _ in 0..1 + rng.below(4) {
            let capacity = rng.uniform_range(20.0, 800.0);
            let j = net.add_junction(net.root(), capacity);
            let mut ids = Vec::new();
            for _ in 0..1 + rng.below(4) {
                let demand = rng.uniform_range(1.0, 400.0);
                ids.push(net.add_farm(j, demand));
                farm_demands.push(demand);
            }
            branches.push((capacity, ids));
        }
        for alloc in [net.allocate_max_min(), net.allocate_greedy_upstream()] {
            assert!(alloc.total_m3() <= source + 1e-6);
            for (got, want) in alloc.per_farm_m3.iter().zip(&farm_demands) {
                assert!(*got <= want + 1e-6);
                assert!(*got >= -1e-9);
            }
            for (capacity, ids) in &branches {
                let through: f64 = ids.iter().map(|f| alloc.per_farm_m3[f.0]).sum();
                assert!(through <= capacity + 1e-6);
            }
            let fairness = alloc.jain_fairness(&farm_demands);
            assert!((0.0..=1.0 + 1e-9).contains(&fairness));
        }
    }
}

/// Max-min never gives the worst-off farm less than greedy does.
#[test]
fn max_min_weakly_dominates_greedy_for_worst_farm() {
    let mut rng = SimRng::seed_from(0xC205_0003);
    for _ in 0..CASES {
        let source = rng.uniform_range(100.0, 1000.0);
        let mut net = DistributionNetwork::new(source);
        let trunk = net.add_junction(net.root(), source * 0.8);
        let demands: Vec<f64> = (0..2 + rng.below(6))
            .map(|_| rng.uniform_range(10.0, 300.0))
            .collect();
        for d in &demands {
            net.add_farm(trunk, *d);
        }
        let worst = |a: &Allocation| {
            a.per_farm_m3
                .iter()
                .zip(&demands)
                .map(|(x, d)| x / d)
                .fold(f64::INFINITY, f64::min)
        };
        let greedy = worst(&net.allocate_greedy_upstream());
        assert!(worst(&net.allocate_max_min()) >= greedy - 1e-9);
    }
}

/// The platform ingest path accepts exactly what a provisioned device
/// seals — for arbitrary attribute values — and the context reflects it;
/// a moisture value no soil can hold (above 0.6) refuses the whole frame
/// instead, and the context keeps nothing of it.
#[test]
fn ingest_roundtrip_arbitrary_values() {
    let mut rng = SimRng::seed_from(0xC205_0004);
    for _ in 0..CASES {
        let vwc = rng.uniform_f64();
        let temp = rng.uniform_range(-20.0, 55.0);
        let mut p = Platform::builder(DeploymentConfig::FarmFog)
            .seed(12)
            .build();
        p.register_device(SimTime::ZERO, "probe", DeviceKind::SoilProbe, "owner:prop")
            .unwrap();
        let key = p.keystore.device_key("probe").unwrap().key;
        let mut e = Entity::new("urn:swamp:device:probe", "SoilProbe");
        e.set("moisture_vwc", vwc);
        e.set("temperature_c", temp);
        e.set("battery_fraction", rng.uniform_f64());
        e.set("seq", 0.0);
        let sealed = key.seal(
            &[9u8; 12],
            b"probe",
            e.to_json().to_compact_string().as_bytes(),
        );
        let admitted = p.ingest_frame(SimTime::ZERO, "probe", &sealed);
        let stored = p.context.entity(&"urn:swamp:device:probe".into());
        if vwc > 0.6 {
            assert!(
                matches!(admitted, Err(IngestError::ImpossibleValue(_))),
                "vwc {vwc}: {admitted:?}"
            );
            assert!(stored.is_none(), "vwc {vwc}");
            continue;
        }
        admitted.expect("ingest ok");
        let stored = stored.unwrap();
        assert_eq!(stored.number("moisture_vwc"), Some(vwc));
        assert_eq!(stored.number("temperature_c"), Some(temp));
    }
}
