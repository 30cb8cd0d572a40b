//! End-to-end integration: field devices → secure network ingestion →
//! context/history → irrigation decision → authorized actuation, across
//! every SWAMP crate at once.

use swamp::agro::soil::{SoilProperties, SoilWaterBalance, WaterFlux};
use swamp::codec::ngsi::Entity;
use swamp::core::platform::{DeploymentConfig, Platform};
use swamp::fog::availability::OutageSchedule;
use swamp::irrigation::schedule::{IrrigationPolicy, ThresholdRefill, ZoneView};
use swamp::security::access::{Action, Decision};
use swamp::sensors::device::DeviceKind;
use swamp::sim::{SimDuration, SimRng, SimTime};

/// A full closed loop: the true soil dries, the probe reports it through
/// the platform, the scheduler decides from platform state, the authorized
/// pivot command applies the prescribed depth, and the true soil recovers.
#[test]
fn closed_loop_irrigation_through_the_platform() {
    let mut platform = Platform::builder(DeploymentConfig::FarmFog).seed(1).build();
    platform
        .register_device(
            SimTime::ZERO,
            "probe-z0",
            DeviceKind::SoilProbe,
            "owner:farm",
        )
        .unwrap();
    platform
        .register_device(
            SimTime::ZERO,
            "pivot-1",
            DeviceKind::CenterPivot,
            "owner:farm",
        )
        .unwrap();

    let mut truth = SoilWaterBalance::new(SoilProperties::loam(), 0.6, 0.5);
    let mut rng = SimRng::seed_from(2);
    let mut policy = ThresholdRefill::new(1.0);

    platform.idm.register_client("scheduler", "s3cret", &[]);
    platform
        .pdp
        .add_policy(swamp::security::access::Policy::new(
            swamp::security::access::Effect::Allow,
            swamp::security::access::SubjectMatch::Exact("client:scheduler".into()),
            "urn:swamp:device:pivot-1",
            &[Action::Command],
        ));

    let mut irrigated_days = 0;
    let mut driest_platform_view: f64 = 1.0;
    for day in 0..30u64 {
        let t = SimTime::from_days(day);

        // Device side: a noisy reading of truth, published (retry against
        // LPWAN loss).
        let reading = truth.volumetric_content() + rng.normal_with(0.0, 0.005);
        for attempt in 0..5 {
            let mut e = Entity::new("urn:swamp:device:probe-z0", "SoilProbe");
            e.set("moisture_vwc", reading);
            e.set("seq", (day * 5 + attempt) as f64);
            let at = t + SimDuration::from_mins(attempt * 3);
            let _ = platform.device_publish(at, "probe-z0", &e);
            platform.pump(at + SimDuration::from_mins(2));
            if platform
                .history
                .last("urn:swamp:device:probe-z0", "moisture_vwc")
                .is_some_and(|s| s.at >= t)
            {
                break;
            }
        }

        // Platform side: build the zone view FROM PLATFORM STATE (not truth).
        let vwc = platform
            .context
            .entity(&"urn:swamp:device:probe-z0".into())
            .and_then(|e| e.number("moisture_vwc"))
            .expect("context holds the probe");
        driest_platform_view = driest_platform_view.min(vwc);
        let fc = truth.soil().field_capacity;
        let depletion_mm = ((fc - vwc) * 600.0).max(0.0); // 0.6 m root zone
        let view = ZoneView {
            depletion_mm,
            taw_mm: truth.taw_mm(),
            raw_mm: truth.raw_mm(),
            etc_mm: 6.0,
            forecast_rain_mm: 0.0,
            das: day as u32,
        };
        let depth = policy.decide(&view);

        // Actuation goes through authorization.
        let mut applied_mm = 0.0;
        if depth > 0.0 {
            // Tokens live 8 h; the scheduler re-authenticates each day.
            let sched_token = platform
                .idm
                .client_credentials_grant(t, "scheduler", "s3cret", &[])
                .unwrap();
            let decision = platform
                .authorize_command(t, &sched_token, "pivot-1")
                .expect("valid token");
            assert_eq!(decision, Decision::PermitPolicy);
            // The pass applies the prescribed depth, as E1's per-zone VRI.
            applied_mm = depth;
            irrigated_days += 1;
        }

        // Physics advances with whatever was actually applied.
        truth.step(WaterFlux {
            rain_mm: 0.0,
            irrigation_mm: applied_mm,
            etc_mm: 6.0,
        });
    }

    assert!(
        irrigated_days >= 2,
        "a month at 6 mm/day needs several refills"
    );
    assert!(
        driest_platform_view < 0.22,
        "platform saw the drydown: {driest_platform_view}"
    );
    // The closed loop kept the true soil out of deep stress.
    assert!(
        truth.available_fraction() > 0.2,
        "closed loop held the soil up: {}",
        truth.available_fraction()
    );
    assert!(platform.observe().counter("ingest.accepted").unwrap() >= 25);
}

/// The same platform serves all four pilots' crops (the paper's
/// customization claim) — smoke-level, via the pilot runner.
#[test]
fn four_pilots_one_platform() {
    use swamp::pilots::pilots::{run_pilot, Agronomy, Pilot};
    let mut names = std::collections::BTreeSet::new();
    for pilot in Pilot::all() {
        let report = run_pilot(pilot, 11);
        let name = Agronomy::of(pilot).display_name;
        names.insert(name);
        assert!(report.smart.days > 100, "{name}: full season ran");
        assert!(report.smart.account.volume_m3 < report.baseline.account.volume_m3);
    }
    assert_eq!(names.len(), 4);
}

/// Fog replication preserves exactly the ingested history across an outage
/// (no loss, no duplication at the replica).
#[test]
fn outage_replication_is_lossless_and_idempotent() {
    let outage_end = SimTime::from_hours(12);
    let mut outage = OutageSchedule::new();
    outage.add_outage(SimTime::ZERO, outage_end);
    let mut platform = Platform::builder(DeploymentConfig::FarmFog)
        .seed(3)
        .uplink_outages(&outage)
        .build();
    platform
        .register_device(SimTime::ZERO, "probe-1", DeviceKind::SoilProbe, "owner:x")
        .unwrap();

    let mut accepted = 0;
    let mut seq = 0.0;
    let mut t = SimTime::ZERO;
    while accepted < 20 {
        let mut e = Entity::new("urn:swamp:device:probe-1", "SoilProbe");
        e.set("moisture_vwc", 0.2);
        e.set("seq", seq);
        seq += 1.0;
        let _ = platform.device_publish(t, "probe-1", &e);
        t += SimDuration::from_mins(10);
        platform.pump(t);
        accepted = platform.observe().counter("ingest.accepted").unwrap();
    }
    assert!(t < outage_end, "20 records ingest inside the outage");

    assert_eq!(
        platform.cloud_replica().unwrap().record_count(),
        0,
        "nothing reaches the cloud during the outage"
    );
    for i in 0..30 {
        platform.pump(outage_end + SimDuration::from_mins(10 * i));
    }
    let replica = platform.cloud_replica().unwrap();
    assert_eq!(replica.record_count() as u64, accepted);
}
