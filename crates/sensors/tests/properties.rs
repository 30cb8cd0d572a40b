//! Seeded property loops for the device models: each test draws its
//! inputs from a fixed [`SimRng`] stream, so a failure reproduces exactly.

use swamp_sensors::actuators::{CenterPivot, Pump};
use swamp_sensors::probes::{SensorNoise, SoilMoistureProbe};
use swamp_sim::{SimDuration, SimRng, SimTime};

const CASES: usize = 256;

/// Uniform integer in `[lo, hi)`.
fn int_in(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    lo + rng.below(hi - lo)
}

/// Probe readings are always inside the physical VWC range and within
/// bias+drift+5σ of the truth.
#[test]
fn probe_reading_bounded() {
    let mut rng = SimRng::seed_from(0x5E50_0002);
    for _ in 0..CASES {
        let truth = rng.uniform_range(0.0, 0.6);
        let bias = rng.uniform_range(-0.05, 0.05);
        let noise_sd = rng.uniform_range(0.0001, 0.05);
        let day = rng.below(400);
        let probe = SoilMoistureProbe::new(
            "p",
            0,
            SensorNoise {
                bias,
                noise_sd,
                drift_per_day: 0.0001,
            },
        );
        let mut sampler = SimRng::seed_from(rng.next_u64());
        let r = probe
            .sample(truth, SimTime::from_days(day), &mut sampler)
            .expect("healthy probe");
        assert!((0.0..=1.0).contains(&r.value));
        let expected = truth + bias + 0.0001 * day as f64;
        assert!(
            (r.value - expected.clamp(0.0, 1.0)).abs() <= 5.0 * noise_sd + 1e-9,
            "reading {} vs expected {expected}",
            r.value
        );
    }
}

/// Pivot water application is path-independent: advancing in many small
/// steps applies the same per-sector totals as one big step.
#[test]
fn pivot_advance_path_independent() {
    let mut rng = SimRng::seed_from(0x5E50_0003);
    // (sectors, hours, splits, speed ‰); the first is a case a property
    // run once shrank to.
    let mut cases = vec![(7, 17, 2, 303)];
    for _ in 0..CASES {
        cases.push((
            int_in(&mut rng, 1, 12),
            int_in(&mut rng, 1, 48),
            int_in(&mut rng, 2, 20),
            int_in(&mut rng, 100, 1000),
        ));
    }
    for (sectors, hours, splits, speed_millis) in cases {
        let sectors = sectors as usize;
        let speed = speed_millis as f64 / 1000.0;
        let mk = || {
            let mut p = CenterPivot::new("p", sectors, 12.0, 10.0);
            p.set_sector_speeds(vec![speed; sectors]).unwrap();
            p.start(SimTime::ZERO);
            p
        };
        let mut one = mk();
        one.advance(SimTime::from_hours(hours));

        let mut many = mk();
        for i in 1..=splits {
            many.advance(SimTime::from_millis(hours * 3_600_000 * i / splits));
        }
        for (a, b) in one.total_applied_mm().iter().zip(many.total_applied_mm()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
        assert!((one.angle_deg() - many.angle_deg()).abs() < 1e-6);
    }
}

/// Pump energy equals power × running time regardless of how the
/// interval is chopped up.
#[test]
fn pump_energy_additive() {
    let mut rng = SimRng::seed_from(0x5E50_0004);
    for _ in 0..CASES {
        let power = rng.uniform_range(1.0, 100.0);
        let mut p = Pump::new("pump", 50.0, power);
        let mut t = SimTime::ZERO;
        let mut expected = 0.0;
        for i in 0..int_in(&mut rng, 1, 6) {
            let hours = int_in(&mut rng, 1, 10);
            p.set_running(t, i % 2 == 0);
            if i % 2 == 0 {
                expected += power * hours as f64;
            }
            t += SimDuration::from_hours(hours);
        }
        p.set_running(t, false);
        assert!((p.energy_kwh(t) - expected).abs() < 1e-9);
    }
}
