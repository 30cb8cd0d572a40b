//! Seeded property loops for irrigation planning and policies: each test
//! draws its inputs from a fixed [`SimRng`] stream, so a failure
//! reproduces exactly.

use swamp_irrigation::schedule::{
    DeficitMaintain, EtReplacement, FixedCalendar, IrrigationPolicy, ThresholdRefill, ZoneView,
};
use swamp_irrigation::source::WaterSource;
use swamp_irrigation::vri::{compile_plan, zones_to_sectors, Prescription};
use swamp_sensors::actuators::CenterPivot;
use swamp_sim::{SimRng, SimTime};

const CASES: usize = 256;

fn view(rng: &mut SimRng) -> ZoneView {
    let raw = rng.uniform_range(10.0, 60.0);
    let taw = raw * 2.0;
    ZoneView {
        depletion_mm: rng.uniform_range(0.0, 120.0).min(taw),
        taw_mm: taw,
        raw_mm: raw,
        etc_mm: rng.uniform_range(0.0, 12.0),
        forecast_rain_mm: rng.uniform_range(0.0, 20.0),
        das: rng.below(160) as u32,
    }
}

/// `n` depths drawn uniformly from `[0, max)`, `1 <= n < max_len`.
fn depths(rng: &mut SimRng, max_len: u64, max: f64) -> Vec<f64> {
    (0..1 + rng.below(max_len - 1))
        .map(|_| rng.uniform_range(0.0, max))
        .collect()
}

/// No policy ever prescribes a negative depth or a non-finite depth.
#[test]
fn policies_prescribe_sane_depths() {
    let mut rng = SimRng::seed_from(0x1220_0001);
    for _ in 0..CASES {
        let mut policies: Vec<Box<dyn IrrigationPolicy>> = vec![
            Box::new(FixedCalendar::new(3, 25.0)),
            Box::new(ThresholdRefill::new(1.0)),
            Box::new(EtReplacement::new(1.0)),
            Box::new(DeficitMaintain::new(0.65)),
        ];
        for _ in 0..1 + rng.below(59) {
            let v = view(&mut rng);
            for p in &mut policies {
                let d = p.decide(&v);
                assert!(d.is_finite() && d >= 0.0, "{}: {d}", p.name());
            }
        }
    }
}

/// ThresholdRefill never prescribes more than the current depletion
/// (refilling past field capacity would just drain away).
#[test]
fn threshold_never_overfills() {
    let mut rng = SimRng::seed_from(0x1220_0002);
    for _ in 0..CASES {
        let v = view(&mut rng);
        let d = ThresholdRefill::new(1.0).decide(&v);
        assert!(d <= v.depletion_mm + 1e-9, "{d} mm into {v:?}");
    }
}

/// Any valid prescription compiles to a plan the machine accepts, and
/// achieved depths are within the machine envelope.
#[test]
fn compiled_plans_are_machine_valid() {
    let mut rng = SimRng::seed_from(0x1220_0003);
    for _ in 0..CASES {
        let depths = depths(&mut rng, 16, 100.0);
        let base_depth = rng.uniform_range(2.0, 20.0);
        let mut pivot = CenterPivot::new("p", depths.len(), 12.0, base_depth);
        let plan = compile_plan(&pivot, &Prescription::new(depths), base_depth);
        assert!(pivot.set_sector_speeds(plan.sector_speeds.clone()).is_ok());
        for (i, &speed) in plan.sector_speeds.iter().enumerate() {
            assert!((0.05..=1.0).contains(&speed));
            if plan.nozzles_off[i] {
                assert_eq!(plan.achieved_mm[i], 0.0);
            } else {
                // Achieved = base/speed, bounded by the envelope.
                assert!(plan.achieved_mm[i] >= base_depth - 1e-9);
                assert!(plan.achieved_mm[i] <= base_depth / 0.05 + 1e-9);
            }
        }
        pivot.start(SimTime::ZERO);
    }
}

/// zones_to_sectors preserves the value set (every sector depth comes
/// from some zone) and the sector count.
#[test]
fn zone_mapping_preserves_values() {
    let mut rng = SimRng::seed_from(0x1220_0004);
    for _ in 0..CASES {
        let zone_depths = depths(&mut rng, 8, 50.0);
        let sectors = 1 + rng.below(31) as usize;
        let rx = zones_to_sectors(&zone_depths, sectors);
        assert_eq!(rx.sectors(), sectors);
        for d in rx.depths_mm() {
            assert!(zone_depths.iter().any(|z| (z - d).abs() < 1e-12));
        }
    }
}

/// Water accounting: cost and energy are non-negative and linear in
/// volume, for every pilot's source.
#[test]
fn source_costs_linear() {
    let mut rng = SimRng::seed_from(0x1220_0005);
    for _ in 0..CASES {
        let volume = rng.uniform_range(0.0, 10_000.0);
        for source in [
            WaterSource::cbec_canal(),
            WaterSource::matopiba_well(),
            WaterSource::intercrop_desal(),
        ] {
            let one = source.deliver(volume);
            let two = source.deliver(volume * 2.0);
            assert!(one.cost_eur >= 0.0 && one.energy_kwh >= 0.0);
            assert!((two.cost_eur - 2.0 * one.cost_eur).abs() < 1e-6);
            assert!((two.energy_kwh - 2.0 * one.energy_kwh).abs() < 1e-6);
        }
    }
}
