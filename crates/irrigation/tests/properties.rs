//! Seeded property loops for irrigation policies and water sources:
//! each test draws its inputs from a fixed [`SimRng`] stream, so a
//! failure reproduces exactly.

use swamp_irrigation::schedule::{
    DeficitMaintain, EtReplacement, FixedCalendar, IrrigationPolicy, ThresholdRefill, ZoneView,
};
use swamp_irrigation::source::WaterSource;
use swamp_sim::SimRng;

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
