//! Seeded property loops for the agronomic models: each test draws its
//! inputs from a fixed [`SimRng`] stream, so a failure reproduces exactly.

use swamp_agro::crop::Crop;
use swamp_agro::et::{ea_from_rh_mean, hargreaves, penman_monteith, EtInputs};
use swamp_agro::weather::{ClimateProfile, WeatherGenerator};
use swamp_sim::SimRng;

const CASES: usize = 256;

fn crops() -> Vec<Crop> {
    vec![
        Crop::soybean(),
        Crop::wine_grape(),
        Crop::lettuce(),
        Crop::melon(),
        Crop::tomato(),
        Crop::maize(),
    ]
}

fn day_of_year(rng: &mut SimRng, max: u64) -> u32 {
    1 + rng.below(max) as u32
}

/// ET₀ is finite and non-negative over the whole plausible input space,
/// for both formulations.
#[test]
fn et0_finite_nonnegative() {
    let mut rng = SimRng::seed_from(0xA620_0001);
    // (tmax, range, rh, wind, solar, lat, elev, doy); the first is the
    // corner a property run once shrank to: hot, bone dry, gale, dark.
    let mut cases = vec![(
        45.786_535_320_916_55,
        1.0,
        5.0,
        19.996_384_357_865_15,
        0.5,
        0.0,
        0.0,
        1,
    )];
    for _ in 0..CASES {
        cases.push((
            rng.uniform_range(-5.0, 48.0),
            rng.uniform_range(1.0, 25.0),
            rng.uniform_range(5.0, 100.0),
            rng.uniform_range(0.0, 20.0),
            rng.uniform_range(0.5, 35.0),
            rng.uniform_range(-60.0, 60.0),
            rng.uniform_range(0.0, 3000.0),
            day_of_year(&mut rng, 366),
        ));
    }
    for (tmax, range, rh, wind, solar, lat, elev, doy) in cases {
        let tmin = tmax - range;
        let pm = penman_monteith(&EtInputs {
            tmax_c: tmax,
            tmin_c: tmin,
            ea_kpa: ea_from_rh_mean(rh, tmax, tmin),
            wind_2m: wind,
            solar_mj: solar,
            latitude_deg: lat,
            elevation_m: elev,
            day_of_year: doy,
        });
        assert!(pm.is_finite() && pm >= 0.0, "PM {pm}");
        // The aerodynamic term legitimately reaches ~35 mm/day at the
        // unphysical corner of this input box (46 °C, 5% RH, 20 m/s wind);
        // the bound is a sanity rail, not a climatology.
        assert!(pm < 40.0, "PM {pm} beyond the equation's plausible range");
        let hg = hargreaves(tmax, tmin, lat, doy);
        assert!(hg.is_finite() && hg >= 0.0, "HG {hg}");
    }
}

/// Kc curves are bounded by the stage coefficients and root depth is
/// monotone non-decreasing, for every crop and every day of a long season.
#[test]
fn crop_curves_well_behaved() {
    for crop in crops() {
        let lo = crop.kc_ini.min(crop.kc_mid).min(crop.kc_end) - 1e-9;
        let hi = crop.kc_ini.max(crop.kc_mid).max(crop.kc_end) + 1e-9;
        for day in 0u32..400 {
            let kc = crop.kc(day);
            assert!(
                (lo..=hi).contains(&kc),
                "{}: Kc {kc} on day {day}",
                crop.name
            );
            if day > 0 {
                assert!(
                    crop.root_depth(day) >= crop.root_depth(day - 1) - 1e-12,
                    "{}: roots shrank",
                    crop.name
                );
            }
            assert!(crop.root_depth(day) <= crop.root_depth_max_m + 1e-12);
        }
    }
}

/// Relative yield is in [0,1], monotone in water supplied.
#[test]
fn yield_monotone_in_water() {
    let mut rng = SimRng::seed_from(0xA620_0002);
    for _ in 0..CASES {
        let etc = rng.uniform_range(100.0, 900.0);
        let (a, b) = (rng.uniform_f64(), rng.uniform_f64());
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        for crop in crops() {
            let y_lo = crop.relative_yield(etc * lo, etc);
            let y_hi = crop.relative_yield(etc * hi, etc);
            assert!((0.0..=1.0).contains(&y_lo));
            assert!((0.0..=1.0).contains(&y_hi));
            assert!(y_hi >= y_lo - 1e-12, "{}: yield not monotone", crop.name);
        }
    }
}

/// Weather generation never violates physical invariants, for any seed
/// and any climate.
#[test]
fn weather_invariants_any_seed() {
    let mut rng = SimRng::seed_from(0xA620_0003);
    for _ in 0..64 {
        let seed = rng.next_u64();
        let start = day_of_year(&mut rng, 364);
        for climate in [
            ClimateProfile::bologna(),
            ClimateProfile::cartagena(),
            ClimateProfile::pinhal(),
            ClimateProfile::barreiras(),
        ] {
            let mut g = WeatherGenerator::new(climate, SimRng::seed_from(seed));
            for day in g.generate_run(start, 30) {
                assert!(day.tmax_c > day.tmin_c);
                assert!(day.rain_mm >= 0.0 && day.rain_mm < 500.0);
                assert!((15.0..=100.0).contains(&day.rh_mean_pct));
                assert!(day.wind_2m > 0.0);
                assert!(day.solar_mj > 0.0 && day.solar_mj < 45.0);
            }
        }
    }
}
