//! The season runner: one growing season, day by day, over a field of
//! heterogeneous management zones.
//!
//! This is the physical loop every pilot and experiment drives: weather →
//! ET₀ → crop demand → irrigation decision (per policy, per zone) → soil
//! water balance → growth accounting → water/energy/cost accounting.

use std::ops::Range;

use swamp_agro::crop::Crop;
use swamp_agro::growth::{wine_quality_score, CropState};
use swamp_agro::soil::{SoilProperties, SoilWaterBalance, WaterFlux};
use swamp_agro::weather::{ClimateProfile, WeatherGenerator};
use swamp_irrigation::schedule::{IrrigationPolicy, ZoneView};
use swamp_irrigation::source::{depth_to_volume_m3, WaterAccount, WaterSource};
use swamp_sim::SimRng;

/// Static description of one management zone.
#[derive(Clone, Debug)]
pub struct ZoneSpec {
    /// Soil hydraulic properties.
    pub soil: SoilProperties,
    /// Zone area, ha.
    pub area_ha: f64,
    /// Multiplier on crop water demand for this zone (topography, canopy
    /// density and microclimate make parts of a field thirstier — the
    /// spatial variability VRI exploits).
    pub etc_factor: f64,
}

/// Generates `zones` heterogeneous zone specs: a gradient from sandy to
/// clayey soils, which is exactly the heterogeneity VRI exploits.
pub fn heterogeneous_zones(zones: usize, area_ha_each: f64, rng: &mut SimRng) -> Vec<ZoneSpec> {
    assert!(zones > 0);
    (0..zones)
        .map(|i| {
            let f = i as f64 / (zones.max(2) - 1) as f64; // 0 = sandy, 1 = clay
            let fc = 0.16 + f * 0.16 + rng.uniform_range(-0.01, 0.01);
            let wp = 0.06 + f * 0.10 + rng.uniform_range(-0.005, 0.005);
            let sat = fc + 0.18;
            ZoneSpec {
                soil: SoilProperties::new(fc, wp, sat, 0.05),
                area_ha: area_ha_each,
                etc_factor: 0.8 + 0.4 * f + rng.uniform_range(-0.03, 0.03),
            }
        })
        .collect()
}

/// Makes a fresh irrigation policy (one per zone, so stateful policies
/// don't leak across zones).
pub type PolicyFactory = fn() -> Box<dyn IrrigationPolicy>;

/// Configuration of one season run.
pub struct SeasonConfig {
    /// Climate the weather generator samples.
    pub climate: ClimateProfile,
    /// Crop grown in every zone.
    pub crop: Crop,
    /// Management zones.
    pub zones: Vec<ZoneSpec>,
    /// Sowing day of year.
    pub sowing_doy: u32,
    /// Water source billing/energy model.
    pub source: WaterSource,
    /// Irrigation policy factory.
    pub policy: PolicyFactory,
}

/// Per-zone outcome of a season.
#[derive(Clone, Debug)]
pub struct ZoneOutcome {
    /// FAO-33 relative yield, `[0,1]`.
    pub relative_yield: f64,
    /// Cumulative actual crop ET, mm.
    pub eta_mm: f64,
    /// Cumulative potential crop ET, mm.
    pub etc_mm: f64,
    /// Irrigation applied, mm.
    pub irrigation_mm: f64,
    /// Mean ripening-period stress (for quality models).
    pub ripening_stress: f64,
}

/// Whole-season outcome.
#[derive(Clone, Debug)]
pub struct SeasonOutcome {
    /// One outcome per zone.
    pub zones: Vec<ZoneOutcome>,
    /// Water/cost/energy account for the season.
    pub account: WaterAccount,
    /// Season rainfall, mm.
    pub rain_mm: f64,
    /// Days simulated.
    pub days: u32,
}

impl SeasonOutcome {
    /// Area-weighted mean relative yield.
    pub fn mean_yield(&self) -> f64 {
        if self.zones.is_empty() {
            return 0.0;
        }
        self.zones.iter().map(|z| z.relative_yield).sum::<f64>() / self.zones.len() as f64
    }

    /// Guaspari wine-quality score (mean over zones), 0–100.
    pub fn wine_quality(&self) -> f64 {
        if self.zones.is_empty() {
            return 0.0;
        }
        self.zones
            .iter()
            .map(|z| wine_quality_score(z.ripening_stress))
            .sum::<f64>()
            / self.zones.len() as f64
    }
}

/// How per-zone prescriptions are applied to the field.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApplicationMode {
    /// Variable rate: each zone receives exactly its prescribed depth.
    PerZone,
    /// Uniform machine: every zone receives the *maximum* prescribed depth
    /// (a non-VRI pivot must over-water the rest to satisfy the neediest
    /// zone).
    UniformMax,
    /// VRI with limited resolution: zones are controlled in `k` contiguous
    /// groups whose sizes differ by at most one; within each group every
    /// zone receives the group maximum.
    /// `Grouped(1)` ≡ `UniformMax`; `Grouped(zone count)` ≡ `PerZone`.
    Grouped(usize),
}

/// Splits `n` zones into exactly `k.clamp(1, n)` contiguous control
/// groups whose sizes differ by at most one (larger groups last).
fn control_groups(n: usize, k: usize) -> impl Iterator<Item = Range<usize>> {
    let groups = k.clamp(1, n.max(1));
    (0..groups).map(move |g| g * n / groups..(g + 1) * n / groups)
}

/// Runs one season deterministically from a seed (per-zone application).
pub fn run_season(config: &SeasonConfig, seed: u64) -> SeasonOutcome {
    run_season_mode(config, seed, ApplicationMode::PerZone)
}

/// Runs one season with an explicit application mode.
pub fn run_season_mode(config: &SeasonConfig, seed: u64, mode: ApplicationMode) -> SeasonOutcome {
    let mut rng = SimRng::seed_from(seed);
    let mut weather = WeatherGenerator::new(config.climate, rng.split("weather"));
    let season_days = config.crop.season_days();

    struct ZoneState {
        swb: SoilWaterBalance,
        crop_state: CropState,
        policy: Box<dyn IrrigationPolicy>,
        irrigation_mm: f64,
        area_ha: f64,
        etc_factor: f64,
    }
    let mut zones: Vec<ZoneState> = config
        .zones
        .iter()
        .map(|spec| ZoneState {
            swb: SoilWaterBalance::new(
                spec.soil,
                config.crop.root_depth_ini_m,
                config.crop.depletion_fraction,
            ),
            crop_state: CropState::new(config.crop.clone()),
            policy: (config.policy)(),
            irrigation_mm: 0.0,
            area_ha: spec.area_ha,
            etc_factor: spec.etc_factor,
        })
        .collect();

    let mut account = WaterAccount::new();
    let mut rain_total = 0.0;

    for das in 0..season_days {
        let doy = (config.sowing_doy + das - 1) % 365 + 1;
        let day = weather.next_day(doy);
        rain_total += day.rain_mm;
        let et0 = day.et0(config.climate.latitude_deg, config.climate.elevation_m);
        let kc = config.crop.kc(das);
        let etc = et0 * kc;
        let root_depth = config.crop.root_depth(das);

        // First pass: every zone's prescription.
        let mut depths: Vec<f64> = zones
            .iter_mut()
            .map(|z| {
                z.swb.set_root_depth(root_depth);
                let view = ZoneView::from_truth(&z.swb, etc * z.etc_factor, das);
                z.policy.decide(&view)
            })
            .collect();
        // Limited-resolution machines must satisfy the neediest zone of
        // each control group everywhere in that group.
        let groups = match mode {
            ApplicationMode::PerZone => depths.len(),
            ApplicationMode::UniformMax => 1,
            ApplicationMode::Grouped(k) => k,
        };
        if groups < depths.len() {
            for group in control_groups(depths.len(), groups) {
                let chunk = &mut depths[group];
                let max = chunk.iter().copied().fold(0.0, f64::max);
                chunk.iter_mut().for_each(|d| *d = max);
            }
        }
        for (z, depth) in zones.iter_mut().zip(depths) {
            if depth > 0.0 {
                z.irrigation_mm += depth;
                account.record(&config.source, depth_to_volume_m3(depth, z.area_ha));
            }
            let etc_zone = etc * z.etc_factor;
            let outcome = z.swb.step(WaterFlux {
                rain_mm: day.rain_mm,
                irrigation_mm: depth,
                etc_mm: etc_zone,
            });
            z.crop_state
                .advance_day(etc_zone, outcome.eta_mm, outcome.ks);
        }
    }

    SeasonOutcome {
        zones: zones
            .into_iter()
            .map(|z| {
                let (eta, etc) = z.crop_state.et_totals();
                ZoneOutcome {
                    relative_yield: z.crop_state.relative_yield(),
                    eta_mm: eta,
                    etc_mm: etc,
                    irrigation_mm: z.irrigation_mm,
                    ripening_stress: z.crop_state.mean_ripening_stress(),
                }
            })
            .collect(),
        account,
        rain_mm: rain_total,
        days: season_days,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swamp_irrigation::schedule::{EtReplacement, FixedCalendar, Rainfed, ThresholdRefill};

    fn config(policy: PolicyFactory) -> SeasonConfig {
        let mut rng = SimRng::seed_from(1);
        SeasonConfig {
            climate: ClimateProfile::barreiras(),
            crop: Crop::soybean(),
            zones: heterogeneous_zones(8, 6.25, &mut rng),
            sowing_doy: 121, // dry-season sowing (the MATOPIBA pilot's point)
            source: WaterSource::matopiba_well(),
            policy,
        }
    }

    #[test]
    fn grouped_application_makes_exactly_k_balanced_groups() {
        for k in 1..=16 {
            let groups: Vec<Range<usize>> = control_groups(16, k).collect();
            assert_eq!(groups.len(), k, "k = {k}: {groups:?}");
            let mut next = 0;
            for group in &groups {
                assert_eq!(group.start, next, "k = {k}: {groups:?} not contiguous");
                next = group.end;
            }
            assert_eq!(next, 16, "k = {k}: {groups:?} does not cover the field");
            assert!(
                groups
                    .iter()
                    .all(|g| (16 / k..=16 / k + 1).contains(&g.len())),
                "k = {k}: {groups:?} sizes differ by more than one"
            );
        }
    }

    #[test]
    fn irrigated_beats_rainfed_in_dry_season() {
        let rainfed = run_season(&config(|| Box::new(Rainfed)), 7);
        let smart = run_season(&config(|| Box::new(ThresholdRefill::new(1.0))), 7);
        assert!(
            smart.mean_yield() > rainfed.mean_yield() + 0.2,
            "smart {:.2} vs rainfed {:.2}",
            smart.mean_yield(),
            rainfed.mean_yield()
        );
        assert!(smart.account.volume_m3 > 0.0);
        assert_eq!(rainfed.account.volume_m3, 0.0);
    }

    #[test]
    fn smart_uses_less_water_than_fixed_for_similar_yield() {
        let fixed = run_season(&config(|| Box::new(FixedCalendar::new(3, 25.0))), 7);
        let smart = run_season(&config(|| Box::new(ThresholdRefill::new(1.0))), 7);
        assert!(
            smart.account.volume_m3 < fixed.account.volume_m3,
            "smart {:.0} m3 vs fixed {:.0} m3",
            smart.account.volume_m3,
            fixed.account.volume_m3
        );
        assert!(
            smart.mean_yield() > fixed.mean_yield() - 0.05,
            "smart {:.2} vs fixed {:.2}",
            smart.mean_yield(),
            fixed.mean_yield()
        );
        // Energy tracks water through the pumping model.
        assert!(smart.account.energy_kwh < fixed.account.energy_kwh);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_season(&config(|| Box::new(EtReplacement::new(1.0))), 3);
        let b = run_season(&config(|| Box::new(EtReplacement::new(1.0))), 3);
        assert_eq!(a.account.volume_m3, b.account.volume_m3);
        assert_eq!(a.mean_yield(), b.mean_yield());
        let c = run_season(&config(|| Box::new(EtReplacement::new(1.0))), 4);
        assert_ne!(a.account.volume_m3, c.account.volume_m3);
    }

    #[test]
    fn outcome_invariants() {
        let o = run_season(&config(|| Box::new(ThresholdRefill::new(1.0))), 9);
        assert_eq!(o.zones.len(), 8);
        assert_eq!(o.days, Crop::soybean().season_days());
        for z in &o.zones {
            assert!((0.0..=1.0).contains(&z.relative_yield));
            assert!(z.eta_mm <= z.etc_mm + 1e-6);
            assert!(z.irrigation_mm >= 0.0);
            assert!((0.0..=1.0).contains(&z.ripening_stress));
        }
        assert!(o.rain_mm >= 0.0);
    }

    #[test]
    fn heterogeneous_zones_vary() {
        let mut rng = SimRng::seed_from(2);
        let zones = heterogeneous_zones(8, 5.0, &mut rng);
        let fc0 = zones[0].soil.field_capacity;
        let fc7 = zones[7].soil.field_capacity;
        assert!(fc7 > fc0 + 0.1, "gradient sandy→clay expected");
    }

    #[test]
    fn deficit_irrigation_raises_wine_quality() {
        use swamp_irrigation::schedule::DeficitMaintain;
        let mk = |policy: PolicyFactory| {
            let mut rng = SimRng::seed_from(3);
            SeasonConfig {
                climate: ClimateProfile::pinhal(),
                crop: Crop::wine_grape(),
                zones: heterogeneous_zones(4, 2.0, &mut rng),
                sowing_doy: 30, // pruned so ripening falls in the dry winter
                source: WaterSource::cbec_canal(),
                policy,
            }
        };
        let full = run_season(&mk(|| Box::new(EtReplacement::new(1.0))), 5);
        let deficit_run = run_season(&mk(|| Box::new(DeficitMaintain::new(0.65))), 5);
        assert!(
            deficit_run.wine_quality() > full.wine_quality(),
            "deficit quality {:.0} vs full {:.0}",
            deficit_run.wine_quality(),
            full.wine_quality()
        );
        // And uses less water.
        assert!(deficit_run.account.volume_m3 < full.account.volume_m3);
    }
}
