//! The four SWAMP pilots, each a customization of the same platform — the
//! paper's central claim: "The same underlying SWAMP platform can be
//! customized to different pilots considering different countries, climate,
//! soil, and crops."

use swamp_agro::crop::Crop;
use swamp_agro::weather::ClimateProfile;
use swamp_irrigation::schedule::{DeficitMaintain, EtReplacement, FixedCalendar, ThresholdRefill};
use swamp_irrigation::source::WaterSource;
use swamp_sim::SimRng;
pub use swamp_workload::Pilot;

use crate::season::{heterogeneous_zones, run_season, PolicyFactory, SeasonConfig, SeasonOutcome};

/// One pilot's agronomy: where it grows what, from which water, on which
/// field, and the smart policy it runs against the conventional practice
/// it improves on. [`Agronomy::of`] is the one table of the four pilots.
#[derive(Clone, Debug)]
pub struct Agronomy {
    /// Human-readable name with the site's location.
    pub display_name: &'static str,
    /// The pilot's climate.
    pub climate: ClimateProfile,
    /// The pilot's primary crop.
    pub crop: Crop,
    /// The pilot's water source.
    pub source: WaterSource,
    /// Sowing day of year (season placement per pilot agronomy).
    pub sowing_doy: u32,
    /// Management zones in the pilot scenario, and each zone's area, ha.
    pub layout: (usize, f64),
    /// The pilot's smart (SWAMP) irrigation policy.
    pub smart: PolicyFactory,
    /// The conventional baseline practice the pilot improves on.
    pub baseline: PolicyFactory,
}

impl Agronomy {
    /// The agronomy of `pilot`.
    pub fn of(pilot: Pilot) -> Agronomy {
        match pilot {
            // Consorzio di Bonifica Emilia Centrale: optimize water
            // distribution to the farms.
            Pilot::Cbec => Agronomy {
                display_name: "CBEC (Bologna, IT)",
                climate: ClimateProfile::bologna(),
                crop: Crop::tomato(),
                source: WaterSource::cbec_canal(),
                sowing_doy: 105, // mid-April transplanting
                layout: (6, 4.0),
                // CBEC optimizes distribution; at field level a RAW threshold.
                smart: || Box::new(ThresholdRefill::new(1.0)),
                baseline: || Box::new(FixedCalendar::new(4, 30.0)),
            },
            // Intercrop Iberica: rational use of expensive (desalinated)
            // water.
            Pilot::Intercrop => Agronomy {
                display_name: "Intercrop (Cartagena, ES)",
                climate: ClimateProfile::cartagena(),
                crop: Crop::melon(),
                source: WaterSource::intercrop_desal(),
                sowing_doy: 75, // spring planting
                layout: (4, 1.5),
                // Expensive desalinated water: slightly early trigger, exact refills.
                smart: || Box::new(ThresholdRefill::new(0.9)),
                baseline: || Box::new(FixedCalendar::new(2, 15.0)),
            },
            // Guaspari Winery: wine quality via regulated deficit
            // irrigation.
            Pilot::Guaspari => Agronomy {
                display_name: "Guaspari (Pinhal, BR)",
                climate: ClimateProfile::pinhal(),
                crop: Crop::wine_grape(),
                source: WaterSource::cbec_canal(),
                sowing_doy: 30, // pruning places ripening in the dry winter
                layout: (8, 1.0),
                // Regulated deficit for quality.
                smart: || Box::new(DeficitMaintain::new(0.65)),
                baseline: || Box::new(FixedCalendar::new(5, 20.0)),
            },
            // Rio das Pedras Farm: VRI on center pivots for soybean; save
            // water and pumping energy.
            Pilot::Matopiba => Agronomy {
                display_name: "MATOPIBA (Barreiras, BR)",
                climate: ClimateProfile::barreiras(),
                crop: Crop::soybean(),
                source: WaterSource::matopiba_well(),
                sowing_doy: 121,    // dry-season sowing under pivots
                layout: (16, 6.25), // 100-ha pivot circle
                // VRI pivot replaces crop ET.
                smart: || Box::new(EtReplacement::new(1.0)),
                baseline: || Box::new(FixedCalendar::new(3, 25.0)),
            },
        }
    }

    /// A season on this pilot's field under `policy`; `zone_seed` draws
    /// the field's heterogeneous zones.
    pub fn season(&self, policy: PolicyFactory, zone_seed: u64) -> SeasonConfig {
        let (zones, area) = self.layout;
        SeasonConfig {
            climate: self.climate,
            crop: self.crop.clone(),
            zones: heterogeneous_zones(zones, area, &mut SimRng::seed_from(zone_seed)),
            sowing_doy: self.sowing_doy,
            source: self.source,
            policy,
        }
    }
}

/// Result of running a pilot: smart policy vs baseline practice.
#[derive(Clone, Debug)]
pub struct PilotReport {
    /// Which pilot ran.
    pub pilot: Pilot,
    /// Outcome under the smart (SWAMP) policy.
    pub smart: SeasonOutcome,
    /// Outcome under conventional practice.
    pub baseline: SeasonOutcome,
}

impl PilotReport {
    /// Water saved by the smart policy, fraction of baseline.
    pub fn water_saving(&self) -> f64 {
        if self.baseline.account.volume_m3 <= 0.0 {
            return 0.0;
        }
        1.0 - self.smart.account.volume_m3 / self.baseline.account.volume_m3
    }

    /// Energy saved by the smart policy, fraction of baseline.
    pub fn energy_saving(&self) -> f64 {
        if self.baseline.account.energy_kwh <= 0.0 {
            return 0.0;
        }
        1.0 - self.smart.account.energy_kwh / self.baseline.account.energy_kwh
    }

    /// Cost saved, fraction of baseline.
    pub fn cost_saving(&self) -> f64 {
        if self.baseline.account.cost_eur <= 0.0 {
            return 0.0;
        }
        1.0 - self.smart.account.cost_eur / self.baseline.account.cost_eur
    }

    /// Yield difference (smart − baseline), in relative-yield points.
    pub fn yield_delta(&self) -> f64 {
        self.smart.mean_yield() - self.baseline.mean_yield()
    }
}

/// Runs a pilot's smart-vs-baseline comparison.
pub fn run_pilot(pilot: Pilot, seed: u64) -> PilotReport {
    let agronomy = Agronomy::of(pilot);
    let run = |policy| run_season(&agronomy.season(policy, seed ^ 0xf1e1d), seed);
    PilotReport {
        pilot,
        smart: run(agronomy.smart),
        baseline: run(agronomy.baseline),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_pilots_run_and_save_water() {
        for pilot in Pilot::all() {
            let report = run_pilot(pilot, 42);
            assert!(
                report.water_saving() > 0.0,
                "{}: smart should beat {:.0} m3 baseline, used {:.0} m3",
                Agronomy::of(pilot).display_name,
                report.baseline.account.volume_m3,
                report.smart.account.volume_m3
            );
            assert!(
                report.yield_delta() > -0.10,
                "{}: smart must not sacrifice much yield ({:+.2})",
                Agronomy::of(pilot).display_name,
                report.yield_delta()
            );
        }
    }

    #[test]
    fn matopiba_saves_energy() {
        let report = run_pilot(Pilot::Matopiba, 7);
        assert!(
            report.energy_saving() > 0.1,
            "energy saving {:.2}",
            report.energy_saving()
        );
        assert!(report.smart.account.energy_kwh > 0.0);
    }

    #[test]
    fn intercrop_cost_dominated_by_desalination() {
        let report = run_pilot(Pilot::Intercrop, 7);
        // Desalinated water ⇒ cost per m³ ~0.85: cost tracks volume.
        let expected = report.smart.account.volume_m3 * 0.85;
        assert!((report.smart.account.cost_eur - expected).abs() < 1e-6);
        assert!(report.cost_saving() > 0.0);
    }

    #[test]
    fn guaspari_quality_improves() {
        let report = run_pilot(Pilot::Guaspari, 7);
        assert!(
            report.smart.wine_quality() > report.baseline.wine_quality(),
            "deficit quality {:.0} vs baseline {:.0}",
            report.smart.wine_quality(),
            report.baseline.wine_quality()
        );
    }

    #[test]
    fn pilot_metadata_is_consistent() {
        for pilot in Pilot::all() {
            let agronomy = Agronomy::of(pilot);
            assert!(!agronomy.display_name.is_empty());
            let (zones, area) = agronomy.layout;
            assert!(zones > 0 && area > 0.0);
            assert!((1..=366).contains(&agronomy.sowing_doy));
        }
        assert_eq!(Pilot::all().len(), 4);
    }

    #[test]
    fn reports_are_deterministic() {
        let a = run_pilot(Pilot::Cbec, 9);
        let b = run_pilot(Pilot::Cbec, 9);
        assert_eq!(a.smart.account.volume_m3, b.smart.account.volume_m3);
        assert_eq!(a.baseline.mean_yield(), b.baseline.mean_yield());
    }
}
