//! E1 — smart scheduling + VRI water/energy savings (MATOPIBA), and
//! E10 — canal distribution optimization (CBEC).

use swamp_irrigation::network::DistributionNetwork;
use swamp_irrigation::schedule::ThresholdRefill;
use swamp_sim::SimRng;

use crate::pilots::{Agronomy, Pilot};
use crate::report::{fmt_f, fmt_pct, Report};
use crate::season::{run_season_mode, ApplicationMode, PolicyFactory};

/// One E1 configuration's season totals.
#[derive(Clone, Debug)]
pub struct E1Row {
    /// Configuration label.
    pub label: String,
    /// Water used, m³.
    pub water_m3: f64,
    /// Pumping energy, kWh.
    pub energy_kwh: f64,
    /// Mean relative yield.
    pub yield_rel: f64,
}

/// E1 results.
#[derive(Clone, Debug)]
pub struct E1Result {
    /// Policy × application-mode comparison rows.
    pub rows: Vec<E1Row>,
    /// VRI zone-count ablation: (zones, water_m3).
    pub ablation: Vec<(usize, f64)>,
}

impl E1Result {
    /// The main comparison table.
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "E1: MATOPIBA irrigation policy x application mode (soybean season, 16-zone 100 ha pivot)",
            &["configuration", "water_m3", "energy_kWh", "rel_yield", "water_saving"],
        );
        let base = self.rows[0].water_m3;
        for row in &self.rows {
            r.push_row(vec![
                row.label.clone(),
                fmt_f(row.water_m3, 0),
                fmt_f(row.energy_kwh, 0),
                fmt_f(row.yield_rel, 3),
                fmt_pct(1.0 - row.water_m3 / base),
            ]);
        }
        r
    }

    /// The VRI-resolution ablation table.
    pub fn ablation_report(&self) -> Report {
        let mut r = Report::new(
            "E1b: VRI control-resolution ablation (16-zone field, threshold policy)",
            &["control_groups", "water_m3", "saving_vs_uniform"],
        );
        let base = self.ablation[0].1;
        for (zones, water) in &self.ablation {
            r.push_row(vec![
                zones.to_string(),
                fmt_f(*water, 0),
                fmt_pct(1.0 - water / base),
            ]);
        }
        r
    }
}

/// Runs E1 on the MATOPIBA pilot's field: its conventional calendar and
/// its ET-replacement policy, with a soil-state threshold policy between.
pub fn e1_water_energy(seed: u64) -> E1Result {
    let matopiba = Agronomy::of(Pilot::Matopiba);
    let threshold: PolicyFactory = || Box::new(ThresholdRefill::new(1.0));
    let policies = [
        ("fixed-calendar", matopiba.baseline),
        ("threshold-refill", threshold),
        ("et-replacement", matopiba.smart),
    ];

    let mut rows = Vec::new();
    for (name, policy) in policies {
        for (mode, mode_name) in [
            (ApplicationMode::UniformMax, "uniform"),
            (ApplicationMode::PerZone, "VRI"),
        ] {
            let config = matopiba.season(policy, seed ^ 0xE1);
            let outcome = run_season_mode(&config, seed, mode);
            rows.push(E1Row {
                label: format!("{name} / {mode_name}"),
                water_m3: outcome.account.volume_m3,
                energy_kwh: outcome.account.energy_kwh,
                yield_rel: outcome.mean_yield(),
            });
        }
    }

    // Ablation: the same heterogeneous 16-zone field, controlled at
    // decreasing VRI resolution (1 group = a plain uniform pivot). The
    // soil-state-driven threshold policy is what makes resolution matter.
    let ablation = [1usize, 2, 4, 8, 16]
        .iter()
        .map(|&groups| {
            let config = matopiba.season(threshold, seed ^ 0xE1);
            let outcome = run_season_mode(&config, seed, ApplicationMode::Grouped(groups));
            (groups, outcome.account.volume_m3)
        })
        .collect();

    E1Result { rows, ablation }
}

/// E10 results: allocation policies under scarcity.
#[derive(Clone, Debug)]
pub struct E10Result {
    /// (supply fraction of demand, greedy fairness, max-min fairness,
    /// greedy worst-farm satisfaction, max-min worst-farm satisfaction).
    pub rows: Vec<(f64, f64, f64, f64, f64)>,
}

impl E10Result {
    /// The table.
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "E10: CBEC canal allocation — greedy upstream vs SWAMP max-min (20 farms)",
            &[
                "supply/demand",
                "jain_greedy",
                "jain_maxmin",
                "worst_farm_greedy",
                "worst_farm_maxmin",
            ],
        );
        for (s, jg, jm, wg, wm) in &self.rows {
            r.push_row(vec![
                fmt_pct(*s),
                fmt_f(*jg, 3),
                fmt_f(*jm, 3),
                fmt_pct(*wg),
                fmt_pct(*wm),
            ]);
        }
        r
    }
}

/// Builds a 20-farm CBEC-like canal tree and compares allocations across
/// supply levels.
pub fn e10_distribution(seed: u64) -> E10Result {
    let mut rng = SimRng::seed_from(seed ^ 0xE10);
    // Demands: 20 farms, 100–400 m³/day each.
    let demands: Vec<f64> = (0..20).map(|_| rng.uniform_range(100.0, 400.0)).collect();
    let total_demand: f64 = demands.iter().sum();

    let mut rows = Vec::new();
    for supply_frac in [1.2, 1.0, 0.8, 0.6, 0.4] {
        let mut net = DistributionNetwork::new(total_demand * supply_frac);
        // Two trunks of two branches of five farms each.
        let mut farm_ids = Vec::new();
        for t in 0..2 {
            let trunk = net.add_junction(net.root(), total_demand * supply_frac * 0.55);
            for b in 0..2 {
                let branch_capacity = total_demand * supply_frac * 0.30;
                let branch = net.add_junction(trunk, branch_capacity);
                for f in 0..5 {
                    let idx = t * 10 + b * 5 + f;
                    farm_ids.push(net.add_farm(branch, demands[idx]));
                }
            }
        }
        let greedy = net.allocate_greedy_upstream();
        let maxmin = net.allocate_max_min();
        let worst = |alloc: &swamp_irrigation::network::Allocation| {
            alloc
                .per_farm_m3
                .iter()
                .zip(&demands)
                .map(|(a, d)| a / d)
                .fold(f64::INFINITY, f64::min)
        };
        rows.push((
            supply_frac,
            greedy.jain_fairness(&demands),
            maxmin.jain_fairness(&demands),
            worst(&greedy),
            worst(&maxmin),
        ));
    }
    E10Result { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_smart_vri_saves_water_and_energy() {
        let r = e1_water_energy(42);
        assert_eq!(r.rows.len(), 6);
        // Smart VRI (the soil-state-driven threshold policy) against the
        // fixed-uniform baseline.
        let base = &r.rows[0];
        let smart = r
            .rows
            .iter()
            .find(|row| row.label == "threshold-refill / VRI")
            .unwrap();
        let water_saving = 1.0 - smart.water_m3 / base.water_m3;
        let energy_saving = 1.0 - smart.energy_kwh / base.energy_kwh;
        assert!(water_saving > 0.15, "water saving {water_saving:.2}");
        assert!(energy_saving > 0.15, "energy saving {energy_saving:.2}");
        // Yield within 10 points of baseline for the smart config.
        assert!(smart.yield_rel > base.yield_rel - 0.10);
        // Report renders.
        let text = r.report().to_string();
        assert!(text.contains("E1"));
        assert!(text.contains("et-replacement / VRI"));
    }

    #[test]
    fn e1_vri_beats_uniform_per_policy() {
        let r = e1_water_energy(7);
        for pair in r.rows.chunks(2) {
            let uniform = &pair[0];
            let vri = &pair[1];
            assert!(
                vri.water_m3 <= uniform.water_m3 + 1e-6,
                "{} {:.0} vs {} {:.0}",
                vri.label,
                vri.water_m3,
                uniform.label,
                uniform.water_m3
            );
        }
    }

    #[test]
    fn e1_ablation_monotone_savings() {
        let r = e1_water_energy(11);
        assert_eq!(r.ablation.len(), 5);
        // Finer control ⇒ less water on the same heterogeneous field.
        let uniform = r.ablation[0].1;
        let full_vri = r.ablation[4].1;
        assert!(
            full_vri < uniform * 0.98,
            "16-group VRI {full_vri:.0} should clearly beat uniform {uniform:.0}"
        );
        // And the trend is weakly monotone.
        for pair in r.ablation.windows(2) {
            assert!(
                pair[1].1 <= pair[0].1 * 1.01,
                "ablation not monotone: {:?}",
                r.ablation
            );
        }
        assert!(!r.ablation_report().is_empty());
    }

    #[test]
    fn e10_maxmin_fairer_and_better_for_worst_farm() {
        let r = e10_distribution(42);
        assert_eq!(r.rows.len(), 5);
        // Under scarcity (supply < demand), max-min dominates on fairness
        // and on the worst farm's satisfaction.
        for &(supply, jg, jm, wg, wm) in &r.rows {
            if supply < 1.0 {
                assert!(jm >= jg - 1e-9, "supply {supply}: jain {jm} vs {jg}");
                assert!(wm >= wg - 1e-9, "supply {supply}: worst {wm} vs {wg}");
            }
        }
        let scarce = r.rows.last().unwrap();
        assert!(
            scarce.2 - scarce.1 > 0.05,
            "at 40% supply max-min should be clearly fairer: {:?}",
            scarce
        );
        assert!(r.report().to_string().contains("E10"));
    }

    #[test]
    fn deterministic() {
        let a = e1_water_energy(3);
        let b = e1_water_energy(3);
        assert_eq!(a.rows[0].water_m3, b.rows[0].water_m3);
        let c = e10_distribution(3);
        let d = e10_distribution(3);
        assert_eq!(c.rows, d.rows);
    }
}
