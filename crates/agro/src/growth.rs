//! Crop water history and quality models: the FAO-33 relative yield of a
//! season's water history, plus the Guaspari wine-quality response to
//! regulated deficit irrigation.

use crate::crop::{Crop, GrowthStage};

/// Tracks canopy development and cumulative water history for one zone.
#[derive(Clone, Debug)]
pub struct CropState {
    crop: Crop,
    das: u32,
    eta_total: f64,
    etc_total: f64,
    /// Cumulative stress (1−Ks) during the ripening (late-season) window,
    /// for quality models — the classic regulated-deficit-irrigation window
    /// is véraison to harvest.
    ripening_stress: f64,
    ripening_days: u32,
}

impl CropState {
    /// Starts a season at sowing.
    pub fn new(crop: Crop) -> Self {
        CropState {
            crop,
            das: 0,
            eta_total: 0.0,
            etc_total: 0.0,
            ripening_stress: 0.0,
            ripening_days: 0,
        }
    }

    /// Current growth stage.
    pub fn stage(&self) -> GrowthStage {
        self.crop.stage(self.das)
    }

    /// Records one day: crop demand `etc_mm`, actual uptake `eta_mm`,
    /// stress coefficient `ks`.
    pub fn advance_day(&mut self, etc_mm: f64, eta_mm: f64, ks: f64) {
        self.etc_total += etc_mm;
        self.eta_total += eta_mm;
        if matches!(self.stage(), GrowthStage::LateSeason) {
            self.ripening_stress += 1.0 - ks;
            self.ripening_days += 1;
        }
        self.das += 1;
    }

    /// Cumulative actual / potential crop ET, mm.
    pub fn et_totals(&self) -> (f64, f64) {
        (self.eta_total, self.etc_total)
    }

    /// FAO-33 relative yield given the accumulated water history.
    pub fn relative_yield(&self) -> f64 {
        if self.etc_total <= 0.0 {
            return 1.0;
        }
        self.crop.relative_yield(self.eta_total, self.etc_total)
    }

    /// Mean ripening-period stress `(1 − Ks)`, `[0,1]`.
    pub fn mean_ripening_stress(&self) -> f64 {
        if self.ripening_days == 0 {
            0.0
        } else {
            self.ripening_stress / self.ripening_days as f64
        }
    }
}

/// Wine-quality response to regulated deficit irrigation (Guaspari pilot).
///
/// Viticulture's well-documented inverted-U: *moderate* ripening-period
/// water deficit concentrates berries and raises quality; none leaves
/// diluted fruit, and severe deficit damages the vintage. Returns a 0–100
/// quality score peaking at `optimal_stress`.
pub fn wine_quality_score(mean_ripening_stress: f64) -> f64 {
    const OPTIMAL_STRESS: f64 = 0.35;
    const WIDTH: f64 = 0.28;
    let d = (mean_ripening_stress - OPTIMAL_STRESS) / WIDTH;
    100.0 * (-0.5 * d * d).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crop::Crop;

    fn run_season(irrigate_fraction: f64) -> CropState {
        // Simple synthetic season: ETc follows the Kc curve against a flat
        // 5 mm/day ET0; the crop receives `irrigate_fraction` of demand.
        let mut state = CropState::new(Crop::soybean());
        while state.das < state.crop.season_days() {
            let etc = 5.0 * state.crop.kc(state.das);
            let eta = etc * irrigate_fraction;
            let ks = irrigate_fraction;
            state.advance_day(etc, eta, ks);
        }
        state
    }

    #[test]
    fn full_water_full_yield() {
        let s = run_season(1.0);
        assert!((s.relative_yield() - 1.0).abs() < 1e-9);
        assert!(s.mean_ripening_stress() < 1e-9);
    }

    #[test]
    fn deficit_lowers_yield() {
        let full = run_season(1.0);
        let deficit = run_season(0.6);
        assert!(deficit.relative_yield() < full.relative_yield());
        assert!(deficit.mean_ripening_stress() > 0.3);
    }

    #[test]
    fn wine_quality_inverted_u() {
        let none = wine_quality_score(0.0);
        let moderate = wine_quality_score(0.35);
        let severe = wine_quality_score(0.9);
        assert!(moderate > none, "moderate {moderate} > none {none}");
        assert!(moderate > severe, "moderate {moderate} > severe {severe}");
        assert!((moderate - 100.0).abs() < 1e-9);
        assert!((0.0..=100.0).contains(&none));
        assert!((0.0..=100.0).contains(&severe));
    }

    #[test]
    fn et_totals_accumulate() {
        let mut s = CropState::new(Crop::tomato());
        s.advance_day(5.0, 4.0, 0.8);
        s.advance_day(6.0, 6.0, 1.0);
        let (eta, etc) = s.et_totals();
        assert!((eta - 10.0).abs() < 1e-12);
        assert!((etc - 11.0).abs() < 1e-12);
        assert_eq!(s.das, 2);
    }
}
