//! Canopy growth, NDVI and quality models.
//!
//! NDVI matters to the paper twice: drones collect it for crop monitoring,
//! and a Sybil attacker "could send fake images … leading to incorrect
//! calculation of the NDVI". This module provides the *true* NDVI process
//! the attackers then distort, plus the Guaspari wine-quality response to
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
    /// Whole-season stress accumulation (drives the NDVI penalty).
    stress_sum: f64,
    stress_days: u32,
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
            stress_sum: 0.0,
            stress_days: 0,
        }
    }

    /// The crop being grown.
    pub fn crop(&self) -> &Crop {
        &self.crop
    }

    /// Days after sowing.
    pub fn das(&self) -> u32 {
        self.das
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
        self.stress_sum += 1.0 - ks;
        self.stress_days += 1;
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

    /// Canopy ground-cover fraction implied by the Kc curve, `[0,1]`.
    pub fn canopy_fraction(&self) -> f64 {
        let kc = self.crop.kc(self.das);
        ((kc - self.crop.kc_ini) / (self.crop.kc_mid - self.crop.kc_ini)).clamp(0.0, 1.0)
    }

    /// True NDVI of the zone: bare-soil baseline rising with canopy, pulled
    /// down by sustained water stress.
    pub fn ndvi(&self) -> f64 {
        const NDVI_SOIL: f64 = 0.15;
        const NDVI_FULL: f64 = 0.88;
        let stress_penalty = if self.stress_days > 0 {
            0.25 * (self.stress_sum / self.stress_days as f64)
        } else {
            0.0
        };
        (NDVI_SOIL + (NDVI_FULL - NDVI_SOIL) * self.canopy_fraction() - stress_penalty)
            .clamp(0.0, 1.0)
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
        while state.das() < state.crop().season_days() {
            let etc = 5.0 * state.crop().kc(state.das());
            let eta = etc * irrigate_fraction;
            let ks = irrigate_fraction;
            state.advance_day(etc, eta, ks);
        }
        state
    }

    #[test]
    fn full_water_full_yield_high_ndvi() {
        let s = run_season(1.0);
        assert!((s.relative_yield() - 1.0).abs() < 1e-9);
        assert!(s.mean_ripening_stress() < 1e-9);
        // Fully mature canopy has senesced, but mid-season NDVI was high:
        let mut mid = CropState::new(Crop::soybean());
        for _ in 0..60 {
            let etc = 5.0 * mid.crop().kc(mid.das());
            mid.advance_day(etc, etc, 1.0);
        }
        assert!(mid.ndvi() > 0.8, "mid-season NDVI {}", mid.ndvi());
    }

    #[test]
    fn deficit_lowers_yield_and_ndvi() {
        let full = run_season(1.0);
        let deficit = run_season(0.6);
        assert!(deficit.relative_yield() < full.relative_yield());
        assert!(deficit.mean_ripening_stress() > 0.3);

        // NDVI during stress is lower than unstressed at the same stage.
        let mut stressed = CropState::new(Crop::soybean());
        let mut unstressed = CropState::new(Crop::soybean());
        for _ in 0..80 {
            let etc_s = 5.0 * stressed.crop().kc(stressed.das());
            stressed.advance_day(etc_s, etc_s * 0.5, 0.5);
            let etc_u = 5.0 * unstressed.crop().kc(unstressed.das());
            unstressed.advance_day(etc_u, etc_u, 1.0);
        }
        assert!(stressed.ndvi() < unstressed.ndvi());
    }

    #[test]
    fn canopy_fraction_tracks_stages() {
        let mut s = CropState::new(Crop::maize());
        assert_eq!(s.canopy_fraction(), 0.0);
        for _ in 0..70 {
            s.advance_day(1.0, 1.0, 1.0);
        }
        assert!((s.canopy_fraction() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn ndvi_bounded() {
        let mut s = CropState::new(Crop::lettuce());
        for _ in 0..200 {
            assert!((0.0..=1.0).contains(&s.ndvi()));
            s.advance_day(3.0, 0.0, 0.0); // worst-case stress
        }
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
        assert_eq!(s.das(), 2);
    }
}
