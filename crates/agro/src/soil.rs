//! Soil water balance (FAO-56 chapter 8): the physical ground truth that the
//! simulated soil-moisture probes sample and that irrigation decisions act
//! on. The balance runs per management zone, so Variable Rate Irrigation can
//! be evaluated against spatially heterogeneous soils.

/// Hydraulic properties of a soil.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SoilProperties {
    /// Volumetric water content at field capacity, m³/m³.
    pub field_capacity: f64,
    /// Volumetric water content at permanent wilting point, m³/m³.
    pub wilting_point: f64,
    /// Saturated water content, m³/m³ (above FC drains in a day).
    pub saturation: f64,
    /// Curve-number-style runoff fraction for intense rain, 0–1.
    pub runoff_fraction: f64,
}

impl SoilProperties {
    /// Validates and creates soil properties.
    ///
    /// # Panics
    /// Panics unless `0 < wilting_point < field_capacity < saturation < 1`.
    pub fn new(
        field_capacity: f64,
        wilting_point: f64,
        saturation: f64,
        runoff_fraction: f64,
    ) -> Self {
        assert!(
            0.0 < wilting_point
                && wilting_point < field_capacity
                && field_capacity < saturation
                && saturation < 1.0,
            "inconsistent soil: wp={wilting_point} fc={field_capacity} sat={saturation}"
        );
        assert!((0.0..=1.0).contains(&runoff_fraction));
        SoilProperties {
            field_capacity,
            wilting_point,
            saturation,
            runoff_fraction,
        }
    }

    /// A loam (CBEC/Guaspari-like).
    pub fn loam() -> Self {
        SoilProperties::new(0.27, 0.12, 0.45, 0.05)
    }

    /// Total available water for a root depth, mm (FAO-56 eq. 82).
    pub fn taw_mm(&self, root_depth_m: f64) -> f64 {
        (self.field_capacity - self.wilting_point) * root_depth_m * 1000.0
    }
}

/// Daily inputs to the water balance.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WaterFlux {
    /// Rainfall, mm.
    pub rain_mm: f64,
    /// Irrigation applied, mm.
    pub irrigation_mm: f64,
    /// Crop evapotranspiration demand `ETc = Kc·ET0`, mm.
    pub etc_mm: f64,
}

/// Outcome of one daily step.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DailyOutcome {
    /// Actual evapotranspiration after water stress, mm.
    pub eta_mm: f64,
    /// Water-stress coefficient Ks in `[0,1]` (1 = unstressed).
    pub ks: f64,
    /// Deep percolation below the root zone, mm.
    pub drainage_mm: f64,
    /// Surface runoff, mm.
    pub runoff_mm: f64,
}

/// The root-zone water balance for one management zone.
///
/// State is the root-zone depletion `Dr` (mm below field capacity), per
/// FAO-56. Depletion 0 = field capacity; depletion TAW = wilting point.
///
/// # Example
/// ```
/// use swamp_agro::soil::{SoilProperties, SoilWaterBalance, WaterFlux};
/// let mut swb = SoilWaterBalance::new(SoilProperties::loam(), 0.5, 0.5);
/// let out = swb.step(WaterFlux { rain_mm: 0.0, irrigation_mm: 0.0, etc_mm: 5.0 });
/// assert!(out.eta_mm > 0.0);
/// assert!(swb.depletion_mm() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct SoilWaterBalance {
    soil: SoilProperties,
    root_depth_m: f64,
    /// Depletion fraction p: the share of TAW extractable without stress.
    depletion_fraction: f64,
    depletion_mm: f64,
}

impl SoilWaterBalance {
    /// Creates a balance starting at field capacity.
    ///
    /// # Panics
    /// Panics if `root_depth_m <= 0` or `depletion_fraction` outside (0,1).
    pub fn new(soil: SoilProperties, root_depth_m: f64, depletion_fraction: f64) -> Self {
        assert!(root_depth_m > 0.0, "root depth must be positive");
        assert!(
            (0.0..1.0).contains(&depletion_fraction) && depletion_fraction > 0.0,
            "depletion fraction {depletion_fraction} outside (0,1)"
        );
        SoilWaterBalance {
            soil,
            root_depth_m,
            depletion_fraction,
            depletion_mm: 0.0,
        }
    }

    /// The soil properties.
    pub fn soil(&self) -> &SoilProperties {
        &self.soil
    }

    /// Total available water, mm.
    pub fn taw_mm(&self) -> f64 {
        self.soil.taw_mm(self.root_depth_m)
    }

    /// Readily available water, mm (`p · TAW`).
    pub fn raw_mm(&self) -> f64 {
        self.depletion_fraction * self.taw_mm()
    }

    /// Current root-zone depletion, mm (0 = field capacity).
    pub fn depletion_mm(&self) -> f64 {
        self.depletion_mm
    }

    /// Volumetric water content implied by the current depletion, m³/m³ —
    /// this is what a perfect soil-moisture probe would read.
    pub fn volumetric_content(&self) -> f64 {
        let depth_mm = self.root_depth_m * 1000.0;
        self.soil.field_capacity - self.depletion_mm / depth_mm
    }

    /// Fraction of available water remaining, `[0,1]`.
    pub fn available_fraction(&self) -> f64 {
        (1.0 - self.depletion_mm / self.taw_mm()).clamp(0.0, 1.0)
    }

    /// Updates the root depth (crop growth). Depletion is preserved in mm.
    ///
    /// # Panics
    /// Panics if `root_depth_m <= 0`.
    pub fn set_root_depth(&mut self, root_depth_m: f64) {
        assert!(root_depth_m > 0.0);
        self.root_depth_m = root_depth_m;
        self.depletion_mm = self.depletion_mm.min(self.taw_mm());
    }

    /// Sets depletion directly (for initializing dry scenarios).
    ///
    /// # Panics
    /// Panics if negative or beyond TAW.
    pub fn set_depletion_mm(&mut self, depletion: f64) {
        assert!(
            (0.0..=self.taw_mm()).contains(&depletion),
            "depletion {depletion} outside [0, TAW={}]",
            self.taw_mm()
        );
        self.depletion_mm = depletion;
    }

    /// Advances one day.
    ///
    /// Order of operations (FAO-56): infiltration (rain minus runoff, plus
    /// irrigation) reduces depletion; excess beyond field capacity drains;
    /// then ET extracts water, scaled by the stress coefficient
    /// `Ks = (TAW − Dr) / (TAW − RAW)` once depletion exceeds RAW.
    pub fn step(&mut self, flux: WaterFlux) -> DailyOutcome {
        let taw = self.taw_mm();
        let raw = self.raw_mm();

        // Runoff on intense rain only (>10 mm/day here).
        let runoff_mm = if flux.rain_mm > 10.0 {
            (flux.rain_mm - 10.0) * self.soil.runoff_fraction
        } else {
            0.0
        };
        let infiltration = (flux.rain_mm - runoff_mm) + flux.irrigation_mm;

        self.depletion_mm -= infiltration;
        let drainage_mm = if self.depletion_mm < 0.0 {
            let d = -self.depletion_mm;
            self.depletion_mm = 0.0;
            d
        } else {
            0.0
        };

        let ks = if self.depletion_mm <= raw {
            1.0
        } else {
            ((taw - self.depletion_mm) / (taw - raw)).clamp(0.0, 1.0)
        };
        let eta_mm = (flux.etc_mm * ks).min(taw - self.depletion_mm).max(0.0);
        self.depletion_mm = (self.depletion_mm + eta_mm).min(taw);

        DailyOutcome {
            eta_mm,
            ks,
            drainage_mm,
            runoff_mm,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn swb() -> SoilWaterBalance {
        SoilWaterBalance::new(SoilProperties::loam(), 0.6, 0.5)
    }

    #[test]
    fn taw_and_raw() {
        let b = swb();
        // (0.27-0.12)*0.6*1000 = 90 mm.
        assert!((b.taw_mm() - 90.0).abs() < 1e-9);
        assert!((b.raw_mm() - 45.0).abs() < 1e-9);
    }

    #[test]
    fn starts_at_field_capacity() {
        let b = swb();
        assert_eq!(b.depletion_mm(), 0.0);
        assert!((b.volumetric_content() - 0.27).abs() < 1e-12);
        assert_eq!(b.available_fraction(), 1.0);
    }

    #[test]
    fn unstressed_et_extracts_fully() {
        let mut b = swb();
        let out = b.step(WaterFlux {
            etc_mm: 5.0,
            ..WaterFlux::default()
        });
        assert_eq!(out.ks, 1.0);
        assert!((out.eta_mm - 5.0).abs() < 1e-9);
        assert!((b.depletion_mm() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn stress_begins_past_raw() {
        let mut b = swb();
        b.set_depletion_mm(50.0); // RAW = 45 < 50
        let out = b.step(WaterFlux {
            etc_mm: 5.0,
            ..WaterFlux::default()
        });
        assert!(out.ks < 1.0, "Ks {}", out.ks);
        assert!(out.eta_mm < 5.0);
    }

    #[test]
    fn ks_linear_between_raw_and_taw() {
        let mut b = swb();
        b.set_depletion_mm(67.5); // midway between RAW(45) and TAW(90)
        let out = b.step(WaterFlux {
            etc_mm: 1.0,
            ..WaterFlux::default()
        });
        assert!((out.ks - 0.5).abs() < 0.02, "Ks {}", out.ks);
    }

    #[test]
    fn et_stops_at_wilting_point() {
        let mut b = swb();
        b.set_depletion_mm(90.0); // at TAW
        let out = b.step(WaterFlux {
            etc_mm: 5.0,
            ..WaterFlux::default()
        });
        assert!(out.ks < 1e-12, "Ks {}", out.ks);
        assert!(out.eta_mm < 1e-12, "ETa {}", out.eta_mm);
        assert!((b.volumetric_content() - 0.12).abs() < 1e-9);
    }

    #[test]
    fn irrigation_refills_and_excess_drains() {
        let mut b = swb();
        b.set_depletion_mm(20.0);
        let out = b.step(WaterFlux {
            irrigation_mm: 30.0,
            ..WaterFlux::default()
        });
        assert!((out.drainage_mm - 10.0).abs() < 1e-9);
        assert_eq!(b.depletion_mm(), 0.0);
    }

    #[test]
    fn intense_rain_generates_runoff() {
        let mut b = swb();
        b.set_depletion_mm(80.0);
        let out = b.step(WaterFlux {
            rain_mm: 50.0,
            ..WaterFlux::default()
        });
        assert!(out.runoff_mm > 0.0);
        // Light rain does not.
        let mut b2 = swb();
        b2.set_depletion_mm(80.0);
        let out2 = b2.step(WaterFlux {
            rain_mm: 8.0,
            ..WaterFlux::default()
        });
        assert_eq!(out2.runoff_mm, 0.0);
    }

    #[test]
    fn drydown_is_monotone() {
        let mut b = swb();
        let mut last = b.available_fraction();
        for _ in 0..40 {
            b.step(WaterFlux {
                etc_mm: 6.0,
                ..WaterFlux::default()
            });
            let now = b.available_fraction();
            assert!(now <= last);
            last = now;
        }
        // 40 days at 6 mm unirrigated nearly exhausts a 90 mm store (the
        // stress coefficient makes the approach to wilting asymptotic).
        assert!(b.available_fraction() < 0.02, "{}", b.available_fraction());
    }

    #[test]
    fn root_growth_preserves_depletion() {
        let mut b = swb();
        b.set_depletion_mm(30.0);
        b.set_root_depth(1.0);
        assert_eq!(b.depletion_mm(), 30.0);
        assert!((b.taw_mm() - 150.0).abs() < 1e-9);
    }

    #[test]
    fn mass_balance_closes() {
        // Sum of inputs = sum of outputs + storage change over a wet run.
        let mut b = swb();
        b.set_depletion_mm(40.0);
        let d0 = b.depletion_mm();
        let mut in_sum = 0.0;
        let mut out_sum = 0.0;
        let fluxes = [
            WaterFlux {
                rain_mm: 20.0,
                irrigation_mm: 0.0,
                etc_mm: 4.0,
            },
            WaterFlux {
                rain_mm: 0.0,
                irrigation_mm: 25.0,
                etc_mm: 6.0,
            },
            WaterFlux {
                rain_mm: 35.0,
                irrigation_mm: 0.0,
                etc_mm: 3.0,
            },
            WaterFlux {
                rain_mm: 0.0,
                irrigation_mm: 0.0,
                etc_mm: 7.0,
            },
        ];
        for f in fluxes {
            let out = b.step(f);
            in_sum += f.rain_mm + f.irrigation_mm;
            out_sum += out.eta_mm + out.drainage_mm + out.runoff_mm;
        }
        let storage_change = d0 - b.depletion_mm(); // water gained by soil
        assert!(
            (in_sum - out_sum - storage_change).abs() < 1e-9,
            "in={in_sum} out={out_sum} Δstore={storage_change}"
        );
    }

    #[test]
    #[should_panic(expected = "inconsistent soil")]
    fn bad_soil_rejected() {
        let _ = SoilProperties::new(0.1, 0.2, 0.4, 0.0);
    }

    #[test]
    #[should_panic(expected = "depletion")]
    fn bad_depletion_rejected() {
        swb().set_depletion_mm(1000.0);
    }
}
