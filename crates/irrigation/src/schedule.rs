//! Irrigation scheduling policies.
//!
//! The paper's motivation: "In an attempt to avoid loss of productivity by
//! under-irrigation, farmers feed more water than is needed" — that is
//! [`FixedCalendar`], the baseline every smart policy is compared against in
//! experiment E1. The smart policies use the soil/ET state the SWAMP
//! platform assembles from sensor data.

use swamp_agro::soil::SoilWaterBalance;

/// What a policy can see when deciding: the platform's *estimate* of the
/// zone state (possibly from noisy or tampered sensors — deliberately not
/// the ground truth).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ZoneView {
    /// Estimated root-zone depletion, mm.
    pub depletion_mm: f64,
    /// Total available water for the zone, mm.
    pub taw_mm: f64,
    /// Readily available water threshold, mm.
    pub raw_mm: f64,
    /// Today's crop demand estimate `ETc`, mm.
    pub etc_mm: f64,
    /// Rain forecast for today, mm (0 when no forecast integration).
    pub forecast_rain_mm: f64,
    /// Day after sowing.
    pub das: u32,
}

impl ZoneView {
    /// Builds the view a *perfectly informed* platform would have, straight
    /// from the true water balance. Tests and upper-bound baselines use it.
    pub fn from_truth(swb: &SoilWaterBalance, etc_mm: f64, das: u32) -> Self {
        ZoneView {
            depletion_mm: swb.depletion_mm(),
            taw_mm: swb.taw_mm(),
            raw_mm: swb.raw_mm(),
            etc_mm,
            forecast_rain_mm: 0.0,
            das,
        }
    }
}

/// An irrigation decision: depth to apply today, mm (0 = skip).
pub type DepthMm = f64;

/// A scheduling policy. Object-safe so pilots can mix policies per zone.
///
/// `Send + Sync` is a supertrait, so a boxed policy never keeps whatever
/// holds it from crossing threads. Every policy is plain owned data, so
/// the bound costs implementors nothing.
pub trait IrrigationPolicy: Send + Sync {
    /// Decides today's application depth for a zone.
    fn decide(&mut self, view: &ZoneView) -> DepthMm;

    /// Short policy name for reports.
    fn name(&self) -> &str;
}

/// The conventional baseline: irrigate every `interval_days` with a fixed
/// depth, regardless of soil state (over-irrigation by design).
#[derive(Clone, Debug)]
pub struct FixedCalendar {
    interval_days: u32,
    depth_mm: f64,
}

impl FixedCalendar {
    /// Creates a calendar policy.
    ///
    /// # Panics
    /// Panics if `interval_days == 0` or `depth_mm < 0`.
    pub fn new(interval_days: u32, depth_mm: f64) -> Self {
        assert!(interval_days > 0, "interval must be at least one day");
        assert!(depth_mm >= 0.0);
        FixedCalendar {
            interval_days,
            depth_mm,
        }
    }
}

impl IrrigationPolicy for FixedCalendar {
    fn decide(&mut self, view: &ZoneView) -> DepthMm {
        if view.das.is_multiple_of(self.interval_days) {
            self.depth_mm
        } else {
            0.0
        }
    }

    fn name(&self) -> &str {
        "fixed-calendar"
    }
}

/// Threshold ("management allowed depletion") policy: refill to field
/// capacity when depletion crosses `trigger_fraction` of RAW.
#[derive(Clone, Debug)]
pub struct ThresholdRefill {
    trigger_fraction: f64,
}

impl ThresholdRefill {
    /// Creates a threshold policy; `trigger_fraction` is relative to RAW
    /// (1.0 = classic "irrigate at RAW" rule).
    ///
    /// # Panics
    /// Panics if `trigger_fraction <= 0`.
    pub fn new(trigger_fraction: f64) -> Self {
        assert!(trigger_fraction > 0.0);
        ThresholdRefill { trigger_fraction }
    }
}

impl IrrigationPolicy for ThresholdRefill {
    fn decide(&mut self, view: &ZoneView) -> DepthMm {
        if view.depletion_mm >= self.trigger_fraction * view.raw_mm {
            // Refill to field capacity, discounted by forecast rain.
            (view.depletion_mm - view.forecast_rain_mm).max(0.0)
        } else {
            0.0
        }
    }

    fn name(&self) -> &str {
        "threshold-refill"
    }
}

/// ET-replacement policy: apply yesterday-accumulated crop demand daily,
/// skipping when rain covers it. `fraction` < 1 implements regulated
/// deficit irrigation (Guaspari).
#[derive(Clone, Debug)]
pub struct EtReplacement {
    fraction: f64,
    carry_mm: f64,
    /// Do not bother the system for applications smaller than this.
    min_application_mm: f64,
}

impl EtReplacement {
    /// Creates an ET-replacement policy applying `fraction` of demand.
    ///
    /// # Panics
    /// Panics if `fraction` is not in `(0, 1.5]`.
    pub fn new(fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.5,
            "fraction {fraction} outside (0, 1.5]"
        );
        EtReplacement {
            fraction,
            carry_mm: 0.0,
            min_application_mm: 3.0,
        }
    }
}

impl IrrigationPolicy for EtReplacement {
    fn decide(&mut self, view: &ZoneView) -> DepthMm {
        self.carry_mm += view.etc_mm * self.fraction - view.forecast_rain_mm;
        self.carry_mm = self.carry_mm.max(0.0);
        if self.carry_mm >= self.min_application_mm {
            let apply = self.carry_mm;
            self.carry_mm = 0.0;
            apply
        } else {
            0.0
        }
    }

    fn name(&self) -> &str {
        "et-replacement"
    }
}

/// Regulated deficit irrigation: holds the root zone at a target stress
/// coefficient `Ks` instead of at field capacity.
///
/// The policy withholds water until depletion passes the point where
/// `Ks = target_ks`, then tops up only back to that point — the viticulture
/// practice behind the Guaspari pilot's quality goal. Rain can temporarily
/// relieve the stress (as in the field); the policy simply waits for the
/// profile to dry back down.
#[derive(Clone, Debug)]
pub struct DeficitMaintain {
    target_ks: f64,
    min_application_mm: f64,
}

impl DeficitMaintain {
    /// Creates a policy holding `Ks ≈ target_ks`.
    ///
    /// # Panics
    /// Panics unless `0 < target_ks <= 1`.
    pub fn new(target_ks: f64) -> Self {
        assert!(
            target_ks > 0.0 && target_ks <= 1.0,
            "target Ks {target_ks} outside (0,1]"
        );
        DeficitMaintain {
            target_ks,
            min_application_mm: 2.0,
        }
    }
}

impl IrrigationPolicy for DeficitMaintain {
    fn decide(&mut self, view: &ZoneView) -> DepthMm {
        // Depletion at which Ks equals the target (FAO-56 stress line).
        let d_target = view.taw_mm - self.target_ks * (view.taw_mm - view.raw_mm);
        let excess = view.depletion_mm + view.etc_mm - d_target - view.forecast_rain_mm;
        if excess >= self.min_application_mm {
            excess
        } else {
            0.0
        }
    }

    fn name(&self) -> &str {
        "deficit-maintain"
    }
}

/// No irrigation at all (rainfed lower bound).
#[derive(Clone, Copy, Debug, Default)]
pub struct Rainfed;

impl IrrigationPolicy for Rainfed {
    fn decide(&mut self, _view: &ZoneView) -> DepthMm {
        0.0
    }

    fn name(&self) -> &str {
        "rainfed"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swamp_agro::soil::{SoilProperties, SoilWaterBalance};

    fn view(depletion: f64, etc: f64, das: u32) -> ZoneView {
        ZoneView {
            depletion_mm: depletion,
            taw_mm: 90.0,
            raw_mm: 45.0,
            etc_mm: etc,
            forecast_rain_mm: 0.0,
            das,
        }
    }

    #[test]
    fn fixed_calendar_fires_on_interval() {
        let mut p = FixedCalendar::new(3, 25.0);
        assert_eq!(p.decide(&view(0.0, 5.0, 0)), 25.0);
        assert_eq!(p.decide(&view(0.0, 5.0, 1)), 0.0);
        assert_eq!(p.decide(&view(0.0, 5.0, 2)), 0.0);
        assert_eq!(p.decide(&view(0.0, 5.0, 3)), 25.0);
        // Ignores soil state entirely — that is the point of the baseline.
        assert_eq!(p.decide(&view(0.0, 0.0, 6)), 25.0);
    }

    #[test]
    fn threshold_waits_then_refills() {
        let mut p = ThresholdRefill::new(1.0);
        assert_eq!(p.decide(&view(30.0, 5.0, 10)), 0.0); // below RAW
        assert_eq!(p.decide(&view(45.0, 5.0, 11)), 45.0); // at RAW: refill
        assert_eq!(p.decide(&view(60.0, 5.0, 12)), 60.0);
    }

    #[test]
    fn threshold_discounts_forecast_rain() {
        let mut p = ThresholdRefill::new(1.0);
        let mut v = view(50.0, 5.0, 10);
        v.forecast_rain_mm = 20.0;
        assert_eq!(p.decide(&v), 30.0);
        v.forecast_rain_mm = 100.0;
        assert_eq!(p.decide(&v), 0.0);
    }

    #[test]
    fn et_replacement_accumulates_until_threshold() {
        let mut p = EtReplacement::new(1.0);
        assert_eq!(p.decide(&view(0.0, 2.0, 0)), 0.0); // 2 mm carried
        let applied = p.decide(&view(0.0, 2.0, 1)); // 4 mm ≥ 3 mm min
        assert!((applied - 4.0).abs() < 1e-9);
        assert_eq!(p.decide(&view(0.0, 1.0, 2)), 0.0); // reset, carries 1
    }

    #[test]
    fn deficit_fraction_applies_less() {
        let mut full = EtReplacement::new(1.0);
        let mut deficit = EtReplacement::new(0.6);
        let mut sum_full = 0.0;
        let mut sum_deficit = 0.0;
        for das in 0..30 {
            sum_full += full.decide(&view(0.0, 5.0, das));
            sum_deficit += deficit.decide(&view(0.0, 5.0, das));
        }
        assert!((sum_deficit / sum_full - 0.6).abs() < 0.05);
    }

    #[test]
    fn rain_suppresses_et_replacement() {
        let mut p = EtReplacement::new(1.0);
        let mut v = view(0.0, 5.0, 0);
        v.forecast_rain_mm = 10.0;
        assert_eq!(p.decide(&v), 0.0);
        // The surplus rain does not go negative into future days.
        let applied = p.decide(&view(0.0, 5.0, 1));
        assert_eq!(applied, 5.0);
    }

    #[test]
    fn rainfed_never_irrigates() {
        let mut p = Rainfed;
        assert_eq!(p.decide(&view(89.0, 9.0, 50)), 0.0);
        assert_eq!(p.name(), "rainfed");
    }

    #[test]
    fn zone_view_from_truth() {
        let swb = SoilWaterBalance::new(SoilProperties::loam(), 0.6, 0.5);
        let v = ZoneView::from_truth(&swb, 5.5, 12);
        assert_eq!(v.depletion_mm, 0.0);
        assert!((v.taw_mm - 90.0).abs() < 1e-9);
        assert!((v.raw_mm - 45.0).abs() < 1e-9);
        assert_eq!(v.etc_mm, 5.5);
        assert_eq!(v.das, 12);
    }

    #[test]
    fn policies_are_object_safe() {
        let mut policies: Vec<Box<dyn IrrigationPolicy>> = vec![
            Box::new(FixedCalendar::new(2, 20.0)),
            Box::new(ThresholdRefill::new(1.0)),
            Box::new(EtReplacement::new(1.0)),
            Box::new(Rainfed),
        ];
        for p in &mut policies {
            let _ = p.decide(&view(50.0, 5.0, 4));
            assert!(!p.name().is_empty());
        }
    }
}
