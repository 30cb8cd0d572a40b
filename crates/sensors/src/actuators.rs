//! The center-pivot irrigation machine.
//!
//! Actuators are what the paper worries about an attacker seizing: "if an
//! attacker takes control of the actuators, the irrigation and water
//! distribution is compromised". The pivot exposes its command surface
//! (start/stop, sector speed plan) to the VRI planner of `swamp-irrigation`
//! and experiment E1.

use swamp_sim::SimTime;

use crate::device::DeviceId;

/// A center-pivot irrigation machine with per-sector variable-rate control.
///
/// The pivot arm sweeps the circle; its angular speed sets the water depth
/// applied (slower ⇒ deeper). A VRI plan assigns each angular sector a speed
/// fraction; depth scales inversely. This is the mechanism behind the
/// MATOPIBA pilot (experiment E1).
///
/// # Example
/// ```
/// use swamp_sensors::actuators::CenterPivot;
/// use swamp_sim::{SimDuration, SimTime};
/// let mut pivot = CenterPivot::new("pivot-1", 8, 12.0, 20.0);
/// pivot.set_sector_speeds(vec![1.0; 8]).unwrap();
/// pivot.start(SimTime::ZERO);
/// let applied = pivot.advance(SimTime::ZERO + SimDuration::from_hours(6));
/// assert!(applied.iter().sum::<f64>() > 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct CenterPivot {
    id: DeviceId,
    sectors: usize,
    /// Hours for a full revolution at 100% speed.
    base_revolution_h: f64,
    /// Water depth applied at 100% speed, mm.
    base_depth_mm: f64,
    /// Per-sector speed fraction in (0, 1].
    sector_speeds: Vec<f64>,
    angle_deg: f64,
    running: bool,
    last_advance: SimTime,
    total_applied_mm: Vec<f64>,
}

/// Error from an invalid VRI speed plan.
#[derive(Clone, Debug, PartialEq)]
pub struct InvalidSpeedPlan(pub String);

impl std::fmt::Display for InvalidSpeedPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid VRI speed plan: {}", self.0)
    }
}
impl std::error::Error for InvalidSpeedPlan {}

impl CenterPivot {
    /// Creates a stopped pivot at angle 0.
    ///
    /// # Panics
    /// Panics if `sectors == 0` or the physical parameters are not positive.
    pub fn new(
        id: impl Into<DeviceId>,
        sectors: usize,
        base_revolution_h: f64,
        base_depth_mm: f64,
    ) -> Self {
        assert!(sectors > 0, "need at least one sector");
        assert!(base_revolution_h > 0.0 && base_depth_mm > 0.0);
        CenterPivot {
            id: id.into(),
            sectors,
            base_revolution_h,
            base_depth_mm,
            sector_speeds: vec![1.0; sectors],
            angle_deg: 0.0,
            running: false,
            last_advance: SimTime::ZERO,
            total_applied_mm: vec![0.0; sectors],
        }
    }

    /// The pivot's device id.
    pub fn id(&self) -> &DeviceId {
        &self.id
    }

    /// Number of VRI sectors.
    pub fn sectors(&self) -> usize {
        self.sectors
    }

    /// Current boom angle, degrees `[0, 360)`.
    pub fn angle_deg(&self) -> f64 {
        self.angle_deg
    }

    /// Whether the machine is moving/watering.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// Installs a VRI plan: one speed fraction per sector.
    ///
    /// # Errors
    /// Rejects plans with the wrong sector count or speeds outside
    /// `(0.05, 1.0]` (a stopped sector would flood).
    pub fn set_sector_speeds(&mut self, speeds: Vec<f64>) -> Result<(), InvalidSpeedPlan> {
        if speeds.len() != self.sectors {
            return Err(InvalidSpeedPlan(format!(
                "expected {} sectors, got {}",
                self.sectors,
                speeds.len()
            )));
        }
        if let Some(bad) = speeds.iter().find(|s| !(0.05..=1.0).contains(*s)) {
            return Err(InvalidSpeedPlan(format!("speed {bad} outside (0.05, 1.0]")));
        }
        self.sector_speeds = speeds;
        Ok(())
    }

    /// Starts the machine at `now`.
    pub fn start(&mut self, now: SimTime) {
        self.advance(now);
        self.running = true;
        self.last_advance = now;
    }

    /// Stops the machine at `now` (applying water for the elapsed interval
    /// first).
    pub fn stop(&mut self, now: SimTime) -> Vec<f64> {
        let applied = self.advance(now);
        self.running = false;
        applied
    }

    /// Advances the simulation to `now`, returning the water depth (mm)
    /// applied to each sector during the interval.
    pub fn advance(&mut self, now: SimTime) -> Vec<f64> {
        let mut applied = vec![0.0; self.sectors];
        if !self.running || now <= self.last_advance {
            self.last_advance = now.max(self.last_advance);
            return applied;
        }
        let mut remaining_h = now.duration_since(self.last_advance).as_hours_f64();
        self.last_advance = now;
        let sector_span = 360.0 / self.sectors as f64;
        let base_deg_per_h = 360.0 / self.base_revolution_h;

        // Walk sector boundaries, applying depth ∝ time spent per sector.
        let mut iterations = 0u32;
        while remaining_h > 1e-12 {
            iterations += 1;
            assert!(
                iterations < 10_000_000,
                "pivot advance stalled: angle={} remaining_h={} sectors={}",
                self.angle_deg,
                remaining_h,
                self.sectors
            );
            let sector = ((self.angle_deg / sector_span) as usize) % self.sectors;
            let speed = self.sector_speeds[sector];
            let deg_per_h = base_deg_per_h * speed;
            let next_boundary = (self.angle_deg / sector_span).floor() * sector_span + sector_span;
            let deg_to_boundary = next_boundary - self.angle_deg;
            // Float rounding can leave the angle a hair short of a boundary
            // (e.g. 3·(360/7) computed as 154.28571428571428 while
            // angle/span floors to 2): the residual sweep underflows and the
            // loop would stall. Nudge strictly past the boundary instead —
            // the 1e-9° skip is ~3e-12 of a revolution, far below any
            // physical meaning.
            if deg_to_boundary < 1e-9 {
                self.angle_deg = (next_boundary + 1e-9) % 360.0;
                continue;
            }
            let h_to_boundary = deg_to_boundary / deg_per_h;
            let h = h_to_boundary.min(remaining_h);
            let swept_deg = deg_per_h * h;

            // Depth applied to the swept arc: base depth / speed, prorated
            // by the fraction of the sector swept.
            let frac_of_sector = swept_deg / sector_span;
            let depth = self.base_depth_mm / speed * frac_of_sector;
            applied[sector] += depth;
            self.total_applied_mm[sector] += depth;

            self.angle_deg = (self.angle_deg + swept_deg) % 360.0;
            remaining_h -= h;
        }
        applied
    }

    /// Lifetime applied depth per sector, mm.
    pub fn total_applied_mm(&self) -> &[f64] {
        &self.total_applied_mm
    }

    /// Hours for a full revolution under the current plan.
    pub fn revolution_hours(&self) -> f64 {
        let sector_span_frac = 1.0 / self.sectors as f64;
        self.sector_speeds
            .iter()
            .map(|s| self.base_revolution_h * sector_span_frac / s)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swamp_sim::SimDuration;

    fn t(h: u64) -> SimTime {
        SimTime::from_hours(h)
    }

    #[test]
    fn pivot_uniform_pass_applies_base_depth() {
        let mut pivot = CenterPivot::new("p", 4, 12.0, 20.0);
        pivot.start(SimTime::ZERO);
        let applied = pivot.advance(t(12)); // one full revolution
        for (i, d) in applied.iter().enumerate() {
            assert!((d - 20.0).abs() < 1e-6, "sector {i} depth {d}");
        }
        assert!(pivot.angle_deg().abs() < 1e-6);
    }

    #[test]
    fn vri_slow_sector_gets_more_water() {
        let mut pivot = CenterPivot::new("p", 4, 12.0, 20.0);
        pivot.set_sector_speeds(vec![1.0, 0.5, 1.0, 1.0]).unwrap();
        pivot.start(SimTime::ZERO);
        // Revolution now takes 3+6+3+3 = 15 h.
        assert!((pivot.revolution_hours() - 15.0).abs() < 1e-9);
        let applied = pivot.advance(t(15));
        assert!((applied[0] - 20.0).abs() < 1e-6);
        assert!(
            (applied[1] - 40.0).abs() < 1e-6,
            "slow sector doubles depth"
        );
        assert!((applied[2] - 20.0).abs() < 1e-6);
    }

    #[test]
    fn partial_sweep_prorates_depth() {
        let mut pivot = CenterPivot::new("p", 4, 12.0, 20.0);
        pivot.start(SimTime::ZERO);
        // 1.5 h = half of the first 3-h sector.
        let applied = pivot.advance(SimTime::ZERO + SimDuration::from_mins(90));
        assert!((applied[0] - 10.0).abs() < 1e-6);
        assert_eq!(applied[1], 0.0);
        assert!((pivot.angle_deg() - 45.0).abs() < 1e-6);
    }

    #[test]
    fn stopped_pivot_applies_nothing() {
        let mut pivot = CenterPivot::new("p", 4, 12.0, 20.0);
        let applied = pivot.advance(t(10));
        assert!(applied.iter().all(|&d| d == 0.0));
        pivot.start(t(10));
        pivot.stop(t(16));
        let applied = pivot.advance(t(30));
        assert!(applied.iter().all(|&d| d == 0.0));
    }

    #[test]
    fn speed_plan_validation() {
        let mut pivot = CenterPivot::new("p", 4, 12.0, 20.0);
        assert!(pivot.set_sector_speeds(vec![1.0; 3]).is_err());
        assert!(pivot.set_sector_speeds(vec![0.0, 1.0, 1.0, 1.0]).is_err());
        assert!(pivot.set_sector_speeds(vec![1.5, 1.0, 1.0, 1.0]).is_err());
        assert!(pivot.set_sector_speeds(vec![0.5; 4]).is_ok());
    }

    #[test]
    fn totals_accumulate_across_passes() {
        let mut pivot = CenterPivot::new("p", 2, 10.0, 10.0);
        pivot.start(SimTime::ZERO);
        pivot.advance(t(20)); // two revolutions
        for d in pivot.total_applied_mm() {
            assert!((d - 20.0).abs() < 1e-6);
        }
    }
}
