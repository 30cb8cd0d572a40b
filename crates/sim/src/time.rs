//! Virtual time for the SWAMP simulations.
//!
//! [`SimTime`] is an instant measured in milliseconds since the simulation
//! epoch (the start of the scenario, conventionally midnight of day-of-year
//! 1). [`SimDuration`] is a span between two instants. Both are plain `u64`
//! newtypes: cheap to copy, totally ordered, and free of wall-clock leakage.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// Milliseconds in one second.
pub const MILLIS_PER_SEC: u64 = 1_000;
/// Milliseconds in one minute.
pub const MILLIS_PER_MIN: u64 = 60 * MILLIS_PER_SEC;
/// Milliseconds in one hour.
pub const MILLIS_PER_HOUR: u64 = 60 * MILLIS_PER_MIN;
/// Milliseconds in one (simulation) day.
pub const MILLIS_PER_DAY: u64 = 24 * MILLIS_PER_HOUR;

/// An instant of virtual time, in milliseconds since the simulation epoch.
///
/// # Example
/// ```
/// use swamp_sim::{SimTime, SimDuration};
/// let t = SimTime::from_days(2) + SimDuration::from_hours(6);
/// assert_eq!(t.day(), 2);
/// assert_eq!(t.hour_of_day(), 6);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw milliseconds since the epoch.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates an instant from whole seconds since the epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MILLIS_PER_SEC)
    }

    /// Creates an instant from whole hours since the epoch.
    pub const fn from_hours(h: u64) -> Self {
        SimTime(h * MILLIS_PER_HOUR)
    }

    /// Creates an instant from whole days since the epoch.
    pub const fn from_days(d: u64) -> Self {
        SimTime(d * MILLIS_PER_DAY)
    }

    /// Raw milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds since the epoch.
    pub const fn as_secs(self) -> u64 {
        self.0 / MILLIS_PER_SEC
    }

    /// Seconds since the epoch as a float (for physics/agronomy math).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_SEC as f64
    }

    /// Whole simulation days elapsed since the epoch (day 0 is the first day).
    pub const fn day(self) -> u64 {
        self.0 / MILLIS_PER_DAY
    }

    /// Hour of the current day, `0..=23`.
    pub const fn hour_of_day(self) -> u64 {
        (self.0 % MILLIS_PER_DAY) / MILLIS_PER_HOUR
    }

    /// Fraction of the current day elapsed, `0.0..1.0`.
    pub fn day_fraction(self) -> f64 {
        (self.0 % MILLIS_PER_DAY) as f64 / MILLIS_PER_DAY as f64
    }

    /// Whether this instant falls in the daytime half of the diurnal
    /// cycle, 06:00–18:00 of the simulated day: the one day/night clock
    /// that telemetry generation and behavioural baselining share.
    pub fn is_day(self) -> bool {
        (0.25..0.75).contains(&self.day_fraction())
    }

    /// Elapsed duration since `earlier`.
    ///
    /// # Panics
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "duration_since: earlier ({earlier:?}) is after self ({self:?})"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Elapsed duration since `earlier`, or zero if `earlier` is later.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimTime({})", self)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.day();
        let h = self.hour_of_day();
        let m = (self.0 % MILLIS_PER_HOUR) / MILLIS_PER_MIN;
        let s = (self.0 % MILLIS_PER_MIN) / MILLIS_PER_SEC;
        let ms = self.0 % MILLIS_PER_SEC;
        write!(f, "d{d}+{h:02}:{m:02}:{s:02}.{ms:03}")
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

/// A span of virtual time, in milliseconds.
///
/// # Example
/// ```
/// use swamp_sim::SimDuration;
/// let d = SimDuration::from_mins(90);
/// assert_eq!(d.as_hours_f64(), 1.5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MILLIS_PER_SEC)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * MILLIS_PER_MIN)
    }

    /// Creates a duration from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * MILLIS_PER_HOUR)
    }

    /// Creates a duration from whole days.
    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * MILLIS_PER_DAY)
    }

    /// Creates a duration from fractional seconds, rounding to milliseconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration seconds must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * MILLIS_PER_SEC as f64).round() as u64)
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds.
    pub const fn as_secs(self) -> u64 {
        self.0 / MILLIS_PER_SEC
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_SEC as f64
    }

    /// Hours as a float.
    pub fn as_hours_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_HOUR as f64
    }

    /// Days as a float.
    pub fn as_days_f64(self) -> f64 {
        self.0 as f64 / MILLIS_PER_DAY as f64
    }

    /// Whether this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SimDuration({}ms)", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= MILLIS_PER_DAY {
            write!(f, "{:.2}d", self.as_days_f64())
        } else if self.0 >= MILLIS_PER_HOUR {
            write!(f, "{:.2}h", self.as_hours_f64())
        } else if self.0 >= MILLIS_PER_SEC {
            write!(f, "{:.2}s", self.as_secs_f64())
        } else {
            write!(f, "{}ms", self.0)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_days(3) + SimDuration::from_hours(5);
        assert_eq!(t.day(), 3);
        assert_eq!(t.hour_of_day(), 5);
        assert_eq!(t - SimTime::from_days(3), SimDuration::from_hours(5));
    }

    #[test]
    fn duration_since_is_exact() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(25);
        assert_eq!(b.duration_since(a), SimDuration::from_secs(15));
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_when_reversed() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(25);
        let _ = a.duration_since(b);
    }

    #[test]
    fn saturating_duration_since_clamps() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(25);
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
    }

    #[test]
    fn day_fraction_ranges() {
        assert_eq!(SimTime::from_days(1).day_fraction(), 0.0);
        let noon = SimTime::from_days(1) + SimDuration::from_hours(12);
        assert!((noon.day_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn day_night_split_follows_the_clock() {
        assert!(!SimTime::ZERO.is_day());
        assert!(SimTime::from_hours(12).is_day());
        assert!(!SimTime::from_hours(23).is_day());
        assert!(SimTime::from_hours(6).is_day());
        assert!(!SimTime::from_hours(18).is_day());
    }

    #[test]
    fn from_secs_f64_rounds_to_millis() {
        assert_eq!(SimDuration::from_secs_f64(1.2345).as_millis(), 1235);
        assert_eq!(SimDuration::from_secs_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(0).to_string(), "d0+00:00:00.000");
        let t = SimTime::from_days(2) + SimDuration::from_mins(61);
        assert_eq!(t.to_string(), "d2+01:01:00.000");
        assert_eq!(SimDuration::from_millis(5).to_string(), "5ms");
        assert_eq!(SimDuration::from_hours(36).to_string(), "1.50d");
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_mins(10);
        assert_eq!(d * 6, SimDuration::from_hours(1));
        assert_eq!(SimDuration::from_hours(1) / 4, SimDuration::from_mins(15));
    }
}
