//! Platform availability accounting for the fog-vs-cloud-only comparison
//! (experiment E5).
//!
//! Each scheduling interval, the platform either served its function
//! (an irrigation decision was made, a query answered) or it did not.
//! The tracker attributes each served interval to where the work ran, so
//! the E5 report can show cloud-only availability collapsing during
//! Internet outages while the fog deployment rides through them.

use swamp_sim::SimTime;

/// Where a service interval was handled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServedBy {
    /// The cloud handled it (uplink was up).
    Cloud,
    /// The local fog node handled it (uplink down or by policy).
    Fog,
}

/// Availability bookkeeping over fixed intervals.
#[derive(Clone, Debug, Default)]
pub struct AvailabilityTracker {
    served_cloud: u64,
    served_fog: u64,
    unserved: u64,
}

impl AvailabilityTracker {
    /// Records the outcome of one interval.
    pub fn record(&mut self, outcome: Option<ServedBy>) {
        match outcome {
            Some(ServedBy::Cloud) => self.served_cloud += 1,
            Some(ServedBy::Fog) => self.served_fog += 1,
            None => self.unserved += 1,
        }
    }

    /// Total intervals recorded.
    pub fn intervals(&self) -> u64 {
        self.served_cloud + self.served_fog + self.unserved
    }

    /// Fraction of intervals served (by either tier), `[0,1]`.
    pub fn availability(&self) -> f64 {
        let total = self.intervals();
        if total == 0 {
            return 1.0;
        }
        (self.served_cloud + self.served_fog) as f64 / total as f64
    }

    /// `(cloud-served, fog-served, unserved)` interval counts.
    pub fn breakdown(&self) -> (u64, u64, u64) {
        (self.served_cloud, self.served_fog, self.unserved)
    }
}

/// A schedule of uplink outages. It takes a link down only once it becomes
/// fault-plan partitions (`PlatformBuilder::uplink_outages` in
/// `swamp-core`, or `swamp_net::FaultPlan::add_partitions_from`).
#[derive(Clone, Debug, Default)]
pub struct OutageSchedule {
    /// Sorted, non-overlapping outage windows `[start, end)`.
    windows: Vec<(SimTime, SimTime)>,
}

impl OutageSchedule {
    /// Creates an empty schedule (always connected).
    pub fn new() -> Self {
        OutageSchedule::default()
    }

    /// Adds an outage window.
    ///
    /// # Panics
    /// Panics if `end <= start` or the window overlaps an existing one.
    pub fn add_outage(&mut self, start: SimTime, end: SimTime) {
        assert!(start < end, "outage window must have positive length");
        for &(s, e) in &self.windows {
            assert!(end <= s || start >= e, "outage windows must not overlap");
        }
        self.windows.push((start, end));
        self.windows.sort();
    }

    /// Whether the uplink is down at `t`.
    pub fn is_down(&self, t: SimTime) -> bool {
        self.windows.iter().any(|&(s, e)| t >= s && t < e)
    }

    /// The sorted, non-overlapping `[start, end)` windows — e.g. to feed
    /// into `swamp_net::FaultPlan::add_partitions_from` so the fault plan
    /// partitions exactly when this schedule says the uplink is down.
    pub fn windows(&self) -> &[(SimTime, SimTime)] {
        &self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_math() {
        let mut t = AvailabilityTracker::default();
        for _ in 0..6 {
            t.record(Some(ServedBy::Cloud));
        }
        for _ in 0..3 {
            t.record(Some(ServedBy::Fog));
        }
        t.record(None);
        assert_eq!(t.intervals(), 10);
        assert!((t.availability() - 0.9).abs() < 1e-12);
        assert_eq!(t.breakdown(), (6, 3, 1));
    }

    #[test]
    fn empty_tracker_is_fully_available() {
        let t = AvailabilityTracker::default();
        assert_eq!(t.availability(), 1.0);
        assert_eq!(t.breakdown(), (0, 0, 0));
    }

    #[test]
    fn outage_schedule_queries() {
        let mut s = OutageSchedule::new();
        s.add_outage(SimTime::from_hours(10), SimTime::from_hours(14));
        s.add_outage(SimTime::from_hours(20), SimTime::from_hours(21));
        assert!(!s.is_down(SimTime::from_hours(9)));
        assert!(s.is_down(SimTime::from_hours(10)));
        assert!(s.is_down(SimTime::from_hours(13)));
        assert!(!s.is_down(SimTime::from_hours(14))); // half-open
        assert!(s.is_down(SimTime::from_hours(20)));
        let hours = |h| SimTime::from_hours(h);
        assert_eq!(
            s.windows(),
            [(hours(10), hours(14)), (hours(20), hours(21))]
        );
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_outages_rejected() {
        let mut s = OutageSchedule::new();
        s.add_outage(SimTime::from_hours(1), SimTime::from_hours(3));
        s.add_outage(SimTime::from_hours(2), SimTime::from_hours(4));
    }

    #[test]
    #[should_panic(expected = "positive length")]
    fn empty_outage_rejected() {
        let mut s = OutageSchedule::new();
        s.add_outage(SimTime::from_hours(2), SimTime::from_hours(2));
    }

    #[test]
    fn cloud_only_vs_fog_during_outage() {
        // 24 hourly intervals, outage hours 6..18.
        let mut schedule = OutageSchedule::new();
        schedule.add_outage(SimTime::from_hours(6), SimTime::from_hours(18));

        let mut cloud_only = AvailabilityTracker::default();
        let mut with_fog = AvailabilityTracker::default();
        for h in 0..24 {
            let t = SimTime::from_hours(h);
            if schedule.is_down(t) {
                cloud_only.record(None);
                with_fog.record(Some(ServedBy::Fog));
            } else {
                cloud_only.record(Some(ServedBy::Cloud));
                with_fog.record(Some(ServedBy::Cloud));
            }
        }
        assert!((cloud_only.availability() - 0.5).abs() < 1e-12);
        assert!((with_fog.availability() - 1.0).abs() < 1e-12);
        assert_eq!(with_fog.breakdown(), (12, 12, 0));
    }
}
