//! Deterministic fault injection for the simulated network.
//!
//! The paper's deployment modes — farm-premise fog nodes and *mobile* fog
//! nodes on drones and center pivots — exist because connectivity to the
//! cloud is intermittent, and its threat model leads with denial of service
//! against the sensing and distribution tiers. A [`FaultPlan`] makes that
//! adversity reproducible: per-link drop/duplicate/reorder/delay processes
//! (seeded from [`swamp_sim::SimRng`]) plus scheduled partitions, injected
//! into [`crate::network::Network::send`] so that every protocol built on
//! the fabric can be exercised under degraded links without touching the
//! protocol code.
//!
//! Faults compose with the link model: the plan rules first, then a
//! message that it lets through takes its chance with the link's own loss
//! process. A partition window is the only way a link goes down: windows
//! are half-open `[start, end)` and non-overlapping per link, and an outage
//! schedule written for availability accounting
//! (`swamp_fog::availability::OutageSchedule`) enters the plan through
//! [`FaultPlan::add_partitions_from`].

use std::collections::BTreeMap;

use swamp_sim::{SimDuration, SimRng, SimTime};

use crate::message::NodeId;

/// Why a fault-plan configuration was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultConfigError {
    /// A probability was outside `[0, 1]` or not finite.
    InvalidProbability(f64),
    /// A partition window had `end <= start`.
    EmptyWindow(SimTime, SimTime),
    /// A partition window overlapped an existing one on the same link.
    OverlappingWindow(SimTime, SimTime),
}

impl std::fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultConfigError::InvalidProbability(p) => {
                write!(f, "fault probability {p} outside [0,1]")
            }
            FaultConfigError::EmptyWindow(s, e) => {
                write!(f, "partition window [{s}, {e}) has no duration")
            }
            FaultConfigError::OverlappingWindow(s, e) => {
                write!(f, "partition window [{s}, {e}) overlaps an existing window")
            }
        }
    }
}
impl std::error::Error for FaultConfigError {}

/// Stochastic fault processes applied to one directed link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultSpec {
    /// Extra per-message drop probability (on top of the link's own loss).
    pub drop_prob: f64,
    /// Probability that a delivered message is duplicated (a second copy
    /// arrives after an independent extra delay).
    pub duplicate_prob: f64,
    /// Probability that a delivered message is reordered: it receives an
    /// extra uniform delay in `[0, reorder_window]`, letting later sends
    /// overtake it.
    pub reorder_prob: f64,
    /// Maximum extra delay applied to reordered messages.
    pub reorder_window: SimDuration,
    /// Fixed extra one-way delay applied to every delivered message
    /// (degraded-path latency inflation).
    pub extra_delay: SimDuration,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            reorder_window: SimDuration::from_millis(500),
            extra_delay: SimDuration::ZERO,
        }
    }
}

impl FaultSpec {
    /// A spec that only drops (the classic lossy-uplink scenario).
    pub fn lossy(drop_prob: f64) -> Self {
        FaultSpec {
            drop_prob,
            ..FaultSpec::default()
        }
    }

    /// A "degraded WAN" preset: correlated loss, duplication and
    /// reordering at the given base rate.
    pub fn degraded(rate: f64) -> Self {
        FaultSpec {
            drop_prob: rate,
            duplicate_prob: rate / 3.0,
            reorder_prob: rate / 2.0,
            reorder_window: SimDuration::from_millis(750),
            extra_delay: SimDuration::from_millis(20),
        }
    }

    fn validate(&self) -> Result<(), FaultConfigError> {
        for p in [self.drop_prob, self.duplicate_prob, self.reorder_prob] {
            if !p.is_finite() || !(0.0..=1.0).contains(&p) {
                return Err(FaultConfigError::InvalidProbability(p));
            }
        }
        Ok(())
    }
}

/// What the plan decided for one offered message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Deliver: one scheduled copy per listed extra delay (the first entry
    /// is the primary copy; additional entries are injected duplicates).
    Deliver(Vec<SimDuration>),
    /// Drop by the stochastic loss process.
    Dropped,
    /// Drop because the link is inside a scheduled partition window.
    Partitioned,
}

/// A deterministic, seeded schedule of link faults.
///
/// # Example
/// ```
/// use swamp_net::fault::{FaultPlan, FaultSpec};
/// use swamp_sim::SimTime;
///
/// let mut plan = FaultPlan::new(7);
/// plan.set_link_faults("fog", "cloud", FaultSpec::lossy(0.3)).unwrap();
/// plan.add_partition("fog", "cloud", SimTime::from_hours(2), SimTime::from_hours(4))
///     .unwrap();
/// assert!(plan.is_partitioned(SimTime::from_hours(3), &"fog".into(), &"cloud".into()));
/// ```
#[derive(Clone, Debug)]
pub struct FaultPlan {
    rng: SimRng,
    /// Per-directed-link fault processes.
    link_faults: BTreeMap<(NodeId, NodeId), FaultSpec>,
    /// Fallback spec applied to links without an explicit entry.
    default_faults: Option<FaultSpec>,
    /// Sorted, non-overlapping partition windows per directed link.
    partitions: BTreeMap<(NodeId, NodeId), Vec<(SimTime, SimTime)>>,
}

impl FaultPlan {
    /// Creates an empty plan with its own deterministic RNG stream.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            rng: SimRng::seed_from(seed ^ 0x6661756c745f706c), // "fault_pl"
            link_faults: BTreeMap::new(),
            default_faults: None,
            partitions: BTreeMap::new(),
        }
    }

    /// Installs a fault spec on both directions of the `a ↔ b` link.
    ///
    /// # Errors
    /// [`FaultConfigError::InvalidProbability`] if any probability is
    /// outside `[0, 1]`.
    pub fn set_link_faults(
        &mut self,
        a: impl Into<NodeId>,
        b: impl Into<NodeId>,
        spec: FaultSpec,
    ) -> Result<(), FaultConfigError> {
        spec.validate()?;
        let a = a.into();
        let b = b.into();
        self.link_faults.insert((a.clone(), b.clone()), spec);
        self.link_faults.insert((b, a), spec);
        Ok(())
    }

    /// Installs a fallback spec for every link without an explicit entry.
    ///
    /// # Errors
    /// [`FaultConfigError::InvalidProbability`] if any probability is
    /// outside `[0, 1]`.
    pub fn set_default_faults(&mut self, spec: FaultSpec) -> Result<(), FaultConfigError> {
        spec.validate()?;
        self.default_faults = Some(spec);
        Ok(())
    }

    /// Schedules a partition of both directions of `a ↔ b` over
    /// `[start, end)`. A malformed window is a typed error.
    ///
    /// # Errors
    /// [`FaultConfigError::EmptyWindow`] if `end <= start`;
    /// [`FaultConfigError::OverlappingWindow`] if the window overlaps an
    /// existing one on this link.
    pub fn add_partition(
        &mut self,
        a: impl Into<NodeId>,
        b: impl Into<NodeId>,
        start: SimTime,
        end: SimTime,
    ) -> Result<(), FaultConfigError> {
        if end <= start {
            return Err(FaultConfigError::EmptyWindow(start, end));
        }
        let a = a.into();
        let b = b.into();
        for key in [(a.clone(), b.clone()), (b, a)] {
            let windows = self.partitions.entry(key).or_default();
            if windows.iter().any(|&(s, e)| start < e && s < end) {
                return Err(FaultConfigError::OverlappingWindow(start, end));
            }
            windows.push((start, end));
            windows.sort();
        }
        Ok(())
    }

    /// Copies every window of an outage schedule onto the `a ↔ b` link.
    /// The windows are expected to come from a well-formed schedule (e.g.
    /// `OutageSchedule::windows`), which already guarantees non-overlap.
    ///
    /// # Errors
    /// Propagates the first [`FaultConfigError`] for malformed windows.
    pub fn add_partitions_from(
        &mut self,
        a: impl Into<NodeId>,
        b: impl Into<NodeId>,
        windows: impl IntoIterator<Item = (SimTime, SimTime)>,
    ) -> Result<(), FaultConfigError> {
        let a = a.into();
        let b = b.into();
        for (start, end) in windows {
            self.add_partition(a.clone(), b.clone(), start, end)?;
        }
        Ok(())
    }

    /// Whether the directed link `src → dst` is inside a partition window.
    pub fn is_partitioned(&self, now: SimTime, src: &NodeId, dst: &NodeId) -> bool {
        self.partitions
            .get(&(src.clone(), dst.clone()))
            .is_some_and(|ws| ws.iter().any(|&(s, e)| now >= s && now < e))
    }

    /// The spec governing `src → dst`, if any.
    fn spec_for(&self, src: &NodeId, dst: &NodeId) -> Option<FaultSpec> {
        self.link_faults
            .get(&(src.clone(), dst.clone()))
            .copied()
            .or(self.default_faults)
    }

    /// Samples the fate of one message offered on `src → dst` at `now`.
    /// Advances the plan's RNG stream only when a stochastic spec governs
    /// the link, so unfaulted links stay bit-identical to a plan-free run.
    pub fn sample(&mut self, now: SimTime, src: &NodeId, dst: &NodeId) -> FaultOutcome {
        if self.is_partitioned(now, src, dst) {
            return FaultOutcome::Partitioned;
        }
        let Some(spec) = self.spec_for(src, dst) else {
            return FaultOutcome::Deliver(vec![SimDuration::ZERO]);
        };
        if spec.drop_prob > 0.0 && self.rng.chance(spec.drop_prob) {
            return FaultOutcome::Dropped;
        }
        let mut primary = spec.extra_delay;
        if spec.reorder_prob > 0.0 && self.rng.chance(spec.reorder_prob) {
            let span_ms = spec.reorder_window.as_millis();
            if span_ms > 0 {
                primary += SimDuration::from_millis(self.rng.below(span_ms + 1));
            }
        }
        let mut delays = vec![primary];
        if spec.duplicate_prob > 0.0 && self.rng.chance(spec.duplicate_prob) {
            let lag_ms = spec.reorder_window.as_millis().max(1);
            delays.push(primary + SimDuration::from_millis(self.rng.below(lag_ms) + 1));
        }
        FaultOutcome::Deliver(delays)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(s: &str) -> NodeId {
        NodeId::new(s)
    }

    #[test]
    fn empty_plan_forwards_everything() {
        let mut plan = FaultPlan::new(1);
        for _ in 0..100 {
            assert_eq!(
                plan.sample(SimTime::ZERO, &n("a"), &n("b")),
                FaultOutcome::Deliver(vec![SimDuration::ZERO])
            );
        }
    }

    #[test]
    fn drop_rate_approximates_spec() {
        let mut plan = FaultPlan::new(2);
        plan.set_link_faults("a", "b", FaultSpec::lossy(0.3))
            .unwrap();
        let trials = 20_000;
        let dropped = (0..trials)
            .filter(|_| plan.sample(SimTime::ZERO, &n("a"), &n("b")) == FaultOutcome::Dropped)
            .count();
        let rate = dropped as f64 / trials as f64;
        assert!((rate - 0.3).abs() < 0.02, "observed drop rate {rate}");
    }

    #[test]
    fn duplicates_and_reorders_fire() {
        let mut plan = FaultPlan::new(3);
        plan.set_link_faults(
            "a",
            "b",
            FaultSpec {
                drop_prob: 0.0,
                duplicate_prob: 0.5,
                reorder_prob: 0.5,
                reorder_window: SimDuration::from_millis(100),
                extra_delay: SimDuration::from_millis(10),
            },
        )
        .unwrap();
        let (mut dup, mut reordered) = (0, 0);
        for _ in 0..1000 {
            match plan.sample(SimTime::ZERO, &n("a"), &n("b")) {
                FaultOutcome::Deliver(delays) => {
                    assert!(delays[0] >= SimDuration::from_millis(10), "extra delay");
                    if delays[0] > SimDuration::from_millis(10) {
                        reordered += 1;
                    }
                    if delays.len() == 2 {
                        dup += 1;
                        assert!(delays[1] > delays[0], "duplicate lags the primary");
                    }
                }
                other => panic!("lossless spec must deliver, got {other:?}"),
            }
        }
        assert!((400..600).contains(&dup), "duplicate count {dup}");
        assert!(reordered > 300, "reorder count {reordered}");
    }

    #[test]
    fn partitions_are_half_open_and_bidirectional() {
        let mut plan = FaultPlan::new(4);
        plan.add_partition("a", "b", SimTime::from_hours(1), SimTime::from_hours(2))
            .unwrap();
        assert!(!plan.is_partitioned(SimTime::ZERO, &n("a"), &n("b")));
        assert!(plan.is_partitioned(SimTime::from_hours(1), &n("a"), &n("b")));
        assert!(plan.is_partitioned(SimTime::from_secs(5400), &n("b"), &n("a")));
        assert!(!plan.is_partitioned(SimTime::from_hours(2), &n("a"), &n("b")));
        assert_eq!(
            plan.sample(SimTime::from_secs(5400), &n("a"), &n("b")),
            FaultOutcome::Partitioned
        );
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        let mut plan = FaultPlan::new(5);
        assert_eq!(
            plan.set_link_faults("a", "b", FaultSpec::lossy(1.5)),
            Err(FaultConfigError::InvalidProbability(1.5))
        );
        assert_eq!(
            plan.add_partition("a", "b", SimTime::from_hours(2), SimTime::from_hours(2)),
            Err(FaultConfigError::EmptyWindow(
                SimTime::from_hours(2),
                SimTime::from_hours(2)
            ))
        );
        plan.add_partition("a", "b", SimTime::from_hours(1), SimTime::from_hours(3))
            .unwrap();
        assert_eq!(
            plan.add_partition("b", "a", SimTime::from_hours(2), SimTime::from_hours(4)),
            Err(FaultConfigError::OverlappingWindow(
                SimTime::from_hours(2),
                SimTime::from_hours(4)
            ))
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut plan = FaultPlan::new(seed);
            plan.set_link_faults("a", "b", FaultSpec::degraded(0.2))
                .unwrap();
            (0..500)
                .map(|_| plan.sample(SimTime::ZERO, &n("a"), &n("b")))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn default_faults_cover_unlisted_links() {
        let mut plan = FaultPlan::new(6);
        plan.set_default_faults(FaultSpec::lossy(1.0)).unwrap();
        assert_eq!(
            plan.sample(SimTime::ZERO, &n("x"), &n("y")),
            FaultOutcome::Dropped
        );
    }

    #[test]
    fn windows_import_from_schedule_shape() {
        let mut plan = FaultPlan::new(7);
        plan.add_partitions_from(
            "a",
            "b",
            [
                (SimTime::from_hours(1), SimTime::from_hours(2)),
                (SimTime::from_hours(5), SimTime::from_hours(6)),
            ],
        )
        .unwrap();
        assert!(plan.is_partitioned(SimTime::from_secs(5400), &n("a"), &n("b")));
        assert!(plan.is_partitioned(SimTime::from_secs(19800), &n("a"), &n("b")));
        assert!(!plan.is_partitioned(SimTime::from_hours(3), &n("a"), &n("b")));
    }
}
