//! SDN-style flow control for the simulated network.
//!
//! The paper: "SDN architecture for IoT allows administrators to have a
//! centralized view of the IoT system and to implement security services."
//! [`FlowTable`] is that centralized view: priority-ordered rules matched on
//! (source, destination, topic prefix) with allow / deny / rate-limit
//! actions, plus per-rule counters the security layer reads to spot floods
//! and to surgically block attackers (experiment E2).

use std::fmt;

use swamp_sim::SimTime;

use crate::message::NodeId;

/// Identifier of an installed flow rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleId(pub u64);

/// What a matching rule does with a packet.
#[derive(Clone, Debug, PartialEq)]
pub enum FlowAction {
    /// Forward normally.
    Allow,
    /// Drop.
    Deny,
    /// Token-bucket rate limit: sustained `per_sec` packets/s with burst
    /// capacity `burst`.
    RateLimit {
        /// Sustained packets per second.
        per_sec: f64,
        /// Maximum burst size in packets.
        burst: f64,
    },
}

/// Match criteria; `None` fields are wildcards.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlowMatch {
    /// Match on source node.
    pub src: Option<NodeId>,
    /// Match on destination node.
    pub dst: Option<NodeId>,
    /// Match on topic prefix.
    pub topic_prefix: Option<String>,
}

impl FlowMatch {
    /// Matches everything.
    pub fn any() -> Self {
        FlowMatch::default()
    }

    /// Matches a specific source node.
    pub fn from_src(src: impl Into<NodeId>) -> Self {
        FlowMatch {
            src: Some(src.into()),
            ..FlowMatch::default()
        }
    }

    fn matches(&self, src: &NodeId, dst: &NodeId, topic: &str) -> bool {
        if let Some(s) = &self.src {
            if s != src {
                return false;
            }
        }
        if let Some(d) = &self.dst {
            if d != dst {
                return false;
            }
        }
        if let Some(p) = &self.topic_prefix {
            if !topic.starts_with(p.as_str()) {
                return false;
            }
        }
        true
    }
}

/// Per-rule counters, part of the controller's centralized view.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FlowStats {
    /// Packets that matched and were allowed through.
    pub allowed: u64,
    /// Packets that matched and were dropped (deny or rate limit).
    pub dropped: u64,
    /// Bytes allowed through.
    pub bytes_allowed: u64,
}

#[derive(Clone, Debug)]
struct FlowRule {
    id: RuleId,
    priority: i32,
    matcher: FlowMatch,
    action: FlowAction,
    stats: FlowStats,
    /// Token bucket state for `RateLimit`.
    tokens: f64,
    last_refill: SimTime,
}

/// The verdict the network asks of the flow table for each packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Forward the packet.
    Forward,
    /// Drop it, attributing the drop to the given rule.
    Drop(RuleId),
}

/// A priority-ordered flow table with a default-allow policy.
///
/// # Example
/// ```
/// use swamp_net::sdn::{FlowAction, FlowMatch, FlowTable, Verdict};
/// use swamp_sim::SimTime;
///
/// let mut table = FlowTable::new();
/// let rule = table.install(10, FlowMatch::from_src("attacker"), FlowAction::Deny);
/// let v = table.classify(SimTime::ZERO, &"attacker".into(), &"broker".into(), "t", 64);
/// assert_eq!(v, Verdict::Drop(rule));
/// assert_eq!(table.stats(rule).unwrap().dropped, 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FlowTable {
    rules: Vec<FlowRule>,
    next_id: u64,
}

impl FlowTable {
    /// Creates an empty (allow-everything) table.
    pub fn new() -> Self {
        FlowTable::default()
    }

    /// Installs a rule; higher `priority` is consulted first. Returns its id.
    pub fn install(&mut self, priority: i32, matcher: FlowMatch, action: FlowAction) -> RuleId {
        let id = RuleId(self.next_id);
        self.next_id += 1;
        self.rules.push(FlowRule {
            id,
            priority,
            matcher,
            action,
            stats: FlowStats::default(),
            tokens: 0.0,
            last_refill: SimTime::ZERO,
        });
        // Stable sort keeps insertion order among equal priorities.
        self.rules.sort_by_key(|r| std::cmp::Reverse(r.priority));
        // Initialize bucket full for rate limits.
        if let Some(r) = self.rules.iter_mut().find(|r| r.id == id) {
            if let FlowAction::RateLimit { burst, .. } = r.action {
                r.tokens = burst;
            }
        }
        id
    }

    /// Removes a rule. Returns whether it existed.
    pub fn remove(&mut self, id: RuleId) -> bool {
        let before = self.rules.len();
        self.rules.retain(|r| r.id != id);
        self.rules.len() != before
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Reads a rule's counters.
    pub fn stats(&self, id: RuleId) -> Option<FlowStats> {
        self.rules.iter().find(|r| r.id == id).map(|r| r.stats)
    }

    /// Classifies one packet, updating counters and token buckets.
    ///
    /// The first matching rule (highest priority) decides; no rule ⇒ forward.
    pub fn classify(
        &mut self,
        now: SimTime,
        src: &NodeId,
        dst: &NodeId,
        topic: &str,
        bytes: usize,
    ) -> Verdict {
        for rule in &mut self.rules {
            if !rule.matcher.matches(src, dst, topic) {
                continue;
            }
            match &rule.action {
                FlowAction::Allow => {
                    rule.stats.allowed += 1;
                    rule.stats.bytes_allowed += bytes as u64;
                    return Verdict::Forward;
                }
                FlowAction::Deny => {
                    rule.stats.dropped += 1;
                    return Verdict::Drop(rule.id);
                }
                FlowAction::RateLimit { per_sec, burst } => {
                    // Refill monotonically: callers may classify packets
                    // slightly out of timestamp order (batched sends), and a
                    // clock that moves backwards must not mint tokens.
                    if now > rule.last_refill {
                        let elapsed = now
                            .saturating_duration_since(rule.last_refill)
                            .as_secs_f64();
                        rule.tokens = (rule.tokens + elapsed * per_sec).min(*burst);
                        rule.last_refill = now;
                    }
                    if rule.tokens >= 1.0 {
                        rule.tokens -= 1.0;
                        rule.stats.allowed += 1;
                        rule.stats.bytes_allowed += bytes as u64;
                        return Verdict::Forward;
                    }
                    rule.stats.dropped += 1;
                    return Verdict::Drop(rule.id);
                }
            }
        }
        Verdict::Forward
    }
}

impl fmt::Display for FlowTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "flow table ({} rules):", self.rules.len())?;
        for r in &self.rules {
            writeln!(
                f,
                "  [{}] prio={} {:?} -> {:?} (allowed={} dropped={})",
                r.id.0, r.priority, r.matcher, r.action, r.stats.allowed, r.stats.dropped
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swamp_sim::SimDuration;

    fn n(s: &str) -> NodeId {
        NodeId::new(s)
    }

    #[test]
    fn default_allow() {
        let mut t = FlowTable::new();
        assert_eq!(
            t.classify(SimTime::ZERO, &n("a"), &n("b"), "x", 1),
            Verdict::Forward
        );
        assert!(t.is_empty());
    }

    #[test]
    fn deny_by_source() {
        let mut t = FlowTable::new();
        let r = t.install(0, FlowMatch::from_src("evil"), FlowAction::Deny);
        assert_eq!(
            t.classify(SimTime::ZERO, &n("evil"), &n("b"), "x", 1),
            Verdict::Drop(r)
        );
        assert_eq!(
            t.classify(SimTime::ZERO, &n("good"), &n("b"), "x", 1),
            Verdict::Forward
        );
        assert_eq!(t.stats(r).unwrap().dropped, 1);
    }

    #[test]
    fn priority_order_wins() {
        let mut t = FlowTable::new();
        t.install(0, FlowMatch::any(), FlowAction::Deny);
        t.install(
            10,
            FlowMatch {
                src: Some(n("probe")),
                ..FlowMatch::default()
            },
            FlowAction::Allow,
        );
        assert_eq!(
            t.classify(SimTime::ZERO, &n("probe"), &n("b"), "x", 1),
            Verdict::Forward
        );
        assert!(matches!(
            t.classify(SimTime::ZERO, &n("other"), &n("b"), "x", 1),
            Verdict::Drop(_)
        ));
    }

    #[test]
    fn topic_prefix_match() {
        let mut t = FlowTable::new();
        let r = t.install(
            0,
            FlowMatch {
                topic_prefix: Some("cmd/".into()),
                ..FlowMatch::default()
            },
            FlowAction::Deny,
        );
        assert_eq!(
            t.classify(SimTime::ZERO, &n("a"), &n("b"), "cmd/valve", 1),
            Verdict::Drop(r)
        );
        assert_eq!(
            t.classify(SimTime::ZERO, &n("a"), &n("b"), "telemetry/soil", 1),
            Verdict::Forward
        );
    }

    #[test]
    fn dst_match() {
        let mut t = FlowTable::new();
        t.install(
            0,
            FlowMatch {
                dst: Some(n("broker")),
                ..FlowMatch::default()
            },
            FlowAction::Deny,
        );
        assert!(matches!(
            t.classify(SimTime::ZERO, &n("a"), &n("broker"), "x", 1),
            Verdict::Drop(_)
        ));
        assert_eq!(
            t.classify(SimTime::ZERO, &n("a"), &n("other"), "x", 1),
            Verdict::Forward
        );
    }

    #[test]
    fn rate_limit_token_bucket() {
        let mut t = FlowTable::new();
        let r = t.install(
            0,
            FlowMatch::from_src("probe"),
            FlowAction::RateLimit {
                per_sec: 1.0,
                burst: 3.0,
            },
        );
        let now = SimTime::ZERO;
        // Burst of 3 allowed.
        for _ in 0..3 {
            assert_eq!(
                t.classify(now, &n("probe"), &n("b"), "x", 10),
                Verdict::Forward
            );
        }
        // Fourth dropped.
        assert_eq!(
            t.classify(now, &n("probe"), &n("b"), "x", 10),
            Verdict::Drop(r)
        );
        // After 2 s, two tokens accrued.
        let later = now + SimDuration::from_secs(2);
        assert_eq!(
            t.classify(later, &n("probe"), &n("b"), "x", 10),
            Verdict::Forward
        );
        assert_eq!(
            t.classify(later, &n("probe"), &n("b"), "x", 10),
            Verdict::Forward
        );
        assert_eq!(
            t.classify(later, &n("probe"), &n("b"), "x", 10),
            Verdict::Drop(r)
        );
        let stats = t.stats(r).unwrap();
        assert_eq!(stats.allowed, 5);
        assert_eq!(stats.dropped, 2);
        assert_eq!(stats.bytes_allowed, 50);
    }

    #[test]
    fn remove_rule() {
        let mut t = FlowTable::new();
        let r = t.install(0, FlowMatch::any(), FlowAction::Deny);
        assert!(t.remove(r));
        assert!(!t.remove(r));
        assert_eq!(
            t.classify(SimTime::ZERO, &n("a"), &n("b"), "x", 1),
            Verdict::Forward
        );
    }

    #[test]
    fn higher_priority_rule_absorbs_the_packet() {
        let mut t = FlowTable::new();
        let r1 = t.install(5, FlowMatch::any(), FlowAction::Allow);
        let r2 = t.install(1, FlowMatch::any(), FlowAction::Deny);
        t.classify(SimTime::ZERO, &n("a"), &n("b"), "x", 7);
        assert_eq!(t.len(), 2);
        assert_eq!(t.stats(r1).unwrap().allowed, 1);
        assert_eq!(t.stats(r2).unwrap().dropped, 0);
    }

    #[test]
    fn display_lists_rules() {
        let mut t = FlowTable::new();
        t.install(0, FlowMatch::from_src("evil"), FlowAction::Deny);
        let text = t.to_string();
        assert!(text.contains("evil"));
        assert!(text.contains("Deny"));
    }
}
