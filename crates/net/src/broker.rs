//! An MQTT-style publish/subscribe broker running on a network node.
//!
//! FIWARE platforms front their context broker with an IoT agent speaking
//! MQTT; SWAMP models that hop explicitly. The broker owns a node on the
//! [`Network`]: publishers send to the broker's node, [`Broker::process`]
//! drains its inbox and forwards each publication over the network to every
//! subscriber whose pattern matches (MQTT `+`/`#` wildcard semantics),
//! honoring retained messages for late subscribers.

use std::collections::BTreeMap;

use swamp_sim::SimTime;

use crate::message::{Message, NodeId};
use crate::network::{Network, SendError};

/// Returns whether an MQTT-style `pattern` matches a concrete `topic`.
///
/// `+` matches exactly one level; `#` (only valid as the final level)
/// matches the remainder, including zero levels.
///
/// # Example
/// ```
/// use swamp_net::broker::topic_matches;
/// assert!(topic_matches("farm/+/soil", "farm/plot3/soil"));
/// assert!(topic_matches("farm/#", "farm/plot3/soil/vwc"));
/// assert!(topic_matches("farm/#", "farm"));
/// assert!(!topic_matches("farm/+", "farm/plot3/soil"));
/// ```
pub fn topic_matches(pattern: &str, topic: &str) -> bool {
    let mut p = pattern.split('/');
    let mut t = topic.split('/');
    loop {
        match (p.next(), t.next()) {
            (Some("#"), _) => return true,
            (Some("+"), Some(_)) => continue,
            (Some(pl), Some(tl)) if pl == tl => continue,
            (None, None) => return true,
            _ => return false,
        }
    }
}

/// A subscription entry.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Subscription {
    pattern: String,
    subscriber: NodeId,
}

/// Counters the broker exposes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BrokerStats {
    /// Publications processed.
    pub published: u64,
    /// Notifications forwarded to subscribers.
    pub forwarded: u64,
    /// Forwards that failed synchronously (no route / SDN deny).
    pub forward_failures: u64,
}

/// The broker state machine. It does not own the [`Network`]; callers pass
/// it into [`Broker::process`] each scheduling round.
///
/// # Example
/// ```
/// use swamp_net::broker::Broker;
/// use swamp_net::link::LinkSpec;
/// use swamp_net::message::Message;
/// use swamp_net::network::Network;
/// use swamp_sim::SimTime;
///
/// let mut net = Network::new(1);
/// net.add_node("broker");
/// net.add_node("probe");
/// net.add_node("app");
/// net.connect("probe", "broker", LinkSpec::farm_lan());
/// net.connect("app", "broker", LinkSpec::farm_lan());
///
/// let mut broker = Broker::new("broker");
/// broker.subscribe("telemetry/#", "app");
///
/// net.send(SimTime::ZERO, "probe", "broker",
///     Message::new("telemetry/soil", b"0.23".to_vec())).unwrap();
/// net.advance_to(SimTime::from_secs(1));
/// broker.process(&mut net);
/// net.advance_to(SimTime::from_secs(2));
/// assert!(net.poll(&"app".into()).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct Broker {
    node: NodeId,
    subscriptions: Vec<Subscription>,
    retained: BTreeMap<String, Vec<u8>>,
    stats: BrokerStats,
}

impl Broker {
    /// Creates a broker living at `node` (which must be registered and
    /// linked on the network by the caller).
    pub fn new(node: impl Into<NodeId>) -> Self {
        Broker {
            node: node.into(),
            subscriptions: Vec::new(),
            retained: BTreeMap::new(),
            stats: BrokerStats::default(),
        }
    }

    /// The broker's network node.
    pub fn node(&self) -> &NodeId {
        &self.node
    }

    /// Current counters.
    pub fn stats(&self) -> BrokerStats {
        self.stats
    }

    /// Number of active subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.subscriptions.len()
    }

    /// Adds a subscription. Duplicate (pattern, subscriber) pairs are
    /// collapsed.
    pub fn subscribe(&mut self, pattern: impl Into<String>, subscriber: impl Into<NodeId>) {
        let sub = Subscription {
            pattern: pattern.into(),
            subscriber: subscriber.into(),
        };
        if !self.subscriptions.contains(&sub) {
            self.subscriptions.push(sub);
        }
    }

    /// Adds a subscription and immediately delivers any retained messages
    /// matching it (MQTT retained-message semantics).
    pub fn subscribe_with_retained(
        &mut self,
        pattern: impl Into<String>,
        subscriber: impl Into<NodeId>,
        net: &mut Network,
        now: SimTime,
    ) {
        let pattern = pattern.into();
        let subscriber = subscriber.into();
        for (topic, payload) in &self.retained {
            if topic_matches(&pattern, topic) {
                let res = net.send(
                    now,
                    self.node.clone(),
                    subscriber.clone(),
                    Message::new(topic.clone(), payload.clone()),
                );
                match res {
                    Ok(_) => self.stats.forwarded += 1,
                    Err(_) => self.stats.forward_failures += 1,
                }
            }
        }
        self.subscribe(pattern, subscriber);
    }

    /// Removes all subscriptions of `subscriber` matching `pattern` exactly.
    pub fn unsubscribe(&mut self, pattern: &str, subscriber: &NodeId) {
        self.subscriptions
            .retain(|s| !(s.pattern == pattern && &s.subscriber == subscriber));
    }

    /// Marks a topic's latest payload as retained for late subscribers.
    pub fn retain(&mut self, topic: impl Into<String>, payload: Vec<u8>) {
        self.retained.insert(topic.into(), payload);
    }

    /// Drains the broker's network inbox, forwarding each publication to all
    /// matching subscribers. Returns the number of publications processed.
    pub fn process(&mut self, net: &mut Network) -> usize {
        let node = self.node.clone();
        let deliveries = net.drain(&node);
        let mut processed = 0;
        for delivery in deliveries {
            processed += 1;
            self.stats.published += 1;
            let now = delivery.delivered_at;
            for sub in &self.subscriptions {
                if sub.subscriber == delivery.src {
                    // Never echo a publication back to its publisher.
                    continue;
                }
                if topic_matches(&sub.pattern, &delivery.message.topic) {
                    let res = net.send(
                        now,
                        node.clone(),
                        sub.subscriber.clone(),
                        delivery.message.clone(),
                    );
                    match res {
                        Ok(_) => self.stats.forwarded += 1,
                        Err(SendError::Denied)
                        | Err(SendError::NoRoute(_, _))
                        | Err(SendError::UnknownNode(_)) => {
                            self.stats.forward_failures += 1;
                        }
                    }
                }
            }
        }
        processed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use swamp_sim::SimDuration;

    fn n(s: &str) -> NodeId {
        NodeId::new(s)
    }

    fn setup() -> (Network, Broker) {
        let mut net = Network::new(3);
        for id in ["broker", "probe", "app1", "app2"] {
            net.add_node(id);
        }
        let fast = LinkSpec::new(
            SimDuration::from_millis(1),
            SimDuration::ZERO,
            0.0,
            1_000_000_000,
        );
        net.connect("probe", "broker", fast);
        net.connect("app1", "broker", fast);
        net.connect("app2", "broker", fast);
        (net, Broker::new("broker"))
    }

    #[test]
    fn topic_matching_semantics() {
        assert!(topic_matches("a/b", "a/b"));
        assert!(!topic_matches("a/b", "a/c"));
        assert!(!topic_matches("a/b", "a"));
        assert!(!topic_matches("a", "a/b"));
        assert!(topic_matches("a/+/c", "a/b/c"));
        assert!(!topic_matches("a/+/c", "a/b/d"));
        assert!(!topic_matches("a/+", "a/b/c"));
        assert!(topic_matches("#", "anything/at/all"));
        assert!(topic_matches("a/#", "a"));
        assert!(topic_matches("a/#", "a/b/c/d"));
        assert!(!topic_matches("a/#", "b/a"));
        assert!(topic_matches("+/+", "x/y"));
        assert!(topic_matches("", ""));
    }

    #[test]
    fn publish_reaches_matching_subscribers() {
        let (mut net, mut broker) = setup();
        broker.subscribe("telemetry/#", "app1");
        broker.subscribe("telemetry/weather", "app2");

        net.send(
            SimTime::ZERO,
            "probe",
            "broker",
            Message::new("telemetry/soil", b"0.2".to_vec()),
        )
        .unwrap();
        net.advance_to(SimTime::from_secs(1));
        assert_eq!(broker.process(&mut net), 1);
        net.advance_to(SimTime::from_secs(2));

        assert_eq!(net.inbox_len(&n("app1")), 1);
        assert_eq!(net.inbox_len(&n("app2")), 0); // pattern doesn't match
        let d = net.poll(&n("app1")).unwrap();
        assert_eq!(d.message.topic, "telemetry/soil");
        assert_eq!(d.src, n("broker"));
    }

    #[test]
    fn no_echo_to_publisher() {
        let (mut net, mut broker) = setup();
        broker.subscribe("#", "probe");
        broker.subscribe("#", "app1");
        net.send(SimTime::ZERO, "probe", "broker", Message::new("t", vec![]))
            .unwrap();
        net.advance_to(SimTime::from_secs(1));
        broker.process(&mut net);
        net.advance_to(SimTime::from_secs(2));
        assert_eq!(net.inbox_len(&n("probe")), 0);
        assert_eq!(net.inbox_len(&n("app1")), 1);
    }

    #[test]
    fn unsubscribe_stops_delivery() {
        let (mut net, mut broker) = setup();
        broker.subscribe("t", "app1");
        broker.unsubscribe("t", &n("app1"));
        assert_eq!(broker.subscription_count(), 0);
        net.send(SimTime::ZERO, "probe", "broker", Message::new("t", vec![]))
            .unwrap();
        net.advance_to(SimTime::from_secs(1));
        broker.process(&mut net);
        net.advance_to(SimTime::from_secs(2));
        assert_eq!(net.inbox_len(&n("app1")), 0);
    }

    #[test]
    fn duplicate_subscriptions_collapse() {
        let (_, mut broker) = setup();
        broker.subscribe("t", "app1");
        broker.subscribe("t", "app1");
        assert_eq!(broker.subscription_count(), 1);
    }

    #[test]
    fn retained_messages_delivered_on_subscribe() {
        let (mut net, mut broker) = setup();
        broker.retain("status/pivot", b"running".to_vec());
        broker.retain("status/pump", b"off".to_vec());
        broker.subscribe_with_retained("status/#", "app1", &mut net, SimTime::ZERO);
        net.advance_to(SimTime::from_secs(1));
        let msgs = net.drain(&n("app1"));
        assert_eq!(msgs.len(), 2);
        let topics: Vec<_> = msgs.iter().map(|d| &*d.message.topic).collect();
        assert!(topics.contains(&"status/pivot"));
        assert!(topics.contains(&"status/pump"));
    }

    #[test]
    fn forward_failure_counted() {
        let (mut net, mut broker) = setup();
        broker.subscribe("#", "disconnected-app");
        // Node exists but has no link to broker? Add node with no link:
        net.add_node("disconnected-app");
        net.send(SimTime::ZERO, "probe", "broker", Message::new("t", vec![]))
            .unwrap();
        net.advance_to(SimTime::from_secs(1));
        broker.process(&mut net);
        assert_eq!(broker.stats().forward_failures, 1);
        assert_eq!(broker.stats().published, 1);
    }

    #[test]
    fn fan_out_counts() {
        let (mut net, mut broker) = setup();
        broker.subscribe("#", "app1");
        broker.subscribe("#", "app2");
        for _ in 0..3 {
            net.send(SimTime::ZERO, "probe", "broker", Message::new("t", vec![]))
                .unwrap();
        }
        net.advance_to(SimTime::from_secs(1));
        broker.process(&mut net);
        assert_eq!(broker.stats().published, 3);
        assert_eq!(broker.stats().forwarded, 6);
    }
}
