//! The discrete-event network: nodes, directed links, in-flight messages,
//! inboxes, SDN classification and wire taps.
//!
//! All SWAMP traffic — telemetry, broker notifications, fog/cloud sync,
//! attacker floods — flows through one [`Network`] instance, so the SDN
//! flow table really does see everything (the "centralized view" of the
//! paper) and an eavesdropping tap really does see exactly what crossed a
//! link.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use swamp_obs::{Counter, Hist, Level, Obs, ObsSnapshot, Span};
use swamp_sim::{EventQueue, SimDuration, SimRng, SimTime};

use crate::fault::{FaultOutcome, FaultPlan};
use crate::link::{Link, LinkSpec, TxOutcome};
use crate::message::{Delivery, Message, MsgId, NodeId};
use crate::sdn::{FlowTable, Verdict};

/// Identifier of an installed wire tap.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TapId(usize);

/// Why a send was refused synchronously.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SendError {
    /// Source or destination node is not registered.
    UnknownNode(NodeId),
    /// No link connects source to destination.
    NoRoute(NodeId, NodeId),
    /// The SDN flow table dropped the packet.
    Denied,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::UnknownNode(n) => write!(f, "unknown node {n}"),
            SendError::NoRoute(a, b) => write!(f, "no route {a} -> {b}"),
            SendError::Denied => f.write_str("denied by flow table"),
        }
    }
}
impl std::error::Error for SendError {}

/// The simulated network fabric.
///
/// # Example
/// ```
/// use swamp_net::network::Network;
/// use swamp_net::link::LinkSpec;
/// use swamp_net::message::Message;
/// use swamp_sim::SimTime;
///
/// let mut net = Network::new(42);
/// net.add_node("probe");
/// net.add_node("gateway");
/// net.connect("probe", "gateway", LinkSpec::farm_lan());
///
/// net.send(SimTime::ZERO, "probe", "gateway", Message::new("t/soil", b"m".to_vec()))
///     .unwrap();
/// net.advance_to(SimTime::from_secs(1));
/// let inbox = net.drain(&"gateway".into());
/// assert_eq!(inbox[0].message.topic, "t/soil");
/// ```
pub struct Network {
    /// Registered nodes and their index (registration order), the compact
    /// name links are keyed by.
    nodes: BTreeMap<NodeId, usize>,
    /// Directed links by `(source, destination)` node index: a send finds
    /// its link with the two lookups that check its endpoints, and builds
    /// no owned `(NodeId, NodeId)` key.
    links: BTreeMap<(usize, usize), Link>,
    queue: EventQueue<Delivery>,
    /// The latest horizon [`Network::advance_to`] was called with.
    clock: SimTime,
    inboxes: BTreeMap<NodeId, VecDeque<Delivery>>,
    taps: Vec<((NodeId, NodeId), Vec<Delivery>)>,
    flow_table: FlowTable,
    fault_plan: Option<FaultPlan>,
    rng: SimRng,
    obs: Obs,
    ins: NetInstruments,
    /// Directed links currently observed inside a partition window, for
    /// partition start/end event edges.
    partitioned: BTreeSet<(NodeId, NodeId)>,
    next_id: u64,
}

/// Pre-registered typed handles for the network's instruments: every
/// hot-path update in [`Network::send`]/[`Network::advance_to`] is an
/// indexed add, never a string lookup.
struct NetInstruments {
    offered: Counter,
    sdn_dropped: Counter,
    fault_partitioned: Counter,
    fault_dropped: Counter,
    fault_duplicated: Counter,
    lost: Counter,
    sent: Counter,
    delivered: Counter,
    latency_ms: Hist,
    send_span: Span,
}

impl NetInstruments {
    fn register(obs: &mut Obs) -> NetInstruments {
        NetInstruments {
            offered: obs.counter("net.offered"),
            sdn_dropped: obs.counter("net.sdn_dropped"),
            fault_partitioned: obs.counter("net.fault.partitioned"),
            fault_dropped: obs.counter("net.fault.dropped"),
            fault_duplicated: obs.counter("net.fault.duplicated"),
            lost: obs.counter("net.lost"),
            sent: obs.counter("net.sent"),
            delivered: obs.counter("net.delivered"),
            latency_ms: obs.hist("net.latency_ms", 0.0, 10_000.0, 100),
            send_span: obs.span("net.send"),
        }
    }
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("nodes", &self.nodes.len())
            .field("links", &self.links.len())
            .field("in_flight", &self.queue.len())
            .finish()
    }
}

impl Network {
    /// Creates an empty network with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        let mut obs = Obs::new();
        let ins = NetInstruments::register(&mut obs);
        Network {
            nodes: BTreeMap::new(),
            links: BTreeMap::new(),
            queue: EventQueue::new(),
            clock: SimTime::ZERO,
            inboxes: BTreeMap::new(),
            taps: Vec::new(),
            flow_table: FlowTable::new(),
            fault_plan: None,
            rng: SimRng::seed_from(seed ^ 0x6e65745f73696d), // "net_sim"
            obs,
            ins,
            partitioned: BTreeSet::new(),
            next_id: 0,
        }
    }

    /// Registers a node. Idempotent.
    pub fn add_node(&mut self, id: impl Into<NodeId>) -> NodeId {
        let id = id.into();
        let next = self.nodes.len();
        self.nodes.entry(id.clone()).or_insert(next);
        self.inboxes.entry(id.clone()).or_default();
        id
    }

    /// Connects two nodes bidirectionally with the same spec.
    ///
    /// # Panics
    /// Panics if either node is unregistered.
    pub fn connect(&mut self, a: impl Into<NodeId>, b: impl Into<NodeId>, spec: LinkSpec) {
        let a = a.into();
        let b = b.into();
        self.connect_directed(a.clone(), b.clone(), spec);
        self.connect_directed(b, a, spec);
    }

    /// Installs a directed link `a → b`.
    ///
    /// # Panics
    /// Panics if either node is unregistered.
    pub fn connect_directed(&mut self, a: impl Into<NodeId>, b: impl Into<NodeId>, spec: LinkSpec) {
        let a = a.into();
        let b = b.into();
        assert!(self.nodes.contains_key(&a), "unknown node {a}");
        assert!(self.nodes.contains_key(&b), "unknown node {b}");
        if let Some(key) = self.link_key(&a, &b) {
            self.links.insert(key, Link::new(spec));
        }
    }

    /// The link-table key of `a → b`, if both nodes are registered.
    fn link_key(&self, a: &NodeId, b: &NodeId) -> Option<(usize, usize)> {
        Some((*self.nodes.get(a)?, *self.nodes.get(b)?))
    }

    /// Installs a fault plan; every subsequent [`Network::send`] consults
    /// it. Replaces any previously installed plan.
    pub fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = Some(plan);
    }

    /// Read access to the installed fault plan.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Mutable access to the SDN flow table (the controller's handle).
    pub fn flow_table_mut(&mut self) -> &mut FlowTable {
        &mut self.flow_table
    }

    /// Installs a passive tap on the directed link `a → b`. The tap captures
    /// every transmission *offered* to the link (an eavesdropper by the
    /// fence hears the radio whether or not the gateway decodes it).
    pub fn add_tap(&mut self, a: impl Into<NodeId>, b: impl Into<NodeId>) -> TapId {
        let id = TapId(self.taps.len());
        self.taps.push(((a.into(), b.into()), Vec::new()));
        id
    }

    /// Everything a tap has captured so far.
    pub fn tap_captures(&self, tap: TapId) -> &[Delivery] {
        &self.taps[tap.0].1
    }

    /// Offers a message for transmission at virtual time `now`.
    ///
    /// `now` must be at or after the time of the last processed delivery.
    /// Returns the message id if the packet entered the network — which
    /// still does not guarantee delivery (loss, partitions).
    ///
    /// # Errors
    /// [`SendError`] if a node is unknown, there is no link, or the SDN
    /// table denies the packet.
    ///
    /// # Panics
    /// Panics if `now` is before the last processed delivery.
    pub fn send(
        &mut self,
        now: SimTime,
        src: impl Into<NodeId>,
        dst: impl Into<NodeId>,
        message: Message,
    ) -> Result<MsgId, SendError> {
        let token = self.obs.enter(self.ins.send_span);
        let result = self.send_inner(now, src.into(), dst.into(), message);
        self.obs.exit(token);
        result
    }

    fn send_inner(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        message: Message,
    ) -> Result<MsgId, SendError> {
        let Some(&from) = self.nodes.get(&src) else {
            return Err(SendError::UnknownNode(src));
        };
        let Some(&to) = self.nodes.get(&dst) else {
            return Err(SendError::UnknownNode(dst));
        };
        let size = message.wire_size();
        self.obs.inc(self.ins.offered);

        let verdict = self
            .flow_table
            .classify(now, &src, &dst, &message.topic, size);
        if let Verdict::Drop(_) = verdict {
            self.obs.inc(self.ins.sdn_dropped);
            return Err(SendError::Denied);
        }

        if !self.links.contains_key(&(from, to)) {
            return Err(SendError::NoRoute(src, dst));
        }

        let id = MsgId(self.next_id);
        self.next_id += 1;

        // Taps see the transmission regardless of its fate.
        for ((ta, tb), captured) in &mut self.taps {
            if *ta == src && *tb == dst {
                captured.push(Delivery {
                    id,
                    src: src.clone(),
                    dst: dst.clone(),
                    message: message.clone(),
                    sent_at: now,
                    delivered_at: now,
                });
            }
        }

        // Fault injection: the plan rules first (partitions are absolute;
        // injected loss is on top of the link's own loss process), then the
        // link model decides the fate of whatever the plan let through.
        // Without a plan there is one copy and no extra delay.
        let planned_delays = match &mut self.fault_plan {
            Some(plan) => match plan.sample(now, &src, &dst) {
                FaultOutcome::Partitioned => {
                    self.obs.inc(self.ins.fault_partitioned);
                    self.obs.inc(self.ins.lost);
                    if self.partitioned.insert((src.clone(), dst.clone())) {
                        self.obs.event(
                            Level::Warn,
                            "net.partition.start",
                            &format!("{src}->{dst}"),
                        );
                    }
                    return Ok(id);
                }
                FaultOutcome::Dropped => {
                    self.obs.inc(self.ins.fault_dropped);
                    self.obs.inc(self.ins.lost);
                    self.note_partition_healed(&src, &dst);
                    return Ok(id);
                }
                FaultOutcome::Deliver(delays) => {
                    self.note_partition_healed(&src, &dst);
                    delays
                }
            },
            None => Vec::new(),
        };
        let extra_delays: &[SimDuration] = if planned_delays.is_empty() {
            &[SimDuration::ZERO]
        } else {
            &planned_delays
        };

        // Re-borrow the link (checked before fault sampling; the fault arm
        // above needed `&mut self`, so the borrow could not be held across).
        let Some(link) = self.links.get(&(from, to)) else {
            return Err(SendError::NoRoute(src, dst));
        };
        match link.offer(size, &mut self.rng) {
            TxOutcome::Lost => {
                self.obs.inc(self.ins.lost);
                Ok(id)
            }
            TxOutcome::Delivered(delay) => {
                self.obs.inc(self.ins.sent);
                self.obs.record(
                    self.ins.latency_ms,
                    (delay + extra_delays[0]).as_millis() as f64,
                );
                // One scheduled copy per fault-plan delay entry: the first is
                // the primary copy, the rest are injected wire duplicates
                // (same MsgId — they are echoes of one transmission). The
                // message moves into the last copy scheduled, so the usual
                // single copy is never cloned and each echo costs one clone.
                let mut message = Some(message);
                let last = extra_delays.len() - 1;
                for (i, extra) in extra_delays.iter().enumerate() {
                    if i > 0 {
                        self.obs.inc(self.ins.fault_duplicated);
                    }
                    let copy = if i == last {
                        message.take()
                    } else {
                        message.clone()
                    };
                    let Some(message) = copy else { break };
                    let total = delay + *extra;
                    self.queue.schedule(
                        now + total,
                        Delivery {
                            id,
                            src: src.clone(),
                            dst: dst.clone(),
                            message,
                            sent_at: now,
                            delivered_at: now + total,
                        },
                    );
                }
                Ok(id)
            }
        }
    }

    /// Marks a (src → dst) link healed if it was inside a partition window,
    /// emitting the partition-end event edge.
    fn note_partition_healed(&mut self, src: &NodeId, dst: &NodeId) {
        if self.partitioned.remove(&(src.clone(), dst.clone())) {
            self.obs
                .event(Level::Info, "net.partition.end", &format!("{src}->{dst}"));
        }
    }

    /// Processes all deliveries up to and including `horizon`, moving them
    /// into the destination inboxes, and moves the clock to `horizon`.
    pub fn advance_to(&mut self, horizon: SimTime) {
        self.clock = self.clock.max(horizon);
        while let Some((_, delivery)) = self.queue.pop_until(horizon) {
            self.obs.inc(self.ins.delivered);
            // `send` admits only registered destinations and `add_node`
            // gives each an inbox, so the lookup cannot miss.
            if let Some(inbox) = self.inboxes.get_mut(&delivery.dst) {
                inbox.push_back(delivery);
            }
        }
    }

    /// Drains every delivered message for a node.
    pub fn drain(&mut self, node: &NodeId) -> Vec<Delivery> {
        let mut out = Vec::new();
        self.drain_into(node, &mut out);
        out
    }

    /// Drains every delivered message for a node onto the end of `out` —
    /// for callers that drain every pump and keep one buffer warm, so an
    /// inbox a window deep costs no fresh window-sized allocation.
    pub fn drain_into(&mut self, node: &NodeId, out: &mut Vec<Delivery>) {
        if let Some(q) = self.inboxes.get_mut(node) {
            out.extend(q.drain(..));
        }
    }

    /// Messages currently in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }

    /// The network clock: the latest horizon [`Network::advance_to`]
    /// processed deliveries up to.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Typed snapshot of the network's instruments (`net.offered`,
    /// `net.sent`, `net.lost`, `net.delivered`, `net.sdn_dropped`,
    /// `net.fault.*` counters, the `net.latency_ms` histogram, the
    /// `net.send` span and `net.partition.*` events).
    pub fn observe(&self) -> ObsSnapshot {
        self.obs.snapshot()
    }

    /// Enables or disables instrumentation (disabled = uninstrumented
    /// baseline for overhead benchmarks). Handles stay valid; updates
    /// become no-ops.
    pub fn set_obs_enabled(&mut self, enabled: bool) {
        self.obs.set_enabled(enabled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sdn::{FlowAction, FlowMatch};
    use swamp_sim::SimDuration;

    fn n(s: &str) -> NodeId {
        NodeId::new(s)
    }

    fn lossless() -> LinkSpec {
        LinkSpec::new(
            SimDuration::from_millis(10),
            SimDuration::ZERO,
            0.0,
            1_000_000,
        )
    }

    fn basic_net() -> Network {
        let mut net = Network::new(1);
        net.add_node("a");
        net.add_node("b");
        net.connect("a", "b", lossless());
        net
    }

    #[test]
    fn send_and_deliver() {
        let mut net = basic_net();
        let id = net
            .send(
                SimTime::ZERO,
                "a",
                "b",
                Message::new("t", b"hello".to_vec()),
            )
            .unwrap();
        assert_eq!(net.in_flight(), 1);
        net.advance_to(SimTime::from_secs(1));
        let inbox = net.drain(&n("b"));
        assert_eq!(inbox.len(), 1);
        let d = &inbox[0];
        assert_eq!(d.id, id);
        assert_eq!(d.message.payload, b"hello");
        assert!(
            d.delivered_at.saturating_duration_since(d.sent_at) >= SimDuration::from_millis(10)
        );
        assert!(net.drain(&n("b")).is_empty());
    }

    #[test]
    fn horizon_respected() {
        let mut net = basic_net();
        net.send(SimTime::ZERO, "a", "b", Message::new("t", vec![]))
            .unwrap();
        net.advance_to(SimTime::from_millis(5)); // before the 10ms latency
        assert!(net.drain(&n("b")).is_empty());
        net.advance_to(SimTime::from_millis(50));
        assert_eq!(net.drain(&n("b")).len(), 1);
        // The clock is the horizon, not the last delivery's time.
        assert_eq!(net.now(), SimTime::from_millis(50));
    }

    #[test]
    fn unknown_node_and_no_route() {
        let mut net = basic_net();
        net.add_node("island");
        assert!(matches!(
            net.send(SimTime::ZERO, "ghost", "b", Message::new("t", vec![])),
            Err(SendError::UnknownNode(_))
        ));
        assert!(matches!(
            net.send(SimTime::ZERO, "a", "island", Message::new("t", vec![])),
            Err(SendError::NoRoute(_, _))
        ));
    }

    #[test]
    fn bidirectional_connect() {
        let mut net = basic_net();
        net.send(SimTime::ZERO, "b", "a", Message::new("t", vec![]))
            .unwrap();
        net.advance_to(SimTime::from_secs(1));
        assert_eq!(net.drain(&n("a")).len(), 1);
    }

    #[test]
    fn sdn_denies_attacker() {
        let mut net = basic_net();
        net.flow_table_mut()
            .install(10, FlowMatch::from_src("a"), FlowAction::Deny);
        assert_eq!(
            net.send(SimTime::ZERO, "a", "b", Message::new("t", vec![])),
            Err(SendError::Denied)
        );
        assert_eq!(net.observe().counter("net.sdn_dropped").unwrap(), 1);
    }

    #[test]
    fn tap_captures_transmissions() {
        let mut net = basic_net();
        let tap = net.add_tap("a", "b");
        net.send(
            SimTime::ZERO,
            "a",
            "b",
            Message::new("secret", b"yield=9t".to_vec()),
        )
        .unwrap();
        // Reverse direction is not captured by this tap.
        net.send(SimTime::ZERO, "b", "a", Message::new("other", vec![]))
            .unwrap();
        let captured = net.tap_captures(tap);
        assert_eq!(captured.len(), 1);
        assert_eq!(captured[0].message.topic, "secret");
        assert_eq!(captured[0].message.payload, b"yield=9t");
    }

    #[test]
    fn fifo_delivery_per_link() {
        let mut net = basic_net();
        for i in 0..10u8 {
            net.send(SimTime::ZERO, "a", "b", Message::new("t", vec![i]))
                .unwrap();
        }
        net.advance_to(SimTime::from_secs(1));
        let payloads: Vec<u8> = net
            .drain(&n("b"))
            .iter()
            .map(|d| d.message.payload[0])
            .collect();
        assert_eq!(payloads, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn metrics_track_traffic() {
        let mut net = basic_net();
        for _ in 0..5 {
            net.send(SimTime::ZERO, "a", "b", Message::new("t", vec![]))
                .unwrap();
        }
        net.advance_to(SimTime::from_secs(1));
        let snap = net.observe();
        assert_eq!(snap.counter("net.offered").unwrap(), 5);
        assert_eq!(snap.counter("net.sent").unwrap(), 5);
        assert_eq!(snap.counter("net.delivered").unwrap(), 5);
        assert_eq!(snap.summary("net.latency_ms").unwrap().stats.count(), 5);
        // Every send is one span entry/exit.
        assert_eq!(snap.span("net.send").unwrap().count, 5);
    }

    #[test]
    fn unknown_instrument_name_is_an_error() {
        let net = basic_net();
        assert!(net.observe().counter("net.typo").is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut net = Network::new(seed);
            net.add_node("a");
            net.add_node("b");
            net.connect(
                "a",
                "b",
                LinkSpec::new(
                    SimDuration::from_millis(10),
                    SimDuration::from_millis(50),
                    0.3,
                    10_000,
                ),
            );
            for _ in 0..100 {
                net.send(SimTime::ZERO, "a", "b", Message::new("t", vec![0; 32]))
                    .unwrap();
            }
            net.advance_to(SimTime::from_secs(60));
            let snap = net.observe();
            (
                snap.counter("net.delivered").unwrap(),
                snap.summary("net.latency_ms").unwrap().stats.mean(),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn fault_plan_partition_loses_messages_then_heals() {
        use crate::fault::FaultPlan;
        let mut net = basic_net();
        let mut plan = FaultPlan::new(1);
        plan.add_partition("a", "b", SimTime::ZERO, SimTime::from_secs(10))
            .unwrap();
        net.install_fault_plan(plan);

        net.send(SimTime::ZERO, "a", "b", Message::new("t", vec![]))
            .unwrap();
        net.advance_to(SimTime::from_secs(5));
        assert!(net.drain(&n("b")).is_empty());
        assert_eq!(net.observe().counter("net.fault.partitioned").unwrap(), 1);

        // After the window closes the same link delivers again.
        net.send(SimTime::from_secs(10), "a", "b", Message::new("t", vec![]))
            .unwrap();
        net.advance_to(SimTime::from_secs(20));
        assert_eq!(net.drain(&n("b")).len(), 1);

        // The partition window shows up as a start/end event pair.
        let snap = net.observe();
        let codes: Vec<&str> = snap.events().iter().map(|e| e.code.as_str()).collect();
        assert_eq!(codes, ["net.partition.start", "net.partition.end"]);
        assert_eq!(snap.events()[0].detail, "a->b");
    }

    #[test]
    fn fault_plan_injects_drops_and_duplicates() {
        use crate::fault::{FaultPlan, FaultSpec};
        let mut net = basic_net();
        let mut plan = FaultPlan::new(2);
        plan.set_link_faults(
            "a",
            "b",
            FaultSpec {
                drop_prob: 0.5,
                duplicate_prob: 0.5,
                ..FaultSpec::default()
            },
        )
        .unwrap();
        net.install_fault_plan(plan);

        for i in 0..400u64 {
            let id = net
                .send(
                    SimTime::ZERO,
                    "a",
                    "b",
                    Message::new("t", i.to_be_bytes().to_vec()),
                )
                .unwrap();
            assert_eq!(id, MsgId(i));
        }
        net.advance_to(SimTime::from_secs(30));
        let snap = net.observe();
        let dropped = snap.counter("net.fault.dropped").unwrap();
        let duplicated = snap.counter("net.fault.duplicated").unwrap();
        assert!((130..270).contains(&dropped), "dropped {dropped}");
        assert!(duplicated > 50, "duplicated {duplicated}");
        // Every injected duplicate is one extra delivery on the same MsgId.
        assert_eq!(
            net.observe().counter("net.delivered").unwrap(),
            400 - dropped + duplicated
        );
        // The primary copy and its echo both carry the message sent: the
        // original moves into one of them, the other is a clone.
        let delivered = net.drain(&n("b"));
        assert_eq!(delivered.len() as u64, 400 - dropped + duplicated);
        for d in delivered {
            assert_eq!(d.message.topic, "t");
            assert_eq!(d.message.payload, d.id.0.to_be_bytes());
        }
    }

    #[test]
    fn fault_plan_extra_delay_inflates_latency() {
        use crate::fault::{FaultPlan, FaultSpec};
        let mut net = basic_net();
        let mut plan = FaultPlan::new(3);
        plan.set_link_faults(
            "a",
            "b",
            FaultSpec {
                extra_delay: SimDuration::from_secs(2),
                ..FaultSpec::default()
            },
        )
        .unwrap();
        net.install_fault_plan(plan);
        net.send(SimTime::ZERO, "a", "b", Message::new("t", vec![]))
            .unwrap();
        net.advance_to(SimTime::from_secs(10));
        let inbox = net.drain(&n("b"));
        assert!(inbox[0].delivered_at >= SimTime::from_secs(2));
        assert_eq!(net.observe().counter("net.fault.dropped").unwrap(), 0);
    }

    #[test]
    fn drain_unknown_node_empty() {
        let mut net = basic_net();
        assert!(net.drain(&n("ghost")).is_empty());
    }

    #[test]
    fn drain_into_appends_in_order_and_keeps_the_buffer() {
        let mut net = basic_net();
        let mut out = Vec::new();
        for round in 0..2u8 {
            for i in 0..4u8 {
                net.send(net.now(), "a", "b", Message::new("t", vec![round, i]))
                    .unwrap();
            }
            net.advance_to(net.now() + SimDuration::from_secs(1));
            net.drain_into(&n("b"), &mut out);
            assert!(net.drain(&n("b")).is_empty());
        }
        let payloads: Vec<&[u8]> = out.iter().map(|d| &d.message.payload[..]).collect();
        let expected = [
            [0, 0],
            [0, 1],
            [0, 2],
            [0, 3],
            [1, 0],
            [1, 1],
            [1, 2],
            [1, 3],
        ];
        assert_eq!(payloads, expected);
        net.drain_into(&n("ghost"), &mut out);
        assert_eq!(out.len(), 8);
    }
}
