//! Attacker implementations for the paper's threat model.
//!
//! Every threat §III of the paper names is implemented as a programmable
//! adversary operating on the same substrates as legitimate components:
//!
//! - [`DosFlooder`] — floods a target node with traffic ("a DoS attack in
//!   the sensors, irrigation actuators or in the distribution system").
//! - [`SensorTamper`] — perturbs sensor values in flight ("changes in the
//!   values of some sensors … may cause systems or decision makers to take
//!   wrong actions").
//! - [`SybilSwarm`] — fake identities publishing fabricated NDVI/telemetry
//!   ("a drone or sensor node performing the Sybil attack could send fake
//!   images and false measurements").
//! - [`Eavesdropper`] — a passive wire tap trying to read farm data
//!   ("using eavesdropping, intruders may have access to private data …
//!   and even manipulate the commodity markets").
//! - [`ReplayAttacker`] — captures and re-injects sealed frames.
//!
//! The rogue node ("an unauthorized node in the network may send false
//! information about the crop") needs no model of its own: it is
//! `Platform::device_publish` from an unregistered id, which ingestion
//! refuses.

use swamp_codec::json::Json;
use swamp_net::message::{Message, NodeId};
use swamp_net::network::Network;
use swamp_sim::{SimDuration, SimRng, SimTime};

/// Flooding DoS attacker: sends `rate_per_sec` junk messages to a target.
#[derive(Clone, Debug)]
pub struct DosFlooder {
    /// The attacker's network node.
    pub node: NodeId,
    /// The victim node.
    pub target: NodeId,
    /// Messages per second.
    pub rate_per_sec: f64,
    /// Payload size per message, bytes.
    pub payload_bytes: usize,
}

impl DosFlooder {
    /// Creates a flooder.
    ///
    /// # Panics
    /// Panics if the rate is not positive.
    pub fn new(
        node: impl Into<NodeId>,
        target: impl Into<NodeId>,
        rate_per_sec: f64,
        payload_bytes: usize,
    ) -> Self {
        assert!(rate_per_sec > 0.0);
        DosFlooder {
            node: node.into(),
            target: target.into(),
            rate_per_sec,
            payload_bytes,
        }
    }

    /// Emits the flood for the window `[from, to)`. The network counts
    /// what it was offered (`net.offered`) and what its SDN flow table
    /// blocked (`net.sdn_dropped`).
    pub fn flood_window(&self, net: &mut Network, from: SimTime, to: SimTime) {
        let interval = SimDuration::from_secs_f64(1.0 / self.rate_per_sec)
            .as_millis()
            .max(1);
        let mut t = from;
        while t < to {
            let msg = Message::new("flood/junk", vec![0xAA; self.payload_bytes]);
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a flooder ignores refusals; the network counts them"
            )]
            let _ = net.send(t, self.node.clone(), self.target.clone(), msg);
            t += SimDuration::from_millis(interval);
        }
    }
}

/// How a tamper attacker distorts a sensor value. (The stealthy drift
/// attack is `swamp-workload`'s `AttackOverlay::TamperDrift`.)
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TamperMode {
    /// Add a constant offset.
    Offset(f64),
}

/// In-path sensor-value tampering (compromised device or gateway MITM).
#[derive(Clone, Debug)]
pub struct SensorTamper {
    mode: TamperMode,
}

impl SensorTamper {
    /// Creates a tamperer.
    pub fn new(mode: TamperMode) -> Self {
        SensorTamper { mode }
    }

    /// Applies the distortion to one value.
    pub fn distort(&self, value: f64) -> f64 {
        match self.mode {
            TamperMode::Offset(o) => value + o,
        }
    }
}

/// Sybil attacker: a swarm of fabricated identities reporting fake values.
#[derive(Clone, Debug)]
pub struct SybilSwarm {
    /// Fabricated device identities.
    pub identities: Vec<String>,
    /// The fake value the swarm colludes on (e.g. inflated NDVI).
    pub fake_value: f64,
    /// Per-identity noise so the collusion is not byte-identical.
    pub noise_sd: f64,
}

impl SybilSwarm {
    /// Creates a swarm of `count` identities colluding on `fake_value`.
    pub fn new(prefix: &str, count: usize, fake_value: f64, noise_sd: f64) -> Self {
        SybilSwarm {
            identities: (0..count).map(|i| format!("{prefix}-sybil-{i}")).collect(),
            fake_value,
            noise_sd,
        }
    }

    /// Produces one round of fake per-identity reports.
    pub fn fabricate_reports(&self, rng: &mut SimRng) -> Vec<(String, f64)> {
        self.identities
            .iter()
            .map(|id| {
                (
                    id.clone(),
                    self.fake_value + rng.normal_with(0.0, self.noise_sd),
                )
            })
            .collect()
    }
}

/// What the eavesdropper recovered from a captured transmission.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Interception {
    /// Payload parsed as JSON: full information leak.
    Plaintext(String),
    /// Payload unintelligible (encrypted or binary).
    Opaque {
        /// Bytes observed.
        len: usize,
    },
}

/// Passive eavesdropper over a network tap: tries to read each captured
/// payload as plaintext JSON (the paper's market-manipulation scenario).
#[derive(Clone, Debug, Default)]
pub struct Eavesdropper {
    intercepted: Vec<Interception>,
}

impl Eavesdropper {
    /// Creates an eavesdropper with an empty capture log.
    pub fn new() -> Self {
        Eavesdropper::default()
    }

    /// Processes captured payloads (from `Network::tap_captures`).
    pub fn process<'a>(&mut self, payloads: impl IntoIterator<Item = &'a [u8]>) {
        for p in payloads {
            match std::str::from_utf8(p)
                .ok()
                .and_then(|s| Json::parse(s).ok())
            {
                Some(json) => self
                    .intercepted
                    .push(Interception::Plaintext(json.to_compact_string())),
                None => self.intercepted.push(Interception::Opaque { len: p.len() }),
            }
        }
    }

    /// Everything intercepted so far.
    pub fn intercepted(&self) -> &[Interception] {
        &self.intercepted
    }

    /// Fraction of captures that leaked plaintext, `[0,1]`.
    pub fn leak_fraction(&self) -> f64 {
        if self.intercepted.is_empty() {
            return 0.0;
        }
        let leaks = self
            .intercepted
            .iter()
            .filter(|i| matches!(i, Interception::Plaintext(_)))
            .count();
        leaks as f64 / self.intercepted.len() as f64
    }
}

/// Replay attacker: captures sealed frames and re-injects them later.
#[derive(Clone, Debug, Default)]
pub struct ReplayAttacker {
    captured: Vec<Vec<u8>>,
}

impl ReplayAttacker {
    /// Creates an attacker with an empty capture buffer.
    pub fn new() -> Self {
        ReplayAttacker::default()
    }

    /// Captures a frame seen on the wire.
    pub fn capture(&mut self, frame: &[u8]) {
        self.captured.push(frame.to_vec());
    }

    /// Number of captured frames.
    pub fn captured_count(&self) -> usize {
        self.captured.len()
    }

    /// Re-injects every captured frame to the target via the attacker node.
    /// Returns how many entered the network.
    pub fn replay_all(
        &self,
        net: &mut Network,
        now: SimTime,
        from: &NodeId,
        target: &NodeId,
        topic: &str,
    ) -> usize {
        let mut injected = 0;
        for frame in &self.captured {
            if net
                .send(
                    now,
                    from.clone(),
                    target.clone(),
                    Message::new(topic.to_owned(), frame.clone()),
                )
                .is_ok()
            {
                injected += 1;
            }
        }
        injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use swamp_net::link::LinkSpec;
    use swamp_net::sdn::{FlowAction, FlowMatch};

    fn net_with(nodes: &[&str]) -> Network {
        let mut net = Network::new(5);
        for n in nodes {
            net.add_node(*n);
        }
        for w in nodes.windows(2) {
            net.connect(w[0], w[1], LinkSpec::farm_lan());
        }
        net
    }

    #[test]
    fn flooder_saturates_then_sdn_blocks() {
        let mut net = net_with(&["attacker", "broker"]);
        let dos = DosFlooder::new("attacker", "broker", 100.0, 64);
        let counts = |net: &Network| {
            let snap = net.observe();
            let count = |name| snap.counter(name).unwrap();
            (count("net.offered"), count("net.sdn_dropped"))
        };
        dos.flood_window(&mut net, SimTime::ZERO, SimTime::from_secs(2));
        assert_eq!(counts(&net), (200, 0));

        // Controller installs a deny rule: the rest of the flood is blocked.
        net.flow_table_mut()
            .install(10, FlowMatch::from_src("attacker"), FlowAction::Deny);
        dos.flood_window(&mut net, SimTime::from_secs(2), SimTime::from_secs(3));
        assert_eq!(counts(&net), (300, 100));
    }

    #[test]
    fn tamper_modes() {
        assert_eq!(
            SensorTamper::new(TamperMode::Offset(0.1)).distort(0.2),
            0.30000000000000004
        );
    }

    #[test]
    fn sybil_swarm_colludes() {
        let swarm = SybilSwarm::new("drone", 20, 0.9, 0.01);
        assert_eq!(swarm.identities.len(), 20);
        let mut rng = SimRng::seed_from(1);
        let reports = swarm.fabricate_reports(&mut rng);
        assert_eq!(reports.len(), 20);
        let mean: f64 = reports.iter().map(|(_, v)| v).sum::<f64>() / 20.0;
        assert!((mean - 0.9).abs() < 0.02);
        // Distinct identities.
        let unique: std::collections::BTreeSet<_> = reports.iter().map(|(id, _)| id).collect();
        assert_eq!(unique.len(), 20);
    }

    #[test]
    fn eavesdropper_reads_plaintext_not_ciphertext() {
        let mut eve = Eavesdropper::new();
        let plain = br#"{"yield_t_ha": 3.4, "farm": "guaspari"}"#;
        let sealed = swamp_crypto::SecretKey::derive(b"k", "link").seal(&[0u8; 12], b"", plain);
        eve.process([plain.as_slice(), sealed.as_slice()]);
        assert_eq!(eve.intercepted().len(), 2);
        assert!(matches!(eve.intercepted()[0], Interception::Plaintext(_)));
        assert!(matches!(eve.intercepted()[1], Interception::Opaque { .. }));
        assert!((eve.leak_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn eavesdropper_empty_leaks_nothing() {
        let eve = Eavesdropper::new();
        assert_eq!(eve.leak_fraction(), 0.0);
    }

    #[test]
    fn replay_attacker_reinjects() {
        let mut net = net_with(&["attacker", "gateway"]);
        let mut replay = ReplayAttacker::new();
        replay.capture(b"sealed-frame-1");
        replay.capture(b"sealed-frame-2");
        assert_eq!(replay.captured_count(), 2);
        let injected = replay.replay_all(
            &mut net,
            SimTime::ZERO,
            &"attacker".into(),
            &"gateway".into(),
            "telemetry/probe-1",
        );
        assert_eq!(injected, 2);
        net.advance_to(SimTime::from_secs(1));
        assert_eq!(net.drain(&"gateway".into()).len(), 2);
    }
}
