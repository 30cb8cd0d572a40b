//! Point-to-point link models: latency, jitter, loss and bandwidth.
//!
//! Rural agricultural connectivity — the paper's "communication constraints
//! in rural areas" — is modeled as explicit per-link parameters. Pilots
//! compose links such as `LinkSpec::lpwan_field()` (slow, lossy, shared) for
//! the sensor backhaul and `LinkSpec::rural_internet()` for the farm-to-cloud
//! uplink that fog computing must tolerate losing.

use swamp_sim::{SimDuration, SimRng};

/// Static description of one directed link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkSpec {
    /// Fixed propagation + processing delay.
    pub base_latency: SimDuration,
    /// Extra random delay, exponentially distributed with this mean.
    pub jitter_mean: SimDuration,
    /// Independent per-message loss probability in `[0,1]`.
    pub loss_prob: f64,
    /// Serialization bandwidth in bits per second.
    pub bandwidth_bps: u64,
}

impl LinkSpec {
    /// Validates and creates a spec.
    ///
    /// # Panics
    /// Panics if `loss_prob` is outside `[0,1]` or bandwidth is zero.
    pub fn new(
        base_latency: SimDuration,
        jitter_mean: SimDuration,
        loss_prob: f64,
        bandwidth_bps: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&loss_prob),
            "loss probability {loss_prob} outside [0,1]"
        );
        assert!(bandwidth_bps > 0, "bandwidth must be positive");
        LinkSpec {
            base_latency,
            jitter_mean,
            loss_prob,
            bandwidth_bps,
        }
    }

    /// A LoRa-class field link: seconds of latency, kbps bandwidth, real loss.
    pub fn lpwan_field() -> Self {
        LinkSpec::new(
            SimDuration::from_millis(300),
            SimDuration::from_millis(200),
            0.02,
            5_000, // ~SF9 LoRa effective throughput
        )
    }

    /// A rural DSL/4G uplink from farm to cloud.
    pub fn rural_internet() -> Self {
        LinkSpec::new(
            SimDuration::from_millis(60),
            SimDuration::from_millis(20),
            0.005,
            2_000_000,
        )
    }

    /// A local farm LAN (fog node to gateways).
    pub fn farm_lan() -> Self {
        LinkSpec::new(
            SimDuration::from_millis(2),
            SimDuration::from_millis(1),
            0.0001,
            100_000_000,
        )
    }

    /// A datacenter-grade cloud-internal link.
    pub fn cloud_backbone() -> Self {
        LinkSpec::new(
            SimDuration::from_millis(1),
            SimDuration::ZERO,
            0.0,
            1_000_000_000,
        )
    }

    /// Serialization delay for a message of `bytes` bytes.
    pub fn serialization_delay(&self, bytes: usize) -> SimDuration {
        let secs = (bytes as f64 * 8.0) / self.bandwidth_bps as f64;
        SimDuration::from_secs_f64(secs)
    }
}

/// The outcome of offering one message to a link.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TxOutcome {
    /// Delivered after the contained one-way delay.
    Delivered(SimDuration),
    /// Dropped by the loss process.
    Lost,
}

/// Runtime state of a directed link. A link never goes down by itself:
/// outages are partition windows of the network's
/// [`FaultPlan`](crate::fault::FaultPlan).
#[derive(Clone, Debug)]
pub struct Link {
    spec: LinkSpec,
}

impl Link {
    /// Creates a link from a spec.
    pub fn new(spec: LinkSpec) -> Self {
        Link { spec }
    }

    /// Samples the fate of one `bytes`-sized message.
    ///
    /// The message is lost with the spec's probability, or delivered after
    /// base latency + exponential jitter + serialization delay.
    pub fn offer(&self, bytes: usize, rng: &mut SimRng) -> TxOutcome {
        if self.spec.loss_prob > 0.0 && rng.chance(self.spec.loss_prob) {
            return TxOutcome::Lost;
        }
        let mut delay = self.spec.base_latency + self.spec.serialization_delay(bytes);
        if !self.spec.jitter_mean.is_zero() {
            let jitter_secs = rng.exponential(1.0 / self.spec.jitter_mean.as_secs_f64());
            delay += SimDuration::from_secs_f64(jitter_secs);
        }
        TxOutcome::Delivered(delay)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_delay_scales_with_size() {
        let spec = LinkSpec::new(SimDuration::ZERO, SimDuration::ZERO, 0.0, 8_000);
        assert_eq!(spec.serialization_delay(1_000).as_secs(), 1);
        assert_eq!(spec.serialization_delay(0), SimDuration::ZERO);
    }

    #[test]
    fn lossless_link_always_delivers() {
        let link = Link::new(LinkSpec::cloud_backbone());
        let mut rng = SimRng::seed_from(1);
        for _ in 0..1000 {
            assert!(matches!(link.offer(100, &mut rng), TxOutcome::Delivered(_)));
        }
    }

    #[test]
    fn loss_rate_approximates_spec() {
        let link = Link::new(LinkSpec::new(
            SimDuration::from_millis(10),
            SimDuration::ZERO,
            0.2,
            1_000_000,
        ));
        let mut rng = SimRng::seed_from(2);
        let n = 50_000;
        let lost = (0..n)
            .filter(|_| matches!(link.offer(100, &mut rng), TxOutcome::Lost))
            .count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "observed loss {rate}");
    }

    #[test]
    fn delay_includes_base_latency() {
        let link = Link::new(LinkSpec::new(
            SimDuration::from_millis(500),
            SimDuration::ZERO,
            0.0,
            1_000_000_000,
        ));
        let mut rng = SimRng::seed_from(4);
        match link.offer(10, &mut rng) {
            TxOutcome::Delivered(d) => assert!(d >= SimDuration::from_millis(500)),
            TxOutcome::Lost => panic!("lossless link lost a message"),
        }
    }

    #[test]
    fn jitter_varies_delay() {
        let link = Link::new(LinkSpec::new(
            SimDuration::from_millis(10),
            SimDuration::from_millis(100),
            0.0,
            1_000_000_000,
        ));
        let mut rng = SimRng::seed_from(5);
        let mut delays = std::collections::BTreeSet::new();
        for _ in 0..50 {
            if let TxOutcome::Delivered(d) = link.offer(10, &mut rng) {
                delays.insert(d.as_millis());
            }
        }
        assert!(delays.len() > 10, "jitter should spread delays");
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn bad_loss_prob_rejected() {
        let _ = LinkSpec::new(SimDuration::ZERO, SimDuration::ZERO, 1.5, 1);
    }

    #[test]
    fn preset_specs_are_sane() {
        for spec in [
            LinkSpec::lpwan_field(),
            LinkSpec::rural_internet(),
            LinkSpec::farm_lan(),
            LinkSpec::cloud_backbone(),
        ] {
            assert!(spec.bandwidth_bps > 0);
            assert!((0.0..=1.0).contains(&spec.loss_prob));
        }
    }
}
