//! Seeded property loops for the network substrate: each test draws its
//! inputs from a fixed [`SimRng`] stream, so a failure reproduces exactly.

use swamp_net::broker::topic_matches;
use swamp_net::frag::{fragment, Reassembler};
use swamp_net::lpwan::{LpwanConfig, LpwanRadio, TxDecision};
use swamp_sim::{SimDuration, SimRng, SimTime};

const CASES: usize = 256;

/// Fragmentation followed by shuffled reassembly is the identity, for any
/// payload and MTU.
#[test]
fn fragment_reassemble_roundtrip() {
    let mut rng = SimRng::seed_from(0x0E70_0001);
    for case in 0..CASES {
        let payload: Vec<u8> = (0..rng.below(2048)).map(|_| rng.next_u64() as u8).collect();
        let mtu = 1 + rng.below(255) as usize;
        let tag = case as u16;
        let mut frags = fragment(tag, &payload, mtu);
        rng.shuffle(&mut frags);
        let mut r = Reassembler::new(SimDuration::from_secs(60));
        let mut out = None;
        for f in frags {
            if let Some(done) = r.push(SimTime::ZERO, f) {
                out = Some(done);
            }
        }
        assert_eq!(out, Some(payload), "mtu {mtu}");
    }
}

/// A concrete topic always matches itself, the `#` wildcard, a per-level
/// `+` expansion and a trailing-`#` prefix.
#[test]
fn topic_matching_identities() {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let mut rng = SimRng::seed_from(0x0E70_0002);
    for _ in 0..CASES {
        let levels: Vec<String> = (0..1 + rng.below(4))
            .map(|_| {
                (0..1 + rng.below(6))
                    .map(|_| char::from(*rng.pick(ALPHABET).expect("non-empty alphabet")))
                    .collect()
            })
            .collect();
        let topic = levels.join("/");
        assert!(topic_matches(&topic, &topic));
        assert!(topic_matches("#", &topic));
        for i in 0..levels.len() {
            let mut pattern = levels.clone();
            pattern[i] = "+".to_owned();
            assert!(topic_matches(&pattern.join("/"), &topic));
        }
        let mut prefix = levels.clone();
        let last = prefix.len() - 1;
        prefix[last] = "#".to_owned();
        assert!(topic_matches(&prefix.join("/"), &topic));
    }
}

/// Duty cycle is never exceeded: over any request pattern, granted
/// airtime within the sliding hour stays within budget (+1 frame).
#[test]
fn duty_cycle_budget_respected() {
    let mut rng = SimRng::seed_from(0x0E70_0003);
    let frame_airtime = LpwanConfig::default().airtime(48).as_millis() as f64;
    for _ in 0..CASES {
        let duty = *rng.pick(&[0.001, 0.01, 0.05]).expect("three duty cycles");
        let mut radio = LpwanRadio::new(LpwanConfig {
            duty_cycle: duty,
            ..LpwanConfig::default()
        });
        let budget = 3_600_000.0 * duty;
        let mut t = SimTime::ZERO;
        for _ in 0..1 + rng.below(299) {
            t += SimDuration::from_millis(1 + rng.below(119_999));
            // Granted or deferred, the window accounting must hold.
            let _decision = radio.try_transmit(t, 48);
            let used = radio.airtime_in_window(t).as_millis() as f64;
            assert!(
                used <= budget + frame_airtime,
                "airtime {used}ms exceeds budget {budget}ms (+1 frame)"
            );
        }
    }
}

/// Airtime is monotone in payload size.
#[test]
fn airtime_monotone_in_size() {
    let cfg = LpwanConfig::default();
    for size in 1usize..240 {
        assert!(
            cfg.airtime(size + 1) >= cfg.airtime(size),
            "at {size} bytes"
        );
    }
}

/// A deferral always names a time in the future, at any duty cycle.
#[test]
fn deferral_time_is_future() {
    for duty_thousandths in 1u32..50 {
        let mut radio = LpwanRadio::new(LpwanConfig {
            duty_cycle: f64::from(duty_thousandths) / 1000.0,
            ..LpwanConfig::default()
        });
        let mut t = SimTime::ZERO;
        for _ in 0..100 {
            match radio.try_transmit(t, 64) {
                TxDecision::Granted { .. } => t += SimDuration::from_millis(50),
                TxDecision::Deferred { until } => {
                    assert!(until > t, "deferral must be in the future");
                    t = until;
                }
            }
        }
    }
}
