//! Seeded property loops for the network substrate: each test draws its
//! inputs from a fixed [`SimRng`] stream, so a failure reproduces exactly.

use swamp_net::lpwan::{LpwanConfig, LpwanRadio, TxDecision};
use swamp_sim::{SimDuration, SimRng, SimTime};

const CASES: usize = 256;

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
