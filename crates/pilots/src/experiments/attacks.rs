//! E2 — DoS impact and SDN mitigation; E3 — sensor-tamper detection sweep;
//! E4 — Sybil NDVI attack and spatial defense; E12 — behavioral baseline vs
//! point detectors on actuator takeover.

use std::collections::BTreeSet;

use swamp_net::link::LinkSpec;
use swamp_net::message::Message;
use swamp_net::network::Network;
use swamp_net::sdn::{FlowAction, FlowMatch};
use swamp_security::attacks::{DosFlooder, SensorTamper, SybilSwarm, TamperMode};
use swamp_security::detect::{spatial_outliers, RateGuard, ZScoreDetector};
use swamp_sim::{SimDuration, SimRng, SimTime};
use swamp_workload::{Label, Pilot};

use super::baseline::{e16_run_pilot, e16_spec, E16_DEVICES, E16_ROUNDS};
use crate::report::{fmt_f, fmt_pct, Report};

/// E2 results: telemetry delivery under DoS.
#[derive(Clone, Debug)]
pub struct E2Result {
    /// (attack rate msg/s, delivery ratio unmitigated, delivery ratio with
    /// rate-guard + SDN deny, rounds until mitigation engaged).
    pub rows: Vec<(f64, f64, f64, usize)>,
}

impl E2Result {
    /// The table.
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "E2: DoS flood on the broker — telemetry delivery ratio (20 probes, 10 min)",
            &[
                "attack_msg_per_s",
                "unmitigated",
                "sdn_mitigated",
                "detect_rounds",
            ],
        );
        for (rate, unmit, mit, rounds) in &self.rows {
            r.push_row(vec![
                fmt_f(*rate, 0),
                fmt_pct(*unmit),
                fmt_pct(*mit),
                rounds.to_string(),
            ]);
        }
        r
    }
}

/// One E2 scenario: 20 probes publish once per 10 s to a broker over a
/// shared constrained uplink while an attacker floods it.
fn dos_scenario(seed: u64, attack_rate: f64, mitigate: bool) -> (f64, usize) {
    let mut net = Network::new(seed);
    net.add_node("broker");
    net.add_node("attacker");
    // Constrained shared uplink into the broker: the flood competes with
    // telemetry for the loss-free but narrow pipe (we model contention as
    // load-dependent loss via a rate-limit rule representing capacity).
    net.connect(
        "attacker",
        "broker",
        LinkSpec::new(
            SimDuration::from_millis(30),
            SimDuration::ZERO,
            0.0,
            1_000_000,
        ),
    );
    let probes: Vec<String> = (0..20).map(|i| format!("probe-{i}")).collect();
    for p in &probes {
        net.add_node(p.as_str());
        net.connect(
            p.as_str(),
            "broker",
            LinkSpec::new(
                SimDuration::from_millis(30),
                SimDuration::ZERO,
                0.0,
                1_000_000,
            ),
        );
    }
    // Broker ingress capacity: 50 msg/s total, modeled as an SDN rate limit
    // on everything into the broker (token bucket = queue head capacity).
    net.flow_table_mut().install(
        0,
        FlowMatch {
            dst: Some("broker".into()),
            ..FlowMatch::default()
        },
        FlowAction::RateLimit {
            per_sec: 50.0,
            burst: 50.0,
        },
    );

    let dos = DosFlooder::new("attacker", "broker", attack_rate, 64);
    let mut guard = RateGuard::new(SimDuration::from_secs(10), 5.0, 20);
    let mut mitigated_at_round = usize::MAX;

    let rounds = 60; // 10 minutes in 10-second rounds
    let attack_start = 3; // the fleet norm is established first
    let mut telemetry_sent = 0u64;
    let mut telemetry_delivered = 0u64;
    for round in 0..rounds {
        let t0 = SimTime::from_secs(round as u64 * 10);
        let t1 = SimTime::from_secs(round as u64 * 10 + 10);
        // Attacker floods the whole round (after the quiet lead-in).
        if round >= attack_start {
            dos.flood_window(&mut net, t0, t1);
        }
        // Each probe publishes once.
        for (i, p) in probes.iter().enumerate() {
            let at = t0 + SimDuration::from_millis(100 + i as u64 * 37);
            #[expect(
                clippy::let_underscore_must_use,
                reason = "E2 DoS flood: sends are expected to be refused; delivery is measured at the broker, not the sender"
            )]
            let _ = net.send(
                at,
                p.as_str(),
                "broker",
                Message::new(format!("telemetry/{p}"), vec![0u8; 80]),
            );
            telemetry_sent += 1;
        }
        net.advance_to(t1);
        // Drain the broker, counting delivered telemetry; the security
        // layer watches per-source rates and (when mitigating) installs a
        // targeted deny against the flooding source.
        let mut flagged = false;
        for d in net.drain(&"broker".into()) {
            if d.message.topic.starts_with("telemetry/") {
                telemetry_delivered += 1;
            }
            if mitigate
                && mitigated_at_round == usize::MAX
                && guard.observe(d.src.as_str(), d.delivered_at).is_anomalous()
                && d.src.as_str() == "attacker"
            {
                flagged = true;
            }
        }
        if flagged {
            net.flow_table_mut()
                .install(100, FlowMatch::from_src("attacker"), FlowAction::Deny);
            mitigated_at_round = round;
        }
    }
    net.advance_to(SimTime::from_secs(rounds as u64 * 10 + 10));
    for d in net.drain(&"broker".into()) {
        if d.message.topic.starts_with("telemetry/") {
            telemetry_delivered += 1;
        }
    }
    let detect_rounds = if mitigated_at_round == usize::MAX {
        usize::MAX
    } else {
        mitigated_at_round - attack_start + 1
    };
    (
        telemetry_delivered as f64 / telemetry_sent as f64,
        detect_rounds,
    )
}

/// Runs E2 across attack rates.
pub fn e2_dos(seed: u64) -> E2Result {
    let mut rows = Vec::new();
    for rate in [0.0, 20.0, 50.0, 100.0, 200.0] {
        let rate_eff = if rate == 0.0 { 0.0001 } else { rate };
        let (unmit, _) = dos_scenario(seed, rate_eff, false);
        let (mit, rounds) = dos_scenario(seed, rate_eff, true);
        rows.push((
            rate,
            unmit,
            mit,
            if rounds == usize::MAX { 0 } else { rounds },
        ));
    }
    E2Result { rows }
}

/// E3 results: tamper detection sweep.
#[derive(Clone, Debug)]
pub struct E3Result {
    /// (tamper offset in VWC units, true-positive rate, false-positive
    /// rate, days until detection or 0).
    pub rows: Vec<(f64, f64, f64, f64)>,
}

impl E3Result {
    /// The table.
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "E3: soil-probe tamper detection (z-score detector, 40 runs per offset)",
            &["offset_vwc", "tpr", "fpr", "mean_days_to_detect"],
        );
        for (off, tpr, fpr, days) in &self.rows {
            r.push_row(vec![
                fmt_f(*off, 3),
                fmt_pct(*tpr),
                fmt_pct(*fpr),
                fmt_f(*days, 1),
            ]);
        }
        r
    }
}

/// Runs E3: a probe samples a slow soil drydown twice daily; on day 30 an
/// attacker starts offsetting its values. Detection = any alert in the
/// attack period; false positive = alert in a clean run.
pub fn e3_tamper(seed: u64) -> E3Result {
    let offsets = [0.02, 0.05, 0.10, 0.20];
    let runs = 40;
    let mut rows = Vec::new();

    // False-positive rate from clean runs (shared across offsets).
    let mut clean_alerts = 0;
    for run in 0..runs {
        let mut rng = SimRng::seed_from(seed ^ (run as u64) << 8);
        let mut det = ZScoreDetector::for_slow_signal();
        for step in 0..120 {
            let truth = soil_truth(step);
            let v = truth + rng.normal_with(0.0, 0.008);
            if det.observe(v).is_anomalous() {
                clean_alerts += 1;
                break;
            }
        }
    }
    let fpr = clean_alerts as f64 / runs as f64;

    for &offset in &offsets {
        let mut detections = 0;
        let mut detect_days = 0.0;
        for run in 0..runs {
            let mut rng = SimRng::seed_from(seed ^ (run as u64) << 8);
            let mut det = ZScoreDetector::for_slow_signal();
            let tamper = SensorTamper::new(TamperMode::Offset(offset));
            for step in 0..120 {
                let truth = soil_truth(step);
                let mut v = truth + rng.normal_with(0.0, 0.008);
                if step >= 60 {
                    v = tamper.distort(v);
                }
                if det.observe(v).is_anomalous() && step >= 60 {
                    detections += 1;
                    detect_days += (step - 60) as f64 / 2.0;
                    break;
                }
            }
        }
        let tpr = detections as f64 / runs as f64;
        let mean_days = if detections > 0 {
            detect_days / detections as f64
        } else {
            0.0
        };
        rows.push((offset, tpr, fpr, mean_days));
    }
    E3Result { rows }
}

/// A plausible slow soil-moisture cycle: a gentle 30-day wetting/drying
/// oscillation (drip irrigation holding the zone near target). Smooth by
/// design — abrupt refill steps belong to the event-sequence detector
/// (E12), not the point detector under test here.
fn soil_truth(step: usize) -> f64 {
    0.27 + 0.015 * (2.0 * std::f64::consts::PI * step as f64 / 120.0).sin()
}

/// E4 results: Sybil swarm vs spatial consistency.
#[derive(Clone, Debug)]
pub struct E4Result {
    /// (sybil count vs 12 honest drones, fraction of sybils flagged, NDVI
    /// bias before filtering, NDVI bias after filtering).
    pub rows: Vec<(usize, f64, f64, f64)>,
}

impl E4Result {
    /// The table.
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "E4: Sybil NDVI swarm vs spatial-consistency filter (12 honest sensors)",
            &[
                "sybils",
                "sybils_flagged",
                "ndvi_bias_raw",
                "ndvi_bias_filtered",
            ],
        );
        for (n, flagged, raw, filtered) in &self.rows {
            r.push_row(vec![
                n.to_string(),
                fmt_pct(*flagged),
                fmt_f(*raw, 3),
                fmt_f(*filtered, 3),
            ]);
        }
        r
    }
}

/// Runs E4: honest sensors report NDVI ≈ 0.55 (stressed crop); the swarm
/// claims 0.85 (healthy) to mask the stress it induced.
pub fn e4_sybil(seed: u64) -> E4Result {
    let honest_count = 12;
    let true_ndvi = 0.55;
    let fake_ndvi = 0.85;
    let mut rows = Vec::new();
    for sybils in [0usize, 2, 4, 8, 16, 24] {
        let mut rng = SimRng::seed_from(seed ^ sybils as u64);
        let mut values: Vec<(usize, f64)> = (0..honest_count)
            .map(|i| (i, true_ndvi + rng.normal_with(0.0, 0.02)))
            .collect();
        let swarm = SybilSwarm::new("drone", sybils, fake_ndvi, 0.02);
        for (j, (_, v)) in swarm.fabricate_reports(&mut rng).iter().enumerate() {
            values.push((100 + j, *v));
        }

        let raw_mean: f64 = values.iter().map(|(_, v)| v).sum::<f64>() / values.len() as f64;
        let outliers = spatial_outliers(&values, 0.15);
        let flagged_sybils = outliers.iter().filter(|&&i| i >= 100).count() as f64;
        let filtered: Vec<f64> = values
            .iter()
            .filter(|(i, _)| !outliers.contains(i))
            .map(|(_, v)| *v)
            .collect();
        let filtered_mean: f64 = if filtered.is_empty() {
            raw_mean
        } else {
            filtered.iter().sum::<f64>() / filtered.len() as f64
        };
        rows.push((
            sybils,
            if sybils == 0 {
                1.0
            } else {
                flagged_sybils / sybils as f64
            },
            (raw_mean - true_ndvi).abs(),
            (filtered_mean - true_ndvi).abs(),
        ));
    }
    E4Result { rows }
}

/// E12 results: behavioral baseline vs point detector on takeovers.
#[derive(Clone, Debug)]
pub struct E12Result {
    /// Behavioral baseline: (share of takeover victims flagged, share of
    /// honest devices flagged).
    pub behavioral: (f64, f64),
    /// Message-rate guard on the same record stream, same two shares.
    pub point: (f64, f64),
}

impl E12Result {
    /// The table.
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "E12: actuator-takeover detection — behavioral sequence baseline vs point detector",
            &["detector", "takeover_detection", "false_alarms"],
        );
        r.push_row(vec![
            "markov-sequence".into(),
            fmt_pct(self.behavioral.0),
            fmt_pct(self.behavioral.1),
        ]);
        r.push_row(vec![
            "msg-rate-only".into(),
            fmt_pct(self.point.0),
            fmt_pct(self.point.1),
        ]);
        r
    }
}

/// Runs E12: the actuator-takeover slice of the CBEC E16 run. The
/// overlay forces refill jumps on its victims without adding a single
/// message, so a guard that watches arrival rates has nothing to see,
/// while the streaming baseline meets transitions the irrigation cycle
/// never contains.
pub fn e12_behavior(seed: u64) -> E12Result {
    let (row, _) = e16_run_pilot(seed, Pilot::Cbec, E16_DEVICES, E16_ROUNDS);
    let spec = e16_spec(Pilot::Cbec, seed, E16_DEVICES, E16_ROUNDS);
    let w = spec.compile();
    let records = || {
        w.batches
            .iter()
            .flat_map(|b| b.records.iter().map(move |r| (b.at, r)))
    };
    let victims: BTreeSet<&str> = records()
        .filter(|(_, r)| r.label == Label::Takeover)
        .map(|(_, r)| r.device.as_str())
        .collect();
    let honest: BTreeSet<&str> = w
        .devices
        .iter()
        .filter(|d| !w.attack_devices.contains(*d))
        .map(String::as_str)
        .collect();

    // The rate guard is calibrated on the honest devices' arrival rate:
    // one-day windows cancel CBEC's day/night reporting skew, and no
    // alert fires below a mean honest device-day of messages.
    let day = SimDuration::from_days(1);
    let days = (spec.step * spec.rounds as u64).as_secs() / day.as_secs();
    let honest_records = records()
        .filter(|(_, r)| honest.contains(r.device.as_str()))
        .count() as u64;
    let per_device_day = honest_records / (honest.len() as u64 * days);
    let mut guard = RateGuard::new(day, 2.0, per_device_day);
    let mut alarmed = BTreeSet::new();
    for (at, r) in records() {
        if guard.observe(&r.device, at).is_anomalous() {
            alarmed.insert(r.device.as_str());
        }
    }

    let share = |hit: usize, of: usize| hit as f64 / of as f64;
    let (caught, planted) = row
        .caught
        .get(&Label::Takeover)
        .copied()
        .unwrap_or_default();
    E12Result {
        behavioral: (share(caught, planted), share(row.fp, honest.len())),
        point: (
            share(alarmed.intersection(&victims).count(), victims.len()),
            share(alarmed.intersection(&honest).count(), honest.len()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e2_mitigation_restores_delivery() {
        let r = e2_dos(42);
        assert_eq!(r.rows.len(), 5);
        // No attack: both near-perfect.
        let (_, unmit0, mit0, _) = r.rows[0];
        assert!(unmit0 > 0.95, "baseline delivery {unmit0}");
        assert!(mit0 > 0.95);
        // Heavy attack: unmitigated collapses, mitigated recovers.
        let (_, unmit_hi, mit_hi, rounds) = *r.rows.last().unwrap();
        assert!(
            unmit_hi < 0.6,
            "200 msg/s flood should crush a 50 msg/s ingress: {unmit_hi}"
        );
        assert!(
            mit_hi > unmit_hi + 0.2,
            "mitigation must help: {mit_hi} vs {unmit_hi}"
        );
        assert!(rounds > 0, "mitigation engaged");
        assert!(r.report().to_string().contains("E2"));
    }

    #[test]
    fn e3_detection_grows_with_offset() {
        let r = e3_tamper(42);
        assert_eq!(r.rows.len(), 4);
        let tprs: Vec<f64> = r.rows.iter().map(|x| x.1).collect();
        // Large offsets detected almost always; tiny ones may slip.
        assert!(tprs[3] > 0.9, "0.20 offset TPR {}", tprs[3]);
        assert!(tprs[3] >= tprs[0], "monotone-ish TPR {tprs:?}");
        // FPR modest.
        assert!(r.rows[0].2 < 0.2, "FPR {}", r.rows[0].2);
    }

    #[test]
    fn e4_filter_removes_minority_sybils() {
        let r = e4_sybil(42);
        // Minority swarms (< 12) get flagged and the bias is corrected.
        for &(n, flagged, raw, filtered) in &r.rows {
            if n > 0 && n < 12 {
                assert!(flagged > 0.9, "{n} sybils flagged {flagged}");
                assert!(
                    filtered < raw,
                    "{n} sybils: filtered {filtered} < raw {raw}"
                );
                assert!(filtered < 0.05, "{n} sybils: residual bias {filtered}");
            }
        }
        // Majority swarm (24 > 12) defeats the median — the documented
        // limit that motivates identity-based defenses.
        let majority = r.rows.last().unwrap();
        assert!(majority.1 < 0.5, "majority swarm evades: {}", majority.1);
        assert!(majority.3 > 0.1, "majority swarm biases result");
    }

    #[test]
    fn e12_behavioral_dominates_point_detector() {
        let r = e12_behavior(42);
        assert!(
            r.behavioral.0 > 0.95,
            "takeover detection {}",
            r.behavioral.0
        );
        assert!(r.behavioral.1 < 0.1, "false alarms {}", r.behavioral.1);
        assert!(
            r.point.0 < 0.1,
            "rate-only detector should miss same-volume takeovers: {}",
            r.point.0
        );
        assert_eq!(r.point.1, 0.0, "rate guard alarmed on an honest device");
        assert!(r.report().to_string().contains("markov-sequence"));
    }
}
