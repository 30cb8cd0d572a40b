//! E13 — end-to-end uplink resilience under injected faults: delivery
//! ratio, duplicate applies and post-partition recovery time for both
//! deployment configs across a loss sweep, driven entirely in sim time
//! (bit-reproducible per seed, so it joins `run_all`).
//!
//! Each cell injects `FaultSpec::lossy(rate)` on the farm→cloud uplink
//! plus a one-hour scheduled partition in the middle of the run, then
//! measures what the retry/ack engine actually delivered: every record
//! offered to the uplink must reach the cloud store exactly once, and
//! the engine must reconnect after the partition heals. Every cell ends
//! with the uplink conservation audit (`swamp_obs::audit_uplink`).

use swamp_codec::ngsi::Entity;
use swamp_core::platform::{nodes, DeploymentConfig, Platform};
use swamp_core::query::{QueryRequest, QueryResponse};
use swamp_fog::availability::OutageSchedule;
use swamp_fog::sync::DegradedMode;
use swamp_net::{FaultPlan, FaultSpec};
use swamp_obs::ObsReport;
use swamp_sensors::device::DeviceKind;
use swamp_sim::{SimDuration, SimTime};

use crate::report::{fmt_pct, Report};

/// One (deployment, loss-rate) cell of the sweep.
#[derive(Clone, Debug)]
pub struct E13Row {
    /// Deployment label (`cloud-only` / `farm-fog`).
    pub deployment: &'static str,
    /// Injected uplink drop probability.
    pub loss: f64,
    /// Records offered to the uplink retry engine.
    pub offered: u64,
    /// Records applied at the cloud store (unique).
    pub delivered: u64,
    /// Records applied more than once at the cloud — must stay zero.
    pub duplicate_applies: u64,
    /// Redundant copies the dedup layer discarded before apply.
    pub duplicates_discarded: u64,
    /// Retransmissions the engine issued to get there.
    pub retransmissions: u64,
    /// Worst degraded-mode state observed during the partition.
    pub mode_during_outage: DegradedMode,
    /// Seconds from partition heal until the backlog fully drained.
    pub recovery_secs: u64,
}

impl E13Row {
    /// Delivered fraction of offered records.
    pub fn delivery_ratio(&self) -> f64 {
        if self.offered == 0 {
            1.0
        } else {
            self.delivered as f64 / self.offered as f64
        }
    }
}

/// E13 results.
#[derive(Clone, Debug)]
pub struct E13Result {
    /// One row per (deployment, loss) cell.
    pub rows: Vec<E13Row>,
}

impl E13Result {
    /// The table.
    pub fn report(&self) -> Report {
        let mut r = Report::new(
            "E13: uplink resilience under injected loss + 1 h partition — delivery, duplicates, recovery (8 h)",
            &[
                "deployment",
                "loss",
                "offered",
                "delivered",
                "ratio",
                "dup_applies",
                "retransmits",
                "outage_mode",
                "recovery_s",
            ],
        );
        for row in &self.rows {
            r.push_row(vec![
                row.deployment.to_owned(),
                fmt_pct(row.loss),
                row.offered.to_string(),
                row.delivered.to_string(),
                fmt_pct(row.delivery_ratio()),
                row.duplicate_applies.to_string(),
                row.retransmissions.to_string(),
                row.mode_during_outage.to_string(),
                row.recovery_secs.to_string(),
            ]);
        }
        r
    }
}

fn severity(mode: DegradedMode) -> u8 {
    match mode {
        DegradedMode::Connected => 0,
        DegradedMode::Degraded => 1,
        DegradedMode::Offline => 2,
    }
}

/// Runs one cell: two devices publish every 5 min for 6 h over an uplink
/// with the given injected loss and a partition from hour 2 to hour 3,
/// then the run drains for up to 2 more hours of minute-grained pumps.
fn run_cell(seed: u64, config: DeploymentConfig, loss: f64) -> (E13Row, ObsReport) {
    let outage_start = SimTime::from_hours(2);
    let outage_end = SimTime::from_hours(3);
    let mut schedule = OutageSchedule::new();
    schedule.add_outage(outage_start, outage_end);

    let uplink_src = match config {
        DeploymentConfig::CloudOnly => nodes::GATEWAY,
        DeploymentConfig::FarmFog => nodes::FOG,
    };
    let mut plan = FaultPlan::new(seed ^ 0xe13);
    plan.set_link_faults(uplink_src, nodes::CLOUD, FaultSpec::lossy(loss))
        .expect("loss rates in the sweep are valid probabilities");

    let mut platform = Platform::builder(config)
        .seed(seed)
        .sync_base_timeout(SimDuration::from_secs(60))
        .sync_jitter(0.1)
        .fault_plan(plan)
        .uplink_outages(&schedule)
        .build();
    for dev in ["probe-a", "probe-b"] {
        platform
            .register_device(SimTime::ZERO, dev, DeviceKind::SoilProbe, "owner:e13")
            .expect("fresh platform has no registered devices");
    }

    let mut worst_outage_mode = DegradedMode::Connected;
    let mut recovered_at: Option<SimTime> = None;
    let mut seq = 0u64;
    // 8 h of minute-grained rounds through the shared driver; devices
    // publish every 5 min for the first 6 h, the last 2 h drain the
    // backlog; the after-hook samples degraded mode and recovery on the
    // concrete platform (inherent methods the `Drive` trait doesn't
    // carry).
    crate::driver::run_rounds(
        &mut platform,
        SimTime::ZERO,
        SimDuration::from_mins(1),
        SimDuration::from_secs(30),
        480,
        |p, minute, t| {
            if minute % 5 == 0 && minute < 360 {
                for dev in ["probe-a", "probe-b"] {
                    let mut e = Entity::new(format!("urn:swamp:device:{dev}"), "SoilProbe");
                    e.set("moisture_vwc", 0.2 + seq as f64 * 1e-4);
                    e.set("seq", seq as f64);
                    #[expect(
                        clippy::let_underscore_must_use,
                        reason = "E13 publishes during injected outages; refusals are expected and the recovery curve is the measured quantity"
                    )]
                    let _ = p.device_publish(t, dev, &e);
                    seq += 1;
                }
            }
        },
        |p, _, t| {
            if t >= outage_start && t < outage_end {
                let mode = p.degraded_mode();
                if severity(mode) > severity(worst_outage_mode) {
                    worst_outage_mode = mode;
                }
            }
            if t >= outage_end && recovered_at.is_none() {
                // Gauges are refreshed at the end of every sync round, and
                // nothing enqueues between the round's pump and this read,
                // so they equal the engine's live queue depths here.
                let snap = p.observe();
                let pending = snap.gauge("sync.pending").expect("registered gauge");
                let in_flight = snap.gauge("sync.in_flight").expect("registered gauge");
                if pending == Some(0.0) && in_flight == Some(0.0) {
                    recovered_at = Some(t);
                }
            }
        },
    );

    let snap = platform.observe();
    // The uplink conserved every record, whatever the faults did.
    if let Err(e) = swamp_obs::audit_uplink(&snap, config == DeploymentConfig::FarmFog) {
        panic!("E13 seed {seed}, {config:?} at {loss} loss: {e}");
    }
    let (delivered, duplicate_applies) = match config {
        DeploymentConfig::FarmFog => {
            // Applied-record seqs come through the typed query surface.
            let seqs = match platform.query(&QueryRequest::ReplicaSeqs) {
                QueryResponse::Seqs(seqs) => seqs,
                other => panic!("ReplicaSeqs answered with {other:?}"),
            };
            let unique: std::collections::BTreeSet<u64> = seqs.iter().copied().collect();
            let store = platform
                .cloud_replica()
                .expect("farm-fog deployments expose the cloud replica");
            (
                unique.len() as u64,
                store.record_count() as u64 - unique.len() as u64,
            )
        }
        DeploymentConfig::CloudOnly => (
            // The relay store dedups before validation, so any copy that
            // slipped through would be caught (and counted) by the
            // replay defense at ingest.
            snap.counter("ingest.accepted").expect("registered counter"),
            snap.counter("ingest.rejected_replay")
                .expect("registered counter"),
        ),
    };
    let recovery_secs = recovered_at
        .map(|t| (t - outage_end).as_secs())
        .unwrap_or(u64::MAX);

    let deployment = match config {
        DeploymentConfig::CloudOnly => "cloud-only",
        DeploymentConfig::FarmFog => "farm-fog",
    };
    let row = E13Row {
        deployment,
        loss,
        offered: snap.counter("sync.enqueued").expect("registered counter"),
        delivered,
        duplicate_applies,
        // Either deployment's cloud-side store (the replica, or the relay's
        // deduplicator) counts the copies it discarded on one counter.
        duplicates_discarded: snap
            .counter("cloud.duplicates")
            .expect("registered counter"),
        retransmissions: snap
            .counter("sync.retransmissions")
            .expect("registered counter"),
        mode_during_outage: worst_outage_mode,
        recovery_secs,
    };
    let label = format!("e13/{deployment}/loss{:02}", (loss * 100.0).round() as u32);
    (row, ObsReport::new(&label, seed, snap))
}

/// Runs E13: loss sweep × both deployment configs.
pub fn e13_resilience(seed: u64) -> E13Result {
    e13_resilience_observed(seed).0
}

/// Runs E13 and also returns one deterministic [`ObsReport`] per cell
/// (labelled `e13/<deployment>/loss<pct>`). The reports are sim-time
/// only: the same seed must serialize byte-identically
/// (`crates/pilots/tests/obs_determinism.rs`).
pub fn e13_resilience_observed(seed: u64) -> (E13Result, Vec<ObsReport>) {
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for config in [DeploymentConfig::CloudOnly, DeploymentConfig::FarmFog] {
        for loss in [0.0, 0.01, 0.10, 0.30] {
            let (row, report) = run_cell(seed, config, loss);
            rows.push(row);
            reports.push(report);
        }
    }
    (E13Result { rows }, reports)
}
