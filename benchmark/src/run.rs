//! One fresh-platform repetition of a workload: set-up, the timed
//! rounds, the settle, the owner reads, and the untimed verification.
//!
//! Closed loop, one driver thread. The timed unit is the round: offer
//! the round's traffic, pump, drain the fleet subscriber, run the
//! round's reads and retention. Everything the platform is handed was
//! generated in set-up.

use std::collections::BTreeSet;
use std::time::Instant;

use swamp_core::broker::{Notification, SubscriptionFilter, SubscriptionId};
use swamp_core::query::{QueryRequest, QueryResponse};
use swamp_obs::ObsSnapshot;
use swamp_sensors::device::DeviceKind;
use swamp_sim::{SimDuration, SimTime};

use crate::check::{self, Conservation, Reference};
use crate::deploy::Deployment;
use crate::inputs::{self, Burst, Kind, QueryClass, Workload};
use crate::machine::{self, ProcStat};
use crate::stats;
use crate::trace::Tracer;

/// One timed round.
#[derive(Clone, Copy, Debug)]
pub struct RoundSample {
    pub wall_ns: u64,
    /// Records the platform accepted this round.
    pub records: u64,
    pub pumps: u64,
}

impl RoundSample {
    pub fn us_per_record(&self) -> Option<f64> {
        (self.records > 0).then(|| self.wall_ns as f64 / 1e3 / self.records as f64)
    }
}

/// One timed read burst.
#[derive(Clone, Copy, Debug)]
pub struct BurstSample {
    pub class: QueryClass,
    pub wall_ns: u64,
    pub queries: u64,
}

impl BurstSample {
    pub fn us_per_query(&self) -> f64 {
        self.wall_ns as f64 / 1e3 / self.queries.max(1) as f64
    }
}

/// Everything one repetition measured and checked.
pub struct RepResult {
    pub setup_s: f64,
    /// Wall time of the measured phase: rounds, settle and owner reads.
    pub measured_s: f64,
    pub rounds: Vec<RoundSample>,
    /// Wall time from the end of the last offer to cloud-complete.
    pub settle_ms: f64,
    /// Pumps after the last round's own, until the cloud was complete.
    pub settle_pumps: u64,
    pub bursts: Vec<BurstSample>,
    /// Simulated seconds from each record's creation at the fog to the
    /// pump after which the cloud store first held it; ascending.
    pub lag_s: Vec<f64>,
    pub backlog_peak: u64,
    pub conservation: Conservation,
    pub queries_checked: u64,
    pub query_mismatches: u64,
    /// Digest of the final series dump and views; equal across
    /// repetitions of one seed.
    pub digest: u64,
    pub flagged: BTreeSet<String>,
    /// Device-level (precision, recall) of the flagged set against the
    /// compiled ground truth (`storm_lossy` only).
    pub detection: Option<(f64, f64)>,
    pub violations: Vec<String>,
    pub snapshot: ObsSnapshot,
    pub snapshot_us: f64,
    pub peak_rss_mb: f64,
    pub proc: ProcStat,
    /// Records each shard accepted (one entry on a single platform).
    pub shard_accepted: Vec<u64>,
}

impl RepResult {
    pub fn attempted(&self) -> u64 {
        self.conservation.offered + self.queries_checked
    }

    pub fn failed(&self) -> u64 {
        self.conservation.failed() + self.query_mismatches
    }
}

fn run_bursts(
    dep: &mut Deployment,
    bursts: &[Burst],
    tracer: &mut Tracer,
    samples: &mut Vec<BurstSample>,
    answers: &mut Vec<QueryResponse>,
) {
    for burst in bursts {
        let span = tracer.enter(burst.class.span_name());
        let t0 = Instant::now();
        for req in &burst.reqs {
            answers.push(dep.drive().query(req));
        }
        let wall_ns = t0.elapsed().as_nanos() as u64;
        tracer.exit(span);
        samples.push(BurstSample {
            class: burst.class,
            wall_ns,
            queries: burst.reqs.len() as u64,
        });
    }
}

/// Runs one repetition. The tracer decides whether spans are recorded;
/// the driver code is the same either way.
pub fn run_rep(w: &Workload, seed: u64, tracer: &mut Tracer) -> RepResult {
    machine::reset_peak_rss();

    // ---- Set-up (timed as `setup_s`): inputs, platform, registration.
    let t_setup = Instant::now();
    let mut inputs = inputs::generate(w, seed);
    let mut dep = Deployment::build(&inputs.builder);
    // Only sealed_steady offers over the radio: its devices are
    // registered (keys, links) and a fleet-wide subscriber listens.
    let over_radio = w.kind == Kind::SealedSteady;
    let mut subscription: Option<SubscriptionId> = None;
    if over_radio {
        let p = dep.one_mut();
        for id in &inputs.device_ids {
            p.register_device(SimTime::ZERO, id, DeviceKind::SoilProbe, "owner:bench")
                .expect("generated device ids are unique");
        }
        subscription = Some(
            p.context
                .subscribe(SubscriptionFilter::for_type("SoilProbe")),
        );
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    // ---- Reference answers (untimed): the flat layout fed the inputs.
    // Radio loss makes sealed_steady's stored set unknowable in advance;
    // its reference is rebuilt from the final dump below.
    let (expected, reference) = if over_radio {
        (vec![Vec::new(); inputs.rounds.len()], None)
    } else {
        let (e, r) = check::expected_answers(&inputs);
        (e, Some(r))
    };
    let offered = inputs.offered();

    // ---- Measured phase.
    let mut rounds = Vec::with_capacity(inputs.rounds.len());
    let mut bursts = Vec::new();
    let mut answers: Vec<QueryResponse> = Vec::with_capacity(inputs::BURST * 5);
    let mut notifications: Vec<Notification> = Vec::new();
    // After every pump: the simulated time and what the cloud then held.
    let mut pump_log: Vec<(u64, usize)> = Vec::with_capacity(4_096);
    let mut backlog_peak = 0u64;
    let mut accepted_total = 0u64;
    let mut query_mismatches = 0u64;
    let mut queries_checked = 0u64;
    let mut now = SimTime::ZERO;
    let mut settle_from = Instant::now();
    let mut settled_at: Option<Instant> = None;
    let last_round = inputs.rounds.len().saturating_sub(1);
    let proc_before = ProcStat::read();
    let t_measured = Instant::now();

    for (r, round) in inputs.rounds.iter_mut().enumerate() {
        tracer.round = r as u32;
        let entities = std::mem::take(&mut round.entities);
        let round_span = tracer.enter("round");
        let t_round = Instant::now();
        let mut accepted = 0u64;
        let mut pumps = 0u64;
        now = now.max(round.at);

        let span = tracer.enter("offer");
        if over_radio {
            let p = dep.one_mut();
            for (id, entity) in inputs.device_ids.iter().zip(&entities) {
                p.device_publish(now, id, entity)
                    .expect("registered devices have a route to the farm node");
            }
        } else {
            accepted += dep.drive().ingest(now, entities) as u64;
        }
        tracer.exit(span);
        if r == last_round {
            settle_from = Instant::now();
        }

        let span = tracer.enter("pump");
        for _ in 0..round.plan.max_pumps() {
            now += SimDuration::from_millis(round.plan.spacing_ms());
            let call = tracer.enter("pump.call");
            accepted += dep.drive().round(now) as u64;
            tracer.exit(call);
            pumps += 1;
            let held = dep.cloud().record_count();
            pump_log.push((now.as_millis(), held));
            let backlog = (accepted_total + accepted).saturating_sub(held as u64);
            backlog_peak = backlog_peak.max(backlog);
            if r == last_round {
                // Late frames can reopen a backlog that had drained.
                settled_at = match backlog {
                    0 => settled_at.or_else(|| Some(Instant::now())),
                    _ => None,
                };
            }
            if backlog == 0 && round.plan.stops_when_complete() {
                break;
            }
        }
        tracer.exit(span);
        accepted_total += accepted;

        if let Some(sub) = subscription {
            let span = tracer.enter("sub_drain");
            dep.one_mut()
                .context
                .drain_notifications_into(sub, &mut notifications)
                .expect("the subscription made in set-up is live");
            std::hint::black_box(notifications.len());
            notifications.clear();
            tracer.exit(span);
        }

        if !round.bursts.is_empty() {
            let span = tracer.enter("query");
            run_bursts(&mut dep, &round.bursts, tracer, &mut bursts, &mut answers);
            tracer.exit(span);
        }

        if let Some(cutoff) = round.prune_before {
            let span = tracer.enter("retention");
            let call = tracer.enter("prune");
            dep.for_each_platform_mut(|p| {
                std::hint::black_box(p.history.prune_before(cutoff));
            });
            tracer.exit(call);
            let call = tracer.enter("compact");
            std::hint::black_box(dep.compact_history());
            tracer.exit(call);
            tracer.exit(span);
        }

        let wall_ns = t_round.elapsed().as_nanos() as u64;
        tracer.exit(round_span);
        rounds.push(RoundSample {
            wall_ns,
            records: accepted,
            pumps,
        });

        // Untimed: this round's answers against the flat reference.
        queries_checked += answers.len() as u64;
        query_mismatches += check::mismatches(&answers, &expected[r]);
        answers.clear();
    }

    // ---- Settle: pump on until the cloud holds every accepted record.
    let span = tracer.enter("settle");
    let spacing_ms = inputs.rounds.last().map_or(1_000, |r| r.plan.spacing_ms());
    let mut settle_pumps = 0u64;
    while (dep.cloud().record_count() as u64) < accepted_total
        && settle_pumps < inputs::SYNC_CAPACITY as u64
    {
        now += SimDuration::from_millis(spacing_ms);
        let call = tracer.enter("pump.call");
        dep.drive().round(now);
        tracer.exit(call);
        settle_pumps += 1;
        pump_log.push((now.as_millis(), dep.cloud().record_count()));
    }
    dep.flush(now);
    let settled_at = settled_at.unwrap_or_else(Instant::now);
    tracer.exit(span);
    let settle_ms = settled_at.duration_since(settle_from).as_secs_f64() * 1e3;

    // ---- Owner reads over the settled state.
    let span = tracer.enter("final_reads");
    run_bursts(
        &mut dep,
        &inputs.final_bursts,
        tracer,
        &mut bursts,
        &mut answers,
    );
    tracer.exit(span);
    let measured_s = t_measured.elapsed().as_secs_f64();
    let proc = ProcStat::read().since(proc_before);
    let peak_rss_mb = machine::peak_rss_mb();

    // ---- Verification (untimed).
    let mut violations = Vec::new();
    let t_obs = Instant::now();
    let snapshot = dep.drive().observe();
    let snapshot_us = t_obs.elapsed().as_secs_f64() * 1e6;

    let QueryResponse::Series(series) = dep.drive().query(&QueryRequest::SeriesDump) else {
        unreachable!("SeriesDump answers with Series");
    };
    let digest_series = check::series_digest(
        series
            .iter()
            .map(|e| (e.entity.as_str(), e.attr.as_str(), e.samples.as_slice())),
    );
    let reference = match reference {
        Some(reference) => {
            if reference.series_digest() != digest_series {
                violations.push(
                    "stored history differs from the flat reference fed the same inputs".to_owned(),
                );
            }
            reference
        }
        None => Reference::from_series(&series),
    };
    drop(series);
    let expected_final: Vec<Option<u64>> = inputs
        .final_bursts
        .iter()
        .flat_map(|b| &b.reqs)
        .map(|req| reference.answer(req).as_ref().map(check::answer_digest))
        .collect();
    queries_checked += answers.len() as u64;
    query_mismatches += check::mismatches(&answers, &expected_final);
    let views_digest = answers
        .iter()
        .rev()
        .find(|a| matches!(a, QueryResponse::Views(_)))
        .map_or(0, check::answer_digest);
    if query_mismatches > 0 {
        violations.push(format!(
            "{query_mismatches} of {queries_checked} query answers differ from the flat reference"
        ));
    }

    let replica_seqs: Vec<Vec<u64>> = match &mut dep {
        Deployment::One(p) => vec![seqs(p.query(&QueryRequest::ReplicaSeqs))],
        Deployment::Sharded(sp) => (0..sp.shard_count())
            .map(|i| {
                let shard = sp.shard_mut(i).expect("index below shard_count");
                seqs(shard.query(&QueryRequest::ReplicaSeqs))
            })
            .collect(),
    };
    let conservation = Conservation::from_run(offered, over_radio, &snapshot, &replica_seqs);
    violations.extend(conservation.violations());
    if dep.cloud().record_count() as u64 != conservation.accepted {
        violations.push(format!(
            "the cloud store holds {} records, {} were accepted",
            dep.cloud().record_count(),
            conservation.accepted
        ));
    }
    if inputs.lossless {
        violations.extend(check::lossless_violations(&snapshot));
    }

    let flagged: BTreeSet<String> = dep
        .platforms()
        .iter()
        .flat_map(|p| p.behavior.flags().keys().cloned())
        .collect();
    let detection = inputs
        .storm
        .as_ref()
        .map(|truth| check::precision_recall(&flagged, &truth.attack_devices));
    if let Some((precision, recall)) = detection {
        if precision < 0.9 || recall < 0.75 {
            violations.push(format!(
                "behavioral baseline: precision {precision:.3} (floor 0.9), recall {recall:.3} (floor 0.75)"
            ));
        }
    }

    // Replication lag: the cloud's history is append-only in acceptance
    // order, so the slice between two pumps' counts is what that pump
    // made visible.
    let history = dep.cloud().history();
    let mut lag_s = Vec::with_capacity(history.len());
    let mut from = 0usize;
    for &(at_ms, held) in &pump_log {
        for rec in &history[from.min(held)..held.min(history.len())] {
            lag_s.push(at_ms.saturating_sub(rec.created_at.as_millis()) as f64 / 1e3);
        }
        from = held;
    }
    stats::sort(&mut lag_s);

    let mut h = stats::Fnv::default();
    h.write_u64(digest_series);
    h.write_u64(views_digest);
    let shard_accepted = dep
        .platforms()
        .iter()
        .map(|p| p.observe().counter("ingest.accepted").unwrap_or(0))
        .collect();

    RepResult {
        setup_s,
        measured_s,
        rounds,
        settle_ms,
        settle_pumps,
        bursts,
        lag_s,
        backlog_peak,
        conservation,
        queries_checked,
        query_mismatches,
        digest: h.finish(),
        flagged,
        detection,
        violations,
        snapshot,
        snapshot_us,
        peak_rss_mb,
        proc,
        shard_accepted,
    }
}

fn seqs(resp: QueryResponse) -> Vec<u64> {
    match resp {
        QueryResponse::Seqs(s) => s,
        _ => unreachable!("ReplicaSeqs answers with Seqs"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{STORM_PUMP_SPACING_MS, WORKLOADS};
    use swamp_codec::ngsi::Entity;
    use swamp_core::platform::{DeploymentConfig, Platform};
    use swamp_net::link::LinkSpec;

    /// Every workload, scaled down, passes its own correctness gate and
    /// repeats exactly. No wall-clock value is asserted.
    #[test]
    fn scaled_down_workloads_pass_the_gate_and_repeat() {
        for w in &WORKLOADS {
            let small = Workload {
                devices: 300,
                rounds: if w.kind == Kind::StormLossy { 96 } else { 3 },
                ..*w
            };
            let run = || run_rep(&small, 11, &mut Tracer::new(false));
            let (a, b) = (run(), run());
            // Detection quality is a property of the reference size; a
            // 300-device, two-day fleet is not held to it.
            let gate = |r: &RepResult| {
                r.violations
                    .iter()
                    .filter(|v| !v.starts_with("behavioral baseline"))
                    .cloned()
                    .collect::<Vec<_>>()
            };
            assert_eq!(gate(&a), Vec::<String>::new(), "{}", w.name);
            assert_eq!(a.failed(), 0, "{}", w.name);
            assert!(a.attempted() > a.conservation.offered, "{}", w.name);
            assert_eq!(a.conservation.accepted, a.conservation.cloud_unique);
            assert_eq!(a.rounds.len(), small.rounds);
            assert!(!a.lag_s.is_empty() && a.lag_s[0] > 0.0, "{}", w.name);
            assert_eq!(
                (a.digest, a.conservation, &a.lag_s, &a.flagged),
                (b.digest, b.conservation, &b.lag_s, &b.flagged),
                "{} does not repeat",
                w.name
            );
        }
    }

    #[test]
    fn sharded_and_wide_store_the_same_history() {
        let small = |i: usize| Workload {
            devices: 500,
            rounds: 2,
            ..WORKLOADS[i]
        };
        let wide = run_rep(&small(1), 5, &mut Tracer::new(false));
        let sharded = run_rep(&small(2), 5, &mut Tracer::new(false));
        assert_eq!(wide.digest, sharded.digest);
        assert_eq!(sharded.shard_accepted.len(), inputs::SHARDS);
        assert_eq!(sharded.shard_accepted.iter().sum::<u64>(), 1_000);
    }

    #[test]
    fn traced_repetition_spans_partition_the_round() {
        let small = Workload {
            devices: 200,
            rounds: 3,
            ..WORKLOADS[4]
        };
        let mut tracer = Tracer::new(true);
        let rep = run_rep(&small, 3, &mut tracer);
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
        let totals = crate::trace::totals_by_name(tracer.spans());
        assert_eq!(totals["round"].count, 3);
        assert_eq!(
            totals["pump.call"].count,
            rep.rounds.iter().map(|r| r.pumps).sum::<u64>()
        );
        assert_eq!(totals["query.views"].count, 3 + 1);
        // Children never outlast their parent.
        for s in tracer.spans() {
            if let Some(p) = s.parent {
                let parent = &tracer.spans()[p as usize];
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            }
        }
    }

    /// The storm_lossy pump cadence over an uplink that loses nothing:
    /// acks are always polled before their record's retry timer fires,
    /// so nothing is retransmitted. At a spacing equal to the 60 s base
    /// timeout the same traffic retransmits spuriously.
    #[test]
    fn storm_cadence_causes_no_spurious_retransmission() {
        let dry_run = |spacing_ms: u64| {
            let mut lossless = LinkSpec::rural_internet();
            lossless.loss_prob = 0.0;
            let mut p = Platform::builder(DeploymentConfig::FarmFog)
                .seed(9)
                .uplink_spec(lossless)
                .build();
            let mut now = SimTime::from_secs(60);
            for round in 0..6u64 {
                let batch: Vec<Entity> = (0..700)
                    .map(|i| {
                        let mut e = Entity::new(format!("urn:swamp:device:probe-{i}"), "SoilProbe");
                        e.set("moisture_vwc", 0.2 + round as f64 * 0.001);
                        e
                    })
                    .collect();
                p.ingest_entities(now, batch);
                for _ in 0..(1_800_000 / spacing_ms) {
                    now += SimDuration::from_millis(spacing_ms);
                    p.pump(now);
                }
            }
            let snap = p.observe();
            assert_eq!(snap.counter("cloud.accepted"), Ok(6 * 700));
            (
                snap.counter("sync.retransmissions").unwrap(),
                snap.counter("sync.timeouts").unwrap(),
            )
        };
        assert_eq!(dry_run(STORM_PUMP_SPACING_MS), (0, 0));
        let (retransmissions, _) = dry_run(60_000);
        assert!(retransmissions > 0, "the hazard the cadence avoids is real");
    }
}
