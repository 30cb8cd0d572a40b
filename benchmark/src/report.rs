//! Metric names and units, the reduction of repetitions to metric
//! values, and the two output forms: a table for people and the
//! contract's one-line JSON result.

use std::collections::BTreeMap;

use swamp_codec::json::Json;
use swamp_obs::ObsSnapshot;

use crate::inputs::{QueryClass, Workload, WORKERS};
use crate::machine::{Machine, ProcStat};
use crate::replay::LayerCosts;
use crate::run::RepResult;
use crate::stats;
use crate::trace::{self, Span};

pub type Metrics = BTreeMap<&'static str, f64>;

/// Every end-to-end metric with its unit, in report order. The two lag
/// metrics are simulated time (`sim_s`), a deterministic function of the
/// seed, not a wall-clock reading.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("us_per_record_p50", "us"),
    ("first_round_us_per_record", "us"),
    ("query_us_p50", "us"),
    ("wide_query_us_p50", "us"),
    ("replication_lag_s_p50", "sim_s"),
    ("replication_lag_s_p95", "sim_s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 70] = [
    ("crypto.seal_us", "us"),
    ("crypto.open_us", "us"),
    ("codec.parse_us", "us"),
    ("codec.write_us", "us"),
    ("codec.frame_bytes", "bytes"),
    ("net.send_us", "us"),
    ("net.deliver_us", "us"),
    ("net.offered", "count"),
    ("net.lost", "count"),
    ("security.detectors_us", "us"),
    ("core.validate_us", "us"),
    ("core.ingest_us", "us"),
    ("core.history_append_us", "us"),
    ("core.broker_upsert_us", "us"),
    ("core.ingest_accepted", "count"),
    ("core.ingest_rejected", "count"),
    ("fog.enqueue_us", "us"),
    ("fog.sync_round_us", "us"),
    ("fog.cloud_apply_us", "us"),
    ("fog.ack_us", "us"),
    ("fog.transmissions", "count"),
    ("fog.backlog_peak", "count"),
    ("fog.retransmissions", "count"),
    ("fog.timeouts", "count"),
    ("fog.cloud_duplicates", "count"),
    ("fog.dropped", "count"),
    ("fog.useful_ratio", "ratio"),
    ("net.fault_dropped", "count"),
    ("net.fault_duplicated", "count"),
    ("security.baseline_us", "us"),
    ("security.baseline_flagged", "count"),
    ("security.alerts_raised", "count"),
    ("core.query_recent_us", "us"),
    ("core.query_wide_us", "us"),
    ("core.query_downsample_us", "us"),
    ("core.query_last_us", "us"),
    ("core.query_views_us", "us"),
    ("views.catch_up_us", "us"),
    ("views.applied", "count"),
    ("core.segments_pruned", "count"),
    ("core.segments_summarized", "count"),
    ("core.segments_decoded", "count"),
    ("core.summary_hit_ratio", "ratio"),
    ("core.prune_us", "us"),
    ("core.compact_us", "us"),
    ("shard.pump_us", "us"),
    ("shard.aggregate_us", "us"),
    ("shard.query_fanout_us", "us"),
    ("shard.balance_max_min", "ratio"),
    ("shard.speedup_vs_wide", "ratio"),
    ("driver.offer_us", "us"),
    ("driver.pump_us", "us"),
    ("driver.sub_drain_us", "us"),
    ("driver.query_us", "us"),
    ("driver.retention_us", "us"),
    ("driver.settle_us", "us"),
    ("driver.settle_ms", "ms"),
    ("driver.pumps_per_round", "count"),
    ("driver.us_per_record_p10", "us"),
    ("driver.us_per_record_p95", "us"),
    ("driver.round_growth", "ratio"),
    ("obs.snapshot_us", "us"),
    ("proc.user_s", "s"),
    ("proc.sys_s", "s"),
    ("proc.minflt", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("cliff.us_per_record", "us"),
    ("cliff.sys_s", "s"),
    ("cliff.minflt", "count"),
];

/// The fastest repetition of each timed sample. Repetitions of one seed
/// do identical work sample for sample, and what disturbs a timing on a
/// shared machine only ever adds to it, so the minimum over repetitions
/// is the reading least disturbed; medians are then taken over the
/// samples, which differ in the work they do. `sample(rep, i)` is the
/// `i`-th sample of a repetition, `None` where it has no reading.
fn fastest<'a>(
    reps: &'a [RepResult],
    len: usize,
    sample: impl Fn(&'a RepResult, usize) -> Option<f64>,
) -> Vec<f64> {
    (0..len)
        .filter_map(|i| {
            reps.iter()
                .filter_map(|r| sample(r, i))
                .min_by(f64::total_cmp)
        })
        .collect()
}

/// Per-record cost of every steady round, fastest repetition of each
/// (round 0 creates entities and interns series; it is reported on its
/// own). Rounds that accepted nothing have no per-record cost.
pub fn steady_us_per_record(reps: &[RepResult]) -> Vec<f64> {
    let rounds = reps.first().map_or(0, |r| r.rounds.len());
    fastest(reps, rounds.saturating_sub(1), |r, i| {
        r.rounds.get(i + 1)?.us_per_record()
    })
}

/// Per-query cost of every read burst, fastest repetition of each.
fn burst_us(reps: &[RepResult], class: Option<QueryClass>) -> Vec<f64> {
    let bursts = reps.first().map_or(0, |r| r.bursts.len());
    fastest(reps, bursts, |r, i| {
        let b = r.bursts.get(i)?;
        class.is_none_or(|c| b.class == c).then(|| b.us_per_query())
    })
}

/// What a set of repetitions of one workload amounts to.
pub struct Outcome {
    pub metrics: Metrics,
    /// Diagnostics printed under the table; none of them gates.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Pooled sample counts behind the medians, for the printed table.
    pub samples: BTreeMap<&'static str, usize>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.violations.is_empty() && self.failed == 0
    }
}

/// Reduces repetitions to the end-to-end metrics and the verdict.
/// Wall-clock metrics are medians over samples, each sample read from
/// its fastest repetition (`setup_s`: the median over repetitions);
/// everything deterministic must repeat exactly across repetitions, or
/// the run is not correct.
pub fn end_to_end(reps: &[RepResult]) -> Outcome {
    let mut metrics = Metrics::new();
    let mut samples = BTreeMap::new();
    let mut violations: Vec<String> = reps.iter().flat_map(|r| r.violations.clone()).collect();

    let setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    metrics.insert("setup_s", stats::median(&setups));
    samples.insert("setup_s", setups.len());

    let steady = steady_us_per_record(reps);
    metrics.insert("us_per_record_p50", stats::median(&steady));
    samples.insert("us_per_record_p50", steady.len());

    let first = fastest(reps, 1, |r, i| r.rounds.get(i)?.us_per_record());
    metrics.insert("first_round_us_per_record", stats::median(&first));

    let all = burst_us(reps, None);
    metrics.insert("query_us_p50", stats::median(&all));
    samples.insert("query_us_p50", all.len());
    let wide = burst_us(reps, Some(QueryClass::Wide));
    metrics.insert("wide_query_us_p50", stats::median(&wide));
    samples.insert("wide_query_us_p50", wide.len());

    let lag = |r: &RepResult, q: f64| stats::quantile_sorted(&r.lag_s, q).unwrap_or(0.0);
    if let Some(head) = reps.first() {
        metrics.insert("replication_lag_s_p50", lag(head, 0.5));
        metrics.insert("replication_lag_s_p95", lag(head, 0.95));
        samples.insert("replication_lag_s_p50", head.lag_s.len());
        for (i, r) in reps.iter().enumerate().skip(1) {
            let same = r.digest == head.digest
                && r.conservation == head.conservation
                && r.flagged == head.flagged
                && r.lag_s == head.lag_s;
            if !same {
                violations.push(format!(
                    "repetition {i} of the same seed differs from repetition 0 \
                     (digest {:016x} vs {:016x}, {} vs {} flagged, lag p95 {} vs {})",
                    r.digest,
                    head.digest,
                    r.flagged.len(),
                    head.flagged.len(),
                    lag(r, 0.95),
                    lag(head, 0.95),
                ));
            }
        }
    }

    let attempted: u64 = reps.iter().map(RepResult::attempted).sum();
    let failed: u64 = reps.iter().map(RepResult::failed).sum();
    metrics.insert("ok_ratio", 1.0 - failed as f64 / attempted.max(1) as f64);
    metrics.insert(
        "peak_rss_mb",
        reps.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max),
    );
    violations.sort();
    violations.dedup();

    // Tails are diagnostics: the highest percentile each set of samples
    // supports, with its sample count.
    let mut notes = Vec::new();
    for (what, sample) in [("us_per_record", &steady), ("query_us", &all)] {
        if let Some(p) = stats::supported_tail(sample.len()) {
            notes.push(format!(
                "{what} p{} = {:.4} us over {} samples",
                p * 100.0,
                stats::quantile(sample, p).unwrap_or(0.0),
                sample.len()
            ));
        }
    }
    if let Some((precision, recall)) = reps.first().and_then(|r| r.detection) {
        notes.push(format!(
            "behavioral baseline: precision {precision:.3} (floor 0.9), recall {recall:.3} (floor 0.75)"
        ));
    }
    if let Some(head) = reps.first() {
        notes.push(format!(
            "pumps per repetition {} (+{} to settle), deterministic",
            head.rounds.iter().map(|r| r.pumps).sum::<u64>(),
            head.settle_pumps
        ));
    }
    Outcome {
        metrics,
        notes,
        attempted: attempted.max(1),
        failed,
        violations,
        samples,
    }
}

fn counter(snap: &ObsSnapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// What the traced run of one workload produced besides its repetition.
pub struct Traced<'a> {
    pub workload: &'a Workload,
    pub machine: &'a Machine,
    /// The untraced repetition the overhead is taken against.
    pub untraced: &'a RepResult,
    pub traced: &'a RepResult,
    pub spans: &'a [Span],
    pub costs: &'a LayerCosts,
    /// `fleet_wide`'s steady per-record cost measured in the same
    /// process (`fleet_sharded` only).
    pub wide_us_per_record: Option<f64>,
    pub cliff: Option<Cliff>,
}

/// The 100 000-device probe: two `fleet_wide`-style rounds.
#[derive(Clone, Copy, Debug)]
pub struct Cliff {
    pub us_per_record: f64,
    pub proc: ProcStat,
}

/// Share of the traced round time the driver's phase spans cover; the
/// remainder is the loop's own bookkeeping between phases.
pub fn phase_share(spans: &[Span]) -> f64 {
    let totals = trace::totals_by_name(spans);
    let ns = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
    let phases = ["offer", "pump", "sub_drain", "query", "retention"];
    ratio(phases.iter().map(|p| ns(p)).sum(), ns("round"))
}

/// Reduces the traced run to every per-layer metric.
pub fn per_layer(t: &Traced) -> Metrics {
    let mut m = Metrics::new();
    let snap = &t.traced.snapshot;
    let costs = t.costs;
    let totals = trace::totals_by_name(t.spans);
    let span_ns = |name: &str| totals.get(name).map_or(0, |x| x.total_ns) as f64;
    let records = t.traced.conservation.accepted.max(1) as f64;

    for (name, busy) in &costs.busy {
        m.insert(name, busy.us_per_record());
    }
    m.insert("codec.frame_bytes", costs.frame_bytes);

    for (metric, obs) in [
        ("net.offered", "net.offered"),
        ("net.lost", "net.lost"),
        ("net.fault_dropped", "net.fault.dropped"),
        ("net.fault_duplicated", "net.fault.duplicated"),
        ("core.ingest_accepted", "ingest.accepted"),
        ("fog.transmissions", "sync.transmissions"),
        ("fog.retransmissions", "sync.retransmissions"),
        ("fog.timeouts", "sync.timeouts"),
        ("fog.cloud_duplicates", "cloud.duplicates"),
        ("fog.dropped", "sync.dropped"),
        ("security.baseline_flagged", "security.baseline.flagged"),
        ("security.alerts_raised", "security.alerts_raised"),
        ("views.applied", "view.applied"),
        ("core.segments_pruned", "query.segments_pruned"),
        ("core.segments_summarized", "query.segments_summarized"),
        ("core.segments_decoded", "query.segments_decoded"),
    ] {
        m.insert(metric, counter(snap, obs));
    }
    m.insert(
        "core.ingest_rejected",
        t.traced.conservation.rejected as f64,
    );
    m.insert("fog.backlog_peak", t.traced.backlog_peak as f64);
    // On a sharded tier `cloud.accepted` also counts the aggregate
    // store's applies; the shards' own replicas accepted what was
    // ingested.
    m.insert(
        "fog.useful_ratio",
        ratio(
            t.traced.conservation.cloud_unique as f64,
            counter(snap, "sync.transmissions"),
        ),
    );
    m.insert(
        "core.summary_hit_ratio",
        ratio(
            counter(snap, "query.segments_summarized"),
            counter(snap, "query.segments_summarized") + counter(snap, "query.segments_decoded"),
        ),
    );

    for (metric, class) in [
        ("core.query_recent_us", QueryClass::Recent),
        ("core.query_wide_us", QueryClass::Wide),
        ("core.query_downsample_us", QueryClass::Downsample),
        ("core.query_last_us", QueryClass::Last),
        ("core.query_views_us", QueryClass::Views),
    ] {
        let (ns, queries) = t
            .traced
            .bursts
            .iter()
            .filter(|b| b.class == class)
            .fold((0u64, 0u64), |(ns, q), b| (ns + b.wall_ns, q + b.queries));
        m.insert(metric, ratio(ns as f64 / 1e3, queries as f64));
    }
    m.insert("core.prune_us", span_ns("prune") / 1e3 / records);
    m.insert("core.compact_us", span_ns("compact") / 1e3 / records);

    let sharded = t.traced.shard_accepted.len() > 1;
    if sharded {
        m.insert("shard.query_fanout_us", m["core.query_last_us"]);
        let max = t.traced.shard_accepted.iter().max().copied().unwrap_or(0) as f64;
        let min = t.traced.shard_accepted.iter().min().copied().unwrap_or(0) as f64;
        m.insert("shard.balance_max_min", ratio(max, min));
        // With fewer cores than pool workers the comparison cannot be
        // made; the cell is untested, not a speedup of 0.
        if t.machine.nproc >= WORKERS {
            let own = stats::median(&steady_us_per_record(std::slice::from_ref(t.untraced)));
            m.insert(
                "shard.speedup_vs_wide",
                ratio(t.wide_us_per_record.unwrap_or(0.0), own),
            );
        }
    }

    for (metric, span) in [
        ("driver.offer_us", "offer"),
        ("driver.pump_us", "pump"),
        ("driver.sub_drain_us", "sub_drain"),
        ("driver.query_us", "query"),
        ("driver.retention_us", "retention"),
        ("driver.settle_us", "settle"),
    ] {
        m.insert(metric, span_ns(span) / 1e3 / records);
    }
    // Wall time from the end of the last offer to cloud-complete: a few
    // milliseconds on storm_lossy, too short a window to gate on.
    m.insert(
        "driver.settle_ms",
        t.traced.settle_ms.min(t.untraced.settle_ms),
    );
    let rounds = &t.traced.rounds;
    m.insert(
        "driver.pumps_per_round",
        ratio(
            rounds.iter().map(|r| r.pumps).sum::<u64>() as f64,
            rounds.len() as f64,
        ),
    );
    let mut steady = steady_us_per_record(std::slice::from_ref(t.traced));
    let growth_window = steady.len().div_ceil(10);
    let mean = |xs: &[f64]| ratio(xs.iter().sum(), xs.len() as f64);
    m.insert(
        "driver.round_growth",
        ratio(
            mean(&steady[steady.len() - growth_window..]),
            mean(&steady[..growth_window]),
        ),
    );
    stats::sort(&mut steady);
    m.insert(
        "driver.us_per_record_p10",
        stats::quantile_sorted(&steady, 0.10).unwrap_or(0.0),
    );
    m.insert(
        "driver.us_per_record_p95",
        stats::quantile_sorted(&steady, 0.95).unwrap_or(0.0),
    );
    m.insert("obs.snapshot_us", t.traced.snapshot_us);

    m.insert("proc.user_s", t.traced.proc.user_s);
    m.insert("proc.sys_s", t.traced.proc.sys_s);
    m.insert("proc.minflt", t.traced.proc.minflt as f64);

    // Coverage: replayed layer busy time plus the reads and retention
    // the driver calls directly, over the traced round and settle time.
    let direct = span_ns("query") + span_ns("retention");
    let over_radio = t.workload.kind == crate::inputs::Kind::SealedSteady;
    m.insert(
        "trace.coverage",
        ratio(
            costs.top_level_ns(over_radio) as f64 + direct,
            span_ns("round") + span_ns("settle"),
        ),
    );
    let p50 = |r: &RepResult| stats::median(&steady_us_per_record(std::slice::from_ref(r)));
    m.insert(
        "trace.overhead_ratio",
        ratio(p50(t.traced), p50(t.untraced)),
    );

    if let Some(cliff) = t.cliff {
        m.insert("cliff.us_per_record", cliff.us_per_record);
        m.insert("cliff.sys_s", cliff.proc.sys_s);
        m.insert("cliff.minflt", cliff.proc.minflt as f64);
    }
    for (name, _) in PER_LAYER {
        m.entry(name).or_insert(0.0);
    }
    m
}

/// Every listed metric as `{name: {"value", "unit"}}`, each value with
/// all its digits; a metric the run did not fill reads 0.
pub fn metrics_json(defs: &[(&'static str, &'static str)], metrics: &Metrics) -> Json {
    Json::object(defs.iter().map(|(name, unit)| {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        (
            *name,
            Json::object([
                ("value", Json::Number(value)),
                ("unit", Json::String((*unit).to_owned())),
            ]),
        )
    }))
}

/// The contract's result line: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(
    defs: &[(&'static str, &'static str)],
    metrics: &Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
) -> String {
    let metrics = metrics_json(defs, metrics);
    Json::object([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Number(attempted as f64)),
        ("failed", Json::Number(failed as f64)),
        ("metrics", metrics),
    ])
    .to_compact_string()
}

/// The table for people: every metric by name with its unit.
pub fn table(
    title: &str,
    defs: &[(&'static str, &'static str)],
    metrics: &Metrics,
    samples: &BTreeMap<&'static str, usize>,
) -> String {
    let mut out = format!("{title}\n");
    for (name, unit) in defs {
        let value = metrics.get(name).copied().unwrap_or(0.0);
        let n = samples
            .get(name)
            .map_or(String::new(), |n| format!("  (n={n})"));
        out.push_str(&format!("  {name:<28} {value:>16.4} {unit}{n}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_meet_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} is used twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().any(|(n, u)| *n == "setup_s" && *u == "s"));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn benchmark_json_names_the_same_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |defs: &[(&str, &str)]| -> Vec<(String, String)> {
            defs.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_owned())
            .collect();
        let own: Vec<&str> = crate::inputs::WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, own);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut m = Metrics::new();
        m.insert("setup_s", 0.812_734_5);
        let line = result_line(&END_TO_END[..1], &m, true, 1_000, 0);
        assert_eq!(
            line,
            "{\"attempted\":1000,\"correct\":true,\"failed\":0,\"metrics\":\
             {\"setup_s\":{\"unit\":\"s\",\"value\":0.8127345}}}"
        );
        assert!(!line.contains('\n'));
    }
}
