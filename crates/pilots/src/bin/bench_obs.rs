//! Observability overhead bench: runs the same FarmFog ingest+pump
//! workload twice per fleet size — once with the obs subsystem live,
//! once muted via `Platform::set_obs_enabled(false)` — and reports the
//! per-update cost of instrumentation. Emits `BENCH_obs.json` on stdout
//! (human-readable table on stderr).
//!
//! Usage: `cargo run -p swamp-pilots --bin bench_obs --release \
//!             [--check] [devices ...] > BENCH_obs.json`
//!
//! `--check` exits nonzero if the aggregate instrumented cost exceeds the
//! muted cost by more than 5% — the CI regression guard for the obs hot
//! path (indexed slab adds; no hashing, no allocation). Each fleet size
//! runs as `PAIRS` pairs: a live and a muted platform fed the same batches
//! round by round, alternating which goes first, and the median of the
//! pairs' live/muted ratios is compared. A slow spell of a shared machine
//! lands on both sides of a pair, and a pair it skews anyway is one ratio
//! the median discards.

use swamp_codec::json::Json;
use swamp_codec::ngsi::Entity;
use swamp_core::platform::{DeploymentConfig, Platform};
use swamp_sim::SimTime;

/// Paired live/muted sweeps; the median ratio is compared.
const PAIRS: usize = 11;
/// CI gate: instrumented cost may exceed muted cost by at most this.
const MAX_OVERHEAD: f64 = 0.05;

/// One fleet size's timings, one entry per pair.
struct Cell {
    devices: usize,
    updates: u64,
    muted_secs: Vec<f64>,
    live_secs: Vec<f64>,
}

impl Cell {
    fn overhead(&self) -> f64 {
        median(
            self.live_secs
                .iter()
                .zip(&self.muted_secs)
                .map(|(l, m)| ratio(*l, *m))
                .collect(),
        ) - 1.0
    }

    fn us_per_update(&self, secs: &[f64]) -> f64 {
        median(secs.to_vec()) * 1e6 / self.updates as f64
    }
}

/// `live / muted`, or 1 when nothing was timed.
fn ratio(live: f64, muted: f64) -> f64 {
    if muted > 0.0 {
        live / muted
    } else {
        1.0
    }
}

/// The middle value (the upper middle of an even count).
fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values.get(values.len() / 2).copied().unwrap_or(0.0)
}

/// One timed pair of sweeps: `rounds` minute-spaced batches of `devices`
/// updates through the post-validation ingest + pump path of two
/// platforms, one live and one muted. Each batch reaches both back to
/// back, the muted one first in every other round, so a slow spell of a
/// shared machine lands on both sides. Only ingest+pump are timed; batch
/// construction is excluded. Returns `(updates, live secs, muted secs)`.
fn run_pair(devices: usize) -> (u64, f64, f64) {
    let mut live = Platform::builder(DeploymentConfig::FarmFog).seed(7).build();
    let mut muted = Platform::builder(DeploymentConfig::FarmFog).seed(7).build();
    muted.set_obs_enabled(false);
    let rounds = (100_000 / devices).clamp(5, 1000);
    let mut updates = 0u64;
    let (mut live_secs, mut muted_secs) = (0.0f64, 0.0f64);
    for round in 0..rounds {
        let t = SimTime::from_secs(round as u64 * 60);
        let batch: Vec<Entity> = (0..devices)
            .map(|i| {
                let mut e = Entity::new(format!("urn:swamp:device:probe-{i}"), "SoilProbe");
                e.set("moisture_vwc", 0.2 + (round % 100) as f64 * 0.001);
                e.set("seq", round as f64);
                e
            })
            .collect();
        let muted_first = round % 2 == 0;
        for is_muted in [muted_first, !muted_first] {
            let (platform, secs) = if is_muted {
                (&mut muted, &mut muted_secs)
            } else {
                (&mut live, &mut live_secs)
            };
            let batch = batch.clone();
            #[expect(
                clippy::disallowed_types,
                reason = "wall-clock bench harness for obs overhead; its output only reaches stdout, never a committed table"
            )]
            let start = std::time::Instant::now();
            let accepted = platform.ingest_entities(t, batch) as u64;
            platform.pump(t);
            *secs += start.elapsed().as_secs_f64();
            if !is_muted {
                updates += accepted;
            }
        }
    }
    (updates, live_secs, muted_secs)
}

fn main() {
    let mut check = false;
    let mut sizes: Vec<usize> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--check" {
            check = true;
            continue;
        }
        match arg.parse::<usize>() {
            Ok(n) if n > 0 => sizes.push(n),
            _ => {
                eprintln!("bench_obs: fleet sizes must be positive integers, got {arg:?}");
                eprintln!("usage: bench_obs [--check] [devices ...]   (default: 100 1000 10000)");
                std::process::exit(2);
            }
        }
    }
    if sizes.is_empty() {
        sizes = vec![100, 1_000, 10_000];
    }

    let mut cells: Vec<Cell> = sizes
        .iter()
        .map(|&devices| Cell {
            devices,
            updates: 0,
            muted_secs: Vec::with_capacity(PAIRS),
            live_secs: Vec::with_capacity(PAIRS),
        })
        .collect();
    for _ in 0..PAIRS {
        for cell in &mut cells {
            let (updates, live, muted) = run_pair(cell.devices);
            cell.updates = updates;
            cell.live_secs.push(live);
            cell.muted_secs.push(muted);
        }
    }

    eprintln!("devices  updates  muted_us/upd  live_us/upd  overhead");
    for c in &cells {
        eprintln!(
            "{:>7}  {:>7}  {:>12.3}  {:>11.3}  {:>+7.2}%",
            c.devices,
            c.updates,
            c.us_per_update(&c.muted_secs),
            c.us_per_update(&c.live_secs),
            c.overhead() * 100.0
        );
    }
    // One ratio per pair: the whole sweep live over the whole sweep muted.
    let agg = median(
        (0..PAIRS)
            .map(|pair| {
                let live: f64 = cells.iter().map(|c| c.live_secs[pair]).sum();
                let muted: f64 = cells.iter().map(|c| c.muted_secs[pair]).sum();
                ratio(live, muted)
            })
            .collect(),
    ) - 1.0;
    eprintln!("aggregate overhead: {:+.2}%", agg * 100.0);

    let rows: Vec<Json> = cells
        .iter()
        .map(|c| {
            Json::object([
                ("devices", Json::Number(c.devices as f64)),
                ("updates", Json::Number(c.updates as f64)),
                (
                    "muted_us_per_update",
                    Json::Number((c.us_per_update(&c.muted_secs) * 1e3).round() / 1e3),
                ),
                (
                    "instrumented_us_per_update",
                    Json::Number((c.us_per_update(&c.live_secs) * 1e3).round() / 1e3),
                ),
                (
                    "overhead_pct",
                    Json::Number((c.overhead() * 1e4).round() / 1e2),
                ),
            ])
        })
        .collect();
    let doc = Json::object([
        ("experiment", Json::String("obs_overhead".into())),
        (
            "description",
            Json::String(
                "Wall-clock cost of the obs subsystem on the ingest+pump hot \
                 path: the same FarmFog workload with instrumentation live vs \
                 muted (handles registered, recording gated off). Medians \
                 of 11 pairs; in each, a live and a muted platform take every \
                 batch back to back, alternating which goes first."
                    .into(),
            ),
        ),
        ("build", Json::String("release".into())),
        (
            "aggregate_overhead_pct",
            Json::Number((agg * 1e4).round() / 1e2),
        ),
        ("rows", Json::Array(rows)),
    ]);
    println!("{}", doc.to_pretty_string());

    if check && agg > MAX_OVERHEAD {
        eprintln!(
            "bench_obs: instrumentation overhead {:.2}% exceeds the {:.0}% budget",
            agg * 100.0,
            MAX_OVERHEAD * 100.0
        );
        std::process::exit(1);
    }
}
