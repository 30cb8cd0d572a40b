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
//! path (indexed slab adds; no hashing, no allocation). Both variants run
//! `REPS` times interleaved and the minimum per variant is compared, so
//! transient machine noise biases both sides equally.

use swamp_codec::json::Json;
use swamp_codec::ngsi::Entity;
use swamp_core::platform::{DeploymentConfig, Platform};
use swamp_sim::SimTime;

/// Interleaved repetitions per (size, variant); minima are compared.
const REPS: usize = 3;
/// CI gate: instrumented cost may exceed muted cost by at most this.
const MAX_OVERHEAD: f64 = 0.05;

struct Cell {
    devices: usize,
    updates: u64,
    muted_secs: f64,
    live_secs: f64,
}

impl Cell {
    fn overhead(&self) -> f64 {
        if self.muted_secs > 0.0 {
            self.live_secs / self.muted_secs - 1.0
        } else {
            0.0
        }
    }
}

/// One timed sweep: `rounds` minute-spaced batches of `devices` updates
/// through the post-validation ingest + pump path. Only ingest+pump are
/// timed; batch construction is identical across variants and excluded.
fn run_variant(devices: usize, muted: bool) -> (u64, f64) {
    let mut platform = Platform::builder(DeploymentConfig::FarmFog).seed(7).build();
    platform.set_obs_enabled(!muted);
    let rounds = (100_000 / devices).clamp(5, 1000);
    let mut updates = 0u64;
    let mut secs = 0.0f64;
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
        #[expect(
            clippy::disallowed_types,
            reason = "wall-clock bench harness for obs overhead; its output only reaches stdout, never a committed table"
        )]
        let start = std::time::Instant::now();
        updates += platform.ingest_entities(t, batch) as u64;
        platform.pump(t);
        secs += start.elapsed().as_secs_f64();
    }
    (updates, secs)
}

fn run_cell(devices: usize) -> Cell {
    let mut muted_best = f64::INFINITY;
    let mut live_best = f64::INFINITY;
    let mut updates = 0u64;
    for _ in 0..REPS {
        let (u, m) = run_variant(devices, true);
        let (_, l) = run_variant(devices, false);
        updates = u;
        muted_best = muted_best.min(m);
        live_best = live_best.min(l);
    }
    Cell {
        devices,
        updates,
        muted_secs: muted_best,
        live_secs: live_best,
    }
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

    let cells: Vec<Cell> = sizes.iter().map(|&d| run_cell(d)).collect();

    eprintln!("devices  updates  muted_us/upd  live_us/upd  overhead");
    for c in &cells {
        eprintln!(
            "{:>7}  {:>7}  {:>12.3}  {:>11.3}  {:>+7.2}%",
            c.devices,
            c.updates,
            c.muted_secs * 1e6 / c.updates as f64,
            c.live_secs * 1e6 / c.updates as f64,
            c.overhead() * 100.0
        );
    }
    let total_muted: f64 = cells.iter().map(|c| c.muted_secs).sum();
    let total_live: f64 = cells.iter().map(|c| c.live_secs).sum();
    let agg = if total_muted > 0.0 {
        total_live / total_muted - 1.0
    } else {
        0.0
    };
    eprintln!("aggregate overhead: {:+.2}%", agg * 100.0);

    let rows: Vec<Json> = cells
        .iter()
        .map(|c| {
            Json::object([
                ("devices", Json::Number(c.devices as f64)),
                ("updates", Json::Number(c.updates as f64)),
                (
                    "muted_us_per_update",
                    Json::Number((c.muted_secs * 1e6 / c.updates as f64 * 1e3).round() / 1e3),
                ),
                (
                    "instrumented_us_per_update",
                    Json::Number((c.live_secs * 1e6 / c.updates as f64 * 1e3).round() / 1e3),
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
                 muted (handles registered, recording gated off). Best-of-3 \
                 interleaved runs per variant."
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
