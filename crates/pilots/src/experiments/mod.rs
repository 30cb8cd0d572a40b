//! The experiment harness: one function per experiment in EXPERIMENTS.md.
//!
//! The paper (a two-page overview) publishes no tables or figures; these
//! experiments quantify each of its claims and challenges instead — see
//! DESIGN.md §3 for the mapping. Every experiment takes an explicit seed
//! and is bit-reproducible.

#![allow(
    clippy::expect_used,
    clippy::panic,
    reason = "experiment harness, not platform code: a violated setup precondition must abort loudly, not publish a wrong table"
)]

pub mod attacks;
pub mod baseline;
pub mod platform;
pub mod resilience;
pub mod scale;
pub mod water;

pub use attacks::{e12_behavior, e2_dos, e3_tamper, e4_sybil};
pub use baseline::{
    e16_baseline_detection, e16_builder, e16_config, e16_run_pilot, e16_shard_run, e16_spec,
    DetectorFingerprint, E16Result, E16Row, E16_DEVICES, E16_ROUNDS,
};
pub use platform::{e11_platform_scale, e5_fog_availability, e6_partial_view, e7_auth, e8_crypto};
pub use resilience::{e13_resilience, e13_resilience_observed, E13Result, E13Row};
pub use scale::{e14_shard_scale, E14Result, E14Row};
pub use water::{e10_distribution, e1_water_energy};

use crate::pilots::{run_pilot, Agronomy, Pilot};
use crate::report::{fmt_f, fmt_pct, Report};

/// P0, the pilot summary the `experiments` binary prints before
/// [`run_all`]'s reports: each pilot's season under the smart policy
/// against conventional practice (the paper's §I).
pub fn p0_pilots(seed: u64) -> Report {
    let mut table = Report::new(
        "P0: four pilots, smart policy vs conventional practice",
        &[
            "pilot",
            "water_saving",
            "energy_saving",
            "cost_saving",
            "yield_delta",
            "quality_smart",
            "quality_base",
        ],
    );
    for pilot in Pilot::all() {
        let r = run_pilot(pilot, seed);
        table.push_row(vec![
            Agronomy::of(pilot).display_name.to_owned(),
            fmt_pct(r.water_saving()),
            fmt_pct(r.energy_saving()),
            fmt_pct(r.cost_saving()),
            fmt_f(r.yield_delta(), 3),
            fmt_f(r.smart.wine_quality(), 1),
            fmt_f(r.baseline.wine_quality(), 1),
        ]);
    }
    table
}

/// Runs every experiment and returns all reports in id order — the
/// generator behind EXPERIMENTS.md and the `experiments` binary.
///
/// Everything here is bit-reproducible per seed. Wall-clock cost is not
/// an experiment: it is measured by the reference benchmark
/// (`BENCHMARK.json`, `benchmark/`), whose workloads carry the
/// throughput, read-path and detector-overhead claims.
pub fn run_all(seed: u64) -> Vec<Report> {
    let e1 = e1_water_energy(seed);
    let e2 = e2_dos(seed);
    let e3 = e3_tamper(seed);
    let e4 = e4_sybil(seed);
    let e5 = e5_fog_availability(seed);
    let e6 = e6_partial_view(seed);
    let e7 = e7_auth(seed);
    let e8 = e8_crypto(seed);
    let e10 = e10_distribution(seed);
    let e11 = e11_platform_scale(seed);
    let e12 = e12_behavior(seed);
    let e13 = e13_resilience(seed);
    let e14 = e14_shard_scale(seed);
    let e16 = e16_baseline_detection(seed);
    vec![
        e1.report(),
        e1.ablation_report(),
        e2.report(),
        e3.report(),
        e4.report(),
        e5.report(),
        e5.ablation_report(),
        e6.report(),
        e7.report(),
        e8.report(),
        e10.report(),
        e11.report(),
        e11.ablation_report(),
        e12.report(),
        e13.report(),
        e14.report(),
        e16.report(),
    ]
}
