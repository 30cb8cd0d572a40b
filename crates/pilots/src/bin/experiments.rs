//! Prints every experiment report (P0, E1–E16) — the generator for
//! EXPERIMENTS.md.
//!
//! Usage: `cargo run -p swamp-pilots --bin experiments --release [seed]`

use swamp_pilots::experiments::{p0_pilots, run_all};

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    println!("# SWAMP experiment reports (seed {seed})\n");

    // Pilot summary first (the paper's §I).
    println!("{}", p0_pilots(seed));

    for report in run_all(seed) {
        println!("{report}");
    }
}
