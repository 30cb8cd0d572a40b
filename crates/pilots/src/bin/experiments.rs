//! Prints every experiment report (P0, E1–E16) — the generator for
//! EXPERIMENTS.md.
//!
//! Usage: `cargo run -p swamp-pilots --bin experiments --release [seed]`

use swamp_pilots::experiments::{p0_pilots, run_all};

fn main() {
    let seed: u64 = match std::env::args().nth(1).map(|arg| arg.parse()) {
        None => 42,
        Some(Ok(seed)) => seed,
        Some(Err(_)) => {
            eprintln!("usage: experiments [seed]   (seed: an unsigned integer, default 42)");
            std::process::exit(2);
        }
    };
    println!("# SWAMP experiment reports (seed {seed})\n");

    // Pilot summary first (the paper's §I).
    println!("{}", p0_pilots(seed));

    for report in run_all(seed) {
        println!("{report}");
    }
}
