//! Runs one named pilot and prints its smart-vs-baseline season report.
//!
//! Usage: `cargo run -p swamp-pilots --bin pilot --release -- <site> [seed]`
//! where `<site>` is one of `cbec`, `intercrop`, `guaspari`, `matopiba`,
//! or `all`.

use swamp_pilots::pilots::{run_pilot, Agronomy, Pilot, PilotReport};

fn print_report(r: &PilotReport) {
    println!("=== {} ===", Agronomy::of(r.pilot).display_name);
    println!(
        "{:<28} {:>12} {:>12} {:>12} {:>9} {:>9}",
        "", "water_m3", "energy_kWh", "cost_EUR", "yield", "quality"
    );
    for (label, o) in [("baseline", &r.baseline), ("smart", &r.smart)] {
        println!(
            "{:<28} {:>12.0} {:>12.0} {:>12.0} {:>9.3} {:>9.1}",
            label,
            o.account.volume_m3,
            o.account.energy_kwh,
            o.account.cost_eur,
            o.mean_yield(),
            o.wine_quality(),
        );
    }
    println!(
        "savings: water {:.1}%, energy {:.1}%, cost {:.1}%; yield delta {:+.3}; \
         rain over season {:.0} mm\n",
        r.water_saving() * 100.0,
        r.energy_saving() * 100.0,
        r.cost_saving() * 100.0,
        r.yield_delta(),
        r.smart.rain_mm,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let site_arg = args.get(1).map(String::as_str).unwrap_or("all");
    let seed: u64 = match args.get(2).map(|arg| arg.parse()) {
        None => 42,
        Some(Ok(seed)) => seed,
        Some(Err(_)) => {
            eprintln!("usage: pilot [cbec | intercrop | guaspari | matopiba | all] [seed]   (seed: an unsigned integer, default 42)");
            std::process::exit(2);
        }
    };

    let pilots: Vec<Pilot> = match site_arg {
        "all" => Pilot::all().to_vec(),
        name => match Pilot::all().into_iter().find(|p| p.name() == name) {
            Some(pilot) => vec![pilot],
            None => {
                eprintln!(
                    "unknown pilot {name:?}; use cbec | intercrop | guaspari | matopiba | all"
                );
                std::process::exit(2);
            }
        },
    };

    println!("SWAMP pilot season runner (seed {seed})\n");
    for pilot in pilots {
        print_report(&run_pilot(pilot, seed));
    }
}
