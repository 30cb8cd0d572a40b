//! The SWAMP reference benchmark: five named workloads, ten end-to-end
//! metrics, per-layer metrics from a traced run, and a correctness gate,
//! all from one command. See `benchmark/README.md`.
//!
//! Two ways to run it:
//!
//! - `--workload <name> --seed <n> --seconds <s> --trace <0|1>` measures
//!   one workload and ends its standard output with one JSON result line
//!   (the form `BENCHMARK.json`'s `command` is run in);
//! - without `--workload` all five workloads run in one process, their
//!   repetitions interleaved round-robin; `--aa` runs two such sets back
//!   to back and compares them against the bounds in `BENCHMARK.json`.

mod check;
mod deploy;
mod inputs;
mod machine;
mod replay;
mod report;
mod run;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use swamp_codec::json::Json;

use inputs::{Kind, Workload, WORKERS, WORKLOADS};
use machine::Machine;
use report::{Cliff, Metrics, Outcome, Traced, END_TO_END, PER_LAYER};
use run::{run_rep, RepResult};
use trace::Tracer;

const USAGE: &str = "usage: swamp-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] \
                     [--trace <0|1>] [--aa] [--out <dir>]";

#[derive(Clone)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    aa: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 15.0,
        trace: false,
        aa: false,
        out: PathBuf::from("benchmark/out"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(inputs::workload(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--aa" => args.aa = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Untraced repetitions of one workload until the measured phases add up
/// to the budget; never fewer than two, so that exact repetition of the
/// deterministic results is always checked.
fn measure(w: &Workload, seed: u64, seconds: f64) -> Vec<RepResult> {
    let mut reps = Vec::new();
    let mut measured = 0.0;
    while measured < seconds || reps.len() < 2 {
        let rep = run_rep(w, seed, &mut Tracer::new(false));
        measured += rep.measured_s;
        reps.push(rep);
    }
    reps
}

/// All five workloads in one process, one repetition of each in turn, so
/// that slow machine drift hits every workload alike.
fn measure_interleaved(seed: u64, seconds: f64) -> Vec<Vec<RepResult>> {
    let mut sets: Vec<Vec<RepResult>> = WORKLOADS.iter().map(|_| Vec::new()).collect();
    let mut measured = vec![0.0; WORKLOADS.len()];
    loop {
        let mut ran = false;
        for (i, w) in WORKLOADS.iter().enumerate() {
            if measured[i] < seconds || sets[i].len() < 2 {
                let rep = run_rep(w, seed, &mut Tracer::new(false));
                measured[i] += rep.measured_s;
                sets[i].push(rep);
                ran = true;
            }
        }
        if !ran {
            return sets;
        }
    }
}

struct TracedRun {
    metrics: Metrics,
    outcome: Outcome,
    phase_share: f64,
    spans_path: PathBuf,
}

/// The traced run of one workload: an untraced repetition to take the
/// overhead against, a traced one, the per-layer replay, and the probes
/// that ride along (`fleet_wide`'s cliff, `fleet_sharded`'s reference).
fn traced_run(w: &Workload, seed: u64, machine: &Machine, out: &Path) -> TracedRun {
    let untraced = run_rep(w, seed, &mut Tracer::new(false));
    let mut tracer = Tracer::new(true);
    tracer.rep = 1;
    let traced = run_rep(w, seed, &mut tracer);
    let costs = replay::replay(w, seed);

    let wide_us_per_record =
        (w.kind == Kind::FleetSharded && machine.nproc >= WORKERS).then(|| {
            let wide = run_rep(&WORKLOADS[1], seed, &mut Tracer::new(false));
            stats::median(&report::steady_us_per_record(&[wide]))
        });
    let cliff = (w.kind == Kind::FleetWide).then(|| {
        let probe = Workload {
            devices: 100_000,
            rounds: 2,
            ..*w
        };
        let rep = run_rep(&probe, seed, &mut Tracer::new(false));
        let ns: u64 = rep.rounds.iter().map(|r| r.wall_ns).sum();
        let records: u64 = rep.rounds.iter().map(|r| r.records).sum();
        Cliff {
            us_per_record: ns as f64 / 1e3 / records.max(1) as f64,
            proc: rep.proc,
        }
    });

    let metrics = report::per_layer(&Traced {
        workload: w,
        machine,
        untraced: &untraced,
        traced: &traced,
        spans: tracer.spans(),
        costs: &costs,
        wide_us_per_record,
        cliff,
    });
    let phase_share = report::phase_share(tracer.spans());
    let spans_path = out.join(format!("{}.spans.json", w.name));
    if let Err(e) = trace::write_spans(&spans_path, w.name, tracer.spans()) {
        eprintln!("could not write {}: {e}", spans_path.display());
    }
    let mut outcome = report::end_to_end(&[untraced, traced]);
    if (phase_share - 1.0).abs() > 0.01 {
        outcome.violations.push(format!(
            "the driver's phase spans cover {phase_share:.4} of the traced round time (1 % allowed)"
        ));
    }
    TracedRun {
        metrics,
        outcome,
        phase_share,
        spans_path,
    }
}

fn header(machine: &Machine, args: &Args) -> String {
    format!(
        "swamp-benchmark  seed={} seconds={} trace={}\nmachine: {machine}",
        args.seed, args.seconds, args.trace as u8
    )
}

fn print_outcome(w: &Workload, reps: usize, outcome: &Outcome) {
    print!(
        "{}",
        report::table(
            &format!(
                "{} — end to end ({reps} repetitions, {} devices x {} rounds)",
                w.name, w.devices, w.rounds
            ),
            &END_TO_END,
            &outcome.metrics,
            &outcome.samples,
        )
    );
    println!(
        "  attempted {} failed {} correct {}",
        outcome.attempted,
        outcome.failed,
        outcome.correct()
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for v in &outcome.violations {
        println!("  VIOLATION: {v}");
    }
}

fn print_traced(w: &Workload, machine: &Machine, run: &TracedRun) {
    print!(
        "{}",
        report::table(
            &format!("{} — per layer (traced run)", w.name),
            &PER_LAYER,
            &run.metrics,
            &Default::default(),
        )
    );
    println!(
        "  driver phase spans / traced round time = {:.4}; spans written to {}",
        run.phase_share,
        run.spans_path.display()
    );
    if w.kind == Kind::FleetSharded && machine.nproc < WORKERS {
        println!(
            "  untested: {WORKERS} pool workers on {} core(s); shard.speedup_vs_wide is not reported",
            machine.nproc
        );
    }
    for v in &run.outcome.violations {
        println!("  VIOLATION: {v}");
    }
}

/// Writes one workload's result beside the spans: metrics, machine
/// shape, seed and sample counts.
fn write_result(
    w: &Workload,
    machine: &Machine,
    args: &Args,
    reps: usize,
    defs: &[(&'static str, &'static str)],
    metrics: &Metrics,
    outcome: &Outcome,
) {
    let doc = Json::object([
        ("workload", Json::String(w.name.to_owned())),
        ("devices", Json::Number(w.devices as f64)),
        ("rounds", Json::Number(w.rounds as f64)),
        ("seed", Json::Number(args.seed as f64)),
        ("reps", Json::Number(reps as f64)),
        ("traced", Json::Bool(args.trace)),
        ("machine", machine.to_json()),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Number(outcome.attempted as f64)),
        ("failed", Json::Number(outcome.failed as f64)),
        (
            "violations",
            Json::Array(
                outcome
                    .violations
                    .iter()
                    .cloned()
                    .map(Json::String)
                    .collect(),
            ),
        ),
        (
            "samples",
            Json::object(
                outcome
                    .samples
                    .iter()
                    .map(|(k, v)| (*k, Json::Number(*v as f64))),
            ),
        ),
        ("metrics", report::metrics_json(defs, metrics)),
    ]);
    let kind = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let path = args.out.join(format!("{}.{kind}.json", w.name));
    let written = std::fs::create_dir_all(&args.out)
        .and_then(|()| std::fs::write(&path, doc.to_pretty_string() + "\n"));
    if let Err(e) = written {
        eprintln!("could not write {}: {e}", path.display());
    }
}

/// One workload, ending in the contract's result line.
fn contract_mode(w: &Workload, args: &Args, machine: &Machine) -> ExitCode {
    println!("{}", header(machine, args));
    let (defs, metrics, outcome, reps): (&[_], _, _, _) = if args.trace {
        let run = traced_run(w, args.seed, machine, &args.out);
        print_traced(w, machine, &run);
        (&PER_LAYER, run.metrics, run.outcome, 2)
    } else {
        let reps = measure(w, args.seed, args.seconds);
        let outcome = report::end_to_end(&reps);
        print_outcome(w, reps.len(), &outcome);
        (&END_TO_END, outcome.metrics.clone(), outcome, reps.len())
    };
    write_result(w, machine, args, reps, defs, &metrics, &outcome);
    println!(
        "{}",
        report::result_line(
            defs,
            &metrics,
            outcome.correct(),
            outcome.attempted,
            outcome.failed
        )
    );
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The regression bounds of `BENCHMARK.json`, by end-to-end metric.
fn read_bounds() -> Result<Vec<(String, bool, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = e.get("name").and_then(Json::as_str);
            let better = e.get("better").and_then(Json::as_str);
            let bound = e.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(bound)) => Ok((n.to_owned(), b == "lower", bound)),
                _ => Err("malformed end_to_end entry in BENCHMARK.json".to_owned()),
            }
        })
        .collect()
}

/// All five workloads; with `--aa`, twice, compared against the bounds.
fn full_mode(args: &Args, machine: &Machine) -> ExitCode {
    println!("{}", header(machine, args));
    let mut ok = true;
    let mut sets = Vec::new();
    for label in if args.aa { &["A", "B"][..] } else { &["A"][..] } {
        let reps = measure_interleaved(args.seed, args.seconds);
        let outcomes: Vec<Outcome> = reps.iter().map(|r| report::end_to_end(r)).collect();
        for ((w, reps), outcome) in WORKLOADS.iter().zip(&reps).zip(&outcomes) {
            if args.aa {
                println!("set {label}");
            }
            print_outcome(w, reps.len(), outcome);
            write_result(
                w,
                machine,
                &Args {
                    trace: false,
                    ..args.clone()
                },
                reps.len(),
                &END_TO_END,
                &outcome.metrics,
                outcome,
            );
            ok &= outcome.correct();
        }
        sets.push(outcomes);
    }
    if args.trace {
        for w in &WORKLOADS {
            let run = traced_run(w, args.seed, machine, &args.out);
            print_traced(w, machine, &run);
            write_result(w, machine, args, 2, &PER_LAYER, &run.metrics, &run.outcome);
            ok &= run.outcome.correct();
        }
    }
    if let [a, b] = &sets[..] {
        match read_bounds() {
            Ok(bounds) => {
                println!("A/A: two sets of the same code against the bounds in BENCHMARK.json");
                for (w, (a, b)) in WORKLOADS.iter().zip(a.iter().zip(b)) {
                    for (name, lower_is_better, bound) in &bounds {
                        let (Some(&va), Some(&vb)) =
                            (a.metrics.get(name.as_str()), b.metrics.get(name.as_str()))
                        else {
                            continue;
                        };
                        let rel = if va == 0.0 { 0.0 } else { (vb - va) / va.abs() };
                        let worse = if *lower_is_better { rel } else { -rel };
                        let verdict = if worse.abs() <= *bound {
                            "PASS"
                        } else {
                            "UNRESOLVED"
                        };
                        println!(
                            "  {:<14} {name:<28} A={va:<14.6} B={vb:<14.6} diff={:+.4} bound={bound} {verdict}",
                            w.name, rel
                        );
                    }
                }
            }
            Err(e) => {
                eprintln!("{e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let machine = Machine::read();
    match args.workload {
        Some(w) => contract_mode(&w, &args, &machine),
        None => full_mode(&args, &machine),
    }
}
