//! Smoke + determinism tests over the whole experiment harness: every
//! report regenerates, is non-empty, is bit-identical across runs with the
//! same seed, and is the table EXPERIMENTS.md prints.

use swamp::pilots::experiments::{p0_pilots, run_all};

#[test]
fn all_reports_generate_and_are_nonempty() {
    let reports = run_all(42);
    assert_eq!(reports.len(), 18, "E1..E16 plus ablations");
    for r in &reports {
        assert!(!r.is_empty(), "{} has rows", r.title);
        assert!(!r.headers.is_empty());
        let text = r.to_string();
        assert!(text.starts_with("## "), "{}", r.title);
        // Every row renders with the right arity (push_row enforces it, but
        // the Display path is what EXPERIMENTS.md consumes).
        assert!(text.lines().count() >= 3);
    }
    // Titles cover every experiment id.
    let all_titles: String = reports.iter().map(|r| r.title.as_str()).collect();
    for id in [
        "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14",
        "E16",
    ] {
        assert!(all_titles.contains(id), "missing {id}");
    }
    // EXPERIMENTS.md interleaves prose with these tables: every rendered
    // line must occur in it, in the order the `experiments` binary prints
    // them (the P0 pilot summary first).
    let p0 = p0_pilots(42);
    assert_eq!(p0.rows.len(), 4, "one row per pilot");
    let mut doc = include_str!("../EXPERIMENTS.md").lines();
    for report in std::iter::once(&p0).chain(&reports) {
        for line in report.to_string().lines().filter(|l| !l.is_empty()) {
            assert!(
                doc.any(|d| d == line),
                "EXPERIMENTS.md is stale: no line after the previous match equals\n{line}"
            );
        }
    }
}

#[test]
fn harness_is_deterministic_per_seed() {
    let a = run_all(7);
    let b = run_all(7);
    assert_eq!(a, b, "same seed, same tables");
}

#[test]
fn different_seeds_change_stochastic_tables() {
    let a = run_all(1);
    let b = run_all(2);
    // At least the season-level water numbers must differ across seeds.
    assert_ne!(
        a[0].rows, b[0].rows,
        "E1 is weather-driven and must vary with seed"
    );
}
