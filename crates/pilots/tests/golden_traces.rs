//! Golden labeled-trace regression suite (ISSUE 10 satellite): the
//! committed fixture pins, per pilot at the canonical E16 scale and
//! seed 42,
//!
//! 1. the workload stream digest (the labeled trace itself),
//! 2. the per-label record counts and planted attack-device set,
//! 3. the exact alert set the detector raises at the shipped
//!    thresholds (device, flag kind, flag time), and
//! 4. the resulting precision/recall cells (tp / fp / fn).
//!
//! Any change to the workload compiler, the baseline scoring math, or
//! the shipped margins shows up here as a diff against
//! `fixtures/e16_golden.json` — deliberate retunes regenerate the
//! fixture with `GOLDEN_REGEN=1 cargo test -p swamp-pilots --test
//! golden_traces` and re-commit it; accidental drift fails CI.

use std::path::PathBuf;

use swamp_codec::json::Json;
use swamp_pilots::experiments::{e16_run_pilot, e16_spec, E16_DEVICES, E16_ROUNDS};
use swamp_workload::Pilot;

const GOLDEN_SEED: u64 = 42;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("e16_golden.json")
}

/// Renders the full golden document from the live compiler + detector.
fn golden_doc() -> Json {
    let rows: Vec<Json> = Pilot::all()
        .into_iter()
        .map(|pilot| {
            let spec = e16_spec(pilot, GOLDEN_SEED, E16_DEVICES, E16_ROUNDS);
            let w = spec.compile();
            let labels: Vec<Json> = w
                .label_counts
                .iter()
                .map(|(label, n)| {
                    Json::object([
                        ("label", Json::String(label.as_str().into())),
                        ("records", Json::Number(*n as f64)),
                    ])
                })
                .collect();
            let attack_devices: Vec<Json> = w
                .attack_devices
                .iter()
                .map(|d| Json::String(d.clone()))
                .collect();
            let (row, platform) = e16_run_pilot(GOLDEN_SEED, pilot, E16_DEVICES, E16_ROUNDS);
            let alerts: Vec<Json> = platform
                .behavior
                .flags()
                .iter()
                .map(|(device, flag)| {
                    Json::object([
                        ("device", Json::String(device.clone())),
                        ("kind", Json::String(flag.kind.as_str().into())),
                        // Flag times are u64 milliseconds; stored as a
                        // string so the fixture survives f64 rounding.
                        ("at_ms", Json::String(flag.at.as_millis().to_string())),
                    ])
                })
                .collect();
            Json::object([
                ("pilot", Json::String(pilot.name().into())),
                ("devices", Json::Number(E16_DEVICES as f64)),
                ("rounds", Json::Number(E16_ROUNDS as f64)),
                // 64-bit FNV digest as hex: exact, f64-proof.
                (
                    "stream_digest",
                    Json::String(format!("{:016x}", w.stream_digest())),
                ),
                ("generated", Json::Number(w.generated as f64)),
                ("label_counts", Json::Array(labels)),
                ("attack_devices", Json::Array(attack_devices)),
                ("alerts", Json::Array(alerts)),
                ("tp", Json::Number(row.tp as f64)),
                ("fp", Json::Number(row.fp as f64)),
                ("fn", Json::Number(row.fn_missed as f64)),
            ])
        })
        .collect();
    Json::object([
        ("fixture", Json::String("e16_golden_labeled_traces".into())),
        ("seed", Json::Number(GOLDEN_SEED as f64)),
        ("pilots", Json::Array(rows)),
    ])
}

#[test]
fn golden_labeled_traces_match_the_committed_fixture() {
    let doc = golden_doc();
    let path = fixture_path();
    if std::env::var("GOLDEN_REGEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, doc.to_pretty_string() + "\n").unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); regenerate with GOLDEN_REGEN=1",
            path.display()
        )
    });
    let committed = Json::parse(&committed).expect("fixture must parse as JSON");
    assert_eq!(
        committed, doc,
        "live workload/detector output diverged from the committed golden \
         fixture; if the retune is deliberate, regenerate with GOLDEN_REGEN=1 \
         and review the diff"
    );
}

#[test]
fn golden_fixture_meets_the_shipped_quality_floors() {
    // The fixture is not just pinned — it must pin a *good* detector:
    // the shipped per-pilot floors (recall >= 0.75, precision >= 0.9),
    // applied to the committed document so a bad regeneration cannot
    // slip through.
    let committed = std::fs::read_to_string(fixture_path())
        .expect("golden fixture missing; regenerate with GOLDEN_REGEN=1");
    let doc = Json::parse(&committed).expect("fixture must parse");
    let pilots = match doc.get("pilots") {
        Some(Json::Array(rows)) => rows,
        other => panic!("fixture pilots array missing: {other:?}"),
    };
    assert_eq!(pilots.len(), 4, "one row per pilot");
    for row in pilots {
        let name = match row.get("pilot") {
            Some(Json::String(s)) => s.clone(),
            other => panic!("pilot name missing: {other:?}"),
        };
        let num = |key: &str| -> f64 {
            match row.get(key) {
                Some(Json::Number(n)) => *n,
                other => panic!("{name}: {key} missing: {other:?}"),
            }
        };
        let (tp, fp, fn_missed) = (num("tp"), num("fp"), num("fn"));
        let truth = tp + fn_missed;
        assert!(truth > 0.0, "{name}: no planted attack devices");
        let recall = tp / truth;
        let precision = if tp + fp > 0.0 { tp / (tp + fp) } else { 1.0 };
        assert!(
            recall >= 0.75,
            "{name}: pinned recall {recall:.2} below floor"
        );
        assert!(
            precision >= 0.9,
            "{name}: pinned precision {precision:.2} below floor"
        );
    }
}
