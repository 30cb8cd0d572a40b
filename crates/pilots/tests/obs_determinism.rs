//! Byte-level determinism of the exported observability reports: two
//! fresh seed-42 runs of E13 must serialize to identical JSON.
//!
//! This is the regression gate for the obs subsystem's core promise —
//! ticks, counters, histograms, span trees and event logs are all pure
//! functions of the seed, with no wall-clock or hash-order leakage.

use swamp_obs::ObsReport;
use swamp_pilots::experiments::e13_resilience_observed;

#[test]
fn e13_obs_reports_are_byte_identical_across_runs() {
    let (_, first) = e13_resilience_observed(42);
    let (_, second) = e13_resilience_observed(42);
    let a = ObsReport::array_to_json_string(&first);
    let b = ObsReport::array_to_json_string(&second);
    assert_eq!(a, b, "seed-42 E13 obs export must be byte-stable");
    // Sanity: the export actually contains the sweep, not an empty shell.
    assert_eq!(first.len(), 8, "2 deployments x 4 loss rates");
    assert!(a.contains("\"label\": \"e13/farm-fog/loss10\""));
    assert!(a.contains("sync.retransmissions"));
    assert!(a.contains("net.partition.start"));
    // The pump span tree is part of the byte-stable export.
    assert!(a.contains("platform.pump"));
}

#[test]
fn e13_rows_match_their_obs_reports() {
    // The table values and the exported snapshots must be two views of
    // the same run, not two runs.
    let (result, reports) = e13_resilience_observed(42);
    for (row, report) in result.rows.iter().zip(&reports) {
        assert_eq!(report.seed, 42);
        assert_eq!(
            row.offered,
            report.snapshot.counter("sync.enqueued").unwrap(),
            "row/report divergence for {}",
            report.label
        );
        assert_eq!(
            row.retransmissions,
            report.snapshot.counter("sync.retransmissions").unwrap()
        );
    }
}
