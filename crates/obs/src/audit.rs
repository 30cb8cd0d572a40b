//! Conservation audits over a snapshot: identities the counters of a
//! correct run hold whatever its faults, so a run that ends by calling one
//! proves it lost or invented no record between the stages it counts.
//!
//! [`audit_uplink`] covers the fog→cloud uplink of one source: the retry
//! engine's `sync.*` instruments, the receiving store's `cloud.*` counters
//! and, where the uplink replicates ingested updates, the platform's
//! `ingest.*` counters.

use std::fmt;

use crate::{ObsError, ObsSnapshot};

/// Why a snapshot fails an audit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AuditError {
    /// An instrument the audit reads was never registered.
    Missing(ObsError),
    /// A conservation identity does not hold.
    Broken {
        /// The identity, as written in the audit's documentation.
        identity: &'static str,
        /// The values that break it.
        detail: String,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Missing(e) => write!(f, "audit cannot read the snapshot: {e}"),
            AuditError::Broken { identity, detail } => {
                write!(f, "`{identity}` does not hold: {detail}")
            }
        }
    }
}

impl std::error::Error for AuditError {}

impl From<ObsError> for AuditError {
    fn from(e: ObsError) -> Self {
        AuditError::Missing(e)
    }
}

/// Checks the uplink's conservation identities on a snapshot that holds
/// one source's retry engine and its receiving store:
///
/// - `sync.enqueued == sync.acked + sync.dropped + sync.pending`: every
///   record enqueued is released by an ack, evicted, or still buffered;
/// - `sync.acked ≤ cloud.accepted ≤ sync.enqueued`: an ack releases only a
///   record the store applied, and the store applies only records that
///   were enqueued;
/// - `sync.acked ≤ sync.transmissions − sync.retransmissions ≤
///   sync.enqueued`: each record is first sent at most once, and an acked
///   record was sent;
/// - when `replicates_ingest` (a FarmFog platform):
///   `ingest.accepted == sync.enqueued + ingest.replication_refused` —
///   every accepted update is enqueued for the cloud, or counted as
///   refused.
///
/// `sync.pending` is a gauge, current as of the engine's last round, ack
/// or admission, so audit a snapshot taken after one of those. An unset
/// gauge reads as an empty buffer.
///
/// # Errors
/// [`AuditError::Missing`] if an instrument was never registered;
/// [`AuditError::Broken`] for the first identity that does not hold.
pub fn audit_uplink(snap: &ObsSnapshot, replicates_ingest: bool) -> Result<(), AuditError> {
    let enqueued = snap.counter("sync.enqueued")?;
    let acked = snap.counter("sync.acked")?;
    let dropped = snap.counter("sync.dropped")?;
    let pending = snap.gauge("sync.pending")?.unwrap_or(0.0);
    let accepted = snap.counter("cloud.accepted")?;
    let first_sends = snap
        .counter("sync.transmissions")?
        .checked_sub(snap.counter("sync.retransmissions")?);

    let broken = |identity, detail| Err(AuditError::Broken { identity, detail });
    // Counts stay far below 2^53, so the gauge compares exactly.
    if (acked + dropped) as f64 + pending != enqueued as f64 {
        return broken(
            "sync.enqueued == sync.acked + sync.dropped + sync.pending",
            format!("{enqueued} enqueued, {acked} acked, {dropped} dropped, {pending} pending"),
        );
    }
    if !(acked <= accepted && accepted <= enqueued) {
        return broken(
            "sync.acked <= cloud.accepted <= sync.enqueued",
            format!("{acked} acked, {accepted} accepted, {enqueued} enqueued"),
        );
    }
    if !first_sends.is_some_and(|first| acked <= first && first <= enqueued) {
        return broken(
            "sync.acked <= sync.transmissions - sync.retransmissions <= sync.enqueued",
            format!("{acked} acked, {first_sends:?} first sends, {enqueued} enqueued"),
        );
    }
    if replicates_ingest {
        let ingested = snap.counter("ingest.accepted")?;
        let refused = snap.counter("ingest.replication_refused")?;
        if ingested != enqueued + refused {
            return broken(
                "ingest.accepted == sync.enqueued + ingest.replication_refused",
                format!("{ingested} accepted, {enqueued} enqueued, {refused} refused"),
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;

    /// A snapshot with the audited instruments at the given values.
    fn snapshot(counters: &[(&str, u64)], pending: f64) -> ObsSnapshot {
        let mut obs = Obs::new();
        for &(name, value) in counters {
            let c = obs.counter(name);
            obs.add(c, value);
        }
        let g = obs.gauge("sync.pending");
        obs.set(g, pending);
        obs.snapshot()
    }

    const HEALTHY: [(&str, u64); 8] = [
        ("sync.enqueued", 10),
        ("sync.acked", 6),
        ("sync.dropped", 1),
        ("cloud.accepted", 8),
        ("sync.transmissions", 15),
        ("sync.retransmissions", 7),
        ("ingest.accepted", 11),
        ("ingest.replication_refused", 1),
    ];

    fn with(name: &str, value: u64) -> ObsSnapshot {
        let mut counters = HEALTHY;
        for c in &mut counters {
            if c.0 == name {
                c.1 = value;
            }
        }
        snapshot(&counters, 3.0)
    }

    /// The identity `snap` breaks.
    fn broken(snap: ObsSnapshot, replicates_ingest: bool) -> &'static str {
        match audit_uplink(&snap, replicates_ingest) {
            Err(AuditError::Broken { identity, .. }) => identity,
            other => panic!("expected a broken identity, got {other:?}"),
        }
    }

    #[test]
    fn a_conserving_snapshot_passes() {
        assert_eq!(audit_uplink(&snapshot(&HEALTHY, 3.0), true), Ok(()));
    }

    #[test]
    fn each_identity_catches_its_own_leak() {
        let buffer = "sync.enqueued == sync.acked + sync.dropped + sync.pending";
        let store = "sync.acked <= cloud.accepted <= sync.enqueued";
        let sends = "sync.acked <= sync.transmissions - sync.retransmissions <= sync.enqueued";
        // An ack or a buffered record too few.
        assert_eq!(broken(with("sync.acked", 5), false), buffer);
        assert_eq!(broken(snapshot(&HEALTHY, 2.0), false), buffer);
        // Acks for records the store never applied; applies of records
        // never enqueued.
        assert_eq!(broken(with("cloud.accepted", 5), false), store);
        assert_eq!(broken(with("cloud.accepted", 11), false), store);
        // Too few first sends for the acks, more than the records, and
        // more retransmissions than transmissions.
        assert_eq!(broken(with("sync.retransmissions", 10), false), sends);
        assert_eq!(broken(with("sync.retransmissions", 4), false), sends);
        assert_eq!(broken(with("sync.retransmissions", 16), false), sends);
        // An accepted update neither enqueued nor refused; the identity is
        // a replicating platform's only.
        assert_eq!(
            broken(with("ingest.accepted", 12), true),
            "ingest.accepted == sync.enqueued + ingest.replication_refused"
        );
        assert_eq!(audit_uplink(&with("ingest.accepted", 12), false), Ok(()));
    }

    #[test]
    fn an_unregistered_instrument_is_loud() {
        let snap = snapshot(&HEALTHY[..3], 3.0);
        assert_eq!(
            audit_uplink(&snap, false),
            Err(AuditError::Missing(ObsError::UnknownCounter(
                "cloud.accepted".into()
            )))
        );
    }
}
