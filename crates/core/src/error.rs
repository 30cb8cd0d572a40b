//! The workspace-wide error type.
//!
//! Every fallible platform operation surfaces one of a small set of typed
//! errors — ingestion ([`IngestError`]), networking
//! ([`swamp_net::network::SendError`]), fog synchronization
//! ([`swamp_fog::sync::SyncError`]), registry bookkeeping
//! ([`RegistryError`]) — and [`Error`] unifies them for callers that cross
//! layers (hand-written in the `thiserror` style; the offline build
//! carries no proc-macro dependencies). The platform's API contract is
//! *non-panicking*: failure is a value, enforced by a clippy gate in
//! `ci.sh` (`-D clippy::unwrap_used -D clippy::panic` on the `core` and
//! `fog` lib targets).

use swamp_fog::sync::SyncError;
use swamp_net::network::SendError;

use crate::platform::IngestError;
use crate::registry::RegistryError;

/// Any error the assembled platform can raise.
#[derive(Clone, Debug, PartialEq)]
pub enum Error {
    /// A telemetry frame was rejected by secure ingestion.
    Ingest(IngestError),
    /// The network refused a transmission synchronously.
    Send(SendError),
    /// The fog↔cloud sync engine refused an operation.
    Sync(SyncError),
    /// Device registry bookkeeping failed.
    Registry(RegistryError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Ingest(e) => write!(f, "ingest: {e}"),
            Error::Send(e) => write!(f, "network: {e}"),
            Error::Sync(e) => write!(f, "sync: {e}"),
            Error::Registry(e) => write!(f, "registry: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Ingest(e) => Some(e),
            Error::Send(e) => Some(e),
            Error::Sync(e) => Some(e),
            Error::Registry(e) => Some(e),
        }
    }
}

impl From<IngestError> for Error {
    fn from(e: IngestError) -> Self {
        Error::Ingest(e)
    }
}

impl From<SendError> for Error {
    fn from(e: SendError) -> Self {
        Error::Send(e)
    }
}

impl From<SyncError> for Error {
    fn from(e: SyncError) -> Self {
        Error::Sync(e)
    }
}

impl From<RegistryError> for Error {
    fn from(e: RegistryError) -> Self {
        Error::Registry(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: Error = IngestError::Replay("probe-1".into()).into();
        assert!(e.to_string().contains("replayed"));
        let e: Error = SendError::Denied.into();
        assert!(e.to_string().contains("denied"));
        let e: Error = SyncError::KeyTooLong { len: 70_000 }.into();
        assert!(e.to_string().contains("70000 bytes"));
        let e: Error = RegistryError::Unknown("x".into()).into();
        assert!(e.to_string().contains("unknown device"));
    }

    #[test]
    fn sources_chain() {
        use std::error::Error as _;
        let e: Error = SendError::Denied.into();
        assert!(e.source().is_some());
    }
}
