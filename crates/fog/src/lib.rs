//! # swamp-fog — fog computing tier of the SWAMP platform
//!
//! The paper requires platform availability "even in case of Internet
//! disconnections using local components (fog computing)", in deployment
//! configurations ranging from cloud analytics through farm-premises fog
//! to "possibly mobile fog nodes acting in the field (e.g., drones or in
//! the central pivot irrigation mechanisms)". This crate provides:
//!
//! - [`sync`] — store-and-forward fog→cloud replication with bounded
//!   buffers, an ack/retransmit engine (exponential backoff with jitter,
//!   degraded-mode state machine) whose in-flight window
//!   ([`sync::DEFAULT_WINDOW`]) is the one limit on throughput — a
//!   backlog drains a window per ack round trip — and an idempotent
//!   cloud store.
//! - [`availability`] — interval-level availability accounting and outage
//!   schedules for the disconnection experiments (E5).
//!
//! Mobile (drone) fog nodes have no module of their own: the Guaspari
//! profile of `swamp_workload` delivers each probe's buffered backlog
//! only inside its drone's contact windows (`ContactWindow`), and a
//! drone that runs this engine behind such a link is
//! `tests/mobile_fog.rs`.
//!
//! ## Example: buffering through an outage
//!
//! ```
//! use swamp_fog::sync::FogSync;
//! use swamp_sim::{SimDuration, SimTime};
//!
//! let mut sync = FogSync::builder("farm-fog", "cloud")
//!     .capacity(10_000)
//!     .base_timeout(SimDuration::from_secs(30))
//!     .build();
//! // Uplink down: updates keep accumulating locally.
//! for hour in 0..48 {
//!     sync.enqueue(SimTime::from_hours(hour), "probe-1", vec![hour as u8]).unwrap();
//! }
//! assert_eq!(sync.pending(), 48);
//! ```

pub mod availability;
pub mod sync;

pub use availability::{AvailabilityTracker, OutageSchedule, ServedBy};
pub use sync::{AckOutcome, CloudStore, DegradedMode, FogSync, FogSyncBuilder, SyncError};
