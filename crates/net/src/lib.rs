//! # swamp-net — simulated network substrate for the SWAMP platform
//!
//! The paper's platform runs over constrained rural connectivity: LPWAN
//! radios in the field, a farm LAN around the fog node, and an unreliable
//! Internet uplink to the cloud. This crate is that substrate, as a
//! deterministic discrete-event simulation:
//!
//! - [`message`] — node ids and the message/delivery types.
//! - [`link`] — per-link latency/jitter/loss/bandwidth models with presets
//!   for the SWAMP deployment tiers.
//! - [`lpwan`] — LoRa-class airtime and regulatory duty-cycle limiting.
//! - [`network`] — the event-driven fabric: inboxes, taps (eavesdroppers),
//!   partitions (Internet disconnection), and metrics.
//! - [`fault`] — deterministic fault injection: seeded per-link
//!   drop/duplicate/reorder/delay processes and scheduled partitions.
//! - [`sdn`] — an SDN flow table giving the security layer the paper's
//!   "centralized view": allow/deny/rate-limit rules with per-rule counters.
//!
//! Pub/sub is not a network concern here: it runs through the platform's
//! context broker (`swamp_core::broker`). 6LoWPAN fragmentation is not
//! reproduced — a frame is one message on its link.
//!
//! Everything is seeded and virtual-time-driven; no wall clock, no threads.

pub mod fault;
pub mod link;
pub mod lpwan;
pub mod message;
pub mod network;
pub mod sdn;

pub use fault::{FaultConfigError, FaultPlan, FaultSpec};
pub use link::LinkSpec;
pub use message::{Delivery, Message, MsgId, NodeId};
pub use network::{Network, SendError};
