//! # swamp-core — the SWAMP platform core
//!
//! The FIWARE-analogue heart of the system (Kamienski et al., DSN-W 2018):
//!
//! - [`broker`] — NGSI-like context broker with subscriptions (Orion
//!   analogue).
//! - [`drive`] — the [`Drive`] trait: the one object-safe surface through
//!   which harnesses advance and observe a deployment, implemented by
//!   [`Platform`] and by `swamp_shard::ShardedPlatform`.
//! - [`error`] — the unified, non-panicking [`Error`] type wrapping
//!   ingest/network/sync/registry failures.
//! - [`history`] — per-attribute time-series store (STH-Comet analogue).
//! - [`registry`] — device registry consulted by secure ingestion.
//! - [`platform`] — the assembled platform: simulated network + sealed
//!   telemetry ingestion (authentication, replay protection, a range
//!   screen that quarantines on impossible values) + context + history + fog
//!   replication, in the cloud-only and farm-fog deployment configurations
//!   the paper describes.
//! - [`shard`] — the stable `device_id → shard` routing function used by
//!   the scale-out tier (`swamp-shard`).
//!
//! The platform does not make irrigation decisions: the paper's "smart
//! algorithms" run in the season simulator (`swamp_pilots::season`, E1),
//! which decides on field truth rather than on the platform's view.
//!
//! ## Example: a tiny deployment
//!
//! ```
//! use swamp_core::platform::{DeploymentConfig, Platform};
//! use swamp_codec::ngsi::Entity;
//! use swamp_sensors::device::DeviceKind;
//! use swamp_sim::SimTime;
//!
//! let mut p = Platform::builder(DeploymentConfig::FarmFog).seed(7).build();
//! p.register_device(SimTime::ZERO, "probe-1", DeviceKind::SoilProbe, "owner:demo")
//!     .unwrap();
//!
//! let mut update = Entity::new("urn:swamp:device:probe-1", "SoilProbe");
//! update.set("moisture_vwc", 0.24);
//! update.set("seq", 0.0);
//! p.device_publish(SimTime::ZERO, "probe-1", &update).unwrap();
//! p.pump(SimTime::from_secs(60));
//! ```

pub mod broker;
pub mod drive;
pub mod error;
pub mod history;
pub mod platform;
pub mod query;
pub mod registry;
pub mod shard;

pub use broker::{ContextBroker, Notification, SubscriptionFilter, SubscriptionId};
pub use drive::Drive;
pub use error::Error;
pub use history::{HistoryStore, Sample, WindowAggregate};
pub use platform::{DeploymentConfig, IngestError, Platform, PlatformBuilder};
pub use query::{QueryRequest, QueryResponse, SeriesEntry};
pub use registry::{DeviceRecord, DeviceRegistry};
pub use shard::{route_device, route_entity, routing_key, shard_seed, ShardIndex};
