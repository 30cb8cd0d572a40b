//! # swamp-irrigation — irrigation control for the SWAMP platform
//!
//! The decision layer between the platform's context data and the field
//! actuators:
//!
//! - [`schedule`] — irrigation policies: the over-watering
//!   [`schedule::FixedCalendar`] baseline the paper's introduction motivates
//!   against, threshold refill, ET replacement (with regulated-deficit
//!   fractions for the Guaspari pilot), and rainfed.
//! - [`source`] — water sources (canal, pumped well, desalination) with the
//!   cost and pumping-energy physics behind the pilots' goals.
//! - [`network`] — the CBEC canal distribution tree with greedy vs
//!   max–min-fair allocation.
//!
//! How a prescription reaches the field (each zone its own depth, the
//! maximum of a control group, or one depth for the whole field) is E1's
//! `swamp_pilots::season::ApplicationMode`; no machine model sits between.
//!
//! ## Example: one smart irrigation decision
//!
//! ```
//! use swamp_irrigation::schedule::{IrrigationPolicy, ThresholdRefill, ZoneView};
//!
//! let mut policy = ThresholdRefill::new(1.0);
//! let view = ZoneView {
//!     depletion_mm: 48.0, taw_mm: 90.0, raw_mm: 45.0,
//!     etc_mm: 6.2, forecast_rain_mm: 0.0, das: 40,
//! };
//! let depth = policy.decide(&view);
//! assert_eq!(depth, 48.0); // refill to field capacity
//! ```

pub mod network;
pub mod schedule;
pub mod source;

pub use network::{Allocation, DistributionNetwork, FarmId};
pub use schedule::{
    DeficitMaintain, EtReplacement, FixedCalendar, IrrigationPolicy, Rainfed, ThresholdRefill,
    ZoneView,
};
pub use source::{DeliveryCost, WaterAccount, WaterSource};
