//! # swamp-sensors — field device models for the SWAMP platform
//!
//! The pilots' hardware — soil probes, agro-met stations, flow meters,
//! valves, pumps and center pivots — simulated with the properties the
//! platform actually has to cope with:
//!
//! - [`device`] — device identity, kind and health.
//! - [`probes`] — sensing models with bias/noise/drift and stuck-at
//!   failures (the source of the paper's "partial profile" problem).
//! - [`actuators`] — valves with actuation latency, pumps with energy
//!   metering, and the center-pivot machine with per-sector variable-rate
//!   control (the MATOPIBA VRI mechanism).
//!
//! The emission rhythm of a device fleet — the cadence the behavioral
//! baseline learns — comes from `swamp_workload::WorkloadSpec`, not from a
//! per-device runtime here. Device energy is not modelled, so the paper's
//! "security mechanisms have to be energy efficient" is not reproduced;
//! what crypto costs a device is measured in frame bytes and LPWAN
//! duty-cycle budget instead (E8).
//!
//! ## Example
//!
//! ```
//! use swamp_sensors::probes::{SensorNoise, SoilMoistureProbe};
//! use swamp_sim::{SimRng, SimTime};
//!
//! let probe = SoilMoistureProbe::new("probe-ne-1", 3, SensorNoise::good(0.01));
//! let mut rng = SimRng::seed_from(7);
//! let reading = probe.sample(0.27, SimTime::from_hours(6), &mut rng).unwrap();
//! assert_eq!(reading.quantity, "moisture_vwc");
//! ```

pub mod actuators;
pub mod device;
pub mod probes;

pub use actuators::{CenterPivot, Pump, Valve};
pub use device::{DeviceHealth, DeviceId, DeviceKind};
pub use probes::{Reading, SensorNoise, SoilMoistureProbe, WeatherStation};
