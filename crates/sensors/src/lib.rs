//! # swamp-sensors — the device classes of the SWAMP pilots
//!
//! [`DeviceKind`] names every device class the pilots deploy. It is the
//! registry's label for a device; no kind has a model here.
//!
//! The platform sees a device fleet only as the emission stream of
//! `swamp_workload::WorkloadSpec`, which also sets the cadence the
//! behavioral baseline learns. Experiment E1 sees a management zone's soil
//! water balance, with prescriptions applied as the group maximum of each
//! control group (`swamp_pilots::season::ApplicationMode`). Soil probes,
//! center pivots, weather stations, flow meters, valves and pumps have no
//! model of their own: no platform path or experiment runs one. Device
//! energy is not modelled either, so the paper's "security mechanisms have
//! to be energy efficient" is not reproduced; what crypto costs a device is
//! measured in frame bytes and LPWAN duty-cycle budget instead (E8).
//!
//! ## Example
//!
//! ```
//! use swamp_sensors::DeviceKind;
//!
//! let kind = DeviceKind::CenterPivot;
//! assert_eq!(kind.to_string(), "CenterPivot");
//! assert!(DeviceKind::SoilProbe < kind);
//! ```

pub mod device;

pub use device::DeviceKind;
