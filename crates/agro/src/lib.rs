//! # swamp-agro — agronomic substrate for the SWAMP platform
//!
//! The SWAMP pilots' physics: what the simulated sensors measure and what
//! irrigation decisions change. Field instrumentation is unavailable to a
//! reproduction, so this crate supplies physically grounded models in its
//! place (see DESIGN.md for the substitution argument):
//!
//! - [`et`] — FAO-56 Penman–Monteith reference evapotranspiration, validated
//!   against the FAO worked examples; Hargreaves fallback.
//! - [`weather`] — WGEN-style stochastic daily weather for the four pilot
//!   climates (Bologna, Cartagena, Pinhal, Barreiras).
//! - [`soil`] — root-zone water balance with stress coefficient Ks
//!   (FAO-56 ch. 8), the ground truth soil probes sample.
//! - [`crop`] — Kc curves, root growth and FAO-33 yield response for the
//!   pilots' crops (soybean, wine grape, lettuce, melon, tomato, maize).
//! - [`growth`] — canopy/NDVI dynamics and the wine-quality response to
//!   regulated deficit irrigation (Guaspari pilot).
//!
//! ## Example: a day of crop water accounting
//!
//! ```
//! use swamp_agro::crop::Crop;
//! use swamp_agro::soil::{SoilProperties, SoilWaterBalance, WaterFlux};
//! use swamp_agro::weather::{ClimateProfile, WeatherGenerator};
//! use swamp_sim::SimRng;
//!
//! let climate = ClimateProfile::barreiras();
//! let mut weather = WeatherGenerator::new(climate, SimRng::seed_from(1));
//! let crop = Crop::soybean();
//! let mut soil = SoilWaterBalance::new(
//!     SoilProperties::loam(), crop.root_depth_ini_m, crop.depletion_fraction);
//!
//! let day = weather.next_day(150);
//! let et0 = day.et0(climate.latitude_deg, climate.elevation_m);
//! let etc = et0 * crop.kc(10);
//! let outcome = soil.step(WaterFlux { rain_mm: day.rain_mm, irrigation_mm: 0.0, etc_mm: etc });
//! assert!(outcome.eta_mm >= 0.0);
//! ```

pub mod crop;
pub mod et;
pub mod growth;
pub mod soil;
pub mod weather;

pub use crop::{Crop, GrowthStage};
pub use growth::CropState;
pub use soil::{SoilProperties, SoilWaterBalance, WaterFlux};
pub use weather::{ClimateProfile, WeatherDay, WeatherGenerator};
