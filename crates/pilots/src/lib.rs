//! # swamp-pilots — the four SWAMP pilots and the experiment harness
//!
//! The paper's §I describes four pilots on one platform; this crate runs
//! them and quantifies every claim:
//!
//! - [`season`] — the growing-season loop (weather → ET → decision → soil →
//!   yield → water/energy/cost accounting) over heterogeneous zones.
//! - [`pilots`] — the one table of the CBEC, Intercrop, Guaspari and
//!   MATOPIBA agronomies, keyed by [`swamp_workload::Pilot`], with
//!   smart-vs-baseline comparisons.
//! - [`driver`] — the shared [`swamp_core::Drive`]-based round/drain loops
//!   every harness runs on, deployment-shape agnostic.
//! - [`experiments`] — E1–E14, one per claim/challenge in the paper (see
//!   EXPERIMENTS.md), all seeded and reproducible.
//! - [`report`] — the result tables the harness prints.
//!
//! ## Example: run the MATOPIBA pilot
//!
//! ```
//! use swamp_pilots::pilots::{run_pilot, Pilot};
//! let report = run_pilot(Pilot::Matopiba, 42);
//! assert!(report.water_saving() > 0.0);
//! ```

pub mod driver;
pub mod experiments;
pub mod pilots;
pub mod report;
pub mod season;

pub use pilots::{run_pilot, Agronomy, PilotReport};
pub use report::Report;
pub use season::{run_season, SeasonConfig, SeasonOutcome};
