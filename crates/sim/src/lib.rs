//! # swamp-sim — deterministic simulation kernel for the SWAMP platform
//!
//! This crate is the substrate every other SWAMP crate builds on. It provides:
//!
//! - [`SimTime`] / [`SimDuration`] — virtual time (no wall-clock anywhere in
//!   the simulation), with calendar helpers for agronomic models that think
//!   in days-of-year.
//! - [`rng::SimRng`] — a seedable, splittable xoshiro256** PRNG plus the
//!   distributions the sensor and weather models need (uniform, normal,
//!   exponential, Poisson, Bernoulli).
//! - [`event::EventQueue`] — a deterministic discrete-event queue with
//!   stable FIFO ordering among simultaneous events.
//! - [`stats`] — online statistics (Welford mean/variance, EWMA, histograms,
//!   quantile estimation) used by detectors and by the experiment harnesses.
//!
//! Everything is deterministic given a seed: repeated runs of any SWAMP
//! experiment with the same seed produce identical output.
//!
//! ## Example
//!
//! ```
//! use swamp_sim::{SimTime, SimDuration, event::EventQueue, rng::SimRng};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::ZERO + SimDuration::from_secs(5), "sample");
//! q.schedule(SimTime::ZERO + SimDuration::from_secs(1), "boot");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!(ev, "boot");
//! assert_eq!(t.as_secs(), 1);
//!
//! let mut rng = SimRng::seed_from(42);
//! let x = rng.uniform_f64(); // deterministic for seed 42
//! assert!((0.0..1.0).contains(&x));
//! ```

pub mod event;
pub mod rng;
pub mod stats;
pub mod time;

pub use event::EventQueue;
pub use rng::{Fnv1a, SimRng};
pub use time::{SimDuration, SimTime};
