//! # swamp-workload — the pilot-diverse workload engine
//!
//! The paper grounds SWAMP in four pilots — CBEC (Bologna, canal
//! distribution), Intercrop (Cartagena, phase-shifted horticulture),
//! Guaspari (Espírito Santo do Pinhal, drone-surveyed vineyard) and
//! MATOPIBA (Brazilian cerrado, large open-loop fleets) — and argues the
//! platform must serve all of them at once. This crate turns each pilot
//! into a *distinct, reproducible workload*: one [`WorkloadSpec`] compiles
//! into a [`CompiledWorkload`] — a per-round schedule of NGSI entity
//! updates shaped like that pilot's traffic:
//!
//! - **CBEC** — diurnal telemetry (daytime-heavy reporting over a
//!   drawdown/refill irrigation cycle);
//! - **Intercrop** — seasonal/night-shifted reporting with two sampling
//!   cohorts at different cadences and night irrigation windows;
//! - **Guaspari** — mobile-fog drone collection: every probe samples
//!   continuously but delivers only inside its node's non-overlapping
//!   contact windows, flushing the buffered backlog in order;
//! - **MATOPIBA** — open-loop arrivals at a declared rate (the offered
//!   load never adapts to the platform), with scheduled uplink partitions
//!   whose heal triggers a reconnection storm that conserves every queued
//!   record.
//!
//! Every record carries a ground-truth [`Label`] on the side, and a spec
//! may overlay labeled attacks ([`AttackOverlay`]: Sybil bursts,
//! sensor-tamper drift, actuator-takeover sequences) so detector
//! experiments can score precision/recall against truth instead of
//! eyeballing alert logs. Compilation is a pure function of the spec —
//! same seed, byte-identical stream ([`CompiledWorkload::stream_digest`])
//! — which is what makes the E16 harness and the detector differential
//! suite (`crates/pilots/tests/`) possible.
//!
//! ## Example
//!
//! ```
//! use swamp_workload::{Pilot, WorkloadSpec};
//!
//! let spec = WorkloadSpec::new(Pilot::Guaspari, 42, 16, 96);
//! let w = spec.compile();
//! assert_eq!(w.batches.len(), 96);
//! assert!(w.generated > 0);
//! // Same spec, same stream — bit for bit.
//! assert_eq!(w.stream_digest(), spec.compile().stream_digest());
//! ```

pub mod signal;
pub mod spec;

pub use signal::MoistureSignal;
pub use spec::{
    AttackOverlay, CompiledWorkload, ContactWindow, Label, LabeledRecord, Pilot, RoundBatch,
    WorkloadSpec,
};
