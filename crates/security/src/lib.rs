//! # swamp-security — the security layer of the SWAMP platform
//!
//! Implements every mechanism §III of the paper calls for, and every attack
//! it warns about, so the two can be run against each other:
//!
//! | Paper requirement | Module |
//! |---|---|
//! | OAuth 2.0 authentication via FIWARE security GEs | [`identity`] |
//! | "each owner controls their data" access control | [`access`] |
//! | Data anonymization for governance | not reproduced: nothing on the platform path ran it, so it was deleted (DESIGN.md §1) |
//! | Blockchain device lifecycle + smart contracts | not reproduced: a device's lifecycle is `swamp-core`'s registry row and `swamp-crypto`'s `Keystore` (DESIGN.md §1) |
//! | DoS, tampering, Sybil, eavesdropping, replay | [`attacks`] |
//! | Rogue nodes | `swamp-core`'s `Platform::device_publish` from an unregistered id, refused at ingest |
//! | Anomaly detection / avoid fake data | [`pipeline`]'s range screen on the sealed path; [`detect`] for the experiments |
//! | "expected sequence of events" behavioral baseline | [`baseline`] |
//! | Partial crop profiles and detector margins | [`profile`] |
//!
//! Confidentiality primitives (the "state of the practice cryptography")
//! live in `swamp-crypto`; the SDN centralized view lives in
//! `swamp-net::sdn`; fog-based availability lives in `swamp-fog`.
//!
//! ## Example: token → policy decision
//!
//! ```
//! use swamp_security::access::{Action, Pdp, Resource};
//! use swamp_security::identity::IdentityProvider;
//! use swamp_sim::{SimDuration, SimTime};
//!
//! let mut idm = IdentityProvider::new(b"signing-key", SimDuration::from_hours(1));
//! idm.register_user("maria", "pw", &["owner:guaspari"]);
//! let token = idm.password_grant(SimTime::ZERO, "maria", "pw").unwrap();
//! let info = idm.validate(SimTime::ZERO, &token).unwrap();
//!
//! let pdp = Pdp::new();
//! let probe = Resource::new("urn:swamp:guaspari:probe:1", "owner:guaspari");
//! assert!(pdp.decide(&info, &probe, Action::Read).is_permit());
//! ```

pub mod access;
pub mod attacks;
pub mod baseline;
pub mod detect;
pub mod identity;
pub mod pipeline;
pub mod profile;

pub use access::{Action, Decision, Pdp, Policy, Resource};
pub use baseline::{BaselineConfig, BaselineFlag, BaselineVerdict, BehaviorBank, FlagKind};
pub use detect::{RangeValidator, RateGuard, Verdict, ZScoreDetector};
pub use identity::{AuthError, IdentityProvider, Token, TokenInfo};
pub use pipeline::DetectorBank;
pub use profile::{CropProfile, CropProfiler};
