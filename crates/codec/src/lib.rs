//! # swamp-codec — data representation for the SWAMP platform
//!
//! FIWARE's context broker speaks NGSI, a JSON-based entity/attribute data
//! model. SWAMP reproduces that substrate from scratch:
//!
//! - [`json`] — a complete JSON value type, parser and writer (no external
//!   JSON crate is in the approved dependency set, and the broker needs a
//!   real wire format, so we implement RFC 8259 here).
//! - [`ngsi`] — the NGSI-like context data model: [`ngsi::Entity`] with typed
//!   attributes and metadata, round-trippable through [`json::Json`].
//!
//! The wire form is compact JSON with sorted keys. A tree consumer builds
//! it with [`ngsi::Entity::to_json`]; the platform's write path, which
//! only wants the bytes, streams the identical text into a reused buffer
//! with [`ngsi::Entity::write_compact`] and decodes the bytes with its
//! dual [`ngsi::Entity::read_compact`], which builds no tree.
//! `tests/wire_format.rs` holds the two writers byte-identical, the two
//! decoders equal on every input, and pins golden strings.
//!
//! ## Example
//!
//! ```
//! use swamp_codec::json::Json;
//! use swamp_codec::ngsi::{Entity, AttrValue};
//!
//! let mut e = Entity::new("urn:swamp:soil:001", "SoilProbe");
//! e.set("moisture_vwc", AttrValue::Number(0.23));
//! e.set("zone", AttrValue::Text("NE-quadrant".into()));
//!
//! let wire = e.to_json().to_string();
//! let parsed = Json::parse(&wire).unwrap();
//! let back = Entity::from_json(&parsed).unwrap();
//! assert_eq!(back, e);
//! ```

// Wire formats must not truncate silently: `From`/`try_from`, or an
// `#[expect]` that says why the cast is exact.
#![cfg_attr(not(test), deny(clippy::as_conversions))]

pub mod json;
pub mod ngsi;

pub use json::Json;
pub use ngsi::{AttrValue, Attribute, Entity, EntityId};
