//! # swamp-crypto — from-scratch cryptographic substrate for SWAMP
//!
//! The paper requires that "the confidentiality of the data must be provided
//! using state of the practice cryptography" and that wireless links use
//! existing security protocols. No cryptography crate is in the approved
//! dependency set, so SWAMP implements the needed primitives from scratch,
//! each verified against its RFC/FIPS test vectors:
//!
//! - [`sha256`] — SHA-256 (FIPS 180-4).
//! - [`hmac`] — HMAC-SHA256 (RFC 2104), HKDF (RFC 5869), constant-time
//!   comparison.
//! - [`chacha20`] — the ChaCha20 stream cipher (RFC 8439).
//! - [`poly1305`] — the Poly1305 one-time authenticator (RFC 8439).
//! - [`aead`] — the ChaCha20-Poly1305 AEAD (RFC 8439) and nonce
//!   management: what device links actually use.
//! - [`keystore`] — per-device key derivation, rotation and revocation.
//!
//! **Scope note:** these implementations are written for clarity and
//! correctness in a research simulator. They are *not* hardened against
//! hardware side channels and should not be lifted into unrelated
//! production systems.
//!
//! ## Example
//!
//! ```
//! use swamp_crypto::aead::{NonceSequence, SecretKey};
//!
//! let key = SecretKey::derive(b"pilot master secret", "link:probe-07");
//! let mut nonces = NonceSequence::new(7);
//!
//! let frame = key.seal(&nonces.next_nonce(), b"probe-07", b"vwc=0.23");
//! let plain = key.open(b"probe-07", &frame)?;
//! assert_eq!(plain, b"vwc=0.23");
//! # Ok::<(), swamp_crypto::aead::OpenError>(())
//! ```

pub mod aead;
pub mod chacha20;
pub mod hmac;
pub mod keystore;
pub mod poly1305;
pub mod sha256;

pub use aead::{NonceSequence, OpenError, SecretKey};
pub use keystore::{Keystore, KeystoreError};
pub use sha256::Sha256;
