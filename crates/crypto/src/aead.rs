//! Authenticated encryption: the ChaCha20-Poly1305 AEAD of RFC 8439 §2.8.
//!
//! This is the "state of the practice cryptography" the paper mandates for
//! confidentiality of farm data, and the construction TLS 1.3 and WireGuard
//! use. Each frame takes a one-time Poly1305 key from ChaCha20 block 0 and
//! encrypts with the keystream from block 1 on; the tag covers
//! `aad ‖ pad16 ‖ ciphertext ‖ pad16 ‖ le64(aad.len) ‖ le64(ct.len)`.
//!
//! The sealed frame layout is: `nonce (12) || ciphertext || tag (16)`.
//! A nonce must never repeat under one key: a repeat reuses the keystream
//! *and* the one-time key, which exposes both plaintexts and lets the tag
//! be forged. [`NonceSequence`] is the one nonce source the network uses.

use crate::chacha20::{ChaCha20, KEY_LEN, NONCE_LEN};
use crate::hmac::{constant_time_eq, hkdf};
use crate::poly1305::{self, Poly1305, TAG_LEN};

/// Overhead added by [`SecretKey::seal`]: nonce plus tag.
pub const SEAL_OVERHEAD: usize = NONCE_LEN + TAG_LEN;

/// Error returned when opening a sealed frame fails.
///
/// Deliberately carries no detail: distinguishing "bad MAC" from "truncated"
/// would hand an oracle to an active attacker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OpenError;

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("authenticated decryption failed")
    }
}
impl std::error::Error for OpenError {}

/// A 256-bit ChaCha20-Poly1305 key, derived via HKDF.
#[derive(Clone)]
pub struct SecretKey {
    key: [u8; KEY_LEN],
}

impl std::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SecretKey { <redacted> }")
    }
}

impl SecretKey {
    /// Derives a key from raw input keying material and a context label.
    ///
    /// The label separates uses (e.g. `"link:probe-07"` vs `"token-signing"`)
    /// so a leaked key in one context cannot be replayed in another.
    pub fn derive(ikm: &[u8], label: &str) -> Self {
        let okm = hkdf(b"swamp-aead-v1", ikm, label.as_bytes(), KEY_LEN);
        let mut key = [0u8; KEY_LEN];
        key.copy_from_slice(&okm);
        SecretKey { key }
    }

    /// Encrypts and authenticates `plaintext` with the given unique `nonce`
    /// and additional authenticated data `aad`.
    ///
    /// The caller is responsible for nonce uniqueness per key; the network
    /// layer uses a per-device message counter ([`NonceSequence`]). Both
    /// confidentiality and integrity rest on it: the one-time Poly1305 key
    /// is a function of the nonce, so a repeated nonce lets an attacker
    /// who saw both frames forge tags. With unique nonces a forgery
    /// succeeds with probability at most 8⌈L/16⌉ / 2¹⁰⁶ per attempt for an
    /// L-byte authenticated input (Bernstein 2005): about 2⁻⁹⁹ for a
    /// telemetry frame.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let cipher = ChaCha20::new(&self.key, nonce);
        let mut out = Vec::with_capacity(plaintext.len() + SEAL_OVERHEAD);
        out.extend_from_slice(nonce);
        out.extend_from_slice(plaintext);
        cipher.apply_keystream(1, &mut out[NONCE_LEN..]);
        let tag = tag(&cipher, aad, &out[NONCE_LEN..]);
        out.extend_from_slice(&tag);
        out
    }

    /// Verifies and decrypts a frame produced by [`SecretKey::seal`] into a
    /// fresh buffer: [`SecretKey::open_into`] for callers that keep none.
    ///
    /// # Errors
    /// As [`SecretKey::open_into`].
    pub fn open(&self, aad: &[u8], frame: &[u8]) -> Result<Vec<u8>, OpenError> {
        let mut plaintext = Vec::new();
        self.open_into(aad, frame, &mut plaintext)?;
        Ok(plaintext)
    }

    /// Verifies a frame produced by [`SecretKey::seal`] and decrypts it into
    /// `out`, replacing what `out` held and reusing its capacity. The tag
    /// is checked before a byte is decrypted, and on any error `out` is
    /// left empty, so unauthenticated plaintext is never exposed.
    ///
    /// # Errors
    /// Returns [`OpenError`] if the frame is truncated, the tag does not
    /// verify, or the AAD differs from the one used at seal time.
    pub fn open_into(&self, aad: &[u8], frame: &[u8], out: &mut Vec<u8>) -> Result<(), OpenError> {
        out.clear();
        let Some(ct_len) = frame.len().checked_sub(SEAL_OVERHEAD) else {
            return Err(OpenError);
        };
        let (nonce_bytes, rest) = frame.split_at(NONCE_LEN);
        let (ciphertext, tag_bytes) = rest.split_at(ct_len);
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(nonce_bytes);

        let cipher = ChaCha20::new(&self.key, &nonce);
        if !constant_time_eq(&tag(&cipher, aad, ciphertext), tag_bytes) {
            return Err(OpenError);
        }

        out.extend_from_slice(ciphertext);
        cipher.apply_keystream(1, out);
        Ok(())
    }
}

/// The RFC 8439 §2.6 one-time Poly1305 key: the first 32 bytes of
/// ChaCha20 block 0 under the frame's key and nonce.
fn one_time_key(cipher: &ChaCha20) -> [u8; poly1305::KEY_LEN] {
    let block = cipher.block(0);
    let mut key = [0u8; poly1305::KEY_LEN];
    key.copy_from_slice(&block[..poly1305::KEY_LEN]);
    key
}

/// The RFC 8439 §2.8 tag over `aad` and `ciphertext`.
fn tag(cipher: &ChaCha20, aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(&one_time_key(cipher));
    mac.update(aad);
    mac.pad16();
    mac.update(ciphertext);
    mac.pad16();
    mac.update(&(aad.len() as u64).to_le_bytes());
    mac.update(&(ciphertext.len() as u64).to_le_bytes());
    mac.finalize()
}

/// A monotonically increasing nonce source for one key.
///
/// # Example
/// ```
/// use swamp_crypto::aead::NonceSequence;
/// let mut seq = NonceSequence::new(7);
/// let a = seq.next_nonce();
/// let b = seq.next_nonce();
/// assert_ne!(a, b);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NonceSequence {
    sender_id: u32,
    counter: u64,
}

impl NonceSequence {
    /// Creates a sequence namespaced by a sender id, so two devices sharing
    /// a (mis-provisioned) key still never collide nonces.
    pub fn new(sender_id: u32) -> Self {
        NonceSequence {
            sender_id,
            counter: 0,
        }
    }

    /// Returns the next unique nonce.
    pub fn next_nonce(&mut self) -> [u8; NONCE_LEN] {
        let mut nonce = [0u8; NONCE_LEN];
        nonce[..4].copy_from_slice(&self.sender_id.to_be_bytes());
        nonce[4..].copy_from_slice(&self.counter.to_be_bytes());
        self.counter += 1;
        nonce
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> SecretKey {
        SecretKey::derive(b"pilot shared secret", "link:test")
    }

    #[test]
    fn seal_open_roundtrip() {
        let k = key();
        let nonce = [1u8; NONCE_LEN];
        let frame = k.seal(&nonce, b"hdr", b"soil moisture 0.23");
        assert_eq!(frame.len(), 18 + SEAL_OVERHEAD);
        let plain = k.open(b"hdr", &frame).unwrap();
        assert_eq!(plain, b"soil moisture 0.23");
    }

    #[test]
    fn empty_plaintext_roundtrip() {
        let k = key();
        let frame = k.seal(&[0u8; NONCE_LEN], b"", b"");
        assert_eq!(k.open(b"", &frame).unwrap(), b"");
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let k = key();
        let mut frame = k.seal(&[2u8; NONCE_LEN], b"", b"open valve 3");
        frame[NONCE_LEN] ^= 0x01;
        assert_eq!(k.open(b"", &frame), Err(OpenError));
    }

    #[test]
    fn tampered_tag_rejected() {
        let k = key();
        let mut frame = k.seal(&[2u8; NONCE_LEN], b"", b"x");
        let last = frame.len() - 1;
        frame[last] ^= 0x80;
        assert_eq!(k.open(b"", &frame), Err(OpenError));
    }

    #[test]
    fn tampered_nonce_rejected() {
        let k = key();
        let mut frame = k.seal(&[2u8; NONCE_LEN], b"", b"x");
        frame[0] ^= 0x01;
        assert_eq!(k.open(b"", &frame), Err(OpenError));
    }

    #[test]
    fn wrong_aad_rejected() {
        let k = key();
        let frame = k.seal(&[3u8; NONCE_LEN], b"device:7", b"m");
        assert!(k.open(b"device:7", &frame).is_ok());
        assert_eq!(k.open(b"device:8", &frame), Err(OpenError));
    }

    #[test]
    fn wrong_key_rejected() {
        let frame = key().seal(&[4u8; NONCE_LEN], b"", b"m");
        let other = SecretKey::derive(b"different secret", "link:test");
        assert_eq!(other.open(b"", &frame), Err(OpenError));
    }

    #[test]
    fn truncated_frames_rejected() {
        let k = key();
        let frame = k.seal(&[5u8; NONCE_LEN], b"", b"hello");
        for len in 0..SEAL_OVERHEAD {
            assert_eq!(k.open(b"", &frame[..len]), Err(OpenError), "len {len}");
        }
    }

    /// The sealed bytes of one fixed frame, pinned: key schedule, nonce
    /// layout, tag framing and cipher together, so no speed-up of any of
    /// them can change the wire. The nonce and ciphertext are the bytes the
    /// HMAC-tagged frame carried before the AEAD became RFC 8439's (the
    /// key derivation's first HKDF block and the cipher are unchanged);
    /// only the 16-byte Poly1305 tag is new.
    #[test]
    fn sealed_bytes_known_answer() {
        let k = SecretKey::derive(b"pilot shared secret", "link:probe-07");
        let nonce = [0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 0, 42];
        let frame = k.seal(&nonce, b"probe-07", PIN_PLAINTEXT);
        let (body, tag) = frame.split_at(frame.len() - TAG_LEN);
        assert_eq!(
            crate::sha256::to_hex(body),
            "00000007000000000000002a0e019069a68cf7e4d3ac701f493d7616fe23ac8c\
             a4275496e8517eb8dab146b035188b7d3c0724c766449fe425df5ec49c1f8bc0\
             f10bcdda66311ecf526303db2aed75931073d30c36b7727f3abca17f99f61f53\
             e653e7703f5d488e6a1afb0b73419dc9d0aeb28f2bfa2e7db76723bfb1dd641e\
             d85b4d4596c394eee76dcfe543aa7afe37"
        );
        assert_eq!(
            crate::sha256::to_hex(tag),
            "e24117ec27d8124422be7f1a97ba02b1"
        );
        let empty = SecretKey::derive(b"", "").seal(&[0u8; NONCE_LEN], b"", b"");
        assert_eq!(
            crate::sha256::to_hex(&empty),
            "0000000000000000000000002eafae1488facd05529a82e05f09544c"
        );
    }

    fn rfc_key() -> SecretKey {
        SecretKey {
            key: std::array::from_fn(|i| 0x80 + i as u8),
        }
    }

    // RFC 8439 §2.6.2: the one-time Poly1305 key from ChaCha20 block 0.
    #[test]
    fn rfc8439_one_time_key_vector() {
        let nonce = [0, 0, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7];
        let cipher = ChaCha20::new(&rfc_key().key, &nonce);
        assert_eq!(
            crate::sha256::to_hex(&one_time_key(&cipher)),
            "8ad5a08b905f81cc815040274ab29471a833b637e3fd0da508dbb8e2fdd1a646"
        );
    }

    // RFC 8439 §2.8.2: the AEAD end to end, and it opens again.
    #[test]
    fn rfc8439_aead_vector() {
        let k = rfc_key();
        let nonce = [
            0x07, 0, 0, 0, 0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47,
        ];
        let aad = [
            0x50, 0x51, 0x52, 0x53, 0xc0, 0xc1, 0xc2, 0xc3, 0xc4, 0xc5, 0xc6, 0xc7,
        ];
        let plaintext = b"Ladies and Gentlemen of the class of '99: \
If I could offer you only one tip for the future, sunscreen would be it.";
        let frame = k.seal(&nonce, &aad, plaintext);
        assert_eq!(
            crate::sha256::to_hex(&frame),
            "070000004041424344454647\
             d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
             3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
             92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
             3ff4def08e4b7a9de576d26586cec64b6116\
             1ae10b594f09e26a7e902ecbd0600691"
        );
        assert_eq!(k.open(&aad, &frame).unwrap(), plaintext);
    }

    const PIN_PLAINTEXT: &[u8] = br#"{"attrs":{"moisture_vwc":{"observedAt":3600000,"value":0.23},"seq":{"value":42}},"id":"urn:swamp:device:probe-07","type":"SoilProbe"}"#;

    #[test]
    fn open_into_equals_open_and_reuses_the_buffer() {
        let k = key();
        let mut out = Vec::new();
        for len in [0, 1, 63, 64, 65, PIN_PLAINTEXT.len()] {
            let frame = k.seal(&[len as u8; NONCE_LEN], b"aad", &PIN_PLAINTEXT[..len]);
            k.open_into(b"aad", &frame, &mut out).unwrap();
            assert_eq!(out, k.open(b"aad", &frame).unwrap());
            assert_eq!(out, &PIN_PLAINTEXT[..len]);
        }
        // The largest frame left its capacity; a smaller one reuses it.
        let capacity = out.capacity();
        let ptr = out.as_ptr();
        let frame = k.seal(&[7u8; NONCE_LEN], b"aad", b"short");
        k.open_into(b"aad", &frame, &mut out).unwrap();
        assert_eq!(out, b"short");
        assert_eq!((out.capacity(), out.as_ptr()), (capacity, ptr));
    }

    /// Every single-bit flip of the nonce, ciphertext, tag or AAD is
    /// refused, and the refusal leaves the output buffer empty even when
    /// it held a previous frame's plaintext.
    #[test]
    fn every_bit_flip_is_refused_and_exposes_nothing() {
        let k = key();
        let aad = b"probe-07";
        let frame = k.seal(&[3u8; NONCE_LEN], aad, PIN_PLAINTEXT);
        let mut out = Vec::new();
        let mut refused = 0;
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                k.open_into(aad, &frame, &mut out).unwrap();
                assert_eq!(k.open_into(aad, &bad, &mut out), Err(OpenError));
                assert!(out.is_empty(), "byte {byte} bit {bit}");
                refused += 1;
            }
        }
        for byte in 0..aad.len() {
            for bit in 0..8 {
                let mut bad_aad = *aad;
                bad_aad[byte] ^= 1 << bit;
                k.open_into(aad, &frame, &mut out).unwrap();
                assert_eq!(k.open_into(&bad_aad, &frame, &mut out), Err(OpenError));
                assert!(out.is_empty(), "aad byte {byte} bit {bit}");
                refused += 1;
            }
        }
        assert_eq!(refused, (frame.len() + aad.len()) * 8);
        // Truncation too, at every length.
        for len in 0..frame.len() {
            k.open_into(aad, &frame, &mut out).unwrap();
            assert_eq!(k.open_into(aad, &frame[..len], &mut out), Err(OpenError));
            assert!(out.is_empty(), "len {len}");
        }
    }

    #[test]
    fn label_separation() {
        let a = SecretKey::derive(b"ikm", "link:a");
        let b = SecretKey::derive(b"ikm", "link:b");
        let frame = a.seal(&[6u8; NONCE_LEN], b"", b"m");
        assert_eq!(b.open(b"", &frame), Err(OpenError));
    }

    #[test]
    fn nonce_sequence_unique_and_namespaced() {
        let mut a = NonceSequence::new(1);
        let mut b = NonceSequence::new(2);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            assert!(seen.insert(a.next_nonce()));
            assert!(seen.insert(b.next_nonce()));
        }
        assert_eq!(a.counter, 100);
    }

    #[test]
    fn ciphertext_differs_from_plaintext() {
        let k = key();
        let frame = k.seal(&[9u8; NONCE_LEN], b"", b"AAAAAAAAAAAAAAAA");
        assert!(!frame.windows(16).any(|w| w == b"AAAAAAAAAAAAAAAA"));
    }
}
