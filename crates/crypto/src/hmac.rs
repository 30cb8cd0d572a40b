//! HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869), built on the from-scratch
//! SHA-256 in this crate. These are the MAC and key-derivation primitives
//! used for per-device link keys (HKDF, in the keystore and the AEAD), and for
//! token signing and pseudonyms in `swamp-security`.

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the SHA-256 block size are hashed first, per RFC 2104.
///
/// # Example
/// ```
/// use swamp_crypto::hmac::hmac_sha256;
/// let tag = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(swamp_crypto::sha256::to_hex(&tag),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8");
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    mac.update(message);
    mac.finalize()
}

/// Incremental HMAC-SHA256.
///
/// Keying compresses both pads once, each into a hasher of its own: a
/// keyed MAC that is cloned per message pays only for the message and one
/// outer block, never for its key again; a one-off MAC (HKDF, token
/// signatures, pseudonyms) does the same compressions as hashing the pads
/// inline.
#[derive(Clone, Debug)]
pub struct HmacSha256 {
    inner: Sha256,
    /// The outer pad's chaining value: a hasher fed exactly that block.
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates a MAC keyed with `key`.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let hashed = Sha256::digest(key);
            key_block[..DIGEST_LEN].copy_from_slice(&hashed);
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut inner_key = [0u8; BLOCK_LEN];
        let mut outer_key = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            inner_key[i] = key_block[i] ^ 0x36;
            outer_key[i] = key_block[i] ^ 0x5c;
        }

        let mut inner = Sha256::new();
        inner.update(&inner_key);
        let mut outer = Sha256::new();
        outer.update(&outer_key);
        HmacSha256 { inner, outer }
    }

    /// Absorbs more message bytes.
    pub fn update(&mut self, message: &[u8]) {
        self.inner.update(message);
    }

    /// Finishes and returns the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// Constant-time equality for MACs and tokens.
///
/// A naive `==` on byte slices short-circuits at the first mismatch, leaking
/// how many prefix bytes matched — exactly the side channel a forging
/// adversary needs. This comparison always examines every byte.
pub fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// HKDF-Extract (RFC 5869 §2.2): derives a pseudorandom key from input
/// keying material and an optional salt.
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand (RFC 5869 §2.3): expands a pseudorandom key into `len` bytes
/// of output keying material bound to `info`.
///
/// # Panics
/// Panics if `len > 255 * 32` (the RFC 5869 limit).
pub fn hkdf_expand(prk: &[u8; DIGEST_LEN], info: &[u8], len: usize) -> Vec<u8> {
    assert!(
        len <= 255 * DIGEST_LEN,
        "HKDF-Expand output too long: {len}"
    );
    let mut out = Vec::with_capacity(len);
    let mut t: Vec<u8> = Vec::new();
    let mut counter = 1u8;
    while out.len() < len {
        let mut mac = HmacSha256::new(prk);
        mac.update(&t);
        mac.update(info);
        mac.update(&[counter]);
        t = mac.finalize().to_vec();
        let take = (len - out.len()).min(DIGEST_LEN);
        out.extend_from_slice(&t[..take]);
        counter += 1;
    }
    out
}

/// One-call HKDF: extract then expand.
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    let prk = hkdf_extract(salt, ikm);
    hkdf_expand(&prk, info, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    // RFC 4231 test vectors for HMAC-SHA256.
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            to_hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            to_hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn rfc4231_case3() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            to_hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa; 131]; // longer than block size -> hashed first
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            to_hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut mac = HmacSha256::new(b"k");
        mac.update(b"hello ");
        mac.update(b"world");
        assert_eq!(mac.finalize(), hmac_sha256(b"k", b"hello world"));
    }

    #[test]
    fn different_keys_different_tags() {
        assert_ne!(hmac_sha256(b"k1", b"m"), hmac_sha256(b"k2", b"m"));
    }

    #[test]
    fn constant_time_eq_basic() {
        assert!(constant_time_eq(b"abc", b"abc"));
        assert!(!constant_time_eq(b"abc", b"abd"));
        assert!(!constant_time_eq(b"abc", b"ab"));
        assert!(constant_time_eq(b"", b""));
    }

    // RFC 5869 test case 1.
    #[test]
    fn hkdf_rfc5869_case1() {
        let ikm = [0x0b; 22];
        let salt: Vec<u8> = (0x00..=0x0c).collect();
        let info: Vec<u8> = (0xf0..=0xf9).collect();
        let prk = hkdf_extract(&salt, &ikm);
        assert_eq!(
            to_hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = hkdf_expand(&prk, &info, 42);
        assert_eq!(
            to_hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
             34007208d5b887185865"
        );
    }

    // RFC 5869 test case 3 (zero-length salt and info).
    #[test]
    fn hkdf_rfc5869_case3() {
        let ikm = [0x0b; 22];
        let okm = hkdf(&[], &ikm, &[], 42);
        assert_eq!(
            to_hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d\
             9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn hkdf_lengths() {
        let okm = hkdf(b"s", b"ikm", b"info", 100);
        assert_eq!(okm.len(), 100);
        let okm0 = hkdf(b"s", b"ikm", b"info", 0);
        assert!(okm0.is_empty());
    }

    #[test]
    #[should_panic(expected = "too long")]
    fn hkdf_expand_rejects_oversize() {
        let prk = hkdf_extract(b"s", b"ikm");
        let _ = hkdf_expand(&prk, b"", 255 * 32 + 1);
    }
}
