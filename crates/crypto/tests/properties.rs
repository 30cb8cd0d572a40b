//! Seeded property loops for the AEAD frame: any damage to a sealed frame
//! is refused.
//!
//! The crypto crate is substrate — the layering table lets it depend on no
//! workspace crate, `swamp-sim` and its `SimRng` included — so the loops
//! carry their own SplitMix64.

use swamp_crypto::aead::{NonceSequence, SecretKey};

const CASES: usize = 256;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)` (modulo bias is irrelevant to coverage).
    fn len_in(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    fn bytes(&mut self, lo: usize, hi: usize) -> Vec<u8> {
        (0..self.len_in(lo, hi))
            .map(|_| self.next_u64() as u8)
            .collect()
    }
}

/// A frame sealed under a random key, sender, AAD and plaintext opens to
/// the plaintext, and stops opening when any one bit of it flips.
#[test]
fn any_single_bitflip_is_rejected() {
    let mut rng = SplitMix64(0xC2F0_0001);
    for _ in 0..CASES {
        let key = SecretKey::derive(&rng.bytes(1, 64), "flip");
        let aad = rng.bytes(0, 32);
        let plaintext = rng.bytes(0, 64);
        let mut nonces = NonceSequence::new((rng.next_u64() >> 32) as u32);
        let frame = key.seal(&nonces.next_nonce(), &aad, &plaintext);
        assert_eq!(key.open(&aad, &frame).as_deref(), Ok(plaintext.as_slice()));
        let bit = rng.len_in(0, 8);
        for byte_idx in 0..frame.len() {
            let mut tampered = frame.clone();
            tampered[byte_idx] ^= 1 << bit;
            assert!(
                key.open(&aad, &tampered).is_err(),
                "bit {bit} of byte {byte_idx} flipped and the frame still opened"
            );
        }
    }
}

/// A frame cut short by any number of bytes is refused.
#[test]
fn truncation_always_rejected() {
    let mut rng = SplitMix64(0xC2F0_0002);
    let key = SecretKey::derive(b"k", "trunc");
    let mut nonces = NonceSequence::new(0);
    for _ in 0..CASES {
        let frame = key.seal(&nonces.next_nonce(), b"", &rng.bytes(0, 64));
        let cut = rng.len_in(1, 16).min(frame.len());
        assert!(key.open(b"", &frame[..frame.len() - cut]).is_err());
    }
}
