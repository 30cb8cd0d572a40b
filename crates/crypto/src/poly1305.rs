//! Poly1305 one-time authenticator (RFC 8439 §2.5), implemented from
//! scratch.
//!
//! The accumulator `h` and the clamped multiplier `r` are held as five
//! 26-bit limbs, so every limb product fits a `u64` with room for the five
//! terms of a row (the "donna-32" layout). Limbs are only partially
//! reduced between blocks; [`Poly1305::finalize`] does the one full
//! reduction mod 2¹³⁰ − 5 before adding `s`. Verified against the
//! RFC 8439 vectors and, in the tests, a schoolbook reference.
//!
//! A key authenticates exactly one message: the AEAD in [`crate::aead`]
//! takes a fresh key from ChaCha20 block 0 for every frame.

/// Key length in bytes: `r` (16) then `s` (16).
pub const KEY_LEN: usize = 32;
/// Tag length in bytes.
pub const TAG_LEN: usize = 16;
/// Message block length in bytes.
const BLOCK_LEN: usize = 16;
const MASK26: u32 = 0x3ff_ffff;
/// 2^128 in limb 4: the pad bit of a full 16-byte block.
const HIBIT: u32 = 1 << 24;

/// An incremental Poly1305 computation under one one-time key.
///
/// # Example
/// ```
/// use swamp_crypto::poly1305::Poly1305;
/// let mut mac = Poly1305::new(&[7u8; 32]);
/// mac.update(b"tele");
/// mac.update(b"metry");
/// let mut whole = Poly1305::new(&[7u8; 32]);
/// whole.update(b"telemetry");
/// assert_eq!(mac.finalize(), whole.finalize());
/// ```
///
/// Deliberately not `Clone`: a copy of the state would invite a second
/// message under the same one-time key.
pub struct Poly1305 {
    r: [u32; 5],
    h: [u32; 5],
    s: u128,
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
}

impl std::fmt::Debug for Poly1305 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Poly1305 { <redacted> }")
    }
}

fn le32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

impl Poly1305 {
    /// Creates an authenticator for the one-time key `r ‖ s`; `r` is
    /// clamped as RFC 8439 §2.5.1 requires.
    pub fn new(key: &[u8; KEY_LEN]) -> Self {
        Poly1305 {
            r: [
                le32(key, 0) & 0x3ff_ffff,
                (le32(key, 3) >> 2) & 0x3ff_ff03,
                (le32(key, 6) >> 4) & 0x3ff_c0ff,
                (le32(key, 9) >> 6) & 0x3f0_3fff,
                (le32(key, 12) >> 8) & 0x00f_ffff,
            ],
            h: [0; 5],
            s: u128::from_le_bytes(std::array::from_fn(|i| key[16 + i])),
            buf: [0; BLOCK_LEN],
            buf_len: 0,
        }
    }

    /// Absorbs more message bytes.
    pub fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < BLOCK_LEN {
                return;
            }
            let block = self.buf;
            self.block(&block, HIBIT);
        }
        let mut blocks = data.chunks_exact(BLOCK_LEN);
        for block in &mut blocks {
            self.block(block, HIBIT);
        }
        let rest = blocks.remainder();
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Zero-pads what was absorbed so far to a whole number of blocks
    /// (RFC 8439 §2.8's `pad16`); a no-op on a block boundary.
    pub fn pad16(&mut self) {
        if self.buf_len > 0 {
            self.buf[self.buf_len..].fill(0);
            let block = self.buf;
            self.block(&block, HIBIT);
            self.buf_len = 0;
        }
    }

    /// Finishes and returns the 16-byte tag.
    pub fn finalize(mut self) -> [u8; TAG_LEN] {
        if self.buf_len > 0 {
            // A short last block carries its 2^(8·len) bit in the bytes.
            self.buf[self.buf_len] = 1;
            self.buf[self.buf_len + 1..].fill(0);
            let block = self.buf;
            self.block(&block, 0);
        }
        // Carry fully, so every limb is below 2^26 and h < 2^130.
        let mut h = self.h;
        let mut c = 0;
        for limb in &mut h[1..] {
            *limb += c;
            c = *limb >> 26;
            *limb &= MASK26;
        }
        h[0] += c * 5;
        h[1] += h[0] >> 26;
        h[0] &= MASK26;

        // g = (h + 5) mod 2^130 = h − p; the carry out of limb 4 is h ≥ p.
        let mut g = [0u32; 5];
        let mut c = 5;
        for (g, h) in g.iter_mut().zip(h) {
            *g = h + c;
            c = *g >> 26;
            *g &= MASK26;
        }
        // All ones when h ≥ p (take g), zero otherwise: no secret branch.
        let take_g = 0u32.wrapping_sub(c);
        for (h, g) in h.iter_mut().zip(g) {
            *h = (*h & !take_g) | (g & take_g);
        }

        // (h + s) mod 2^128; the shifts drop h's bits above 2^128.
        let h = h
            .iter()
            .enumerate()
            .fold(0u128, |acc, (i, &limb)| acc | u128::from(limb) << (26 * i));
        h.wrapping_add(self.s).to_le_bytes()
    }

    /// h = (h + block + pad bit) · r, partially reduced mod 2^130 − 5.
    /// `hibit` is [`HIBIT`] for a full block, 0 for the short last one
    /// whose pad bit is already in its bytes.
    fn block(&mut self, block: &[u8], hibit: u32) {
        let [r0, r1, r2, r3, r4] = self.r.map(u64::from);
        // 2^130 ≡ 5, so a product that lands past limb 4 wraps as ×5.
        let (s1, s2, s3, s4) = (r1 * 5, r2 * 5, r3 * 5, r4 * 5);

        let h0 = u64::from(self.h[0] + (le32(block, 0) & MASK26));
        let h1 = u64::from(self.h[1] + ((le32(block, 3) >> 2) & MASK26));
        let h2 = u64::from(self.h[2] + ((le32(block, 6) >> 4) & MASK26));
        let h3 = u64::from(self.h[3] + ((le32(block, 9) >> 6) & MASK26));
        let h4 = u64::from(self.h[4] + ((le32(block, 12) >> 8) | hibit));

        let d0 = h0 * r0 + h1 * s4 + h2 * s3 + h3 * s2 + h4 * s1;
        let mut d1 = h0 * r1 + h1 * r0 + h2 * s4 + h3 * s3 + h4 * s2;
        let mut d2 = h0 * r2 + h1 * r1 + h2 * r0 + h3 * s4 + h4 * s3;
        let mut d3 = h0 * r3 + h1 * r2 + h2 * r1 + h3 * r0 + h4 * s4;
        let mut d4 = h0 * r4 + h1 * r3 + h2 * r2 + h3 * r1 + h4 * r0;

        let mask = u64::from(MASK26);
        d1 += d0 >> 26;
        d2 += d1 >> 26;
        d3 += d2 >> 26;
        d4 += d3 >> 26;
        let h0 = (d0 & mask) + (d4 >> 26) * 5;
        self.h = [
            (h0 & mask) as u32,
            ((d1 & mask) + (h0 >> 26)) as u32,
            (d2 & mask) as u32,
            (d3 & mask) as u32,
            (d4 & mask) as u32,
        ];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    fn from_hex(hex: &str) -> Vec<u8> {
        (0..hex.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
            .collect()
    }

    fn tag(key: &[u8; KEY_LEN], message: &[u8]) -> [u8; TAG_LEN] {
        let mut mac = Poly1305::new(key);
        mac.update(message);
        mac.finalize()
    }

    // RFC 8439 §2.5.2.
    #[test]
    fn rfc8439_tag_vector() {
        let key: [u8; KEY_LEN] =
            from_hex("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b")
                .try_into()
                .unwrap();
        assert_eq!(
            to_hex(&tag(&key, b"Cryptographic Forum Research Group")),
            "a8061dc1305136c6c22b8baf0c0127a9"
        );
    }

    /// A number below 2^160 as five little-endian words: wide enough for
    /// any sum of two values below p = 2^130 − 5.
    type Wide = [u32; 5];
    const P: Wide = [0xffff_fffb, 0xffff_ffff, 0xffff_ffff, 0xffff_ffff, 3];

    fn at_least_p(x: &Wide) -> bool {
        for i in (0..5).rev() {
            if x[i] != P[i] {
                return x[i] > P[i];
            }
        }
        true
    }

    /// (a + b) mod p for a, b < p.
    fn add_mod(a: &Wide, b: &Wide) -> Wide {
        let mut sum = [0u32; 5];
        let mut carry = 0u64;
        for i in 0..5 {
            let t = u64::from(a[i]) + u64::from(b[i]) + carry;
            sum[i] = t as u32;
            carry = t >> 32;
        }
        if at_least_p(&sum) {
            let mut borrow = 0i64;
            for i in 0..5 {
                let t = i64::from(sum[i]) - i64::from(P[i]) - borrow;
                sum[i] = t.rem_euclid(1 << 32) as u32;
                borrow = i64::from(t < 0);
            }
        }
        sum
    }

    /// (a · b) mod p for a, b < p: shift-and-add over b's bits.
    fn mul_mod(a: &Wide, b: &Wide) -> Wide {
        let mut acc = [0u32; 5];
        for bit in (0..160).rev() {
            acc = add_mod(&acc, &acc);
            if b[bit / 32] >> (bit % 32) & 1 == 1 {
                acc = add_mod(&acc, a);
            }
        }
        acc
    }

    fn wide(bytes: &[u8]) -> Wide {
        let mut padded = [0u8; 20];
        padded[..bytes.len()].copy_from_slice(bytes);
        std::array::from_fn(|i| le32(&padded, i * 4))
    }

    /// RFC 8439 §2.5.1 read literally: every 16-byte chunk, with a 1 byte
    /// appended, is added to the accumulator, which is multiplied by the
    /// clamped r and fully reduced mod p; then s is added mod 2^128.
    fn reference(key: &[u8; KEY_LEN], message: &[u8]) -> [u8; TAG_LEN] {
        let clamp = 0x0fff_fffc_0fff_fffc_0fff_fffc_0fff_ffff_u128;
        let r = u128::from_le_bytes(key[..16].try_into().unwrap()) & clamp;
        let r = wide(&r.to_le_bytes());
        let mut acc = [0u32; 5];
        for chunk in message.chunks(16) {
            let mut n = chunk.to_vec();
            n.push(1);
            acc = mul_mod(&add_mod(&acc, &wide(&n)), &r);
        }
        let low = u128::from(acc[0])
            | u128::from(acc[1]) << 32
            | u128::from(acc[2]) << 64
            | u128::from(acc[3]) << 96;
        let s = u128::from_le_bytes(key[16..].try_into().unwrap());
        low.wrapping_add(s).to_le_bytes()
    }

    struct SplitMix64(u64);

    impl SplitMix64 {
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn fill(&mut self, bytes: &mut [u8]) {
            for b in bytes {
                *b = self.next_u64() as u8;
            }
        }
    }

    /// The limb arithmetic equals the schoolbook reference on seeded keys
    /// and messages of every length up to five blocks, fed in two pieces
    /// split at every point, and on the all-0xff key and message.
    #[test]
    fn matches_the_schoolbook_reference_at_every_length_and_split() {
        let mut rng = SplitMix64(0x9013_0005);
        let mut keys = vec![[0xff; KEY_LEN]];
        for _ in 0..8 {
            let mut key = [0u8; KEY_LEN];
            rng.fill(&mut key);
            keys.push(key);
        }
        for key in &keys {
            for len in 0..=80 {
                let mut message = vec![0u8; len];
                if key == &[0xff; KEY_LEN] {
                    message.fill(0xff);
                } else {
                    rng.fill(&mut message);
                }
                let expected = reference(key, &message);
                for split in 0..=len {
                    let mut mac = Poly1305::new(key);
                    mac.update(&message[..split]);
                    mac.update(&message[split..]);
                    assert_eq!(mac.finalize(), expected, "len {len} split {split}");
                }
            }
        }
    }

    /// With r = 1 and s = 0 the tag is the accumulator itself, so two
    /// blocks can park h exactly around p = 2^130 − 5: the final
    /// conditional subtraction must take h − p from p on, and only there.
    #[test]
    fn final_reduction_at_and_around_p() {
        let mut key = [0u8; KEY_LEN];
        key[0] = 1;
        // Both blocks read 2^129 − 1 less what `low` lacks of 0xff, so
        // h = 2^130 − 2 − (0xff − low), which is p + (low − 0xfc).
        for (low, h_minus_p) in [(0xfau8, -2i64), (0xfb, -1), (0xfc, 0), (0xfd, 1), (0xfe, 2)] {
            let mut message = [0xff; 32];
            message[16] = low;
            let mut expected = [0u8; TAG_LEN];
            if h_minus_p < 0 {
                // h = p + d, below p: its low 128 bits are 2^128 − 5 + d.
                expected = (u128::MAX - 4)
                    .wrapping_add_signed(i128::from(h_minus_p))
                    .to_le_bytes();
            } else {
                expected[0] = h_minus_p as u8;
            }
            assert_eq!(tag(&key, &message), expected, "h − p = {h_minus_p}");
            assert_eq!(reference(&key, &message), expected, "h − p = {h_minus_p}");
        }
    }

    #[test]
    fn pad16_is_zero_padding_to_a_block() {
        let key = [0x42; KEY_LEN];
        for len in 0..=33usize {
            let message: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut padded = message.clone();
            padded.resize(len.div_ceil(16) * 16, 0);
            let mut mac = Poly1305::new(&key);
            mac.update(&message);
            mac.pad16();
            mac.update(b"tail");
            let mut plain = Poly1305::new(&key);
            plain.update(&padded);
            plain.update(b"tail");
            assert_eq!(mac.finalize(), plain.finalize(), "len {len}");
        }
    }

    #[test]
    fn debug_redacts_state() {
        assert!(format!("{:?}", Poly1305::new(&[1u8; KEY_LEN])).contains("redacted"));
    }
}
