//! ChaCha20 stream cipher (RFC 8439), implemented from scratch.
//!
//! The paper requires "state of the practice cryptography" for data
//! confidentiality on the sensor-to-platform links; ChaCha20 is the natural
//! software cipher for constrained devices (no AES hardware in the field).
//! Verified against the RFC 8439 test vectors.

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes.
pub const NONCE_LEN: usize = 12;

/// A ChaCha20 cipher instance bound to one key/nonce pair.
///
/// Encryption and decryption are the same XOR-keystream operation.
///
/// # Example
/// ```
/// use swamp_crypto::chacha20::ChaCha20;
/// let key = [7u8; 32];
/// let nonce = [1u8; 12];
/// let mut ct = b"telemetry: vwc=0.23".to_vec();
/// ChaCha20::new(&key, &nonce).apply_keystream(0, &mut ct);
/// assert_ne!(&ct, b"telemetry: vwc=0.23");
/// ChaCha20::new(&key, &nonce).apply_keystream(0, &mut ct);
/// assert_eq!(&ct, b"telemetry: vwc=0.23");
/// ```
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
}

impl std::fmt::Debug for ChaCha20 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ChaCha20 {{ key: <redacted> }}")
    }
}

impl ChaCha20 {
    /// Creates a cipher for the given 256-bit key and 96-bit nonce.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN]) -> Self {
        let mut k = [0u32; 8];
        for (i, chunk) in key.chunks_exact(4).enumerate() {
            k[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        let mut n = [0u32; 3];
        for (i, chunk) in nonce.chunks_exact(4).enumerate() {
            n[i] = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        ChaCha20 { key: k, nonce: n }
    }

    /// XORs the keystream (starting at block counter `counter`) into `data`,
    /// encrypting or decrypting in place.
    pub fn apply_keystream(&self, counter: u32, data: &mut [u8]) {
        let mut block_counter = counter;
        for chunk in data.chunks_mut(64) {
            let keystream = self.block(block_counter);
            for (b, k) in chunk.iter_mut().zip(keystream.iter()) {
                *b ^= k;
            }
            block_counter = block_counter.wrapping_add(1);
        }
    }

    /// Produces one 64-byte keystream block.
    pub(crate) fn block(&self, counter: u32) -> [u8; 64] {
        // "expand 32-byte k" constant.
        let mut state = [
            0x61707865u32,
            0x3320646e,
            0x79622d32,
            0x6b206574,
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            counter,
            self.nonce[0],
            self.nonce[1],
            self.nonce[2],
        ];
        let initial = state;

        for _ in 0..10 {
            // Column rounds.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal rounds.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }

        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = state[i].wrapping_add(initial[i]);
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_le_bytes());
        }
        out
    }
}

fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sha256::to_hex;

    fn rfc_key() -> [u8; 32] {
        let mut k = [0u8; 32];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        k
    }

    // RFC 8439 §2.3.2 block function test vector.
    #[test]
    fn rfc8439_block_vector() {
        let key = rfc_key();
        let nonce = [
            0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let cipher = ChaCha20::new(&key, &nonce);
        let block = cipher.block(1);
        assert_eq!(
            to_hex(&block),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
             d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    // RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encryption_vector() {
        let key = rfc_key();
        let nonce = [
            0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4a, 0x00, 0x00, 0x00, 0x00,
        ];
        let plaintext = b"Ladies and Gentlemen of the class of '99: \
If I could offer you only one tip for the future, sunscreen would be it.";
        let mut data = plaintext.to_vec();
        ChaCha20::new(&key, &nonce).apply_keystream(1, &mut data);
        assert_eq!(
            to_hex(&data),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
             f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
             07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
             5af90bbf74a35be6b40b8eedf2785e42874d"
        );
    }

    #[test]
    fn roundtrip_various_lengths() {
        let key = [0xAB; 32];
        let nonce = [0xCD; 12];
        for len in [0usize, 1, 63, 64, 65, 127, 128, 1000] {
            let plain: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let mut data = plain.clone();
            ChaCha20::new(&key, &nonce).apply_keystream(0, &mut data);
            if len > 8 {
                assert_ne!(data, plain, "len {len} should be scrambled");
            }
            ChaCha20::new(&key, &nonce).apply_keystream(0, &mut data);
            assert_eq!(data, plain, "len {len} roundtrip");
        }
    }

    #[test]
    fn counter_continuation_matches_whole() {
        // Encrypting 128 bytes at counter 0 equals encrypting two 64-byte
        // halves at counters 0 and 1.
        let key = [1u8; 32];
        let nonce = [2u8; 12];
        let plain = [0x55u8; 128];
        let mut whole = plain.to_vec();
        ChaCha20::new(&key, &nonce).apply_keystream(0, &mut whole);
        let mut a = plain[..64].to_vec();
        let mut b = plain[64..].to_vec();
        let c = ChaCha20::new(&key, &nonce);
        c.apply_keystream(0, &mut a);
        c.apply_keystream(1, &mut b);
        a.extend_from_slice(&b);
        assert_eq!(whole, a);
    }

    #[test]
    fn distinct_nonces_distinct_streams() {
        let key = [3u8; 32];
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        ChaCha20::new(&key, &[0u8; 12]).apply_keystream(0, &mut a);
        ChaCha20::new(&key, &[1u8; 12]).apply_keystream(0, &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_redacts_key() {
        let c = ChaCha20::new(&[9u8; 32], &[0u8; 12]);
        assert!(format!("{c:?}").contains("redacted"));
    }
}
