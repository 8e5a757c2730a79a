//! Crypto-currency mining: SHA-256 proof-of-work (paper §4.2).
//!
//! The synchronous parallel search application: a monitor hands each worker a
//! block header and a nonce range; the worker hashes every nonce in the range
//! and reports either a nonce whose double-SHA-256 hash is below the target
//! or a failure, after which the monitor issues new ranges until the block is
//! solved. SHA-256 is implemented from scratch (FIPS 180-4).

/// Computes the SHA-256 digest of `data`.
///
/// # Examples
///
/// ```
/// use pando_workloads::crypto::sha256_hex;
/// assert_eq!(
///     sha256_hex(b"abc"),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
pub fn sha256(data: &[u8]) -> [u8; 32] {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];

    // Padding: 0x80, zeros, then the bit length as a 64-bit big-endian value.
    let mut message = data.to_vec();
    let bit_len = (data.len() as u64) * 8;
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend_from_slice(&bit_len.to_be_bytes());

    let mut w = [0u32; 64];
    for block in message.chunks_exact(64) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let (mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh) =
            (h[0], h[1], h[2], h[3], h[4], h[5], h[6], h[7]);
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
            let temp1 = hh.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
        h[5] = h[5].wrapping_add(f);
        h[6] = h[6].wrapping_add(g);
        h[7] = h[7].wrapping_add(hh);
    }
    let mut out = [0u8; 32];
    for (i, word) in h.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// SHA-256 digest as a lowercase hexadecimal string.
pub fn sha256_hex(data: &[u8]) -> String {
    sha256(data).iter().map(|b| format!("{b:02x}")).collect()
}

/// A mining work unit: try every nonce in `nonce_range` against `block`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiningAttempt {
    /// Serialized block header (transactions digest, previous hash, ...).
    pub block: String,
    /// First nonce to try (inclusive).
    pub nonce_start: u64,
    /// Last nonce to try (exclusive).
    pub nonce_end: u64,
    /// Difficulty: number of leading zero bits required in the hash.
    pub difficulty_bits: u32,
}

/// The outcome of one [`MiningAttempt`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MiningOutcome {
    /// The nonce that satisfied the difficulty, if any was found in the range.
    pub nonce: Option<u64>,
    /// Number of hashes computed (for throughput accounting).
    pub hashes: u64,
}

/// Returns `true` if `hash` has at least `bits` leading zero bits.
pub fn meets_difficulty(hash: &[u8; 32], bits: u32) -> bool {
    let mut remaining = bits;
    for byte in hash {
        if remaining == 0 {
            return true;
        }
        let zeros = byte.leading_zeros();
        if remaining <= 8 {
            return zeros >= remaining;
        }
        if *byte != 0 {
            return false;
        }
        remaining -= 8;
    }
    remaining == 0
}

/// Hashes every nonce of the attempt (double SHA-256 as in Bitcoin) and
/// reports the first nonce meeting the difficulty, if any.
pub fn mine(attempt: &MiningAttempt) -> MiningOutcome {
    let mut hashes = 0u64;
    for nonce in attempt.nonce_start..attempt.nonce_end {
        let material = format!("{}:{nonce}", attempt.block);
        let digest = sha256(&sha256(material.as_bytes()));
        hashes += 1;
        if meets_difficulty(&digest, attempt.difficulty_bits) {
            return MiningOutcome { nonce: Some(nonce), hashes };
        }
    }
    MiningOutcome { nonce: None, hashes }
}

/// Verifies that `nonce` solves `block` at the given difficulty.
pub fn verify(block: &str, nonce: u64, difficulty_bits: u32) -> bool {
    let digest = sha256(&sha256(format!("{block}:{nonce}").as_bytes()));
    meets_difficulty(&digest, difficulty_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sha256_known_vectors() {
        assert_eq!(
            sha256_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            sha256_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // A message longer than one block.
        assert_eq!(
            sha256_hex(&[b'a'; 1000]),
            "41edece42d63e8d9bf515a9ba6932e1c20cbc9f5a5d134645adb5db1b9737ea3"
        );
    }

    #[test]
    fn difficulty_check_counts_leading_zero_bits() {
        let mut hash = [0u8; 32];
        hash[0] = 0b0000_1111;
        assert!(meets_difficulty(&hash, 4));
        assert!(!meets_difficulty(&hash, 5));
        assert!(meets_difficulty(&[0u8; 32], 256));
        assert!(meets_difficulty(&[0xffu8; 32], 0));
        let mut two_bytes = [0xffu8; 32];
        two_bytes[0] = 0;
        two_bytes[1] = 0x7f;
        assert!(meets_difficulty(&two_bytes, 9));
        assert!(!meets_difficulty(&two_bytes, 10));
    }

    #[test]
    fn mining_finds_a_verifiable_nonce() {
        let attempt = MiningAttempt {
            block: "block-42:prev-hash-abcdef".to_string(),
            nonce_start: 0,
            nonce_end: 100_000,
            difficulty_bits: 10,
        };
        let outcome = mine(&attempt);
        let nonce = outcome.nonce.expect("difficulty 10 is found quickly");
        assert!(verify(&attempt.block, nonce, attempt.difficulty_bits));
        assert!(outcome.hashes >= nonce - attempt.nonce_start);
    }

    #[test]
    fn mining_reports_failure_when_range_is_exhausted() {
        let attempt = MiningAttempt {
            block: "hard block".to_string(),
            nonce_start: 0,
            nonce_end: 10,
            difficulty_bits: 40,
        };
        let outcome = mine(&attempt);
        assert_eq!(outcome.nonce, None);
        assert_eq!(outcome.hashes, 10);
    }

    #[test]
    fn different_blocks_need_different_nonces() {
        let a = mine(&MiningAttempt {
            block: "block-a".into(),
            nonce_start: 0,
            nonce_end: 1 << 20,
            difficulty_bits: 12,
        });
        let b = mine(&MiningAttempt {
            block: "block-b".into(),
            nonce_start: 0,
            nonce_end: 1 << 20,
            difficulty_bits: 12,
        });
        assert!(a.nonce.is_some() && b.nonce.is_some());
        assert_ne!(a.nonce, b.nonce, "hash function must depend on the block");
    }

    #[test]
    fn verify_rejects_wrong_nonce() {
        let attempt = MiningAttempt {
            block: "block".into(),
            nonce_start: 0,
            nonce_end: 1 << 20,
            difficulty_bits: 12,
        };
        let nonce = mine(&attempt).nonce.unwrap();
        assert!(verify("block", nonce, 12));
        assert!(!verify("block", nonce + 1, 12) || nonce + 1 == mine(&attempt).nonce.unwrap());
    }
}
