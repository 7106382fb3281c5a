//! The fixed-width message digest type and hash combinators.

use crate::sha256::{sha256, Sha256};
use std::fmt;

/// Number of bytes in a digest (SHA-256).
pub const DIGEST_LEN: usize = 32;

/// A 32-byte message digest.
///
/// Digests are the atoms of every authenticated structure in this
/// workspace: Merkle tree nodes, signed roots, and integrity proof
/// entries are all `Digest`s.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub [u8; DIGEST_LEN]);

spnet_bytes::wire_struct!(Digest {
    0: [u8; DIGEST_LEN]
});

impl Digest {
    /// The all-zero digest; used as a sentinel, never produced by SHA-256
    /// on any known input.
    pub const ZERO: Digest = Digest([0u8; DIGEST_LEN]);

    /// Hex encoding (lowercase), mainly for debugging and test vectors.
    ///
    /// Table-driven: one lookup per nibble into a fixed alphabet
    /// instead of a `char::from_digit` call per nibble.
    pub fn to_hex(&self) -> String {
        const ALPHABET: &[u8; 16] = b"0123456789abcdef";
        let mut out = [0u8; DIGEST_LEN * 2];
        for (i, b) in self.0.iter().enumerate() {
            out[2 * i] = ALPHABET[(b >> 4) as usize];
            out[2 * i + 1] = ALPHABET[(b & 0xf) as usize];
        }
        String::from_utf8(out.to_vec()).expect("hex alphabet is ASCII")
    }

    /// Parses a lowercase/uppercase hex string into a digest.
    pub fn from_hex(s: &str) -> Option<Digest> {
        if s.len() != DIGEST_LEN * 2 {
            return None;
        }
        let mut out = [0u8; DIGEST_LEN];
        for (i, byte) in out.iter_mut().enumerate() {
            let hi = s.as_bytes()[2 * i] as char;
            let lo = s.as_bytes()[2 * i + 1] as char;
            *byte = ((hi.to_digit(16)? as u8) << 4) | lo.to_digit(16)? as u8;
        }
        Some(Digest(out))
    }

    /// Raw bytes of the digest.
    pub fn as_bytes(&self) -> &[u8; DIGEST_LEN] {
        &self.0
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", &self.to_hex()[..8])
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

/// Hashes a single byte string: `H(m)`.
pub fn hash_bytes(m: &[u8]) -> Digest {
    sha256(m)
}

/// Hashes the concatenation of several digests: `H(d₀ ∘ d₁ ∘ …)`.
///
/// This is the internal-node combiner of the Merkle structures
/// (Section III-B: `h₁ = H(H(Φ(v11)) ∘ H(Φ(v12)) ∘ H(Φ(v13)))`).
pub fn hash_concat(children: &[Digest]) -> Digest {
    hash_digests(children)
}

/// Number of child digests the [`hash_digests`] fast path handles on
/// the stack — covers every Merkle fanout the experiments sweep
/// (2–32).
pub const HASH_DIGESTS_STACK_ARITY: usize = 32;

/// Fast inner-node combiner: `H(d₀ ∘ d₁ ∘ …)` with the children
/// concatenated into a fixed stack buffer for fixed-arity nodes.
///
/// Feeding 32-byte digests one `update` at a time forces the hasher to
/// assemble every 64-byte block in its internal buffer; concatenating
/// up to [`HASH_DIGESTS_STACK_ARITY`] children on the stack first lets
/// the compression function consume whole blocks directly from the
/// contiguous buffer. Larger arities fall back to streaming.
pub fn hash_digests(children: &[Digest]) -> Digest {
    if children.len() <= HASH_DIGESTS_STACK_ARITY {
        let mut buf = [0u8; HASH_DIGESTS_STACK_ARITY * DIGEST_LEN];
        let n = children.len() * DIGEST_LEN;
        for (chunk, c) in buf.chunks_exact_mut(DIGEST_LEN).zip(children) {
            chunk.copy_from_slice(&c.0);
        }
        sha256(&buf[..n])
    } else {
        let mut h = Sha256::new();
        for c in children {
            h.update(&c.0);
        }
        h.finalize()
    }
}

/// Binary inner-node combiner: `H(a ∘ b)` (the default fanout-2 tree).
#[inline]
pub fn hash_two(a: &Digest, b: &Digest) -> Digest {
    let mut buf = [0u8; 2 * DIGEST_LEN];
    buf[..DIGEST_LEN].copy_from_slice(&a.0);
    buf[DIGEST_LEN..].copy_from_slice(&b.0);
    sha256(&buf)
}

/// Hashes the concatenation of two byte strings without allocating.
pub fn hash_pair_bytes(a: &[u8], b: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(a);
    h.update(b);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trip() {
        let d = hash_bytes(b"round trip");
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
    }

    #[test]
    fn from_hex_rejects_bad_input() {
        assert_eq!(Digest::from_hex("zz"), None);
        assert_eq!(Digest::from_hex(&"g".repeat(64)), None);
        let d = hash_bytes(b"x");
        let mut hex = d.to_hex();
        hex.pop();
        assert_eq!(Digest::from_hex(&hex), None);
    }

    #[test]
    fn hash_concat_equals_manual_concat() {
        let a = hash_bytes(b"a");
        let b = hash_bytes(b"b");
        let mut buf = Vec::new();
        buf.extend_from_slice(&a.0);
        buf.extend_from_slice(&b.0);
        assert_eq!(hash_concat(&[a, b]), hash_bytes(&buf));
    }

    #[test]
    fn hash_concat_order_sensitive() {
        let a = hash_bytes(b"a");
        let b = hash_bytes(b"b");
        assert_ne!(hash_concat(&[a, b]), hash_concat(&[b, a]));
    }

    #[test]
    fn hash_pair_bytes_matches_concat() {
        let d1 = hash_pair_bytes(b"hello ", b"world");
        let d2 = hash_bytes(b"hello world");
        assert_eq!(d1, d2);
    }

    #[test]
    fn zero_digest_is_not_a_hash_of_empty() {
        assert_ne!(Digest::ZERO, hash_bytes(b""));
    }

    #[test]
    fn hash_digests_matches_streaming_all_arities() {
        // Cover the stack fast path, its boundary, and the fallback.
        for n in [1usize, 2, 3, 5, 31, 32, 33, 64] {
            let children: Vec<Digest> = (0..n as u64)
                .map(|i| hash_bytes(&i.to_le_bytes()))
                .collect();
            let mut h = Sha256::new();
            for c in &children {
                h.update(&c.0);
            }
            assert_eq!(hash_digests(&children), h.finalize(), "arity {n}");
        }
    }

    #[test]
    fn hash_two_matches_concat() {
        let a = hash_bytes(b"left");
        let b = hash_bytes(b"right");
        assert_eq!(hash_two(&a, &b), hash_concat(&[a, b]));
        assert_ne!(hash_two(&a, &b), hash_two(&b, &a));
    }

    #[test]
    fn to_hex_lowercase_and_stable() {
        let d = hash_bytes(b"abc");
        let hex = d.to_hex();
        assert_eq!(hex.len(), 64);
        assert!(hex
            .bytes()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        assert_eq!(Digest::from_hex(&hex), Some(d));
    }
}
