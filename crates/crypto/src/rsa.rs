//! RSA signatures over message digests.
//!
//! The data owner signs the root of each authenticated data structure;
//! clients verify roots against the owner's public key (Figure 2 of the
//! paper). The scheme is textbook RSA with deterministic PKCS#1-v1.5
//! style padding of a SHA-256 digest.

use crate::bigint::BigUint;
use crate::digest::Digest;
use crate::prime::random_prime;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Public RSA exponent (F4).
const PUBLIC_EXPONENT: u64 = 65537;

/// Process-wide count of private-key signing operations. Snapshot
/// cold-start tests assert this stays flat across a load (a provider
/// restarting from disk must only *verify*, never re-sign).
static SIGN_OPS: AtomicU64 = AtomicU64::new(0);

/// Number of RSA signing operations performed by this process so far,
/// by any key on any thread. Where the private key is in hand,
/// [`RsaKeyPair::signing_ops`] counts that key alone and is not
/// disturbed by whoever else signs meanwhile.
pub fn signing_ops() -> u64 {
    SIGN_OPS.load(Ordering::Relaxed)
}

/// Default modulus size in bits. Research-scale: large enough that the
/// arithmetic paths are exercised realistically, small enough that key
/// generation stays sub-second inside test suites.
pub const DEFAULT_MODULUS_BITS: usize = 512;

/// An RSA public key `(n, e)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaPublicKey {
    n: BigUint,
    e: BigUint,
    modulus_bits: usize,
}

/// An RSA key pair (private exponent kept internal).
#[derive(Clone)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    d: BigUint,
    /// Signatures made with this key; clones share the counter.
    signs: Arc<AtomicU64>,
}

/// A signature: the RSA-encrypted padded digest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaSignature(Vec<u8>);

impl RsaSignature {
    /// Signature bytes (big-endian integer, at most modulus size).
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Size in bytes, as counted in proof-size experiments.
    pub fn size_bytes(&self) -> usize {
        self.0.len()
    }

    /// Reconstructs a signature from raw bytes (e.g. decoded proofs).
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        RsaSignature(bytes)
    }
}

impl RsaKeyPair {
    /// Generates a fresh key pair with the given modulus size.
    ///
    /// # Panics
    /// Panics if `modulus_bits < 64` (padding would not fit a digest —
    /// such keys are never meaningful here).
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, modulus_bits: usize) -> Self {
        assert!(modulus_bits >= 64, "modulus too small");
        let e = BigUint::from_u64(PUBLIC_EXPONENT);
        loop {
            let p = random_prime(rng, modulus_bits / 2);
            let q = random_prime(rng, modulus_bits - modulus_bits / 2);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let phi = p.sub(&BigUint::one()).mul(&q.sub(&BigUint::one()));
            let Some(d) = e.modinv(&phi) else { continue };
            return RsaKeyPair {
                public: RsaPublicKey {
                    modulus_bits: n.bit_len(),
                    n,
                    e,
                },
                d,
                signs: Arc::default(),
            };
        }
    }

    /// Generates a key pair with [`DEFAULT_MODULUS_BITS`].
    pub fn generate_default<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self::generate(rng, DEFAULT_MODULUS_BITS)
    }

    /// The public half of the key pair.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public
    }

    /// Number of signatures made with this key pair or any clone of it.
    pub fn signing_ops(&self) -> u64 {
        self.signs.load(Ordering::Relaxed)
    }

    /// Signs a digest: `pad(digest)^d mod n`.
    pub fn sign(&self, digest: &Digest) -> RsaSignature {
        SIGN_OPS.fetch_add(1, Ordering::Relaxed);
        self.signs.fetch_add(1, Ordering::Relaxed);
        let m = pad_digest(digest, self.public.modulus_bits);
        let s = m.modpow(&self.d, &self.public.n);
        RsaSignature(s.to_bytes_be())
    }
}

impl RsaPublicKey {
    /// Verifies that `sig` is a valid signature on `digest`.
    pub fn verify(&self, digest: &Digest, sig: &RsaSignature) -> bool {
        let s = BigUint::from_bytes_be(&sig.0);
        if s.cmp_to(&self.n) != std::cmp::Ordering::Less {
            return false;
        }
        let m = s.modpow(&self.e, &self.n);
        m == pad_digest(digest, self.modulus_bits)
    }

    /// Modulus size in bits.
    pub fn modulus_bits(&self) -> usize {
        self.modulus_bits
    }

    /// Canonical encoding for persistence:
    /// `modulus_bits u32 LE ∘ n_len u32 LE ∘ n BE ∘ e_len u32 LE ∘ e BE`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.to_bytes_be();
        let e = self.e.to_bytes_be();
        let mut out = Vec::with_capacity(12 + n.len() + e.len());
        out.extend_from_slice(&(self.modulus_bits as u32).to_le_bytes());
        out.extend_from_slice(&(n.len() as u32).to_le_bytes());
        out.extend_from_slice(&n);
        out.extend_from_slice(&(e.len() as u32).to_le_bytes());
        out.extend_from_slice(&e);
        out
    }

    /// Inverse of [`RsaPublicKey::to_bytes`]. Returns `None` on any
    /// structural mismatch (truncation, trailing bytes, zero modulus).
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let take_u32 = |b: &[u8], at: usize| -> Option<u32> {
            Some(u32::from_le_bytes(b.get(at..at + 4)?.try_into().ok()?))
        };
        let modulus_bits = take_u32(bytes, 0)? as usize;
        let n_len = take_u32(bytes, 4)? as usize;
        let n_bytes = bytes.get(8..8 + n_len)?;
        let e_at = 8 + n_len;
        let e_len = take_u32(bytes, e_at)? as usize;
        let e_bytes = bytes.get(e_at + 4..e_at + 4 + e_len)?;
        if bytes.len() != e_at + 4 + e_len {
            return None;
        }
        let n = BigUint::from_bytes_be(n_bytes);
        let e = BigUint::from_bytes_be(e_bytes);
        if n.bit_len() != modulus_bits || modulus_bits < 64 {
            return None;
        }
        Some(RsaPublicKey { n, e, modulus_bits })
    }
}

/// Deterministic PKCS#1-v1.5-style padding:
/// `0x00 0x01 0xFF…0xFF 0x00 <digest>`.
///
/// For moduli smaller than 35 bytes the digest is truncated to fit —
/// acceptable for research-scale keys (the truncated prefix is still
/// collision-resistant at the key's own security level).
fn pad_digest(digest: &Digest, modulus_bits: usize) -> BigUint {
    let k = modulus_bits.div_ceil(8); // modulus size in bytes
    let digest_len = (k - 3).min(32); // header is 0x00 0x01 … 0x00
    let mut em = vec![0xFFu8; k];
    em[0] = 0x00;
    em[1] = 0x01;
    let ps_end = k - digest_len - 1;
    em[ps_end] = 0x00;
    em[ps_end + 1..].copy_from_slice(&digest.as_bytes()[..digest_len]);
    BigUint::from_bytes_be(&em)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::hash_bytes;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn keypair(seed: u64) -> RsaKeyPair {
        let mut rng = StdRng::seed_from_u64(seed);
        RsaKeyPair::generate(&mut rng, 256)
    }

    #[test]
    fn sign_verify_round_trip() {
        let kp = keypair(1);
        let d = hash_bytes(b"merkle root");
        let sig = kp.sign(&d);
        assert!(kp.public_key().verify(&d, &sig));
    }

    #[test]
    fn verify_rejects_wrong_digest() {
        let kp = keypair(2);
        let sig = kp.sign(&hash_bytes(b"authentic"));
        assert!(!kp.public_key().verify(&hash_bytes(b"forged"), &sig));
    }

    #[test]
    fn verify_rejects_tampered_signature() {
        let kp = keypair(3);
        let d = hash_bytes(b"data");
        let sig = kp.sign(&d);
        let mut bad = sig.as_bytes().to_vec();
        bad[0] ^= 0x01;
        assert!(!kp.public_key().verify(&d, &RsaSignature::from_bytes(bad)));
    }

    #[test]
    fn verify_rejects_signature_from_other_key() {
        let kp1 = keypair(4);
        let kp2 = keypair(5);
        let d = hash_bytes(b"data");
        let sig = kp1.sign(&d);
        assert!(!kp2.public_key().verify(&d, &sig));
    }

    #[test]
    fn verify_rejects_oversized_signature_value() {
        let kp = keypair(6);
        let d = hash_bytes(b"data");
        // A "signature" numerically ≥ n must be rejected outright.
        let huge = vec![0xFF; 64];
        assert!(!kp.public_key().verify(&d, &RsaSignature::from_bytes(huge)));
    }

    #[test]
    fn signing_is_deterministic() {
        let kp = keypair(7);
        let d = hash_bytes(b"data");
        assert_eq!(kp.sign(&d), kp.sign(&d));
    }

    #[test]
    fn default_keysize_round_trip() {
        let mut rng = StdRng::seed_from_u64(8);
        let kp = RsaKeyPair::generate_default(&mut rng);
        assert!(kp.public_key().modulus_bits() >= DEFAULT_MODULUS_BITS - 1);
        let d = hash_bytes(b"root");
        assert!(kp.public_key().verify(&d, &kp.sign(&d)));
    }

    #[test]
    fn public_key_bytes_round_trip() {
        let kp = keypair(10);
        let pk = kp.public_key();
        let bytes = pk.to_bytes();
        let back = RsaPublicKey::from_bytes(&bytes).unwrap();
        assert_eq!(&back, pk);
        let d = hash_bytes(b"root");
        assert!(back.verify(&d, &kp.sign(&d)));
        // Truncation and trailing garbage are rejected.
        assert!(RsaPublicKey::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(RsaPublicKey::from_bytes(&extra).is_none());
        assert!(RsaPublicKey::from_bytes(&[]).is_none());
    }

    #[test]
    fn signing_ops_counter_increments() {
        let kp = keypair(11);
        let before = signing_ops();
        kp.sign(&hash_bytes(b"count me"));
        kp.sign(&hash_bytes(b"me too"));
        // Sibling tests sign too: the process-wide count only bounds.
        assert!(signing_ops() >= before + 2);
        // The per-key count is exact, shared with clones, private to
        // the key, and verification does not move it.
        let d = hash_bytes(b"verify only");
        let sig = kp.clone().sign(&d);
        assert!(kp.public_key().verify(&d, &sig));
        assert_eq!(kp.signing_ops(), 3);
        assert_eq!(keypair(12).signing_ops(), 0);
    }

    #[test]
    fn signature_size_close_to_modulus() {
        let kp = keypair(9);
        let sig = kp.sign(&hash_bytes(b"x"));
        assert!(sig.size_bytes() <= 32); // 256-bit modulus
        assert!(sig.size_bytes() >= 28); // overwhelmingly likely
    }
}
