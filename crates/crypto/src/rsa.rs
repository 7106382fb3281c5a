//! RSA signatures over message digests.
//!
//! The data owner signs the root of each authenticated data structure;
//! clients verify roots against the owner's public key (Figure 2 of the
//! paper). The scheme is textbook RSA with deterministic PKCS#1-v1.5
//! style padding of a SHA-256 digest. Signing works modulo the two
//! primes and recombines (CRT), then checks the result under the public
//! exponent before releasing it; all exponentiations run in Montgomery
//! form over contexts built once per key.

use crate::bigint::{BigUint, Montgomery};
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

/// Default modulus size in bits. Research-scale: it keeps signed roots
/// at 64 bytes in the proof-size experiments. Speed no longer argues
/// for it — key generation takes ~50 ms at 2048 bits in a release
/// build (PERFORMANCE.md §13).
pub const DEFAULT_MODULUS_BITS: usize = 512;

/// Largest modulus [`RsaPublicKey::from_bytes`] accepts. Decoding builds
/// the key's Montgomery context, which is quadratic in the modulus
/// length, so a length read from a file is bounded first.
const MAX_MODULUS_BITS: usize = 16_384;

/// An RSA public key `(n, e)`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RsaPublicKey {
    /// Montgomery context for (and holder of) the modulus `n`.
    n: Montgomery,
    e: BigUint,
    modulus_bits: usize,
}

/// An RSA key pair (private key kept internal, in CRT form).
#[derive(Clone)]
pub struct RsaKeyPair {
    public: RsaPublicKey,
    /// Contexts for the prime factors of `n`.
    p: Montgomery,
    q: Montgomery,
    /// `d mod (p − 1)` and `d mod (q − 1)`.
    dp: BigUint,
    dq: BigUint,
    /// `q⁻¹ mod p`.
    qinv: BigUint,
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
        let one = BigUint::one();
        loop {
            let p = random_prime(rng, modulus_bits / 2);
            let q = random_prime(rng, modulus_bits - modulus_bits / 2);
            if p == q {
                continue;
            }
            let n = p.mul(&q);
            let (p1, q1) = (p.sub(&one), q.sub(&one));
            let Some(d) = e.modinv(&p1.mul(&q1)) else {
                continue;
            };
            return RsaKeyPair {
                public: RsaPublicKey {
                    modulus_bits: n.bit_len(),
                    n: Montgomery::new(&n),
                    e,
                },
                dp: d.rem(&p1),
                dq: d.rem(&q1),
                qinv: q.modinv(&p).expect("distinct primes are coprime"),
                p: Montgomery::new(&p),
                q: Montgomery::new(&q),
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

    /// Signs a digest: `pad(digest)^d mod n`, computed modulo `p` and
    /// `q` separately and recombined (Garner).
    ///
    /// # Panics
    /// Panics if the result does not verify under the public exponent.
    /// A signature that is right modulo one prime and wrong modulo the
    /// other (a bit flip in either half) reveals that prime as
    /// `gcd(sᵉ − m, n)`, so a faulty one is never returned.
    pub fn sign(&self, digest: &Digest) -> RsaSignature {
        SIGN_OPS.fetch_add(1, Ordering::Relaxed);
        self.signs.fetch_add(1, Ordering::Relaxed);
        let m = pad_digest(digest, self.public.modulus_bits);
        let (p, q) = (self.p.modulus(), self.q.modulus());
        let sp = self.p.pow(&m, &self.dp);
        let sq = self.q.pow(&m, &self.dq);
        // s = sq + q·h with h = qinv·(sp − sq) mod p; sq may exceed p.
        let h = sp.add(p).sub(&sq.rem(p)).mul(&self.qinv).rem(p);
        let s = sq.add(&q.mul(&h));
        assert!(
            self.public.n.pow(&s, &self.public.e) == m,
            "RSA-CRT self-check failed: faulty signature withheld"
        );
        RsaSignature(s.to_bytes_be())
    }
}

impl RsaPublicKey {
    /// Verifies that `sig` is a valid signature on `digest`. Only the
    /// canonical encoding of the signature value — big-endian, no
    /// leading zero byte, below the modulus — is accepted, so a valid
    /// signature has exactly one byte string.
    pub fn verify(&self, digest: &Digest, sig: &RsaSignature) -> bool {
        if sig.0.first().is_none_or(|&b| b == 0) || sig.0.len() > self.modulus_bits.div_ceil(8) {
            return false;
        }
        let s = BigUint::from_bytes_be(&sig.0);
        if s >= *self.n.modulus() {
            return false;
        }
        self.n.pow(&s, &self.e) == pad_digest(digest, self.modulus_bits)
    }

    /// Modulus size in bits.
    pub fn modulus_bits(&self) -> usize {
        self.modulus_bits
    }

    /// Canonical encoding for persistence:
    /// `modulus_bits u32 LE ∘ n_len u32 LE ∘ n BE ∘ e_len u32 LE ∘ e BE`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n.modulus().to_bytes_be();
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
    /// structural mismatch (truncation, trailing bytes, wrong bit
    /// count, a modulus outside 64..=16384 bits) and on numbers no key
    /// generation produces: an even modulus, an even exponent or one
    /// below 3.
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
        if n.bit_len() != modulus_bits || !(64..=MAX_MODULUS_BITS).contains(&modulus_bits) {
            return None;
        }
        if n.is_even() || e.is_even() || e < BigUint::from_u64(3) {
            return None;
        }
        Some(RsaPublicKey {
            n: Montgomery::new(&n),
            e,
            modulus_bits,
        })
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
        assert!(sig.as_bytes().len() <= 32); // 256-bit modulus
        assert!(sig.as_bytes().len() >= 28); // overwhelmingly likely
    }

    #[test]
    fn from_bytes_rejects_keys_no_generation_produces() {
        let bytes = keypair(13).public_key().to_bytes();
        let n_len = u32::from_le_bytes(bytes[4..8].try_into().unwrap()) as usize;
        let (n_low, e_at) = (8 + n_len - 1, 8 + n_len + 4);
        assert_eq!(&bytes[e_at..], [0x01, 0x00, 0x01]);
        let mutated = |f: &dyn Fn(&mut Vec<u8>)| {
            let mut b = bytes.clone();
            f(&mut b);
            RsaPublicKey::from_bytes(&b)
        };
        assert!(mutated(&|_| ()).is_some());
        // Even modulus: would otherwise reach `Montgomery::new` and panic.
        assert!(mutated(&|b| b[n_low] &= !1).is_none());
        // e = 65536 (even), e = 1 and e = 0 written as three bytes, then
        // as their shortest encodings.
        assert!(mutated(&|b| b[e_at + 2] = 0).is_none());
        assert!(mutated(&|b| b[e_at] = 0).is_none());
        assert!(mutated(&|b| b[e_at..].fill(0)).is_none());
        for e in [&[][..], &[1], &[2]] {
            let mut b = bytes[..e_at - 4].to_vec();
            b.extend_from_slice(&(e.len() as u32).to_le_bytes());
            b.extend_from_slice(e);
            assert!(RsaPublicKey::from_bytes(&b).is_none(), "e = {e:?}");
        }
        // A 16385-bit odd modulus, well-formed otherwise.
        let mut huge = vec![0xFFu8; 2049];
        huge[0] = 0x01;
        let mut b = 16_385u32.to_le_bytes().to_vec();
        b.extend_from_slice(&(huge.len() as u32).to_le_bytes());
        b.extend_from_slice(&huge);
        b.extend_from_slice(&bytes[e_at - 4..]);
        assert!(RsaPublicKey::from_bytes(&b).is_none());
        // e = 3 is a legitimate exponent.
        assert!(mutated(&|b| b[e_at..].copy_from_slice(&[0, 0, 3])).is_some());
    }

    #[test]
    fn verify_accepts_one_encoding_per_signature() {
        let kp = keypair(14);
        let d = hash_bytes(b"root");
        let sig = kp.sign(&d);
        let verify = |bytes: Vec<u8>| kp.public_key().verify(&d, &RsaSignature::from_bytes(bytes));
        assert!(verify(sig.as_bytes().to_vec()));
        assert!(!verify(Vec::new()));
        // The same number behind leading zero bytes, up to and past the
        // modulus length.
        for zeros in [1usize, 2, 32, 33] {
            let mut padded = vec![0u8; zeros];
            padded.extend_from_slice(sig.as_bytes());
            assert!(!verify(padded), "{zeros} leading zero bytes");
        }
        // s + n is the same residue but not below the modulus.
        let s = BigUint::from_bytes_be(sig.as_bytes());
        assert!(!verify(s.add(kp.public.n.modulus()).to_bytes_be()));
    }

    #[test]
    #[should_panic(expected = "RSA-CRT self-check failed")]
    fn faulty_crt_half_is_never_emitted() {
        let mut kp = keypair(15);
        kp.dp = kp.dp.add(&BigUint::one());
        let _ = kp.sign(&hash_bytes(b"root"));
    }

    #[test]
    fn crt_signature_is_the_private_power() {
        // The CRT form is derived from d at generation and d is not
        // kept: recover it and compare against m^d mod n directly.
        let kp = keypair(16);
        let (n, p, q) = (kp.public.n.modulus(), kp.p.modulus(), kp.q.modulus());
        let one = BigUint::one();
        let phi = p.sub(&one).mul(&q.sub(&one));
        let d = kp.public.e.modinv(&phi).unwrap();
        let digest = hash_bytes(b"root");
        let m = pad_digest(&digest, kp.public.modulus_bits);
        assert_eq!(kp.sign(&digest).as_bytes(), m.modpow(&d, n).to_bytes_be());
    }

    #[test]
    fn production_modulus_round_trip() {
        let kp = RsaKeyPair::generate(&mut StdRng::seed_from_u64(17), 2048);
        // Two 1024-bit primes: the product has 2047 or 2048 bits.
        assert!(kp.public_key().modulus_bits() >= 2047);
        let d = hash_bytes(b"root");
        let sig = kp.sign(&d);
        assert!(kp.public_key().verify(&d, &sig));
        assert!(!kp.public_key().verify(&hash_bytes(b"other"), &sig));
        let back = RsaPublicKey::from_bytes(&kp.public_key().to_bytes()).unwrap();
        assert!(back.verify(&d, &sig));
    }

    /// Same seed, same key; same key and digest, same signature bytes.
    /// Captured on the commit before the Montgomery/CRT rewrite, so
    /// every snapshot, proof and wire byte made with a seeded key is
    /// unchanged by it.
    #[test]
    fn golden_keys_and_signatures() {
        const GOLDEN: [(u64, usize, &str, &str); 3] = [
            (
                7,
                256,
                "ff000000200000006087463656bde1de9d4083775840d09267c3e71f5eb529049e71f8f14b4013b3\
                 03000000010001",
                "3910142c4513cfe6d9ff407518b4fdabd9b1bcd49a4f8153fc6c374218abc38a",
            ),
            (
                42,
                512,
                "ff0100004000000047a8bf0cba3ce93c8fd3090af22653ea76577f2c82cb9c35bb99b780b0774734\
                 80990275f61fa0f4507ffd6ef725f8643699624940b0adea43786ea997dacf65\
                 03000000010001",
                "2f9dd6bb45b284aa9714df83c6d517e6db20cfa8e5bab57203fb4c2527b54c97\
                 546fafd74acfb92c62e531a4bbae9d29705e07aba5fea0b1a8f7bb29979c75ed",
            ),
            (
                42,
                1024,
                "00040000800000008a20c35615269de76e452d0044dff94f3a17b51fe127538928328844b76c492d\
                 4bfe66b812acf1e9660cb9c54815acce696559f82feaafc666f7f270eb22f774\
                 88bf2bfd80a2e3a778a66bf36f956d078ee30956cacd4546408c53cb7787246d\
                 739484404b62e94380fc34c47b3dc9e33fee7a7d30a2c6b3d5489c88d1827669\
                 03000000010001",
                "3bd139615e4a4aca2fa31a6558b9dda8667ae031fd8f8f14337eba1e3ddac2ee\
                 f42e4a454ab9a5e604d13517134878483637d39507d6c9869be98d68974969ec\
                 d610f93cef38002043e332c3f2b20f99a9dd199d05a062c58f5f135443fde744\
                 7684420ebe734c9d5a2d6cdb7fa72b4f7360717289a3fdd88a845930b0bf44a1",
            ),
        ];
        let hex = |b: &[u8]| b.iter().map(|x| format!("{x:02x}")).collect::<String>();
        for (seed, bits, key_hex, sig_hex) in GOLDEN {
            let kp = RsaKeyPair::generate(&mut StdRng::seed_from_u64(seed), bits);
            assert_eq!(
                hex(&kp.public_key().to_bytes()),
                key_hex,
                "key {seed}/{bits}"
            );
            let sig = kp.sign(&hash_bytes(b"root"));
            assert_eq!(hex(sig.as_bytes()), sig_hex, "signature {seed}/{bits}");
        }
    }
}
