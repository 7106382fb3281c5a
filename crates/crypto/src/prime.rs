//! Probabilistic primality testing and random prime generation for RSA
//! key material.

use crate::bigint::{BigUint, Montgomery};
use rand::Rng;

/// Small primes used for cheap trial division before Miller–Rabin.
const SMALL_PRIMES: [u32; 54] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
    197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
];

/// Number of Miller–Rabin rounds; error probability ≤ 4^-ROUNDS.
const MR_ROUNDS: usize = 24;

/// Returns true iff `n` is (probably) prime.
///
/// Deterministic for `n < 252` via the small-prime table, then trial
/// division, then `MR_ROUNDS` (24) rounds of Miller–Rabin with random
/// bases.
pub(crate) fn is_probable_prime<R: Rng + ?Sized>(n: &BigUint, rng: &mut R) -> bool {
    if n.is_zero() || n.is_one() {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if n.rem_u32(p) == 0 {
            // A multiple of p is prime only if it is p itself.
            return *n == BigUint::from_u64(p as u64);
        }
    }
    miller_rabin(n, MR_ROUNDS, rng)
}

/// Miller–Rabin with `rounds` random bases in `[2, n-2]`, for odd
/// `n > 3`. One Montgomery context serves the candidate: the witness
/// power and its squarings stay in Montgomery form and are compared
/// against the residues of 1 and `n − 1`.
fn miller_rabin<R: Rng + ?Sized>(n: &BigUint, rounds: usize, rng: &mut R) -> bool {
    let two = BigUint::from_u64(2);
    // n - 1 = d * 2^s with d odd
    let n_minus_1 = n.sub(&BigUint::one());
    let s = n_minus_1.trailing_zeros();
    let d = n_minus_1.shr(s);
    let ctx = Montgomery::new(n);
    let minus_one = ctx.minus_one();
    let span = n.sub(&BigUint::from_u64(3));
    'witness: for _ in 0..rounds {
        // a uniform in [2, n-2]
        let a = BigUint::random_below(rng, &span).add(&two);
        let mut x = ctx.pow_residue(&a, &d);
        if x == ctx.one() || x == minus_one {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = ctx.square(&x);
            if x == minus_one {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random probable prime with exactly `bits` bits.
pub(crate) fn random_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    assert!(bits >= 8, "prime size too small for RSA use");
    loop {
        let mut candidate = BigUint::random_bits(rng, bits);
        if candidate.is_even() {
            candidate = candidate.add(&BigUint::one());
            if candidate.bit_len() != bits {
                continue;
            }
        }
        if is_probable_prime(&candidate, rng) {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn b(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    #[test]
    fn small_primes_accepted() {
        let mut rng = StdRng::seed_from_u64(1);
        for p in [2u64, 3, 5, 7, 11, 13, 97, 251, 257, 65537, 1_000_000_007] {
            assert!(is_probable_prime(&b(p), &mut rng), "{p} should be prime");
        }
    }

    #[test]
    fn small_composites_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        for c in [0u64, 1, 4, 6, 9, 15, 91, 255, 65535, 1_000_000_008] {
            assert!(!is_probable_prime(&b(c), &mut rng), "{c} is composite");
        }
    }

    #[test]
    fn carmichael_numbers_rejected() {
        // Carmichael numbers fool Fermat tests but not Miller–Rabin.
        let mut rng = StdRng::seed_from_u64(3);
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265] {
            assert!(!is_probable_prime(&b(c), &mut rng), "{c} is Carmichael");
        }
    }

    #[test]
    fn agreement_with_sieve_up_to_2000() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut sieve = vec![true; 2000];
        sieve[0] = false;
        sieve[1] = false;
        for i in 2..2000 {
            if sieve[i] {
                let mut j = i * i;
                while j < 2000 {
                    sieve[j] = false;
                    j += i;
                }
            }
        }
        for (n, &expected) in sieve.iter().enumerate() {
            assert_eq!(
                is_probable_prime(&b(n as u64), &mut rng),
                expected,
                "disagreement at {n}"
            );
        }
    }

    #[test]
    fn random_prime_has_requested_bits() {
        let mut rng = StdRng::seed_from_u64(5);
        for bits in [16usize, 32, 64] {
            let p = random_prime(&mut rng, bits);
            assert_eq!(p.bit_len(), bits);
            assert!(is_probable_prime(&p, &mut rng));
        }
    }

    #[test]
    fn random_prime_128_bits() {
        let mut rng = StdRng::seed_from_u64(6);
        let p = random_prime(&mut rng, 128);
        assert_eq!(p.bit_len(), 128);
        assert!(!p.is_even());
    }

    #[test]
    fn product_of_two_primes_rejected() {
        let mut rng = StdRng::seed_from_u64(7);
        let p = random_prime(&mut rng, 32);
        let q = random_prime(&mut rng, 32);
        let n = p.mul(&q);
        assert!(!is_probable_prime(&n, &mut rng));
    }
}
