//! Arbitrary-precision unsigned integers.
//!
//! A deliberately small big-integer implementation — just enough for
//! RSA key generation, signing and verification. Limbs are `u64` stored
//! little-endian; intermediate products use `u128`. Multiplication is
//! quadratic (operands are never longer than a modulus), division is
//! limb-wise long division (Knuth's Algorithm D), and exponentiation
//! modulo an odd number runs in Montgomery form ([`Montgomery`]), which
//! never divides.
//!
//! Not constant-time; see the crate-level security disclaimer.

use std::cmp::Ordering;
use std::fmt;

/// An arbitrary-precision unsigned integer (little-endian `u64` limbs,
/// normalized: no trailing zero limbs).
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct BigUint {
    limbs: Vec<u64>,
}

/// `a -= b` over limbs (`b` no longer than `a`); returns the borrow out.
fn sub_limbs(a: &mut [u64], b: &[u64]) -> bool {
    let mut borrow = false;
    for (i, x) in a.iter_mut().enumerate() {
        let (d, b1) = x.overflowing_sub(*b.get(i).unwrap_or(&0));
        let (d, b2) = d.overflowing_sub(borrow as u64);
        *x = d;
        borrow = b1 | b2;
    }
    borrow
}

/// `a += b` over limbs (`b` no longer than `a`); returns the carry out.
fn add_limbs(a: &mut [u64], b: &[u64]) -> bool {
    let mut carry = false;
    for (i, x) in a.iter_mut().enumerate() {
        let (s, c1) = x.overflowing_add(*b.get(i).unwrap_or(&0));
        let (s, c2) = s.overflowing_add(carry as u64);
        *x = s;
        carry = c1 | c2;
    }
    carry
}

/// Compares two limb slices of equal length as numbers.
fn cmp_limbs(a: &[u64], b: &[u64]) -> Ordering {
    a.iter().rev().cmp(b.iter().rev())
}

impl BigUint {
    /// The value 0 (empty limb vector).
    pub(crate) fn zero() -> Self {
        BigUint { limbs: Vec::new() }
    }

    /// The value 1.
    pub(crate) fn one() -> Self {
        BigUint { limbs: vec![1] }
    }

    /// Constructs from a `u64`.
    pub(crate) fn from_u64(v: u64) -> Self {
        Self::from_limbs(vec![v])
    }

    /// Constructs from little-endian limbs, dropping zero limbs at the top.
    fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        BigUint { limbs }
    }

    /// The limbs zero-extended to exactly `k` (the value must fit).
    fn into_limbs(mut self, k: usize) -> Vec<u64> {
        debug_assert!(self.limbs.len() <= k);
        self.limbs.resize(k, 0);
        self.limbs
    }

    /// Constructs from big-endian bytes.
    pub(crate) fn from_bytes_be(bytes: &[u8]) -> Self {
        let limbs = bytes
            .rchunks(8)
            .map(|chunk| chunk.iter().fold(0u64, |limb, &b| (limb << 8) | b as u64))
            .collect();
        Self::from_limbs(limbs)
    }

    /// Serializes to big-endian bytes with no leading zeros (empty for 0).
    pub(crate) fn to_bytes_be(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.limbs.len() * 8);
        for &limb in self.limbs.iter().rev() {
            out.extend_from_slice(&limb.to_be_bytes());
        }
        let nz = out.iter().position(|&b| b != 0).unwrap_or(out.len());
        out.drain(..nz);
        out
    }

    /// True iff the value is zero.
    pub(crate) fn is_zero(&self) -> bool {
        self.limbs.is_empty()
    }

    /// True iff the value is one.
    pub(crate) fn is_one(&self) -> bool {
        self.limbs == [1]
    }

    /// True iff the value is even (zero counts as even).
    pub(crate) fn is_even(&self) -> bool {
        self.limbs.first().is_none_or(|l| l & 1 == 0)
    }

    /// Number of significant bits (0 for the value 0).
    pub(crate) fn bit_len(&self) -> usize {
        match self.limbs.last() {
            None => 0,
            Some(&top) => self.limbs.len() * 64 - top.leading_zeros() as usize,
        }
    }

    /// The `width` bits starting at bit `lo` (zero beyond the top bit).
    /// `width` must divide 64 and `lo` be a multiple of it, so the field
    /// never straddles two limbs.
    fn bits(&self, lo: usize, width: usize) -> usize {
        let limb = self.limbs.get(lo / 64).copied().unwrap_or(0);
        ((limb >> (lo % 64)) & ((1 << width) - 1)) as usize
    }

    /// Value of bit `i` (false beyond the top bit).
    pub(crate) fn bit(&self, i: usize) -> bool {
        self.bits(i, 1) == 1
    }

    /// `self + other`.
    pub(crate) fn add(&self, other: &BigUint) -> BigUint {
        let (long, short) = if self.limbs.len() >= other.limbs.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = long.limbs.clone();
        if add_limbs(&mut out, &short.limbs) {
            out.push(1);
        }
        BigUint { limbs: out }
    }

    /// `self - other`; panics if `other > self`.
    pub(crate) fn sub(&self, other: &BigUint) -> BigUint {
        assert!(*self >= *other, "BigUint underflow");
        let mut out = self.limbs.clone();
        sub_limbs(&mut out, &other.limbs);
        Self::from_limbs(out)
    }

    /// `self * other`, one row of partial products per limb of `self`.
    pub(crate) fn mul(&self, other: &BigUint) -> BigUint {
        if self.is_zero() || other.is_zero() {
            return BigUint::zero();
        }
        let mut out = vec![0u64; self.limbs.len() + other.limbs.len()];
        for (i, &a) in self.limbs.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &b) in other.limbs.iter().enumerate() {
                let cur = out[i + j] as u128 + a as u128 * b as u128 + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            // Rows above have not reached this limb yet: it is still 0.
            out[i + other.limbs.len()] = carry as u64;
        }
        Self::from_limbs(out)
    }

    /// Left shift by `bits`.
    pub(crate) fn shl(&self, bits: usize) -> BigUint {
        if self.is_zero() {
            return BigUint::zero();
        }
        let bit_shift = bits % 64;
        let mut out = vec![0u64; bits / 64];
        if bit_shift == 0 {
            out.extend_from_slice(&self.limbs);
        } else {
            let mut carry = 0u64;
            for &l in &self.limbs {
                out.push((l << bit_shift) | carry);
                carry = l >> (64 - bit_shift);
            }
            out.push(carry);
        }
        Self::from_limbs(out)
    }

    /// Right shift by `bits`.
    pub(crate) fn shr(&self, bits: usize) -> BigUint {
        let src = self.limbs.get(bits / 64..).unwrap_or(&[]);
        let bit_shift = bits % 64;
        if bit_shift == 0 {
            return BigUint {
                limbs: src.to_vec(),
            };
        }
        let out = (0..src.len())
            .map(|i| {
                let hi = src.get(i + 1).map_or(0, |h| h << (64 - bit_shift));
                (src[i] >> bit_shift) | hi
            })
            .collect();
        Self::from_limbs(out)
    }

    /// Number of trailing zero bits (0 for the value 0).
    pub(crate) fn trailing_zeros(&self) -> usize {
        match self.limbs.iter().position(|&l| l != 0) {
            None => 0,
            Some(i) => i * 64 + self.limbs[i].trailing_zeros() as usize,
        }
    }

    /// Division with remainder: returns `(self / divisor, self % divisor)`.
    ///
    /// Knuth's Algorithm D (TAOCP vol. 2, 4.3.1): one quotient limb per
    /// step, estimated from the top two limbs of the running remainder
    /// and corrected by at most two.
    ///
    /// # Panics
    /// Panics if `divisor` is zero.
    pub(crate) fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        let n = divisor.limbs.len();
        let m = self.limbs.len() - n;
        if n == 1 {
            let d = divisor.limbs[0] as u128;
            let mut q = vec![0u64; m + 1];
            let mut r = 0u128;
            for (qi, &limb) in q.iter_mut().zip(&self.limbs).rev() {
                let cur = (r << 64) | limb as u128;
                *qi = (cur / d) as u64;
                r = cur % d;
            }
            return (Self::from_limbs(q), BigUint::from_u64(r as u64));
        }
        // D1: shift both so the divisor's top bit is set; the estimate
        // below is then never too small and at most 2 too large.
        let shift = divisor.limbs[n - 1].leading_zeros() as usize;
        let v = divisor.shl(shift).limbs;
        let mut u = self.shl(shift).into_limbs(m + n + 1);
        let (v1, v2) = (v[n - 1] as u128, v[n - 2] as u128);
        let mut q = vec![0u64; m + 1];
        for j in (0..=m).rev() {
            // D3: estimate the quotient limb from the top two limbs.
            let num = ((u[j + n] as u128) << 64) | u[j + n - 1] as u128;
            let (mut qhat, mut rhat) = (num / v1, num % v1);
            while qhat >> 64 != 0 || qhat * v2 > ((rhat << 64) | u[j + n - 2] as u128) {
                qhat -= 1;
                rhat += v1;
                if rhat >> 64 != 0 {
                    break;
                }
            }
            // D4: u[j..=j+n] -= qhat · v.
            let mut carry = 0u128;
            let mut borrow = false;
            for i in 0..n {
                let p = qhat * v[i] as u128 + carry;
                carry = p >> 64;
                let (d, b1) = u[j + i].overflowing_sub(p as u64);
                let (d, b2) = d.overflowing_sub(borrow as u64);
                u[j + i] = d;
                borrow = b1 | b2;
            }
            let (d, b1) = u[j + n].overflowing_sub(carry as u64);
            let (d, b2) = d.overflowing_sub(borrow as u64);
            u[j + n] = d;
            if b1 | b2 {
                // D6: still one too large (about 2 in 2^64 steps): add back.
                qhat -= 1;
                let c = add_limbs(&mut u[j..j + n], &v);
                u[j + n] = u[j + n].wrapping_add(c as u64);
            }
            q[j] = qhat as u64;
        }
        u.truncate(n);
        (Self::from_limbs(q), Self::from_limbs(u).shr(shift))
    }

    /// `self mod m`.
    pub(crate) fn rem(&self, m: &BigUint) -> BigUint {
        self.div_rem(m).1
    }

    /// `self mod d` for a single small divisor, without allocating:
    /// trial division runs this once per small prime per candidate.
    ///
    /// # Panics
    /// Panics if `d` is zero.
    pub(crate) fn rem_u32(&self, d: u32) -> u32 {
        let d = d as u64;
        // The running remainder is < 2^32, so each half limb fits a u64.
        self.limbs.iter().rev().fold(0u64, |r, &limb| {
            let r = ((r << 32) | (limb >> 32)) % d;
            ((r << 32) | (limb & 0xFFFF_FFFF)) % d
        }) as u32
    }

    /// Modular exponentiation `self^exp mod m`: Montgomery form when `m`
    /// is odd, square-and-multiply over [`BigUint::div_rem`] when it is
    /// even. One-shot; the RSA and Miller–Rabin paths hold a
    /// [`Montgomery`] for their modulus instead of calling this.
    ///
    /// # Panics
    /// Panics if `m` is zero.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn modpow(&self, exp: &BigUint, m: &BigUint) -> BigUint {
        assert!(!m.is_zero(), "modpow modulus is zero");
        if m.is_one() {
            return BigUint::zero();
        }
        if !m.is_even() {
            return Montgomery::new(m).pow(self, exp);
        }
        let mut result = BigUint::one();
        let mut base = self.rem(m);
        for i in 0..exp.bit_len() {
            if exp.bit(i) {
                result = result.mul(&base).rem(m);
            }
            base = base.mul(&base).rem(m);
        }
        result
    }

    /// Modular inverse `self⁻¹ mod m`, or `None` if not coprime.
    ///
    /// Extended Euclid tracking only the `t` coefficient, with a sign
    /// flag to stay within unsigned arithmetic.
    pub(crate) fn modinv(&self, m: &BigUint) -> Option<BigUint> {
        if m.is_zero() || m.is_one() {
            return None;
        }
        let a = self.rem(m);
        if a.is_zero() {
            return None;
        }
        // Invariant: t_cur * a ≡ r_cur (mod m)  (up to sign neg_cur)
        let mut r_prev = m.clone();
        let mut r_cur = a;
        let mut t_prev = BigUint::zero();
        let mut t_cur = BigUint::one();
        let mut neg_prev = false;
        let mut neg_cur = false;
        while !r_cur.is_zero() {
            let (q, r_next) = r_prev.div_rem(&r_cur);
            // t_next = t_prev - q * t_cur   (signed)
            let qt = q.mul(&t_cur);
            let (t_next, neg_next) = signed_sub(&t_prev, neg_prev, &qt, neg_cur);
            r_prev = r_cur;
            r_cur = r_next;
            t_prev = t_cur;
            t_cur = t_next;
            neg_prev = neg_cur;
            neg_cur = neg_next;
        }
        if !r_prev.is_one() {
            return None; // not coprime
        }
        let inv = if neg_prev {
            m.sub(&t_prev.rem(m))
        } else {
            t_prev.rem(m)
        };
        Some(inv.rem(m))
    }

    /// `bits` uniformly random bits. Drawn as `u32` words, low word
    /// first — the order the `u32`-limbed implementation drew them — so
    /// a seeded RNG keeps generating the keys it always did.
    fn random_limbs<R: rand::Rng + ?Sized>(rng: &mut R, bits: usize) -> Vec<u64> {
        use rand::RngExt as _;
        let mut limbs = vec![0u64; bits.div_ceil(64)];
        for word in 0..bits.div_ceil(32) {
            limbs[word / 2] |= (rng.random::<u32>() as u64) << (32 * (word % 2));
        }
        let top_bits = bits % 64;
        if top_bits != 0 {
            *limbs.last_mut().expect("bits > 0") &= (1 << top_bits) - 1;
        }
        limbs
    }

    /// A uniformly random integer with exactly `bits` bits (top bit set).
    pub(crate) fn random_bits<R: rand::Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
        assert!(bits > 0);
        let mut limbs = Self::random_limbs(rng, bits);
        limbs[(bits - 1) / 64] |= 1 << ((bits - 1) % 64); // force exact bit length
        BigUint { limbs }
    }

    /// A uniformly random integer in `[0, bound)` via rejection sampling.
    pub(crate) fn random_below<R: rand::Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
        assert!(!bound.is_zero());
        loop {
            let candidate = Self::from_limbs(Self::random_limbs(rng, bound.bit_len()));
            if candidate < *bound {
                return candidate;
            }
        }
    }
}

/// Computes `a·(-1)^neg_a - b·(-1)^neg_b` returning `(magnitude, sign)`.
fn signed_sub(a: &BigUint, neg_a: bool, b: &BigUint, neg_b: bool) -> (BigUint, bool) {
    match (neg_a, neg_b) {
        (false, true) => (a.add(b), false), //  a - (-b) = a + b
        (true, false) => (a.add(b), true),  // -a - b    = -(a + b)
        (false, false) if a < b => (b.sub(a), true),
        (false, false) => (a.sub(b), false),
        (true, true) if b < a => (a.sub(b), true), // -a + b
        (true, true) => (b.sub(a), false),
    }
}

/// Arithmetic modulo a fixed odd `n` in Montgomery form: a residue `a`
/// is held as `a·R mod n` with `R = 2^(64·k)` for a `k`-limb modulus, so
/// a modular multiplication is one interleaved multiply-and-reduce
/// (CIOS: Koç, Acar, Kaliski 1996) with no division. Residues are
/// `k`-limb slices, not [`BigUint`]s: they stay zero-padded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Montgomery {
    n: BigUint,
    /// `-n⁻¹ mod 2^64`.
    n0_inv: u64,
    /// `R² mod n`: multiplying by it enters Montgomery form.
    r2: Vec<u64>,
    /// `R mod n`: the residue of 1.
    one: Vec<u64>,
}

impl Montgomery {
    /// A context for the modulus `n`.
    ///
    /// # Panics
    /// Panics unless `n` is odd and at least 3.
    pub(crate) fn new(n: &BigUint) -> Self {
        assert!(!n.is_even() && !n.is_one(), "Montgomery modulus not odd");
        let k = n.limbs.len();
        // Newton's iteration on n₀⁻¹ mod 2^64: an odd n₀ is its own
        // inverse mod 8 and every step doubles the correct bits.
        let n0 = n.limbs[0];
        let mut inv = n0;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(n0.wrapping_mul(inv)));
        }
        let mut ctx = Montgomery {
            n: n.clone(),
            n0_inv: inv.wrapping_neg(),
            r2: BigUint::one().shl(128 * k).rem(n).into_limbs(k),
            one: Vec::new(),
        };
        ctx.one = ctx.leave(&ctx.r2).into_limbs(k);
        ctx
    }

    /// The modulus.
    pub(crate) fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// `t[..k] = a·b·R⁻¹ mod n` for residues `a`, `b`; `t` is `k + 2`
    /// limbs of scratch the caller reuses across multiplications.
    fn mul(&self, a: &[u64], b: &[u64], t: &mut [u64]) {
        let n = &self.n.limbs[..];
        let k = n.len();
        let (a, t) = (&a[..k], &mut t[..k + 2]);
        t.fill(0);
        for &bi in &b[..k] {
            // t += a · bᵢ
            let mut carry = 0u128;
            for j in 0..k {
                let cur = t[j] as u128 + a[j] as u128 * bi as u128 + carry;
                t[j] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[k] as u128 + carry;
            t[k] = cur as u64;
            t[k + 1] = (cur >> 64) as u64;
            // t = (t + m·n) / 2^64, with m chosen to clear the low limb.
            let m = t[0].wrapping_mul(self.n0_inv) as u128;
            let mut carry = (t[0] as u128 + m * n[0] as u128) >> 64;
            for j in 1..k {
                let cur = t[j] as u128 + m * n[j] as u128 + carry;
                t[j - 1] = cur as u64;
                carry = cur >> 64;
            }
            let cur = t[k] as u128 + carry;
            t[k - 1] = cur as u64;
            t[k] = t[k + 1] + (cur >> 64) as u64;
        }
        // t < 2n here; one conditional subtraction brings it below n.
        if t[k] != 0 || cmp_limbs(&t[..k], n) != Ordering::Less {
            sub_limbs(&mut t[..k], n);
        }
    }

    /// Takes the residue `x` out of Montgomery form.
    fn leave(&self, x: &[u64]) -> BigUint {
        let k = self.n.limbs.len();
        let mut t = vec![0u64; k + 2];
        self.mul(x, &BigUint::one().into_limbs(k), &mut t);
        t.truncate(k);
        BigUint::from_limbs(t)
    }

    /// The residue of 1.
    pub(crate) fn one(&self) -> &[u64] {
        &self.one
    }

    /// The residue of `n − 1`.
    pub(crate) fn minus_one(&self) -> Vec<u64> {
        let mut x = self.n.limbs.clone();
        sub_limbs(&mut x, &self.one);
        x
    }

    /// The residue of `x²` for a residue `x`.
    pub(crate) fn square(&self, x: &[u64]) -> Vec<u64> {
        let mut t = vec![0u64; x.len() + 2];
        self.mul(x, x, &mut t);
        t.truncate(x.len());
        t
    }

    /// The residue of `base^exp`: fixed 4-bit windows over a table of
    /// the first 16 powers (2-entry table, plain square-and-multiply,
    /// when the exponent is a single limb such as the public 65537).
    pub(crate) fn pow_residue(&self, base: &BigUint, exp: &BigUint) -> Vec<u64> {
        if exp.is_zero() {
            return self.one.clone();
        }
        let k = self.n.limbs.len();
        let mut t = vec![0u64; k + 2];
        let base = if *base < self.n {
            base.clone()
        } else {
            base.rem(&self.n)
        };
        let w = if exp.limbs.len() == 1 { 1 } else { 4 };
        // table[i·k..][..k] is the residue of baseⁱ.
        let mut table = self.one.clone();
        self.mul(&base.into_limbs(k), &self.r2, &mut t);
        table.extend_from_slice(&t[..k]);
        for i in 2..1 << w {
            self.mul(&table[(i - 1) * k..i * k], &table[k..2 * k], &mut t);
            table.extend_from_slice(&t[..k]);
        }
        let power = |i: usize| &table[i * k..(i + 1) * k];
        // The top window holds the top bit: it is never zero.
        let top = (exp.bit_len() - 1) / w;
        let mut acc = power(exp.bits(top * w, w)).to_vec();
        for i in (0..top).rev() {
            for _ in 0..w {
                self.mul(&acc, &acc, &mut t);
                acc.copy_from_slice(&t[..k]);
            }
            let digit = exp.bits(i * w, w);
            if digit != 0 {
                self.mul(&acc, power(digit), &mut t);
                acc.copy_from_slice(&t[..k]);
            }
        }
        acc
    }

    /// `base^exp mod n`.
    pub(crate) fn pow(&self, base: &BigUint, exp: &BigUint) -> BigUint {
        self.leave(&self.pow_residue(base, exp))
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "BigUint(0)");
        }
        write!(f, "BigUint(0x")?;
        for (i, limb) in self.limbs.iter().rev().enumerate() {
            if i == 0 {
                write!(f, "{limb:x}")?;
            } else {
                write!(f, "{limb:016x}")?;
            }
        }
        write!(f, ")")
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        let by_len = self.limbs.len().cmp(&other.limbs.len());
        by_len.then_with(|| cmp_limbs(&self.limbs, &other.limbs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The arithmetic this module used before Knuth D and Montgomery
    /// form — one shift-and-subtract per quotient bit, one division per
    /// exponent bit — kept as the oracle the differential tests compare
    /// the production paths against.
    mod reference {
        use super::BigUint;

        pub fn div_rem(a: &BigUint, divisor: &BigUint) -> (BigUint, BigUint) {
            assert!(!divisor.is_zero(), "division by zero");
            if a < divisor {
                return (BigUint::zero(), a.clone());
            }
            let shift = a.bit_len() - divisor.bit_len();
            let mut rem = a.clone();
            let mut quot = BigUint::zero();
            let mut d = divisor.shl(shift);
            for s in (0..=shift).rev() {
                if rem >= d {
                    rem = rem.sub(&d);
                    quot = quot.add(&BigUint::one().shl(s));
                }
                d = d.shr(1);
            }
            (quot, rem)
        }

        pub fn modpow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
            if m.is_one() {
                return BigUint::zero();
            }
            let rem = |x: BigUint| div_rem(&x, m).1;
            let mut result = BigUint::one();
            let mut base = rem(base.clone());
            for i in 0..exp.bit_len() {
                if exp.bit(i) {
                    result = rem(result.mul(&base));
                }
                base = rem(base.mul(&base));
            }
            result
        }

        pub fn gcd(a: &BigUint, b: &BigUint) -> BigUint {
            let (mut a, mut b) = (a.clone(), b.clone());
            while !b.is_zero() {
                (a, b) = (b.clone(), div_rem(&a, &b).1);
            }
            a
        }
    }

    fn b(v: u64) -> BigUint {
        BigUint::from_u64(v)
    }

    /// A random operand of exactly `limbs` limbs whose top limb is random
    /// (`top` 0), 1 (`top` 1) or all-ones (`top` 2).
    fn operand(rng: &mut StdRng, limbs: usize, top: u32) -> BigUint {
        let mut v: Vec<u64> = (0..limbs).map(|_| rng.random()).collect();
        *v.last_mut().unwrap() = match top {
            1 => 1,
            2 => u64::MAX,
            _ => rng.random_range(1..u64::MAX),
        };
        BigUint { limbs: v }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn div_rem_and_rem_u32_match_reference(
            seed in 0u64..u64::MAX,
            a_limbs in 0usize..81,
            d_limbs in 1usize..81,
            single_limb_divisor in 0u32..4,
            a_top in 0u32..3,
            d_top in 0u32..3,
            small in 1u32..u32::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = match a_limbs {
                0 => BigUint::zero(),
                n => operand(&mut rng, n, a_top),
            };
            let d_limbs = if single_limb_divisor == 0 { 1 } else { d_limbs };
            let d = operand(&mut rng, d_limbs, d_top);
            let (q, r) = a.div_rem(&d);
            prop_assert!(r < d);
            prop_assert_eq!(q.mul(&d).add(&r), a.clone());
            prop_assert_eq!((q, r), reference::div_rem(&a, &d));
            let small_rem = reference::div_rem(&a, &b(small as u64)).1;
            prop_assert_eq!(b(a.rem_u32(small) as u64), small_rem);
        }

        #[test]
        fn modinv_matches_reference(
            seed in 0u64..u64::MAX,
            a_limbs in 1usize..81,
            m_limbs in 1usize..81,
            a_top in 0u32..3,
            m_top in 0u32..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let a = operand(&mut rng, a_limbs, a_top);
            let m = operand(&mut rng, m_limbs, m_top);
            let coprime = reference::gcd(&a, &m).is_one();
            match a.modinv(&m) {
                Some(inv) => {
                    prop_assert!(coprime && inv < m);
                    prop_assert_eq!(reference::div_rem(&a.mul(&inv), &m).1, BigUint::one());
                }
                None => prop_assert!(!coprime || m.is_one()),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn modpow_matches_reference(
            seed in 0u64..u64::MAX,
            m_limbs in 1usize..81,
            m_top in 0u32..3,
            // 1: even, 3: the modulus 1, otherwise odd
            m_shape in 0u32..4,
            // 0: base < m, 1: base ≥ m, 2: base 0
            base_shape in 0u32..3,
            exp_bits in 0usize..140,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m = operand(&mut rng, m_limbs, m_top);
            m.limbs[0] = (m.limbs[0] & !1) | (m_shape != 1) as u64;
            if m_shape == 3 {
                m = BigUint::one();
            } else if m.limbs == [0] {
                m = b(2);
            }
            let base = match base_shape {
                0 => BigUint::random_below(&mut rng, &m),
                1 => operand(&mut rng, m_limbs + 1, 0),
                _ => BigUint::zero(),
            };
            // The oracle divides once per exponent bit, a modulus bit at
            // a time: long exponents only where the modulus is short.
            let exp_bits = if m_limbs <= 24 { exp_bits } else { exp_bits % 20 };
            let exp = match exp_bits {
                0 => BigUint::zero(),
                n => BigUint::random_bits(&mut rng, n),
            };
            prop_assert_eq!(base.modpow(&exp, &m), reference::modpow(&base, &exp, &m));
        }
    }

    /// Knuth's step D6 (the quotient estimate survives both corrections
    /// and the subtraction still borrows) fires about twice in 2^64
    /// random steps, so it is pinned by operands built to reach it.
    #[test]
    fn div_rem_add_back_step() {
        let top = 1u64 << 63;
        for (u, v) in [
            (vec![3, 0, top], vec![1, 0, top >> 2]),
            (vec![0, 0, top, top - 1], vec![1, 0, top]),
        ] {
            let (u, v) = (BigUint { limbs: u }, BigUint { limbs: v });
            assert_eq!(u.div_rem(&v), reference::div_rem(&u, &v));
        }
    }

    #[test]
    fn montgomery_squares_and_signed_units() {
        let mut rng = StdRng::seed_from_u64(14);
        for limbs in [1usize, 2, 8, 16, 33] {
            let mut n = operand(&mut rng, limbs, 0);
            n.limbs[0] |= 1;
            let ctx = Montgomery::new(&n);
            assert_eq!(ctx.leave(ctx.one()), BigUint::one());
            assert_eq!(ctx.leave(&ctx.minus_one()), n.sub(&BigUint::one()));
            let x = BigUint::random_below(&mut rng, &n);
            let xr = ctx.pow_residue(&x, &BigUint::one());
            assert_eq!(ctx.leave(&ctx.square(&xr)), x.mul(&x).rem(&n));
            assert_eq!(ctx.pow(&x, &BigUint::zero()), BigUint::one());
        }
    }

    #[test]
    #[should_panic(expected = "not odd")]
    fn montgomery_refuses_an_even_modulus() {
        let _ = Montgomery::new(&b(10));
    }

    #[test]
    fn from_to_bytes_round_trip() {
        let cases: [&[u8]; 4] = [&[], &[1], &[0xde, 0xad, 0xbe, 0xef, 0x42], &[0xff; 17]];
        for bytes in cases {
            let n = BigUint::from_bytes_be(bytes);
            let back = n.to_bytes_be();
            // Leading zeros are stripped, so compare the numeric values.
            assert_eq!(BigUint::from_bytes_be(&back), n);
        }
    }

    #[test]
    fn leading_zero_bytes_ignored() {
        assert_eq!(
            BigUint::from_bytes_be(&[0, 0, 0, 5]),
            BigUint::from_bytes_be(&[5])
        );
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(b(123).add(&b(877)), b(1000));
        assert_eq!(b(1000).sub(&b(877)), b(123));
        assert_eq!(b(0).add(&b(0)), b(0));
    }

    #[test]
    fn add_carries_across_limbs() {
        let x = b(u64::MAX);
        let one = b(1);
        let sum = x.add(&one);
        assert_eq!(sum.bit_len(), 65);
        assert_eq!(sum.sub(&one), x);
    }

    #[test]
    #[should_panic]
    fn sub_underflow_panics() {
        let _ = b(1).sub(&b(2));
    }

    #[test]
    fn mul_matches_u128() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let x: u64 = rng.random();
            let y: u64 = rng.random();
            let prod = (x as u128) * (y as u128);
            let expected = BigUint::from_bytes_be(&prod.to_be_bytes());
            assert_eq!(b(x).mul(&b(y)), expected);
        }
    }

    #[test]
    fn div_rem_matches_u128() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..200 {
            let x: u128 = ((rng.random::<u64>() as u128) << 64) | rng.random::<u64>() as u128;
            let y: u64 = rng.random_range(1..u64::MAX);
            let q = x / y as u128;
            let r = x % y as u128;
            let xb = BigUint::from_bytes_be(&x.to_be_bytes());
            let (qb, rb) = xb.div_rem(&b(y));
            assert_eq!(qb, BigUint::from_bytes_be(&q.to_be_bytes()));
            assert_eq!(rb, BigUint::from_bytes_be(&r.to_be_bytes()));
        }
    }

    #[test]
    #[should_panic]
    fn div_by_zero_panics() {
        let _ = b(5).div_rem(&BigUint::zero());
    }

    #[test]
    fn shifts() {
        let x = b(0b1011);
        assert_eq!(x.shl(3), b(0b1011000));
        assert_eq!(x.shr(2), b(0b10));
        assert_eq!(x.shl(100).shr(100), x);
        assert_eq!(BigUint::zero().shl(64), BigUint::zero());
        assert_eq!(b(1).shr(1), BigUint::zero());
    }

    #[test]
    fn bit_len_and_bit() {
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(b(1).bit_len(), 1);
        assert_eq!(b(255).bit_len(), 8);
        assert_eq!(b(256).bit_len(), 9);
        let x = b(0b101);
        assert!(x.bit(0) && !x.bit(1) && x.bit(2) && !x.bit(3));
        assert!(!x.bit(1000));
    }

    #[test]
    fn modpow_small_cases() {
        // 3^5 mod 7 = 243 mod 7 = 5
        assert_eq!(b(3).modpow(&b(5), &b(7)), b(5));
        // Fermat: a^(p-1) ≡ 1 mod p
        let p = b(1_000_000_007);
        for a in [2u64, 3, 10, 999] {
            assert_eq!(b(a).modpow(&p.sub(&b(1)), &p), b(1));
        }
        // exponent 0
        assert_eq!(b(12345).modpow(&b(0), &b(97)), b(1));
        // modulus 1
        assert_eq!(b(5).modpow(&b(5), &b(1)), b(0));
    }

    #[test]
    fn modpow_large_random_consistency() {
        // (a^e1)^e2 == a^(e1*e2) mod m
        let mut rng = StdRng::seed_from_u64(9);
        let m = BigUint::random_bits(&mut rng, 128);
        let a = BigUint::random_bits(&mut rng, 100);
        let e1 = b(rng.random_range(2..1000));
        let e2 = b(rng.random_range(2..1000));
        let lhs = a.modpow(&e1, &m).modpow(&e2, &m);
        let rhs = a.modpow(&e1.mul(&e2), &m);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn modinv_basic() {
        // 3 * 5 = 15 ≡ 1 mod 7
        assert_eq!(b(3).modinv(&b(7)), Some(b(5)));
        // No inverse when not coprime.
        assert_eq!(b(6).modinv(&b(9)), None);
        assert_eq!(b(0).modinv(&b(7)), None);
    }

    #[test]
    fn modinv_random_verification() {
        let mut rng = StdRng::seed_from_u64(10);
        let m = b(1_000_000_007); // prime
        for _ in 0..100 {
            let a = b(rng.random_range(1..1_000_000_006));
            let inv = a.modinv(&m).expect("prime modulus ⇒ inverse exists");
            assert_eq!(a.mul(&inv).rem(&m), b(1));
        }
    }

    #[test]
    fn modinv_large() {
        let mut rng = StdRng::seed_from_u64(11);
        let m = BigUint::random_bits(&mut rng, 256);
        let mut inverted = 0;
        for _ in 0..20 {
            let a = BigUint::random_below(&mut rng, &m);
            // `None`: this draw shares a factor with the random modulus.
            let Some(inv) = a.modinv(&m) else { continue };
            assert_eq!(a.mul(&inv).rem(&m), BigUint::one());
            inverted += 1;
        }
        assert!(inverted > 0);
    }

    #[test]
    fn random_bits_exact_length() {
        let mut rng = StdRng::seed_from_u64(12);
        for bits in [1usize, 31, 32, 33, 64, 100, 257] {
            let n = BigUint::random_bits(&mut rng, bits);
            assert_eq!(n.bit_len(), bits);
        }
    }

    #[test]
    fn random_below_in_range() {
        let mut rng = StdRng::seed_from_u64(13);
        let bound = b(1000);
        for _ in 0..200 {
            let n = BigUint::random_below(&mut rng, &bound);
            assert!(n < bound);
        }
    }

    #[test]
    fn mul_known_large_vector() {
        // (2^128 − 1)² = 2^256 − 2^129 + 1.
        let x = BigUint::from_bytes_be(&[0xFF; 16]);
        let sq = x.mul(&x);
        let expected = BigUint::one()
            .shl(256)
            .sub(&BigUint::one().shl(129))
            .add(&BigUint::one());
        assert_eq!(sq, expected);
    }

    #[test]
    fn div_rem_reconstructs_large_operands() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..25 {
            let a = BigUint::random_bits(&mut rng, 300);
            let b = BigUint::random_bits(&mut rng, 140);
            let (q, r) = a.div_rem(&b);
            assert!(r < b);
            assert_eq!(q.mul(&b).add(&r), a);
        }
    }

    #[test]
    fn ordering_impls() {
        assert!(b(3) < b(5));
        assert!(b(5) > b(3));
        assert!(b(u64::MAX).add(&b(1)) > b(u64::MAX));
    }
}
