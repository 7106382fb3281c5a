//! Canonical binary encoding: the [`Wire`] trait and the bounded
//! [`Encoder`]/[`Decoder`] pair it writes and reads through.
//!
//! Every proof payload, signed pre-image and snapshot record has
//! exactly one [`Wire`] impl, so its encoding, its decoder, its bounds
//! and its size cannot disagree. The format rules are stated once, in
//! [`crate::wire`].

use spnet_crypto::digest::{Digest, DIGEST_LEN};
use spnet_crypto::mbtree::KeyedEntry;
use spnet_graph::NodeId;
use std::sync::Arc;

/// Errors raised while decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the expected field.
    UnexpectedEnd { wanted: usize, remaining: usize },
    /// A length prefix exceeded a sanity bound.
    LengthOverflow(u64),
    /// Trailing bytes after a complete decode.
    TrailingBytes(usize),
    /// An enum discriminant was invalid.
    BadTag(u8),
    /// The payload declares a wire format version this build does not
    /// speak (see [`crate::wire::WIRE_VERSION`]) — distinct from
    /// truncation so peers can negotiate instead of retrying.
    UnsupportedVersion(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnexpectedEnd { wanted, remaining } => {
                write!(
                    f,
                    "unexpected end of input: wanted {wanted} bytes, {remaining} left"
                )
            }
            DecodeError::LengthOverflow(n) => write!(f, "length prefix {n} too large"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            DecodeError::BadTag(t) => write!(f, "invalid discriminant {t}"),
            DecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported wire format version {v}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A type with exactly one canonical encoding.
///
/// `take` reads exactly what `put` wrote and rejects anything else
/// with a typed [`DecodeError`], never a panic.
pub trait Wire: Sized {
    /// Length of the smallest encoding: what [`Decoder::take_len`]
    /// holds a sequence count of this type against.
    const MIN_LEN: usize;

    /// Appends the encoding.
    fn put(&self, e: &mut Encoder);

    /// Reads one value from the cursor.
    fn take(d: &mut Decoder<'_>) -> Result<Self, DecodeError>;

    /// Length of the encoding in bytes — every proof size is this.
    fn encoded_len(&self) -> usize {
        self.to_bytes().len()
    }

    /// The bare encoding (no version byte; see [`crate::wire::encode`]).
    fn to_bytes(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        self.put(&mut e);
        e.into_bytes()
    }

    /// Decodes a bare encoding, requiring every byte to be consumed.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut d = Decoder::new(bytes);
        let v = d.take()?;
        d.finish()?;
        Ok(v)
    }
}

/// Implements [`Wire`] for a struct from one field list in wire order:
/// `put`, `take` and `MIN_LEN` are all generated from it, so they
/// cannot drift apart (a listed type that is not the field's type does
/// not compile). Tuple-struct fields are named by index.
macro_rules! wire_struct {
    ($t:ty { $($f:tt: $ft:ty),+ $(,)? }) => {
        impl $crate::enc::Wire for $t {
            const MIN_LEN: usize = 0 $(+ <$ft as $crate::enc::Wire>::MIN_LEN)+;

            fn put(&self, e: &mut $crate::enc::Encoder) {
                $(e.put::<$ft>(&self.$f);)+
            }

            fn take(
                d: &mut $crate::enc::Decoder<'_>,
            ) -> Result<Self, $crate::enc::DecodeError> {
                Ok(Self { $($f: d.take::<$ft>()?),+ })
            }
        }
    };
}
pub(crate) use wire_struct;

/// Implements [`Wire`] for a tagged enum from one variant list: each
/// variant's tag byte, then its fields in wire order. An unlisted tag
/// fails with [`DecodeError::BadTag`].
macro_rules! wire_enum {
    ($t:ident { $($tag:literal => $v:ident $({ $($f:ident: $ft:ty),+ $(,)? })?),+ $(,)? }) => {
        impl $crate::enc::Wire for $t {
            const MIN_LEN: usize = 1;

            fn put(&self, e: &mut $crate::enc::Encoder) {
                match self {
                    $($t::$v $({ $($f),+ })? => {
                        e.put::<u8>(&$tag);
                        $($(e.put::<$ft>($f);)+)?
                    })+
                }
            }

            fn take(
                d: &mut $crate::enc::Decoder<'_>,
            ) -> Result<Self, $crate::enc::DecodeError> {
                Ok(match d.take::<u8>()? {
                    $($tag => $t::$v $({ $($f: d.take::<$ft>()?),+ })?,)+
                    t => return Err($crate::enc::DecodeError::BadTag(t)),
                })
            }
        }
    };
}
pub(crate) use wire_enum;

/// Append-only canonical encoder.
#[derive(Debug, Default, Clone)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// A fresh empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the encoder, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends the encoding of `v`.
    pub fn put<T: Wire>(&mut self, v: &T) {
        v.put(self);
    }

    /// Raw bytes with a u32 length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put(&(v.len() as u32));
        self.put_raw(v);
    }

    /// Raw bytes with no prefix (fixed-width fields like digests).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Cursor-based canonical decoder.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Wraps a byte slice.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Fails unless the input was fully consumed.
    pub fn finish(self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes(self.remaining()))
        }
    }

    /// Reads one `T`.
    pub fn take<T: Wire>(&mut self) -> Result<T, DecodeError> {
        T::take(self)
    }

    /// Reads `n` consecutive `T`s; `n` comes from [`Self::take_len`].
    pub fn take_n<T: Wire>(&mut self, n: usize) -> Result<Vec<T>, DecodeError> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.take()?);
        }
        Ok(out)
    }

    /// Length-prefixed bytes (bounded at 1 GiB to catch corruption).
    pub fn take_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.take::<u32>()? as u64;
        if len > 1 << 30 {
            return Err(DecodeError::LengthOverflow(len));
        }
        self.take_raw(len as usize)
    }

    /// A `u32` element count for a sequence whose elements each encode
    /// to at least `min_elem_bytes`. Rejects counts above 2²⁴ and counts
    /// the remaining input cannot hold, so a hostile prefix fails here
    /// rather than in the `Vec::with_capacity` that follows it.
    pub fn take_len(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.take::<u32>()? as usize;
        if n > 1 << 24 || n.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(DecodeError::LengthOverflow(n as u64));
        }
        Ok(n)
    }

    /// Fixed-width raw bytes.
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEnd {
                wanted: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
}

// ---- generic impls --------------------------------------------------------

/// Fixed-width little-endian scalars; an `f64` is its IEEE-754 bit
/// pattern, so float encodings are bitwise canonical.
macro_rules! wire_le {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();

            fn put(&self, e: &mut Encoder) {
                e.put_raw(&self.to_le_bytes());
            }

            fn take(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                let raw = d.take_raw(Self::MIN_LEN)?;
                Ok(<$t>::from_le_bytes(raw.try_into().expect("MIN_LEN bytes")))
            }
        }
    )+};
}
wire_le!(u8, u16, u32, u64, f64);

/// One byte, 0 or 1.
impl Wire for bool {
    const MIN_LEN: usize = 1;

    fn put(&self, e: &mut Encoder) {
        e.put(&u8::from(*self));
    }

    fn take(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        match d.take()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// Fixed-width raw bytes.
impl<const N: usize> Wire for [u8; N] {
    const MIN_LEN: usize = N;

    fn put(&self, e: &mut Encoder) {
        e.put_raw(self);
    }

    fn take(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(d.take_raw(N)?.try_into().expect("N bytes"))
    }
}

wire_struct!(NodeId { 0: u32 });
wire_struct!(Digest {
    0: [u8; DIGEST_LEN]
});
wire_struct!(KeyedEntry {
    key: u64,
    value: f64
});

/// The fields in order, with no framing.
macro_rules! wire_tuple {
    ($($i:tt $a:ident),+) => {
        impl<$($a: Wire),+> Wire for ($($a,)+) {
            const MIN_LEN: usize = 0 $(+ $a::MIN_LEN)+;

            fn put(&self, e: &mut Encoder) {
                $(e.put(&self.$i);)+
            }

            fn take(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                Ok(($(d.take::<$a>()?,)+))
            }
        }
    };
}
wire_tuple!(0 A, 1 B);
wire_tuple!(0 A, 1 B, 2 C, 3 D, 4 E);

/// Absent: `false`; present: `true`, then the value.
impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;

    fn put(&self, e: &mut Encoder) {
        e.put(&self.is_some());
        self.iter().for_each(|v| e.put(v));
    }

    fn take(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(if d.take()? { Some(d.take()?) } else { None })
    }
}

/// A `u32` count, then the elements; the count is held against the
/// remaining input before anything is reserved.
impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 4;

    fn put(&self, e: &mut Encoder) {
        e.put(&(self.len() as u32));
        self.iter().for_each(|v| e.put(v));
    }

    fn take(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = d.take_len(T::MIN_LEN)?;
        d.take_n(n)
    }
}

/// Shared and boxed values encode as the value itself.
macro_rules! wire_pointer {
    ($($p:ident),+) => {$(
        impl<T: Wire> Wire for $p<T> {
            const MIN_LEN: usize = T::MIN_LEN;

            fn put(&self, e: &mut Encoder) {
                e.put(&**self);
            }

            fn take(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
                Ok($p::new(d.take()?))
            }
        }
    )+};
}
wire_pointer!(Arc, Box);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut e = Encoder::new();
        e.put(&0xABu8);
        e.put(&true);
        e.put(&0xBEEFu16);
        e.put(&0xDEADBEEFu32);
        e.put(&0x0123456789ABCDEFu64);
        e.put(&-1234.5678f64);
        let bytes = e.into_bytes();
        assert_eq!(bytes.len(), 1 + 1 + 2 + 4 + 8 + 8);
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take::<u8>().unwrap(), 0xAB);
        assert!(d.take::<bool>().unwrap());
        assert_eq!(d.take::<u16>().unwrap(), 0xBEEF);
        assert_eq!(d.take::<u32>().unwrap(), 0xDEADBEEF);
        assert_eq!(d.take::<u64>().unwrap(), 0x0123456789ABCDEF);
        assert_eq!(d.take::<f64>().unwrap(), -1234.5678);
        d.finish().unwrap();
    }

    #[test]
    fn round_trip_bytes() {
        let mut e = Encoder::new();
        e.put_bytes(b"hello");
        e.put_bytes(b"");
        e.put_raw(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_bytes().unwrap(), b"hello");
        assert_eq!(d.take_bytes().unwrap(), b"");
        assert_eq!(d.take_raw(3).unwrap(), &[1, 2, 3]);
        d.finish().unwrap();
    }

    #[test]
    fn round_trip_containers() {
        type T = (Vec<(NodeId, f64)>, (Option<Box<u32>>, Option<Arc<bool>>));
        let v: T = (
            vec![(NodeId(7), 1.5), (NodeId(9), -0.0)],
            (Some(Box::new(5)), None),
        );
        let bytes = v.to_bytes();
        // Count + two (u32, f64) pairs, tag + u32, tag.
        assert_eq!(bytes.len(), 4 + 2 * 12 + 5 + 1);
        assert_eq!(v.encoded_len(), bytes.len());
        assert_eq!(T::MIN_LEN, 4 + 1 + 1);
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
        assert_eq!(Option::<u8>::from_bytes(&[2]), Err(DecodeError::BadTag(2)));
        // A count the input cannot hold fails before any allocation.
        assert_eq!(
            Vec::<u64>::from_bytes(&[3, 0, 0, 0, 1, 2]),
            Err(DecodeError::LengthOverflow(3))
        );
    }

    #[test]
    fn unexpected_end_detected() {
        let mut d = Decoder::new(&[1, 2]);
        assert!(matches!(
            d.take::<u32>(),
            Err(DecodeError::UnexpectedEnd {
                wanted: 4,
                remaining: 2
            })
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let d = Decoder::new(&[0]);
        assert_eq!(d.finish(), Err(DecodeError::TrailingBytes(1)));
        assert_eq!(u8::from_bytes(&[0, 0]), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn bad_bool_detected() {
        let mut d = Decoder::new(&[7]);
        assert_eq!(d.take::<bool>(), Err(DecodeError::BadTag(7)));
    }

    #[test]
    fn length_overflow_detected() {
        let bytes = u32::MAX.to_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(
            d.take_bytes(),
            Err(DecodeError::LengthOverflow(_))
        ));
    }

    #[test]
    fn take_len_holds_the_prefix_against_the_remaining_input() {
        let frame = |n: u32, body: usize| {
            let mut e = Encoder::new();
            e.put(&n);
            e.put_raw(&vec![0; body]);
            e.into_bytes()
        };
        // 3 elements of 40 bytes fit exactly; the cursor sits after the prefix.
        let bytes = frame(3, 120);
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_len(40), Ok(3));
        assert_eq!(d.remaining(), 120);
        // One byte short, or a 16M-element claim on a 20-byte frame: typed error.
        assert_eq!(
            Decoder::new(&frame(3, 119)).take_len(40),
            Err(DecodeError::LengthOverflow(3))
        );
        assert_eq!(
            Decoder::new(&frame(1 << 24, 16)).take_len(40),
            Err(DecodeError::LengthOverflow(1 << 24))
        );
        // The absolute cap holds whatever the element width.
        assert_eq!(
            Decoder::new(&frame((1 << 24) + 1, 0)).take_len(0),
            Err(DecodeError::LengthOverflow((1 << 24) + 1))
        );
        assert_eq!(Decoder::new(&frame(0, 0)).take_len(40), Ok(0));
        assert!(matches!(
            Decoder::new(&[1, 0]).take_len(4),
            Err(DecodeError::UnexpectedEnd { .. })
        ));
    }

    #[test]
    fn f64_bit_exact() {
        for v in [0.0, -0.0, f64::MIN_POSITIVE, 1e308, -1e-308, f64::NAN] {
            let got = f64::from_bytes(&v.to_bytes()).unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn deterministic() {
        let enc = |x: u64| {
            let mut e = Encoder::new();
            e.put(&x);
            e.put_bytes(b"abc");
            e.into_bytes()
        };
        assert_eq!(enc(5), enc(5));
        assert_ne!(enc(5), enc(6));
    }
}
