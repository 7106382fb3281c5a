//! Canonical binary encoding.
//!
//! Every byte that enters a digest or a proof-size measurement flows
//! through this module, so encodings must be deterministic and
//! unambiguous (length-prefixed, little-endian). The proof sizes the
//! benchmark harness reports are exactly the lengths these encoders
//! produce.

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

    /// Current encoded length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow of the bytes encoded so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Floats are encoded by IEEE-754 bit pattern — bitwise canonical.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Raw bytes with a u32 length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
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

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
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

    pub fn take_u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    pub fn take_bool(&mut self) -> Result<bool, DecodeError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::BadTag(t)),
        }
    }

    pub fn take_u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub fn take_u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn take_u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    pub fn take_f64(&mut self) -> Result<f64, DecodeError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Length-prefixed bytes (bounded at 1 GiB to catch corruption).
    pub fn take_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.take_u32()? as u64;
        if len > 1 << 30 {
            return Err(DecodeError::LengthOverflow(len));
        }
        self.take(len as usize)
    }

    /// A `u32` element count for a sequence whose elements each encode
    /// to at least `min_elem_bytes`. Rejects counts above 2²⁴ and counts
    /// the remaining input cannot hold, so a hostile prefix fails here
    /// rather than in the `Vec::with_capacity` that follows it.
    pub fn take_len(&mut self, min_elem_bytes: usize) -> Result<usize, DecodeError> {
        let n = self.take_u32()? as usize;
        if n > 1 << 24 || n.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(DecodeError::LengthOverflow(n as u64));
        }
        Ok(n)
    }

    /// Fixed-width raw bytes.
    pub fn take_raw(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut e = Encoder::new();
        e.put_u8(0xAB);
        e.put_bool(true);
        e.put_u16(0xBEEF);
        e.put_u32(0xDEADBEEF);
        e.put_u64(0x0123456789ABCDEF);
        e.put_f64(-1234.5678);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 0xAB);
        assert!(d.take_bool().unwrap());
        assert_eq!(d.take_u16().unwrap(), 0xBEEF);
        assert_eq!(d.take_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(d.take_u64().unwrap(), 0x0123456789ABCDEF);
        assert_eq!(d.take_f64().unwrap(), -1234.5678);
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
    fn unexpected_end_detected() {
        let mut d = Decoder::new(&[1, 2]);
        assert!(matches!(
            d.take_u32(),
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
    }

    #[test]
    fn bad_bool_detected() {
        let mut d = Decoder::new(&[7]);
        assert_eq!(d.take_bool(), Err(DecodeError::BadTag(7)));
    }

    #[test]
    fn length_overflow_detected() {
        let mut e = Encoder::new();
        e.put_u32(u32::MAX);
        let bytes = e.into_bytes();
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
            e.put_u32(n);
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
        for v in [0.0, -0.0, f64::MIN_POSITIVE, 1e308, -1e-308] {
            let mut e = Encoder::new();
            e.put_f64(v);
            let b = e.into_bytes();
            let got = Decoder::new(&b).take_f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits());
        }
    }

    #[test]
    fn deterministic() {
        let enc = |x: u64| {
            let mut e = Encoder::new();
            e.put_u64(x);
            e.put_bytes(b"abc");
            e.into_bytes()
        };
        assert_eq!(enc(5), enc(5));
        assert_ne!(enc(5), enc(6));
    }
}
