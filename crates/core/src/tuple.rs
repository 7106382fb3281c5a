//! Extended-tuples Φ(v) — the authenticated unit of network data.
//!
//! Equation 1 (base form):
//! `Φ(v) = ⟨v.id, v.x, v.y, {⟨v′, W(v,v′)⟩ | (v,v′) ∈ E}⟩`
//!
//! Equation 4 (LDM) additionally embeds the landmark payload Ψ(v)
//! (quantized, possibly compressed to a `(θ, ε)` reference).
//!
//! Equation 7 (HYP) additionally embeds `v.c` (cell id) and
//! `v.is_border`.
//!
//! A tuple's digest is the SHA-256 of its canonical encoding; the
//! Merkle tree over ordered tuple digests is the network ADS.

use crate::enc::{wire_struct, DecodeError, Decoder, Encoder, Wire};
use spnet_crypto::digest::{hash_bytes, Digest};
use spnet_graph::landmark::{CompressedVectors, NodePsi};
use spnet_graph::partition::GridPartition;
use spnet_graph::{Graph, NodeId};

/// The landmark payload inside an LDM extended-tuple.
#[derive(Debug, Clone, PartialEq)]
pub enum PsiPayload {
    /// Full quantized index vector (representative or uncompressed
    /// node); entries are `bits`-bit integers, bit-packed on the wire
    /// (Eq. 5: the whole point of quantization is `b` bits per
    /// distance).
    Full {
        /// Bits per entry `b`.
        bits: u8,
        /// The quantized indices (each `< 2^bits`).
        q: Vec<u32>,
    },
    /// Compressed: reference node `θ` and quantized error `ε`.
    Ref {
        /// Reference node whose full vector stands in for this node's.
        theta: NodeId,
        /// Compression error `ε = ϱ(v, θ) ≤ ξ`.
        eps: f64,
    },
}

/// Packs `bits`-bit values little-endian into bytes.
fn pack_bits(q: &[u32], bits: u8) -> Vec<u8> {
    let total_bits = q.len() * bits as usize;
    let mut out = vec![0u8; total_bits.div_ceil(8)];
    let mut pos = 0usize;
    for &v in q {
        for b in 0..bits as usize {
            if (v >> b) & 1 == 1 {
                out[(pos + b) / 8] |= 1 << ((pos + b) % 8);
            }
        }
        pos += bits as usize;
    }
    out
}

/// Unpacks `n` little-endian `bits`-bit values from bytes; the padding
/// bits of the last byte must be zero, so one vector has one encoding.
fn unpack_bits(bytes: &[u8], n: usize, bits: u8) -> Option<Vec<u32>> {
    let total_bits = n * bits as usize;
    let used = total_bits % 8; // bits used in the last byte, 0 = all
    if bytes.len() != total_bits.div_ceil(8)
        || bytes.last().is_some_and(|&b| used != 0 && b >> used != 0)
    {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    let mut pos = 0usize;
    for _ in 0..n {
        let mut v = 0u32;
        for b in 0..bits as usize {
            if (bytes[(pos + b) / 8] >> ((pos + b) % 8)) & 1 == 1 {
                v |= 1 << b;
            }
        }
        out.push(v);
        pos += bits as usize;
    }
    Some(out)
}

/// The HYP cell attributes of Eq. 7.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellInfo {
    /// Cell identifier `v.c`.
    pub cell: u32,
    /// Border-node flag `v.is_border`.
    pub is_border: bool,
}

/// The extended-tuple Φ(v).
#[derive(Debug, Clone, PartialEq)]
pub struct ExtendedTuple {
    /// Node identifier `v.id`.
    pub id: NodeId,
    /// Coordinate `v.x`.
    pub x: f64,
    /// Coordinate `v.y`.
    pub y: f64,
    /// Adjacency `⟨v′, W(v,v′)⟩`, sorted by neighbor id.
    pub adj: Vec<(NodeId, f64)>,
    /// LDM landmark payload (Eq. 4), if the method uses one.
    pub psi: Option<PsiPayload>,
    /// HYP cell attributes (Eq. 7), if the method uses them.
    pub cell: Option<CellInfo>,
}

wire_struct!(CellInfo {
    cell: u32,
    is_border: bool
});

impl ExtendedTuple {
    /// The base tuple of Eq. 1 for node `v` of `g`.
    pub fn base(g: &Graph, v: NodeId) -> Self {
        let (x, y) = g.coords(v);
        ExtendedTuple {
            id: v,
            x,
            y,
            adj: g.neighbors(v).collect(),
            psi: None,
            cell: None,
        }
    }

    /// The LDM tuple of Eq. 4: base plus landmark payload.
    pub fn with_psi(g: &Graph, v: NodeId, cv: &CompressedVectors) -> Self {
        let mut t = Self::base(g, v);
        t.psi = Some(match cv.node_psi(v) {
            NodePsi::Full(q) => PsiPayload::Full {
                bits: cv.bits(),
                q: q.to_vec(),
            },
            NodePsi::Compressed { theta, eps } => PsiPayload::Ref {
                theta: *theta,
                eps: *eps,
            },
        });
        t
    }

    /// The HYP tuple of Eq. 7: base plus cell attributes.
    pub fn with_cell(g: &Graph, v: NodeId, part: &GridPartition) -> Self {
        let mut t = Self::base(g, v);
        t.cell = Some(CellInfo {
            cell: part.cell_of(v),
            is_border: part.is_border(v),
        });
        t
    }

    /// The digest `H(Φ(v))` of the canonical encoding.
    pub fn digest(&self) -> Digest {
        hash_bytes(&self.to_bytes())
    }

    /// Weight of the edge to `v`, if adjacent.
    pub fn edge_to(&self, v: NodeId) -> Option<f64> {
        self.adj
            .binary_search_by_key(&v, |&(u, _)| u)
            .ok()
            .map(|i| self.adj[i].1)
    }
}

/// Φ(v) in Eq. 1/4/7 order: id, coordinates, adjacency, then the LDM
/// payload (tag 0 none, 1 full vector, 2 reference) and the HYP cell
/// attributes. The digest pre-image and the wire form.
impl Wire for ExtendedTuple {
    const MIN_LEN: usize = 4 + 8 + 8 + 4 + 1 + 1;

    fn put(&self, e: &mut Encoder) {
        e.put(&self.id);
        e.put(&self.x);
        e.put(&self.y);
        e.put(&self.adj);
        match &self.psi {
            None => e.put(&0u8),
            Some(PsiPayload::Full { bits, q }) => {
                e.put(&1u8);
                e.put(bits);
                e.put(&(q.len() as u32));
                e.put_raw(&pack_bits(q, *bits));
            }
            Some(PsiPayload::Ref { theta, eps }) => {
                e.put(&2u8);
                e.put(theta);
                e.put(eps);
            }
        }
        e.put(&self.cell);
    }

    fn take(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(ExtendedTuple {
            id: d.take()?,
            x: d.take()?,
            y: d.take()?,
            adj: d.take()?,
            psi: take_psi(d)?,
            cell: d.take()?,
        })
    }
}

/// The LDM payload: its tag, and for a full vector the bit width, the
/// entry count and the packed entries.
fn take_psi(d: &mut Decoder<'_>) -> Result<Option<PsiPayload>, DecodeError> {
    Ok(match d.take()? {
        0 => None,
        1 => {
            let bits: u8 = d.take()?;
            if !(1..=31).contains(&bits) {
                return Err(DecodeError::BadTag(bits));
            }
            let c = d.take::<u32>()? as usize;
            if c > 1 << 20 {
                return Err(DecodeError::LengthOverflow(c as u64));
            }
            let raw = d.take_raw((c * bits as usize).div_ceil(8))?;
            let q = unpack_bits(raw, c, bits).ok_or(DecodeError::BadTag(1))?;
            Some(PsiPayload::Full { bits, q })
        }
        2 => Some(PsiPayload::Ref {
            theta: d.take()?,
            eps: d.take()?,
        }),
        t => return Err(DecodeError::BadTag(t)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spnet_graph::gen::grid_network;
    use spnet_graph::landmark::{
        select_landmarks, CompressedVectors, CompressionStrategy, LandmarkStrategy,
        LandmarkVectors, QuantizedVectors,
    };

    fn sample_graph() -> Graph {
        grid_network(6, 6, 1.2, 100)
    }

    #[test]
    fn base_tuple_matches_graph() {
        let g = sample_graph();
        for v in g.nodes() {
            let t = ExtendedTuple::base(&g, v);
            assert_eq!(t.id, v);
            assert_eq!(t.adj.len(), g.degree(v));
            assert_eq!((t.x, t.y), g.coords(v));
            assert!(
                t.adj.windows(2).all(|w| w[0].0 < w[1].0),
                "sorted adjacency"
            );
        }
    }

    #[test]
    fn encode_decode_round_trip_base() {
        let g = sample_graph();
        for v in g.nodes().take(10) {
            let t = ExtendedTuple::base(&g, v);
            let back = ExtendedTuple::from_bytes(&t.to_bytes()).unwrap();
            assert_eq!(back, t);
        }
    }

    #[test]
    fn encode_decode_round_trip_psi_and_cell() {
        let g = sample_graph();
        let lms = select_landmarks(&g, 4, LandmarkStrategy::Farthest, 101);
        let lv = LandmarkVectors::compute(&g, &lms);
        let qv = QuantizedVectors::quantize(&lv, 8);
        let cv = CompressedVectors::build(&g, &qv, 500.0, CompressionStrategy::HilbertSweep);
        let part = GridPartition::build(&g, 3);
        for v in g.nodes() {
            for t in [
                ExtendedTuple::with_psi(&g, v, &cv),
                ExtendedTuple::with_cell(&g, v, &part),
            ] {
                let back = ExtendedTuple::from_bytes(&t.to_bytes()).unwrap();
                assert_eq!(back, t);
            }
        }
    }

    #[test]
    fn digest_changes_with_any_field() {
        let g = sample_graph();
        let t = ExtendedTuple::base(&g, NodeId(5));
        let base = t.digest();
        let mut t2 = t.clone();
        t2.x += 1.0;
        assert_ne!(t2.digest(), base);
        let mut t3 = t.clone();
        t3.adj[0].1 += 0.001; // tamper an edge weight
        assert_ne!(t3.digest(), base);
        let mut t4 = t.clone();
        t4.adj.pop(); // drop an edge
        assert_ne!(t4.digest(), base);
        let mut t5 = t.clone();
        t5.id = NodeId(6);
        assert_ne!(t5.digest(), base);
    }

    #[test]
    fn psi_affects_digest() {
        let g = sample_graph();
        let mut t = ExtendedTuple::base(&g, NodeId(3));
        let d0 = t.digest();
        t.psi = Some(PsiPayload::Full {
            bits: 8,
            q: vec![1, 2, 3],
        });
        let d1 = t.digest();
        t.psi = Some(PsiPayload::Ref {
            theta: NodeId(9),
            eps: 2.0,
        });
        let d2 = t.digest();
        assert_ne!(d0, d1);
        assert_ne!(d1, d2);
    }

    #[test]
    fn cell_affects_digest() {
        let g = sample_graph();
        let mut t = ExtendedTuple::base(&g, NodeId(3));
        let d0 = t.digest();
        t.cell = Some(CellInfo {
            cell: 4,
            is_border: false,
        });
        let d1 = t.digest();
        t.cell = Some(CellInfo {
            cell: 4,
            is_border: true,
        });
        let d2 = t.digest();
        assert_ne!(d0, d1);
        assert_ne!(d1, d2, "is_border must be authenticated");
    }

    #[test]
    fn edge_to_lookup() {
        let g = sample_graph();
        let v = NodeId(7);
        let t = ExtendedTuple::base(&g, v);
        for (u, w) in g.neighbors(v) {
            assert_eq!(t.edge_to(u), Some(w));
        }
        assert_eq!(t.edge_to(v), None);
    }

    #[test]
    fn size_accounting_positive_and_monotone() {
        let g = sample_graph();
        let t = ExtendedTuple::base(&g, NodeId(0));
        let s0 = t.encoded_len();
        assert!(s0 >= 4 + 8 + 8 + 4 + 2);
        let mut t2 = t.clone();
        t2.psi = Some(PsiPayload::Full {
            bits: 12,
            q: vec![0; 16],
        });
        assert!(t2.encoded_len() > s0, "psi payload adds bytes");
        let mut t3 = t.clone();
        t3.psi = Some(PsiPayload::Ref {
            theta: NodeId(1),
            eps: 0.5,
        });
        assert!(
            t3.encoded_len() < t2.encoded_len(),
            "compression shrinks tuples"
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(ExtendedTuple::from_bytes(&[0xFF; 3]).is_err());
        // Padding bits of a packed vector are zero: 3 × 4 bits in 2 bytes.
        assert_eq!(
            unpack_bits(&pack_bits(&[1, 2, 3], 4), 3, 4),
            Some(vec![1, 2, 3])
        );
        assert_eq!(unpack_bits(&[0x21, 0x13], 3, 4), None);
    }
}
