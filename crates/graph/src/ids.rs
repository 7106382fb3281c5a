//! Strongly-typed node identifiers.

use std::fmt;

/// Identifier of a graph node; also its index into the node arrays.
///
/// 32 bits is enough for every network in the paper (≤ 175,813 nodes)
/// and keeps extended-tuple encodings compact.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u32);

spnet_bytes::wire_struct!(NodeId { 0: u32 });

impl NodeId {
    /// The identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_and_from() {
        let n = NodeId::from(7u32);
        assert_eq!(n.index(), 7);
        assert_eq!(n, NodeId(7));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(NodeId(16).to_string(), "v16");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(NodeId(2) < NodeId(10));
    }

    /// `NodeId`'s row of the fixed-record contract (the others are in
    /// `spnet-crypto`'s `mbtree` tests): every id encodes to `MIN_LEN`
    /// bytes and back.
    #[test]
    fn encodes_at_min_len() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use spnet_bytes::enc::Wire;
        let mut rng = StdRng::seed_from_u64(0x1D5);
        let seeded = (0..64).map(|_| rng.next_u32());
        for v in [0, 1, 0x8000_0000, u32::MAX].into_iter().chain(seeded) {
            let id = NodeId(v);
            assert_eq!(id.encoded_len(), NodeId::MIN_LEN);
            assert_eq!(NodeId::from_bytes(&id.to_bytes()), Ok(id));
        }
    }
}
