//! Copy-on-write block arrays: an array of records held as fixed
//! blocks of one snapshot page each.
//!
//! The owner's structures (Merkle levels, B-tree entries, the network's
//! tuple handles) are cloned once per published epoch, and an update
//! writes only a few records of each. A [`Blocks`] clone shares every
//! block by reference count; writing records through
//! [`Blocks::set_sorted`] copies only the blocks that hold them, so two
//! epochs share every block one of them did not write — Merk's
//! "retain what is shared, copy the path to what changed".
//!
//! A block holds one [`PAGE_BYTES`] snapshot page of records: 128
//! digests ([`PAGE_DIGESTS`]) or 256 B-tree entries
//! ([`PAGE_ENTRIES`]). The record count per block is a power of two, so
//! indexing is a shift and a mask.

use crate::digest::DIGEST_LEN;
use std::ops::Index;
use std::sync::Arc;

/// Bytes per snapshot page, and per in-memory block.
pub const PAGE_BYTES: usize = 4096;

/// Digests per snapshot page (tree levels).
pub const PAGE_DIGESTS: usize = PAGE_BYTES / DIGEST_LEN;

/// Merkle B-tree entries per snapshot page (16-byte records).
pub const PAGE_ENTRIES: usize = PAGE_BYTES / 16;

/// An array of `T` stored as reference-counted blocks of
/// [`Blocks::BLOCK_LEN`] records (the last block may be short).
/// `Clone` bumps one reference count per block.
#[derive(Debug)]
pub struct Blocks<T> {
    blocks: Vec<Arc<[T]>>,
    len: usize,
}

impl<T> Clone for Blocks<T> {
    fn clone(&self) -> Self {
        Blocks {
            blocks: self.blocks.clone(),
            len: self.len,
        }
    }
}

impl<T> Blocks<T> {
    /// Records per block: the largest power of two whose records fit
    /// one page.
    pub const BLOCK_LEN: usize = {
        let record = if size_of::<T>() == 0 {
            1
        } else {
            size_of::<T>()
        };
        let fit = PAGE_BYTES / record;
        1 << (usize::BITS - 1 - fit.leading_zeros())
    };
    const SHIFT: u32 = Self::BLOCK_LEN.trailing_zeros();
    const MASK: usize = Self::BLOCK_LEN - 1;

    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Record `i`, if in range.
    #[inline]
    pub fn get(&self, i: usize) -> Option<&T> {
        (i < self.len).then(|| &self.blocks[i >> Self::SHIFT][i & Self::MASK])
    }

    /// The records in order.
    pub fn iter(&self) -> impl Iterator<Item = &T> + '_ {
        self.blocks.iter().flat_map(|b| b.iter())
    }

    /// The blocks in order — what a snapshot writer pages out, and what
    /// tests compare with [`Arc::ptr_eq`] across epochs.
    pub fn blocks(&self) -> &[Arc<[T]>] {
        &self.blocks
    }

    /// The first index whose record fails `pred`, for a `pred` that
    /// holds on a prefix of the records (as `slice::partition_point`).
    pub fn partition_point(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let full = self
            .blocks
            .partition_point(|b| b.last().is_some_and(&mut pred));
        match self.blocks.get(full) {
            Some(b) => (full << Self::SHIFT) + b.partition_point(pred),
            None => self.len,
        }
    }
}

impl<T: Clone> Blocks<T> {
    /// Writes each `(index, record)` in order, copying a block first
    /// ([`Arc::make_mut`]) if another clone shares it. Sorted by index,
    /// the slots make each block they touch mutable once; a repeated
    /// index keeps its last record.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn set_sorted(&mut self, slots: impl IntoIterator<Item = (usize, T)>) {
        let mut slots = slots.into_iter().peekable();
        while let Some(&(first, _)) = slots.peek() {
            assert!(
                first < self.len,
                "record {first} out of range ({})",
                self.len
            );
            let b = first >> Self::SHIFT;
            let block = Arc::make_mut(&mut self.blocks[b]);
            while let Some((i, record)) = slots.next_if(|&(i, _)| i >> Self::SHIFT == b) {
                block[i & Self::MASK] = record;
            }
        }
    }

    /// The records as one vector.
    pub fn to_vec(&self) -> Vec<T> {
        self.iter().cloned().collect()
    }
}

impl<T> FromIterator<T> for Blocks<T> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut iter = iter.into_iter().peekable();
        let mut blocks = Vec::new();
        let mut len = 0;
        while iter.peek().is_some() {
            let block: Arc<[T]> = iter.by_ref().take(Self::BLOCK_LEN).collect();
            len += block.len();
            blocks.push(block);
        }
        Blocks { blocks, len }
    }
}

impl<T: Clone> From<&[T]> for Blocks<T> {
    fn from(records: &[T]) -> Self {
        Blocks {
            blocks: records.chunks(Self::BLOCK_LEN).map(Arc::from).collect(),
            len: records.len(),
        }
    }
}

impl<T: Clone> From<Vec<T>> for Blocks<T> {
    fn from(records: Vec<T>) -> Self {
        Self::from(&records[..])
    }
}

impl<T> Index<usize> for Blocks<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        self.get(i)
            .unwrap_or_else(|| panic!("record {i} out of range ({})", self.len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Digest;
    use crate::mbtree::KeyedEntry;

    #[test]
    fn a_block_is_one_page() {
        assert_eq!(Blocks::<Digest>::BLOCK_LEN, PAGE_DIGESTS);
        assert_eq!(PAGE_DIGESTS, 128);
        assert_eq!(Blocks::<KeyedEntry>::BLOCK_LEN, PAGE_ENTRIES);
        assert_eq!(PAGE_ENTRIES, 256);
        // Pointer-sized records: 512 handles to a page.
        assert_eq!(Blocks::<Arc<u8>>::BLOCK_LEN, 512);
    }

    #[test]
    fn indexing_iteration_and_search_match_a_vec() {
        for n in [0usize, 1, 511, 512, 513, 2000] {
            let v: Vec<u64> = (0..n as u64).map(|i| i * 3).collect();
            let b: Blocks<u64> = v.clone().into();
            assert_eq!(b.len(), n);
            assert_eq!(b.blocks().len(), n.div_ceil(512));
            assert_eq!(b.iter().copied().collect::<Vec<_>>(), v);
            assert_eq!(b.to_vec(), v);
            for i in [0, n / 2, n.saturating_sub(1)] {
                assert_eq!(b.get(i), v.get(i));
            }
            assert_eq!(b.get(n), None);
            for key in [0u64, 1, 3, 1535, 1536, 1537, u64::MAX] {
                assert_eq!(
                    b.partition_point(|&x| x < key),
                    v.partition_point(|&x| x < key),
                    "n={n} key={key}"
                );
            }
        }
    }

    #[test]
    fn clones_share_until_a_write_copies_one_block() {
        let a: Blocks<u64> = (0..2000u64).collect();
        let mut b = a.clone();
        b.set_sorted([(700, 9)]);
        assert_eq!((a[700], b[700]), (700, 9));
        for (i, (x, y)) in a.blocks().iter().zip(b.blocks()).enumerate() {
            assert_eq!(Arc::ptr_eq(x, y), i != 1, "block {i}");
        }
        // A second write to the now-private block copies nothing.
        let before = Arc::as_ptr(&b.blocks()[1]);
        b.set_sorted([(701, 10)]);
        assert_eq!(Arc::as_ptr(&b.blocks()[1]), before);
        // Sorted writes across blocks 0 and 3 copy exactly those.
        let mut c = a.clone();
        c.set_sorted([(0, 5), (2, 6), (1536, 7), (1536, 8)]);
        assert_eq!((c[0], c[1], c[2], c[1536]), (5, 1, 6, 8));
        for (i, (x, y)) in a.blocks().iter().zip(c.blocks()).enumerate() {
            assert_eq!(Arc::ptr_eq(x, y), i == 1 || i == 2, "block {i}");
        }
    }
}
