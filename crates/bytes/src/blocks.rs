//! Copy-on-write block arrays: an array of records held as fixed
//! blocks of one snapshot page each, each block resident or not yet
//! loaded.
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
//! 32-byte digests or 256 16-byte B-tree entries. The record count per
//! block is a power of two, so indexing is a shift and a mask.
//!
//! A built array is resident. An array opened over a snapshot section
//! starts with no block loaded, like Merk's `Link`
//! whose child "may not be loaded in memory": a read of such a block
//! goes through the section's [`Pager`] and a bounded [`PageCache`] and
//! leaves the block unloaded; a write loads the block once, then copies
//! it as above.

use crate::cache::PageCache;
use crate::enc::{Encoder, Wire};
use crate::pager::{self, PageError, Pager};
use std::ops::Index;
use std::sync::Arc;

/// Bytes per snapshot page, and per in-memory block.
pub const PAGE_BYTES: usize = 4096;

/// An array of `T` stored as reference-counted blocks of
/// [`Blocks::BLOCK_LEN`] records (the last block may be short).
/// `Clone` bumps one reference count per resident block.
#[derive(Debug, Clone)]
pub struct Blocks<T> {
    /// One slot per block: `None` until a paged block is loaded.
    blocks: Vec<Option<Arc<[T]>>>,
    len: usize,
    /// Where unloaded blocks come from; `None` for a built array.
    pages: Option<Pages<T>>,
}

/// The source of a paged array's unloaded blocks.
#[derive(Debug, Clone)]
struct Pages<T> {
    pager: Arc<dyn Pager>,
    /// Faulted pages, shared by every clone of the array (and, for a
    /// tree, by all its levels).
    cache: Arc<PageCache<[T]>>,
    /// Cache key of page 0; page `p` is cached under `key + p`.
    key: u64,
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

    /// The blocks in order, `None` for one not yet loaded — what tests
    /// compare with [`Arc::ptr_eq`] across epochs.
    pub fn blocks(&self) -> &[Option<Arc<[T]>>] {
        &self.blocks
    }
}

/// Reads and writes: a block that is not resident is a page of `Wire`
/// records, decoded by the one fault routine of [`crate::pager`].
impl<T: Wire + Clone> Blocks<T> {
    /// Applies `f` to block `b`: the resident one, else the page
    /// through the cache. Leaves the block as it was.
    #[inline]
    pub fn with_block<R>(&self, b: usize, f: impl FnOnce(&[T]) -> R) -> Result<R, PageError> {
        match &self.blocks[b] {
            Some(block) => Ok(f(block)),
            None => Ok(f(&self.fault(b)?)),
        }
    }

    /// The page of unloaded block `b`, through the cache.
    fn fault(&self, b: usize) -> Result<Arc<[T]>, PageError> {
        let p = self.pages.as_ref().expect("a built array has every block");
        pager::fault(&p.cache, p.key + b as u64, &*p.pager, self.len, b)
    }

    /// Makes block `b` resident.
    fn load(&mut self, b: usize) -> Result<&mut Arc<[T]>, PageError> {
        if self.blocks[b].is_none() {
            self.blocks[b] = Some(self.fault(b)?);
        }
        Ok(self.blocks[b].as_mut().expect("loaded above"))
    }

    /// Makes every block resident: one page read each for the blocks
    /// not yet loaded.
    pub fn load_all(&mut self) -> Result<(), PageError> {
        (0..self.blocks.len()).try_for_each(|b| self.load(b).map(drop))
    }

    /// Record `i`. A record of an unloaded block is read through the
    /// page cache; the block stays unloaded.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn read(&self, i: usize) -> Result<T, PageError> {
        assert!(i < self.len, "record {i} out of range ({})", self.len);
        self.with_block(i >> Self::SHIFT, |block| block[i & Self::MASK].clone())
    }

    /// Writes each `(index, record)` in order, loading a block that is
    /// not resident and copying one another clone shares
    /// ([`Arc::make_mut`]). Sorted by index, the slots make each block
    /// they touch mutable once; a repeated index keeps its last record.
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn set_sorted(
        &mut self,
        slots: impl IntoIterator<Item = (usize, T)>,
    ) -> Result<(), PageError> {
        let mut slots = slots.into_iter().peekable();
        while let Some(&(first, _)) = slots.peek() {
            assert!(
                first < self.len,
                "record {first} out of range ({})",
                self.len
            );
            let b = first >> Self::SHIFT;
            let block = Arc::make_mut(self.load(b)?);
            while let Some((i, record)) = slots.next_if(|&(i, _)| i >> Self::SHIFT == b) {
                block[i & Self::MASK] = record;
            }
        }
        Ok(())
    }

    /// The records as one vector (unloaded blocks read through the
    /// page cache).
    pub fn to_vec(&self) -> Result<Vec<T>, PageError> {
        (0..self.len).map(|i| self.read(i)).collect()
    }

    /// An array of `len` records over one snapshot section, one block
    /// to a page, with no block loaded. Faulted pages are cached in
    /// `cache` under `key + page`.
    pub fn paged(pager: Arc<dyn Pager>, len: usize, cache: Arc<PageCache<[T]>>, key: u64) -> Self {
        Blocks {
            blocks: vec![None; len.div_ceil(Self::BLOCK_LEN)],
            len,
            pages: Some(Pages { pager, cache, key }),
        }
    }

    /// The records' snapshot bytes, page after page: a resident block
    /// encoded, an unloaded one as its pager's verified bytes.
    pub fn to_bytes(&self) -> Result<Vec<u8>, PageError> {
        let mut e = Encoder::with_capacity(self.len * T::MIN_LEN);
        for (b, block) in self.blocks.iter().enumerate() {
            match (block, &self.pages) {
                (Some(block), _) => block.iter().for_each(|r| e.put(r)),
                (None, Some(p)) => e.put_raw(&pager::page_bytes::<T>(&*p.pager, self.len, b)?),
                (None, None) => unreachable!("a built array has every block"),
            }
        }
        Ok(e.into_bytes())
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
            blocks.push(Some(block));
        }
        Blocks {
            blocks,
            len,
            pages: None,
        }
    }
}

impl<T: Clone> From<&[T]> for Blocks<T> {
    fn from(records: &[T]) -> Self {
        Blocks {
            blocks: records
                .chunks(Self::BLOCK_LEN)
                .map(|c| Some(Arc::from(c)))
                .collect(),
            len: records.len(),
            pages: None,
        }
    }
}

impl<T: Clone> From<Vec<T>> for Blocks<T> {
    fn from(records: Vec<T>) -> Self {
        Self::from(&records[..])
    }
}

/// Indexes resident records: a built array's. A record that may not be
/// loaded is read through the tree that holds it.
impl<T> Index<usize> for Blocks<T> {
    type Output = T;

    #[inline]
    fn index(&self, i: usize) -> &T {
        assert!(i < self.len, "record {i} out of range ({})", self.len);
        let block = self.blocks[i >> Self::SHIFT]
            .as_ref()
            .unwrap_or_else(|| panic!("record {i} is not loaded"));
        &block[i & Self::MASK]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_block_is_one_page() {
        // Digest-sized and B-tree-entry-sized records.
        assert_eq!(Blocks::<[u8; 32]>::BLOCK_LEN, 128);
        assert_eq!(Blocks::<(u64, f64)>::BLOCK_LEN, 256);
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
            assert_eq!(b.to_vec().unwrap(), v);
            for i in [0, n / 2, n.saturating_sub(1)]
                .into_iter()
                .filter(|&i| i < n)
            {
                assert_eq!(b[i], v[i]);
                assert_eq!(b.read(i).unwrap(), v[i]);
            }
        }
    }

    #[test]
    fn clones_share_until_a_write_copies_one_block() {
        let a: Blocks<u64> = (0..2000u64).collect();
        let mut b = a.clone();
        b.set_sorted([(700, 9)]).unwrap();
        assert_eq!((a[700], b[700]), (700, 9));
        let shared = |x: &Blocks<u64>, y: &Blocks<u64>| -> Vec<bool> {
            x.blocks()
                .iter()
                .zip(y.blocks())
                .map(|(x, y)| Arc::ptr_eq(x.as_ref().unwrap(), y.as_ref().unwrap()))
                .collect()
        };
        assert_eq!(shared(&a, &b), [true, false, true, true]);
        // A second write to the now-private block copies nothing.
        let before = Arc::as_ptr(b.blocks()[1].as_ref().unwrap());
        b.set_sorted([(701, 10)]).unwrap();
        assert_eq!(Arc::as_ptr(b.blocks()[1].as_ref().unwrap()), before);
        // Sorted writes across blocks 0 and 3 copy exactly those.
        let mut c = a.clone();
        c.set_sorted([(0, 5), (2, 6), (1536, 7), (1536, 8)])
            .unwrap();
        assert_eq!((c[0], c[1], c[2], c[1536]), (5, 1, 6, 8));
        assert_eq!(shared(&a, &c), [false, true, true, false]);
    }

    #[test]
    fn a_paged_array_loads_only_the_blocks_it_writes() {
        use crate::cache::PageCacheCfg;
        use crate::pager::testing::BytePager;
        use std::sync::atomic::{AtomicU64, Ordering};

        let records: Vec<(u64, f64)> = (0..1000u64).map(|key| (key, 0.5)).collect();
        let built = Blocks::from(&records[..]);
        let pager = Arc::new(BytePager {
            bytes: built.to_bytes().unwrap(),
            page_len: PAGE_BYTES,
            clip: usize::MAX,
            faults: Arc::new(AtomicU64::new(0)),
        });
        let cache = Arc::new(PageCache::new(PageCacheCfg::default()));
        let mut paged = Blocks::paged(Arc::clone(&pager) as Arc<dyn Pager>, 1000, cache, 0);
        assert_eq!(paged.blocks().len(), 4);
        assert!(paged.blocks().iter().all(Option::is_none));
        // Reads fault through the cache and leave every block unloaded.
        assert_eq!(paged.read(600).unwrap(), records[600]);
        assert_eq!(paged.read(601).unwrap(), records[601]);
        assert_eq!(pager.faults.load(Ordering::Relaxed), 1);
        assert!(paged.blocks().iter().all(Option::is_none));
        // A write loads its block (a cache hit here) and only that one.
        let new = (600, 9.0);
        paged.set_sorted([(600, new)]).unwrap();
        let resident: Vec<bool> = paged.blocks().iter().map(Option::is_some).collect();
        assert_eq!(resident, [false, false, true, false]);
        assert_eq!(pager.faults.load(Ordering::Relaxed), 1);
        assert_eq!(paged.read(600).unwrap(), new);
        // Its bytes are the built array's with the one record changed.
        let mut want = records.clone();
        want[600] = new;
        assert_eq!(paged.to_vec().unwrap(), want);
        assert_eq!(
            paged.to_bytes().unwrap(),
            Blocks::from(want).to_bytes().unwrap()
        );
        paged.load_all().unwrap();
        assert!(paged.blocks().iter().all(Option::is_some));
        assert_eq!(paged[600], new);
    }
}
