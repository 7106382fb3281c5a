//! The backing-store pager trait and the one routine that faults a
//! page into a tree.
//!
//! A persistent snapshot (see the `spnet-store` crate) stores each tree
//! level as fixed-size pages of digests and each Merkle B-tree's entry
//! array as fixed-size pages of keyed entries, one [`Blocks`] block to
//! a page. The tree types stay storage-agnostic: a snapshot-loaded
//! Merkle tree gives each level's blocks one [`Pager`] and a loaded
//! B-tree one for its entry array — the merk `Link` idea (a child that
//! may not be loaded), with the page as the granularity of a fault.
//!
//! A pager serves one section and returns the raw bytes of one page.
//! Implementations must verify page integrity themselves (the snapshot
//! format checks every page against a signed-into-the-root digest
//! array) and return a typed [`PageError`] instead of panicking on
//! corrupt or truncated input. A page holds [`Wire`] records of a
//! fixed [`Wire::MIN_LEN`]; the shape checks and the decode are done
//! once, here.

use crate::blocks::Blocks;
use crate::cache::PageCache;
use crate::enc::{take_array, Wire};
use std::sync::Arc;

/// Errors raised while faulting a page from a backing store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageError {
    /// Underlying I/O failure (message carries the OS error).
    Io(String),
    /// The page bytes did not match their recorded digest, the page
    /// does not exist, or the section layout is inconsistent.
    Corrupt(String),
}

impl std::fmt::Display for PageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageError::Io(e) => write!(f, "page io error: {e}"),
            PageError::Corrupt(m) => write!(f, "corrupt page: {m}"),
        }
    }
}

impl std::error::Error for PageError {}

/// Loads the verified bytes of one page of one section. Every page has
/// the same length except possibly the last, which may be short.
pub trait Pager: Send + Sync + std::fmt::Debug {
    /// Faults in page `page`.
    fn read_page(&self, page: u32) -> Result<Vec<u8>, PageError>;
}

/// The verified bytes of page `page` of a section holding `len`
/// records, one block ([`Blocks::BLOCK_LEN`] records) to a page,
/// checked against the section's shape.
pub(crate) fn page_bytes<T: Wire>(
    pager: &dyn Pager,
    len: usize,
    page: usize,
) -> Result<Vec<u8>, PageError> {
    let per_page = Blocks::<T>::BLOCK_LEN;
    if page >= len.div_ceil(per_page) {
        return Err(PageError::Corrupt(format!(
            "page {page} outside the tree shape ({len} records)"
        )));
    }
    let bytes = pager.read_page(page as u32)?;
    if !bytes.len().is_multiple_of(T::MIN_LEN) {
        return Err(PageError::Corrupt(format!(
            "page {page} holds {} bytes (not a multiple of {})",
            bytes.len(),
            T::MIN_LEN
        )));
    }
    let expected = (len - page * per_page).min(per_page);
    if bytes.len() / T::MIN_LEN != expected {
        return Err(PageError::Corrupt(format!(
            "page {page}: expected {expected} records, got {}",
            bytes.len() / T::MIN_LEN
        )));
    }
    Ok(bytes)
}

/// Resolves page `page` of a section holding `len` records: from
/// `cache` under `key` if resident, else read through [`page_bytes`],
/// decoded and inserted.
pub(crate) fn fault<T: Wire>(
    cache: &PageCache<[T]>,
    key: u64,
    pager: &dyn Pager,
    len: usize,
    page: usize,
) -> Result<Arc<[T]>, PageError> {
    if let Some(run) = cache.get(key) {
        return Ok(run);
    }
    let bytes = page_bytes::<T>(pager, len, page)?;
    let run = take_array::<T>(&bytes)
        .map_err(|e| PageError::Corrupt(format!("page {page}: {e}")))?
        .into();
    // A concurrent fault may have won the race; either value is the
    // same verified page, so keep whichever landed first.
    Ok(cache.insert(key, run))
}

/// A test pager over one section's bytes.
#[cfg(test)]
pub(crate) mod testing {
    use super::{PageError, Pager};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Serves `bytes` in pages of `page_len` bytes, cut to at most
    /// `clip` bytes each, and counts every page it serves in `faults`.
    #[derive(Debug)]
    pub(crate) struct BytePager {
        pub bytes: Vec<u8>,
        pub page_len: usize,
        pub clip: usize,
        pub faults: Arc<AtomicU64>,
    }

    impl Pager for BytePager {
        fn read_page(&self, page: u32) -> Result<Vec<u8>, PageError> {
            let start = page as usize * self.page_len;
            if start >= self.bytes.len() {
                return Err(PageError::Corrupt(format!("page {page} out of range")));
            }
            self.faults.fetch_add(1, Ordering::Relaxed);
            let end = (start + self.page_len.min(self.clip)).min(self.bytes.len());
            Ok(self.bytes[start..end].to_vec())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_error_display() {
        assert!(PageError::Io("gone".into()).to_string().contains("gone"));
        assert!(PageError::Corrupt("bad digest".into())
            .to_string()
            .contains("bad digest"));
    }
}
