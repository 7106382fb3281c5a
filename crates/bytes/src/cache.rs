//! The one bounded LRU of the workspace.
//!
//! A snapshot-loaded Merkle tree or B-tree serves each block it has
//! not loaded through a [`crate::pager::Pager`]; a [`PageCache`] bounds how many
//! of those faulted pages stay resident: at most `capacity` pages, the
//! least-recently-used one dropped on overflow. Evicted pages are
//! simply re-faulted (and re-validated) on the next touch — correctness
//! never depends on cache contents. The FULL method keeps its hot
//! source rows in the same type.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// How many pages a paged structure keeps resident by default.
///
/// Snapshot pages are a few KiB each (128 digests / 256 entries), so
/// the default bounds a tree at roughly 4 MiB of faulted pages.
pub const DEFAULT_PAGE_CACHE_CAPACITY: usize = 1024;

/// Configuration for a [`PageCache`].
#[derive(Debug, Clone, Default)]
pub struct PageCacheCfg {
    /// Maximum resident pages; `0` means [`DEFAULT_PAGE_CACHE_CAPACITY`].
    pub capacity: usize,
    /// Shared eviction counter, bumped once per evicted page. The store
    /// layer aggregates these across every paged structure of a
    /// snapshot so callers can observe `evict_count` next to
    /// `fault_count`.
    pub evictions: Option<Arc<AtomicU64>>,
}

impl PageCacheCfg {
    /// A cache bounded at `capacity` pages with no eviction counter.
    pub fn with_capacity(capacity: usize) -> Self {
        PageCacheCfg {
            capacity,
            evictions: None,
        }
    }
}

struct Slot<T: ?Sized> {
    value: Arc<T>,
    stamp: u64,
}

struct Inner<T: ?Sized> {
    map: HashMap<u64, Slot<T>>,
    clock: u64,
}

/// A bounded LRU map from page key to resident page.
///
/// Recency is tracked with a monotonic stamp per slot; eviction scans
/// for the minimum stamp. The scan is O(capacity), which is fine here:
/// eviction only happens once the cache is full, and every insertion is
/// preceded by a backing-store fault that dwarfs the scan.
pub struct PageCache<T: ?Sized> {
    capacity: usize,
    evictions: Option<Arc<AtomicU64>>,
    inner: Mutex<Inner<T>>,
}

impl<T: ?Sized> std::fmt::Debug for PageCache<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageCache")
            .field("capacity", &self.capacity)
            .field("resident", &self.len())
            .finish()
    }
}

/// A clone starts empty, with the same capacity and eviction counter:
/// a cache is memoization private to the structure that owns it.
impl<T: ?Sized> Clone for PageCache<T> {
    fn clone(&self) -> Self {
        PageCache::new(PageCacheCfg {
            capacity: self.capacity,
            evictions: self.evictions.clone(),
        })
    }
}

impl<T: ?Sized> PageCache<T> {
    /// Creates a cache from `cfg` (capacity `0` falls back to the
    /// default).
    pub fn new(cfg: PageCacheCfg) -> Self {
        let capacity = if cfg.capacity == 0 {
            DEFAULT_PAGE_CACHE_CAPACITY
        } else {
            cfg.capacity
        };
        PageCache {
            capacity,
            evictions: cfg.evictions,
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                clock: 0,
            }),
        }
    }

    /// Maximum resident pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently resident pages.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("page cache poisoned").map.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `key`, refreshing its recency on a hit.
    pub fn get(&self, key: u64) -> Option<Arc<T>> {
        let mut inner = self.inner.lock().expect("page cache poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        inner.map.get_mut(&key).map(|slot| {
            slot.stamp = clock;
            Arc::clone(&slot.value)
        })
    }

    /// Inserts `value` under `key`, evicting the least-recently-used
    /// page if the cache is full. Returns the resident value: when two
    /// threads race to fault the same page, the first insertion wins
    /// and both observe it (the pages are identical — they came from
    /// the same validated backing store read).
    pub fn insert(&self, key: u64, value: Arc<T>) -> Arc<T> {
        let mut inner = self.inner.lock().expect("page cache poisoned");
        inner.clock += 1;
        let clock = inner.clock;
        if let Some(slot) = inner.map.get_mut(&key) {
            slot.stamp = clock;
            return Arc::clone(&slot.value);
        }
        if inner.map.len() >= self.capacity {
            if let Some(&victim) = inner
                .map
                .iter()
                .min_by_key(|(_, slot)| slot.stamp)
                .map(|(k, _)| k)
            {
                inner.map.remove(&victim);
                if let Some(evictions) = &self.evictions {
                    evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        inner.map.insert(
            key,
            Slot {
                value: Arc::clone(&value),
                stamp: clock,
            },
        );
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counted(capacity: usize) -> (PageCache<u32>, Arc<AtomicU64>) {
        let evictions = Arc::new(AtomicU64::new(0));
        let cache = PageCache::new(PageCacheCfg {
            capacity,
            evictions: Some(Arc::clone(&evictions)),
        });
        (cache, evictions)
    }

    #[test]
    fn bounded_at_capacity() {
        let (cache, evictions) = counted(4);
        for k in 0..10u64 {
            cache.insert(k, Arc::new(k as u32));
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(evictions.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn evicts_least_recently_used() {
        let (cache, _) = counted(2);
        cache.insert(1, Arc::new(1));
        cache.insert(2, Arc::new(2));
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(1).is_some());
        cache.insert(3, Arc::new(3));
        assert!(cache.get(1).is_some());
        assert!(cache.get(2).is_none());
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn racing_insert_keeps_first_value() {
        let (cache, _) = counted(4);
        let a = cache.insert(7, Arc::new(70));
        let b = cache.insert(7, Arc::new(71));
        assert_eq!(*a, 70);
        assert_eq!(*b, 70, "second insert observes the resident page");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn clone_starts_empty_with_same_bound_and_counter() {
        let (cache, evictions) = counted(1);
        cache.insert(1, Arc::new(1));
        let copy = cache.clone();
        assert!(copy.is_empty());
        assert_eq!(copy.capacity(), 1);
        copy.insert(2, Arc::new(2));
        copy.insert(3, Arc::new(3));
        assert_eq!(evictions.load(Ordering::Relaxed), 1);
        assert_eq!(cache.len(), 1, "the original keeps its pages");
    }

    #[test]
    fn zero_capacity_uses_default() {
        let cache: PageCache<u32> = PageCache::new(PageCacheCfg::default());
        assert_eq!(cache.capacity(), DEFAULT_PAGE_CACHE_CAPACITY);
    }
}
