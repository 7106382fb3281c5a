//! The `NodeStore`: one snapshot file and its page counters.
//!
//! A store opens the snapshot's header and section table and hands out
//! verified section readers: [`NodeStore::blob`] for blob sections and
//! [`NodeStore::paged`] for paged ones. A [`PagedReader`] is the
//! `spnet-bytes` [`Pager`] of its section, so a paged `MerkleTree` or
//! `MerkleBTree` faults its pages straight from the file. Every
//! verified page read counts in [`NodeStore::fault_count`]; the page
//! caches layered over the store count their evictions in
//! [`NodeStore::evict_count`].
//!
//! The [`StoreBackend`] a store was opened with tells loaders what to
//! build: `Mem` verifies the whole file at open and asks for dense,
//! resident structures; `File` asks for paged ones that fault on
//! demand.

use crate::error::StoreError;
use crate::snapshot::{PagedReader, Snapshot};
use spnet_bytes::pager::{PageError, Pager};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How a snapshot is loaded.
///
/// [`StoreBackend::Mem`] is the default: every section is verified at
/// open, and loaders rebuild exactly the dense in-memory structures the
/// owner built, so callers that do not opt into lazy paging get eager
/// corruption detection and unchanged serving behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StoreBackend {
    /// Every section verified at open; loaders build resident
    /// structures and keep no page reader (the default).
    #[default]
    Mem,
    /// Lazy page faults from the snapshot file.
    File,
}

/// An open snapshot file with its fault and eviction counters.
#[derive(Debug)]
pub struct NodeStore {
    snap: Snapshot,
    backend: StoreBackend,
    faults: Arc<AtomicU64>,
    /// Pages dropped by the bounded page caches layered over this
    /// store (the paged `MerkleTree`/`MerkleBTree` structures share
    /// this counter), so resident pages ≤ faults − evictions.
    evictions: Arc<AtomicU64>,
}

impl NodeStore {
    /// Opens `path` for `backend`. On [`StoreBackend::Mem`] every
    /// section is read and verified before this returns (and none of
    /// its bytes kept), so corruption anywhere in the file fails here —
    /// also in sections the dense loaders never read.
    pub fn open(path: &Path, backend: StoreBackend) -> Result<Self, StoreError> {
        let store = NodeStore {
            snap: Snapshot::open(path)?,
            backend,
            faults: Arc::new(AtomicU64::new(0)),
            evictions: Arc::new(AtomicU64::new(0)),
        };
        if backend == StoreBackend::Mem {
            for id in store.snap.section_ids() {
                match store.snap.blob(id) {
                    Ok(_) => {}
                    Err(StoreError::WrongKind { .. }) => {
                        let reader = store.paged(id)?;
                        for page in 0..reader.num_pages() {
                            reader.load_page(page)?;
                        }
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(store)
    }

    /// True when consumers should materialize lazy (paged) structures
    /// instead of dense ones.
    pub fn is_lazy(&self) -> bool {
        self.backend == StoreBackend::File
    }

    /// Reads a blob section (verified).
    pub fn blob(&self, id: u16) -> Result<Vec<u8>, StoreError> {
        self.snap.blob(id)
    }

    /// A verified lazy reader over a paged section; its page reads
    /// count toward [`NodeStore::fault_count`].
    pub fn paged(&self, id: u16) -> Result<PagedReader, StoreError> {
        self.snap.paged(id, Arc::clone(&self.faults))
    }

    /// Reads a paged section's entire payload (verified) — used by
    /// eager loaders that rebuild dense structures.
    pub fn paged_all(&self, id: u16) -> Result<Vec<u8>, StoreError> {
        self.paged(id)?.read_all()
    }

    /// Verified page reads so far, on either backend: a `Mem` store
    /// counts every page it verified at open and every page its dense
    /// loaders read; a `File` store counts the pages its paged
    /// structures fault in.
    pub fn fault_count(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Pages evicted from the bounded page caches layered over this
    /// store so far (always 0 on `Mem`, which builds no paged
    /// structure). `fault_count() - evict_count()` bounds the pages
    /// currently resident in those caches.
    pub fn evict_count(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// The shared eviction counter that loaders hand to the page caches
    /// of the paged structures they open over this store.
    pub fn eviction_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.evictions)
    }
}

impl Pager for PagedReader {
    fn read_page(&self, page: u32) -> Result<Vec<u8>, PageError> {
        self.load_page(page as usize).map_err(|e| match e {
            StoreError::Io(m) => PageError::Io(m),
            other => PageError::Corrupt(other.to_string()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SnapshotWriter;
    use spnet_bytes::blocks::PAGE_BYTES;
    use spnet_bytes::cache::PageCacheCfg;
    use spnet_crypto::digest::{hash_bytes, Digest};
    use spnet_crypto::mbtree::{KeyedEntry, MerkleBTree};
    use spnet_crypto::merkle::MerkleTree;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("spnet-nstore-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Writes a built tree as one paged section per level at `base`.
    fn write_levels(w: &mut SnapshotWriter, base: u16, tree: &MerkleTree) {
        for (l, level) in tree.dense_levels().iter().enumerate() {
            w.paged(base + l as u16, &level.to_bytes().unwrap(), PAGE_BYTES)
                .unwrap();
        }
    }

    /// A paged tree over the level sections at `base`.
    fn open_levels(store: &NodeStore, base: u16, dense: &MerkleTree) -> MerkleTree {
        let pagers = (0..dense.height())
            .map(|l| Arc::new(store.paged(base + l as u16).unwrap()) as Arc<dyn Pager>)
            .collect();
        MerkleTree::open_paged(
            pagers,
            dense.leaf_count(),
            dense.fanout(),
            PageCacheCfg::default(),
        )
        .unwrap()
    }

    #[test]
    fn tree_via_both_backends_matches_dense() {
        let dir = tmpdir("tree");
        let path = dir.join("snapshot.spnet");
        let leaves: Vec<Digest> = (0u64..3000).map(|i| hash_bytes(&i.to_le_bytes())).collect();
        let dense = MerkleTree::build(leaves, 4).unwrap();
        let mut w = SnapshotWriter::create(&path).unwrap();
        write_levels(&mut w, 0x0100, &dense);
        w.finish().unwrap();
        let total_pages: u64 = dense
            .dense_levels()
            .iter()
            .map(|l| l.blocks().len() as u64)
            .sum();

        for backend in [StoreBackend::Mem, StoreBackend::File] {
            let store = NodeStore::open(&path, backend).unwrap();
            assert_eq!(store.is_lazy(), backend == StoreBackend::File);
            // Mem verified every page at open; File read none yet.
            let at_open = store.fault_count();
            let want_at_open = if backend == StoreBackend::Mem {
                total_pages
            } else {
                0
            };
            assert_eq!(at_open, want_at_open, "backend {backend:?}");
            let paged = open_levels(&store, 0x0100, &dense);
            assert_eq!(paged.root(), dense.root());
            let set: std::collections::BTreeSet<usize> = [0usize, 1500, 2999].into_iter().collect();
            assert_eq!(
                paged.prove(set.clone()).unwrap(),
                dense.prove(set).unwrap(),
                "backend {backend:?}"
            );
            // The proof faulted pages, a strict subset of all of them.
            let faulted = store.fault_count() - at_open;
            assert!(faulted > 0 && faulted < total_pages, "faulted {faulted}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn btree_entries_via_entry_pager() {
        let dir = tmpdir("btree");
        let path = dir.join("snapshot.spnet");
        let entries: Vec<KeyedEntry> = (0..5000u64)
            .map(|i| KeyedEntry {
                key: i * 2,
                value: i as f64 * 0.25,
            })
            .collect();
        let dense = MerkleBTree::build(entries.clone(), 8).unwrap();

        let mut w = SnapshotWriter::create(&path).unwrap();
        let entry_bytes = dense.dense_entries().to_bytes().unwrap();
        w.paged(0x0035, &entry_bytes, PAGE_BYTES).unwrap();
        write_levels(&mut w, 0x0300, dense.tree());
        w.finish().unwrap();

        let store = NodeStore::open(&path, StoreBackend::File).unwrap();
        let tree = open_levels(&store, 0x0300, dense.tree());
        let paged = MerkleBTree::open_paged(
            Arc::new(store.paged(0x0035).unwrap()),
            dense.first_keys().to_vec(),
            tree,
            PageCacheCfg::default(),
        )
        .unwrap();
        assert_eq!(paged.root(), dense.root());
        let keys = [0u64, 500, 998, 9998];
        assert_eq!(
            paged.prove_keys(&keys).unwrap(),
            dense.prove_keys(&keys).unwrap()
        );
        assert_eq!(paged.get(500), Some(62.5));
        assert_eq!(paged.get(501), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mem_store_detects_corruption_at_open() {
        let dir = tmpdir("memcorrupt");
        let path = dir.join("snapshot.spnet");
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.paged(5, &vec![7u8; 10_000], 1024).unwrap();
        w.finish().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte in the middle of the page payload (first section
        // starts at the first 4096 boundary; its digest array precedes
        // the pages). The Mem backend verifies everything eagerly, so
        // open itself must fail.
        let pos = 4096 + 10 * 32 + 5000;
        bytes[pos] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            NodeStore::open(&path, StoreBackend::Mem),
            Err(StoreError::ChecksumMismatch(_))
        ));
        // The File backend opens (header/table intact)…
        let store = NodeStore::open(&path, StoreBackend::File).unwrap();
        // …but the faulted page read reports the mismatch.
        assert!(matches!(
            store.paged_all(5),
            Err(StoreError::ChecksumMismatch(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
