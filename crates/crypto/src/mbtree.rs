//! Keyed Merkle B-tree over sorted `(key, value)` tuples.
//!
//! The FULL method stores all-pairs shortest distances as tuples
//! `⟨vᵢ.id, vⱼ.id, dist(vᵢ,vⱼ)⟩` in a Merkle B-tree keyed by the
//! composite `(vᵢ.id, vⱼ.id)` (Section IV-B); the HYP method uses the
//! same structure for hyper-edge weights (Section V-B).
//!
//! Realisation: entries sorted by key form the leaf level of a
//! [`MerkleTree`] with the requested fanout. Entry digests bind key and
//! value together, so a lookup proof authenticates both; membership of
//! *sets* of keys reuses the multi-leaf Merkle proof machinery. The
//! entries are one [`Blocks`] array, resident or served page by page
//! from a snapshot, and updatable either way.

use crate::digest::{hash_bytes, Digest};
use crate::merkle::{MerkleError, MerkleProof, MerkleTree};
use spnet_bytes::blocks::Blocks;
use spnet_bytes::cache::{PageCache, PageCacheCfg};
use spnet_bytes::enc::{DecodeError, Decoder, Encoder, Wire};
use spnet_bytes::pager::{PageError, Pager};
use spnet_bytes::wire_struct;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A `(composite key, f64 value)` tuple as materialized by the owner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KeyedEntry {
    /// Composite key, e.g. `(vᵢ.id << 32) | vⱼ.id`.
    pub key: u64,
    /// Materialized value (a shortest-path distance).
    pub value: f64,
}

wire_struct!(KeyedEntry {
    key: u64,
    value: f64
});

/// Entries per snapshot page (one [`Blocks`] block).
pub const PAGE_ENTRIES: usize = Blocks::<KeyedEntry>::BLOCK_LEN;

impl KeyedEntry {
    /// Digest binding key and value: the hash of the entry's 16-byte
    /// encoding, assembled on the stack (FULL hashes |V|² of these at
    /// publish and on every row repair). A test pins it to `to_bytes`.
    pub fn digest(&self) -> Digest {
        let mut pre = [0u8; 16];
        pre[..8].copy_from_slice(&self.key.to_le_bytes());
        pre[8..].copy_from_slice(&self.value.to_le_bytes());
        hash_bytes(&pre)
    }
}

/// Composes a pair of 32-bit node identifiers into one ordered key.
pub fn composite_key(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

/// Splits a composite key back into its halves.
pub fn split_key(key: u64) -> (u32, u32) {
    ((key >> 32) as u32, key as u32)
}

/// Errors from Merkle B-tree operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MbTreeError {
    /// The tree contains no entries.
    Empty,
    /// Keys passed to `build` were not strictly increasing.
    UnsortedKeys,
    /// A looked-up key does not exist (the owner materializes all pairs,
    /// so this indicates a provider bug or attack).
    KeyNotFound(u64),
    /// A range proof reconstructed a root that differs from the trusted
    /// one.
    RootMismatch,
    /// A range proof's leaf run does not bracket the queried interval,
    /// so completeness is unproven (the message names the failed
    /// boundary).
    RangeIncomplete(&'static str),
    /// Underlying Merkle failure.
    Merkle(MerkleError),
}

impl std::fmt::Display for MbTreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MbTreeError::Empty => write!(f, "merkle b-tree has no entries"),
            MbTreeError::UnsortedKeys => {
                write!(f, "entries must be sorted by strictly increasing key")
            }
            MbTreeError::KeyNotFound(k) => write!(f, "key {k:#x} not found"),
            MbTreeError::RootMismatch => {
                write!(f, "range proof root does not match the trusted root")
            }
            MbTreeError::RangeIncomplete(which) => {
                write!(f, "range proof does not certify completeness: {which}")
            }
            MbTreeError::Merkle(e) => write!(f, "merkle error: {e}"),
        }
    }
}

impl std::error::Error for MbTreeError {}

impl From<MerkleError> for MbTreeError {
    fn from(e: MerkleError) -> Self {
        MbTreeError::Merkle(e)
    }
}

impl From<PageError> for MbTreeError {
    fn from(e: PageError) -> Self {
        MbTreeError::Merkle(e.into())
    }
}

/// A membership proof for a set of keyed entries.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyedProof {
    /// The proven entries, in key order (the client checks the keys
    /// match what it asked for).
    pub entries: Vec<KeyedEntry>,
    /// Leaf positions of the entries, parallel to `entries`.
    pub positions: Vec<u32>,
    /// Merkle cover digests.
    pub merkle: MerkleProof,
}

/// One count for the parallel `entries` and `positions`, the entries,
/// the positions, then the cover.
impl Wire for KeyedProof {
    const MIN_LEN: usize = 4 + MerkleProof::MIN_LEN;

    #[inline]
    fn put(&self, e: &mut Encoder) {
        e.put(&(self.entries.len() as u32));
        self.entries.iter().for_each(|x| e.put(x));
        self.positions.iter().for_each(|x| e.put(x));
        e.put(&self.merkle);
    }

    #[inline]
    fn take(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        let n = d.take_len(KeyedEntry::MIN_LEN + u32::MIN_LEN)?;
        Ok(KeyedProof {
            entries: d.take_n(n)?,
            positions: d.take_n(n)?,
            merkle: d.take()?,
        })
    }
}

impl KeyedProof {
    /// Number of digest items in the proof.
    pub fn num_items(&self) -> usize {
        self.merkle.num_items()
    }

    /// Reconstructs the root from the carried entries.
    pub fn reconstruct_root(&self) -> Result<Digest, MbTreeError> {
        let pairs: Vec<(usize, Digest)> = self
            .entries
            .iter()
            .zip(&self.positions)
            .map(|(e, &p)| (p as usize, e.digest()))
            .collect();
        Ok(self.merkle.reconstruct_root(&pairs)?)
    }

    /// Finds the proven value for `key`, if present.
    pub fn value_for(&self, key: u64) -> Option<f64> {
        self.entries
            .binary_search_by_key(&key, |e| e.key)
            .ok()
            .map(|i| self.entries[i].value)
    }
}

/// A completeness proof for a key interval `[lo, hi]`, grovedb-style.
///
/// Carries the *contiguous* leaf run covering every entry whose key
/// falls in the interval, extended by one boundary entry on each side
/// (the predecessor of `lo` and the successor of `hi`, when they
/// exist). Verification reconstructs the signed root from the run and
/// then checks the brackets: if the run does not start at leaf 0, its
/// first key must be `< lo`, and if it does not end at the last leaf,
/// its last key must be `> hi`. Together with the strict key ordering
/// enforced at build time this proves **no entry in `[lo, hi]` was
/// omitted** — including the empty-interval case, which doubles as a
/// non-membership proof.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyRangeProof {
    /// The contiguous leaf run, in key order.
    pub entries: Vec<KeyedEntry>,
    /// Global leaf position of `entries[0]`.
    pub first: u32,
    /// Merkle cover digests for the run.
    pub merkle: MerkleProof,
}

wire_struct!(KeyRangeProof { entries: Vec<KeyedEntry>, first: u32, merkle: MerkleProof });

impl KeyRangeProof {
    /// Number of digest items in the Merkle part.
    pub fn num_items(&self) -> usize {
        self.merkle.num_items()
    }

    /// Total leaf count of the proven tree. The caller must check this
    /// against the signed metadata's leaf count — the proof itself only
    /// binds the run to `root`.
    pub fn leaf_count(&self) -> usize {
        self.merkle.leaf_count as usize
    }

    /// Verifies the run against `root` and the interval brackets, and
    /// returns exactly the entries with key in `[lo, hi]` (possibly
    /// empty — a proven non-membership).
    pub fn verify(&self, root: Digest, lo: u64, hi: u64) -> Result<Vec<KeyedEntry>, MbTreeError> {
        if lo > hi {
            return Err(MbTreeError::RangeIncomplete("interval is empty (lo > hi)"));
        }
        if self.entries.is_empty() {
            return Err(MbTreeError::Empty);
        }
        if self.entries.windows(2).any(|w| w[0].key >= w[1].key) {
            return Err(MbTreeError::UnsortedKeys);
        }
        let pairs: Vec<(usize, Digest)> = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (self.first as usize + i, e.digest()))
            .collect();
        if self.merkle.reconstruct_root(&pairs)? != root {
            return Err(MbTreeError::RootMismatch);
        }
        let first = self.first as usize;
        let last = first + self.entries.len() - 1;
        if first > 0 && self.entries[0].key >= lo {
            return Err(MbTreeError::RangeIncomplete(
                "left boundary: run does not start at leaf 0 and its first key is not below lo",
            ));
        }
        if last + 1 < self.leaf_count() && self.entries[self.entries.len() - 1].key <= hi {
            return Err(MbTreeError::RangeIncomplete(
                "right boundary: run does not end at the last leaf and its last key is not above hi",
            ));
        }
        Ok(self
            .entries
            .iter()
            .filter(|e| (lo..=hi).contains(&e.key))
            .copied()
            .collect())
    }
}

/// The Merkle B-tree: sorted entries + Merkle tree over entry digests.
///
/// The entry array is one [`Blocks`] array, resident when built and
/// served page by page when opened over a snapshot; either kind takes
/// updates. The first key of each block stays resident, so a lookup
/// binary-searches it first and touches exactly one block.
#[derive(Debug, Clone)]
pub struct MerkleBTree {
    entries: Blocks<KeyedEntry>,
    /// Key of the first entry of each block (= snapshot page).
    first_keys: Arc<[u64]>,
    tree: MerkleTree,
}

impl MerkleBTree {
    /// Builds the tree over entries sorted by strictly increasing key.
    pub fn build(entries: Vec<KeyedEntry>, fanout: usize) -> Result<Self, MbTreeError> {
        if entries.is_empty() {
            return Err(MbTreeError::Empty);
        }
        if entries.windows(2).any(|w| w[0].key >= w[1].key) {
            return Err(MbTreeError::UnsortedKeys);
        }
        let leaves: Vec<Digest> = entries.iter().map(KeyedEntry::digest).collect();
        let tree = MerkleTree::build(leaves, fanout)?;
        let first_keys = entries.chunks(PAGE_ENTRIES).map(|c| c[0].key).collect();
        Ok(MerkleBTree {
            entries: entries.into(),
            first_keys,
            tree,
        })
    }

    /// Opens a tree whose entry array lives in a paged backing store
    /// (one block to a page), one entry per leaf of `tree`, with the
    /// entry-page cache `cache_cfg`. `first_keys[p]` must be the key of
    /// the first entry of page `p` (saved by the snapshot writer —
    /// deriving it here would fault every page and defeat laziness).
    /// `tree` is typically a [`MerkleTree::open_paged`] tree over the
    /// entry digests.
    pub fn open_paged(
        pager: Arc<dyn Pager>,
        first_keys: Vec<u64>,
        tree: MerkleTree,
        cache_cfg: PageCacheCfg,
    ) -> Result<Self, MbTreeError> {
        let len = tree.leaf_count();
        if first_keys.len() != len.div_ceil(PAGE_ENTRIES) {
            return Err(MbTreeError::Merkle(MerkleError::Page(format!(
                "bad page geometry: {len} entries, {} first keys",
                first_keys.len()
            ))));
        }
        if first_keys.windows(2).any(|w| w[0] >= w[1]) {
            return Err(MbTreeError::UnsortedKeys);
        }
        let cache = Arc::new(PageCache::new(cache_cfg));
        Ok(MerkleBTree {
            entries: Blocks::paged(pager, len, cache, 0),
            first_keys: first_keys.into(),
            tree,
        })
    }

    /// The signed root.
    pub fn root(&self) -> Digest {
        self.tree.root()
    }

    /// Number of materialized entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the tree holds no entries (unreachable post-`build`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tree height (for the O(f·log_f |V|) proof-size analysis).
    pub fn height(&self) -> usize {
        self.tree.height()
    }

    /// The underlying digest tree (its fanout and levels are what the
    /// snapshot writer persists).
    pub fn tree(&self) -> &MerkleTree {
        &self.tree
    }

    /// The entry array. Snapshot writers page it out
    /// ([`Blocks::to_bytes`]).
    pub fn dense_entries(&self) -> &Blocks<KeyedEntry> {
        &self.entries
    }

    /// The key of the first entry of each page, in page order.
    pub fn first_keys(&self) -> &[u64] {
        &self.first_keys
    }

    /// Makes every entry block resident: one verified read per page
    /// not yet loaded, with no hashing — for a caller about to read
    /// every entry, and more than once.
    pub fn load_entries(&mut self) -> Result<(), MbTreeError> {
        Ok(self.entries.load_all()?)
    }

    /// Replaces the value stored under an existing `key` and patches
    /// the Merkle path of its leaf in place (O(f · log_f n)); see
    /// [`MerkleBTree::update_values`].
    pub fn update_value(&mut self, key: u64, value: f64) -> Result<(), MbTreeError> {
        self.update_values(&[KeyedEntry { key, value }])
    }

    /// Replaces the values stored under existing keys and patches their
    /// Merkle paths in one batched repair
    /// ([`MerkleTree::update_leaves`]), loading and copying only the
    /// entry blocks and digest blocks it writes. A missing key changes
    /// nothing.
    pub fn update_values(&mut self, updates: &[KeyedEntry]) -> Result<(), MbTreeError> {
        let mut slots = updates
            .iter()
            .map(|e| Ok((self.locate(e.key)?.0, *e)))
            .collect::<Result<Vec<_>, MbTreeError>>()?;
        slots.sort_by_key(|&(pos, _)| pos);
        let leaves: Vec<(usize, Digest)> =
            slots.iter().map(|&(pos, e)| (pos, e.digest())).collect();
        self.entries.set_sorted(slots)?;
        Ok(self.tree.update_leaves(&leaves)?)
    }

    /// Locates `key`, faulting at most one page: returns the global
    /// position and the entry.
    fn locate(&self, key: u64) -> Result<(usize, KeyedEntry), MbTreeError> {
        // The last page whose first key is ≤ key holds the only
        // possible slot.
        let page = match self.first_keys.partition_point(|&k| k <= key) {
            0 => return Err(MbTreeError::KeyNotFound(key)),
            p => p - 1,
        };
        let (idx, entry) = self.entries.with_block(page, |run| {
            let idx = run.partition_point(|e| e.key < key);
            (idx, run.get(idx).copied())
        })?;
        match entry {
            Some(e) if e.key == key => Ok((page * PAGE_ENTRIES + idx, e)),
            _ => Err(MbTreeError::KeyNotFound(key)),
        }
    }

    /// Looks up a single key. A backing-store fault failure also
    /// reports as `None`; use [`MerkleBTree::prove_keys`]
    /// when the distinction matters.
    pub fn get(&self, key: u64) -> Option<f64> {
        self.locate(key).ok().map(|(_, e)| e.value)
    }

    /// Builds a membership proof for a set of keys. Of unloaded blocks
    /// this faults only the entry pages and digest pages the proof
    /// touches.
    pub fn prove_keys(&self, keys: &[u64]) -> Result<KeyedProof, MbTreeError> {
        let mut found: BTreeMap<usize, KeyedEntry> = BTreeMap::new();
        for &k in keys {
            let (pos, entry) = self.locate(k)?;
            found.insert(pos, entry);
        }
        let merkle = self.tree.prove(found.keys().copied().collect())?;
        Ok(KeyedProof {
            entries: found.values().copied().collect(),
            positions: found.keys().map(|&i| i as u32).collect(),
            merkle,
        })
    }

    /// First global position whose key fails `pred`, a predicate that
    /// holds on a prefix of the keys: the first keys pick the page, one
    /// block search the slot.
    fn partition_point(&self, pred: impl Fn(u64) -> bool) -> Result<usize, MbTreeError> {
        let page = match self.first_keys.partition_point(|&k| pred(k)) {
            0 => return Ok(0),
            p => p - 1,
        };
        let offset = self
            .entries
            .with_block(page, |run| run.partition_point(|e| pred(e.key)))?;
        Ok(page * PAGE_ENTRIES + offset)
    }

    /// Builds a completeness proof for the key interval `[lo, hi]`: the
    /// contiguous leaf run holding every in-interval entry plus its
    /// bracketing neighbours. Of unloaded blocks this faults only the
    /// run pages, the page each bound's search touches, and the digest
    /// pages of the Merkle cover.
    pub fn prove_key_range(&self, lo: u64, hi: u64) -> Result<KeyRangeProof, MbTreeError> {
        if lo > hi {
            return Err(MbTreeError::RangeIncomplete("interval is empty (lo > hi)"));
        }
        let len = self.len();
        let lo_idx = self.partition_point(|k| k < lo)?;
        let hi_idx = self.partition_point(|k| k <= hi)?;
        let start = lo_idx.saturating_sub(1);
        let end = (hi_idx + 1).min(len); // exclusive
        let entries = (start..end)
            .map(|i| self.entries.read(i))
            .collect::<Result<_, _>>()?;
        let merkle = self.tree.prove((start..end).collect())?;
        Ok(KeyRangeProof {
            entries,
            first: start as u32,
            merkle,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entries(n: u32) -> Vec<KeyedEntry> {
        (0..n)
            .map(|i| KeyedEntry {
                key: (i as u64) * 3,
                value: i as f64 * 0.5,
            })
            .collect()
    }

    #[test]
    fn composite_key_round_trip() {
        for (a, b) in [(0u32, 0u32), (1, 2), (u32::MAX, 7), (42, u32::MAX)] {
            assert_eq!(split_key(composite_key(a, b)), (a, b));
        }
    }

    #[test]
    fn composite_key_ordering_groups_by_source() {
        // All keys with source a sort before any key with source a+1.
        assert!(composite_key(1, u32::MAX) < composite_key(2, 0));
    }

    #[test]
    fn build_and_lookup() {
        let t = MerkleBTree::build(sample_entries(100), 4).unwrap();
        assert_eq!(t.len(), 100);
        assert_eq!(t.get(6), Some(1.0));
        assert_eq!(t.get(7), None);
    }

    #[test]
    fn empty_rejected() {
        assert!(matches!(
            MerkleBTree::build(vec![], 4),
            Err(MbTreeError::Empty)
        ));
    }

    #[test]
    fn unsorted_rejected() {
        let mut es = sample_entries(10);
        es.swap(2, 3);
        assert!(matches!(
            MerkleBTree::build(es, 4),
            Err(MbTreeError::UnsortedKeys)
        ));
    }

    #[test]
    fn duplicate_keys_rejected() {
        let mut es = sample_entries(5);
        es[1].key = es[0].key;
        assert!(matches!(
            MerkleBTree::build(es, 4),
            Err(MbTreeError::UnsortedKeys)
        ));
    }

    #[test]
    fn single_key_proof_verifies() {
        let t = MerkleBTree::build(sample_entries(64), 4).unwrap();
        let p = t.prove_keys(&[30]).unwrap();
        assert_eq!(p.reconstruct_root().unwrap(), t.root());
        assert_eq!(p.value_for(30), Some(5.0));
    }

    #[test]
    fn multi_key_proof_verifies() {
        let t = MerkleBTree::build(sample_entries(200), 8).unwrap();
        let keys = [0u64, 3, 297, 300, 597];
        let p = t.prove_keys(&keys).unwrap();
        assert_eq!(p.reconstruct_root().unwrap(), t.root());
        for &k in &keys {
            assert!(p.value_for(k).is_some(), "key {k}");
        }
    }

    #[test]
    fn missing_key_errors() {
        let t = MerkleBTree::build(sample_entries(10), 4).unwrap();
        assert!(matches!(
            t.prove_keys(&[1]),
            Err(MbTreeError::KeyNotFound(1))
        ));
    }

    #[test]
    fn tampered_value_changes_root() {
        let t = MerkleBTree::build(sample_entries(64), 4).unwrap();
        let mut p = t.prove_keys(&[30]).unwrap();
        p.entries[0].value = 999.0; // provider lies about the distance
        assert_ne!(p.reconstruct_root().unwrap(), t.root());
    }

    #[test]
    fn swapped_key_changes_root() {
        // Provider substitutes the tuple of a different pair.
        let t = MerkleBTree::build(sample_entries(64), 4).unwrap();
        let mut p = t.prove_keys(&[30]).unwrap();
        p.entries[0].key = 33;
        assert_ne!(p.reconstruct_root().unwrap(), t.root());
    }

    #[test]
    fn proof_height_is_logarithmic() {
        let t = MerkleBTree::build(sample_entries(10_000), 16).unwrap();
        // ceil(log16(10000)) + 1 = 5 levels
        assert!(t.height() <= 5, "height {}", t.height());
        let p = t.prove_keys(&[0]).unwrap();
        // O(f · log_f n) digest items.
        assert!(p.num_items() <= 16 * 5, "{} items", p.num_items());
    }

    #[test]
    fn entry_digest_binds_key_and_value() {
        let e1 = KeyedEntry { key: 1, value: 2.0 };
        let e2 = KeyedEntry { key: 1, value: 3.0 };
        let e3 = KeyedEntry { key: 2, value: 2.0 };
        assert_ne!(e1.digest(), e2.digest());
        assert_ne!(e1.digest(), e3.digest());
    }

    /// The fixed-record contract pages and unprefixed arrays rely on:
    /// every value of a paged record type encodes to exactly `MIN_LEN`
    /// bytes and decodes back bit for bit, NaN payloads and −0.0
    /// included; and the entry digest's stack pre-image is the entry's
    /// encoding. (`NodeId`'s row is in `spnet-graph`'s `ids` tests.)
    #[test]
    fn fixed_records_encode_at_min_len() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn check<T: Wire + std::fmt::Debug>(v: &T, bits: impl Fn(&T) -> Vec<u8>) {
            assert_eq!(v.encoded_len(), T::MIN_LEN, "{v:?}");
            let back = T::from_bytes(&v.to_bytes()).unwrap();
            assert_eq!(bits(&back), bits(v), "{v:?}");
        }
        let mut rng = StdRng::seed_from_u64(0xF1CED);
        let mut floats = vec![
            f64::NAN,
            -f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::MIN_POSITIVE,
        ];
        floats.extend((0..64).map(|_| f64::from_bits(rng.next_u64())));
        floats.push(f64::from_bits(0x7FF0_0000_0000_0001)); // signalling NaN
        for (i, &value) in floats.iter().enumerate() {
            let key = rng.next_u64();
            let e = KeyedEntry { key, value };
            check(&e, |e| e.to_bytes());
            assert_eq!(e.digest(), hash_bytes(&e.to_bytes()), "{e:?}");
            check(&hash_bytes(&key.to_le_bytes()), |d| d.0.to_vec());
            check(&key, |k| k.to_le_bytes().to_vec());
            check(&value, |v| v.to_bits().to_le_bytes().to_vec());
            assert_eq!(
                f64::from_bytes(&value.to_bytes()).unwrap().to_bits(),
                value.to_bits(),
                "{i}"
            );
        }
        for e in sample_entries(20) {
            assert_eq!(KeyedEntry::from_bytes(&e.to_bytes()), Ok(e));
        }
    }

    use crate::testing::BytePager;
    use spnet_bytes::blocks::PAGE_BYTES;
    use std::collections::BTreeSet;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A paged tree over `dense`'s entries, served one block to a
    /// page, with the page cache `cfg`. Reuses the dense digest tree:
    /// proof bytes must be identical regardless of where entries
    /// physically live.
    fn paged_from_dense(dense: &MerkleBTree, cfg: PageCacheCfg) -> (MerkleBTree, Arc<BytePager>) {
        let pager = Arc::new(BytePager {
            bytes: dense.dense_entries().to_bytes().unwrap(),
            page_len: PAGE_BYTES,
            clip: usize::MAX,
            faults: Arc::new(AtomicU64::new(0)),
        });
        let paged = MerkleBTree::open_paged(
            Arc::clone(&pager) as Arc<dyn Pager>,
            dense.first_keys().to_vec(),
            dense.tree().clone(),
            cfg,
        )
        .unwrap();
        (paged, pager)
    }

    fn paged(dense: &MerkleBTree) -> (MerkleBTree, Arc<BytePager>) {
        paged_from_dense(dense, PageCacheCfg::default())
    }

    #[test]
    fn paged_btree_matches_dense() {
        // Keys 0, 3, ..., 14,997 over 20 entry pages.
        let dense = MerkleBTree::build(sample_entries(5000), 8).unwrap();
        let (paged, pager) = paged(&dense);
        assert_eq!(paged.root(), dense.root());
        assert_eq!(paged.len(), dense.len());
        assert_eq!(paged.get(6), dense.get(6));
        assert_eq!(paged.get(7), None);
        assert_eq!(paged.get(597), dense.get(597));
        let keys = [0u64, 3, 297, 300, 597, 768, 14_997];
        let a = dense.prove_keys(&keys).unwrap();
        let b = paged.prove_keys(&keys).unwrap();
        assert_eq!(a, b);
        assert_eq!(b.reconstruct_root().unwrap(), dense.root());
        // Lookups touched a strict subset of the 20 entry pages.
        let faults = pager.faults.load(Ordering::Relaxed);
        assert!(faults < 20, "faulted {faults} entry pages");
        assert!(matches!(
            paged.prove_keys(&[1]),
            Err(MbTreeError::KeyNotFound(1))
        ));
    }

    #[test]
    fn paged_btree_rejects_bad_geometry() {
        // 600 entries: three pages.
        let dense = MerkleBTree::build(sample_entries(600), 4).unwrap();
        let (_, pager) = paged(&dense);
        let open = |first_keys: Vec<u64>| {
            MerkleBTree::open_paged(
                Arc::clone(&pager) as Arc<dyn Pager>,
                first_keys,
                dense.tree().clone(),
                PageCacheCfg::default(),
            )
            .unwrap_err()
        };
        // Wrong first-key count for the geometry.
        let err = open(vec![0]);
        assert!(matches!(err, MbTreeError::Merkle(MerkleError::Page(_))));
        // Unsorted sparse index.
        assert!(matches!(open(vec![9, 3, 50]), MbTreeError::UnsortedKeys));
    }

    #[test]
    fn key_range_proof_round_trip() {
        // Keys 0, 3, 6, ..., 297.
        let t = MerkleBTree::build(sample_entries(100), 4).unwrap();
        for (lo, hi, expected) in [
            (0u64, 297u64, 100usize), // whole keyspace
            (0, u64::MAX, 100),
            (3, 9, 3),     // interior, exact hits
            (4, 8, 1),     // interior, off-key bounds (only key 6)
            (7, 8, 0),     // proven-empty interval
            (298, 500, 0), // past the last key
            (150, 150, 1),
        ] {
            let p = t.prove_key_range(lo, hi).unwrap();
            let got = p.verify(t.root(), lo, hi).unwrap();
            assert_eq!(got.len(), expected, "[{lo}, {hi}]");
            assert!(got.iter().all(|e| (lo..=hi).contains(&e.key)));
            assert_eq!(p.leaf_count(), 100);
        }
    }

    #[test]
    fn key_range_proof_detects_omission() {
        let t = MerkleBTree::build(sample_entries(100), 4).unwrap();
        let p = t.prove_key_range(30, 60).unwrap();
        // Dropping an interior entry breaks the contiguous run → the
        // reconstructed root can no longer match.
        let mut tampered = p.clone();
        tampered.entries.remove(tampered.entries.len() / 2);
        assert!(tampered.verify(t.root(), 30, 60).is_err());
        // Truncating the run's tail hides the right bracket.
        let mut truncated = p.clone();
        truncated.entries.pop();
        let err = truncated.verify(t.root(), 30, 60).unwrap_err();
        assert!(
            matches!(
                err,
                MbTreeError::RootMismatch
                    | MbTreeError::RangeIncomplete(_)
                    | MbTreeError::Merkle(_)
            ),
            "{err:?}"
        );
        // Shifting the run start misaligns every leaf position.
        let mut shifted = p;
        shifted.first += 1;
        assert!(shifted.verify(t.root(), 30, 60).is_err());
    }

    #[test]
    fn key_range_proof_requires_brackets() {
        let t = MerkleBTree::build(sample_entries(100), 4).unwrap();
        // A run of genuine entries that simply stops early: positions
        // and digests are honest, but the last key is ≤ hi while leaves
        // remain to the right — the right-bracket check must fire.
        let entries: Vec<KeyedEntry> = (10..=20).map(|i| t.entries.read(i).unwrap()).collect();
        let merkle = t.tree().prove((10..=20).collect()).unwrap();
        let honest_but_short = KeyRangeProof {
            entries,
            first: 10,
            merkle,
        };
        // Keys at positions 10..=20 are 30..=60; query [30, 100].
        let err = honest_but_short.verify(t.root(), 30, 100).unwrap_err();
        assert!(matches!(err, MbTreeError::RangeIncomplete(_)), "{err:?}");
        // Same on the left: run starts past leaf 0 with first key ≥ lo.
        let entries: Vec<KeyedEntry> = (10..=20).map(|i| t.entries.read(i).unwrap()).collect();
        let merkle = t.tree().prove((10..=20).collect()).unwrap();
        let missing_left = KeyRangeProof {
            entries,
            first: 10,
            merkle,
        };
        let err = missing_left.verify(t.root(), 0, 60).unwrap_err();
        assert!(matches!(err, MbTreeError::RangeIncomplete(_)), "{err:?}");
    }

    #[test]
    fn key_range_proof_paged_matches_dense() {
        let dense = MerkleBTree::build(sample_entries(5000), 8).unwrap();
        let (paged, pager) = paged(&dense);
        for (lo, hi) in [(0u64, 14_997u64), (900, 2100), (901, 902), (15_000, 16_000)] {
            let a = dense.prove_key_range(lo, hi).unwrap();
            let b = paged.prove_key_range(lo, hi).unwrap();
            assert_eq!(a, b, "[{lo}, {hi}]");
            assert_eq!(
                a.verify(dense.root(), lo, hi).unwrap(),
                b.verify(paged.root(), lo, hi).unwrap()
            );
        }
        // The narrow ranges must not fault every entry page each.
        let faults = pager.faults.load(Ordering::Relaxed);
        assert!(faults < 2 * 20, "faulted {faults} entry pages");
    }

    #[test]
    fn paged_btree_entry_cache_is_bounded() {
        let dense = MerkleBTree::build(sample_entries(5000), 8).unwrap();
        let evictions = Arc::new(AtomicU64::new(0));
        let cfg = PageCacheCfg {
            capacity: 3,
            evictions: Some(Arc::clone(&evictions)),
        };
        let (paged, pager) = paged_from_dense(&dense, cfg);
        for key in (0..5000u64).map(|i| i * 3) {
            assert_eq!(paged.get(key), dense.get(key), "key {key}");
        }
        let faults = pager.faults.load(Ordering::Relaxed);
        let evicted = evictions.load(Ordering::Relaxed);
        assert!(evicted > 0, "sweep must overflow a 3-page cache");
        assert!(faults - evicted <= 3, "resident {}", faults - evicted);
    }

    #[test]
    fn update_value_matches_rebuild() {
        let mut es = sample_entries(100);
        let mut t = MerkleBTree::build(es.clone(), 4).unwrap();
        t.update_value(30, 123.0).unwrap();
        t.update_value(297, -1.5).unwrap();
        es[10].value = 123.0;
        es[99].value = -1.5;
        let fresh = MerkleBTree::build(es, 4).unwrap();
        assert_eq!(t.root(), fresh.root());
        assert_eq!(t.get(30), Some(123.0));
        let p = t.prove_keys(&[30, 297]).unwrap();
        assert_eq!(p, fresh.prove_keys(&[30, 297]).unwrap());
        assert!(matches!(
            t.update_value(31, 0.0),
            Err(MbTreeError::KeyNotFound(31))
        ));
    }

    #[test]
    fn update_values_matches_single_updates() {
        let mut single = MerkleBTree::build(sample_entries(1000), 4).unwrap();
        let mut batched = single.clone();
        let updates: Vec<KeyedEntry> = [2997u64, 30, 1500, 30]
            .iter()
            .enumerate()
            .map(|(i, &key)| KeyedEntry {
                key,
                value: i as f64,
            })
            .collect();
        for e in &updates {
            single.update_value(e.key, e.value).unwrap();
        }
        batched.update_values(&updates).unwrap();
        assert_eq!(batched.root(), single.root());
        assert_eq!(batched.get(30), Some(3.0));
        assert_eq!(
            batched.dense_entries().to_vec().unwrap(),
            single.dense_entries().to_vec().unwrap()
        );
    }

    /// Which blocks of `b` are resident.
    fn resident<T>(b: &Blocks<T>) -> Vec<bool> {
        b.blocks().iter().map(Option::is_some).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A B-tree opened over a built tree's pages — entry array and
        /// digest levels — takes the same random `update_values`
        /// sequence as the built tree and stays equal to it: every
        /// entry, every level, every key and range proof. Only the
        /// written entry blocks and the digest blocks on their paths
        /// become resident.
        #[test]
        fn paged_btree_updates_match_the_built_tree(
            n in 1u32..3000,
            fanout in 2usize..9,
            picks in proptest::collection::vec(0u32..u32::MAX, 1..24),
            rounds in 1usize..4,
        ) {
            let mut built = MerkleBTree::build(sample_entries(n), fanout).unwrap();
            let faults = Arc::new(AtomicU64::new(0));
            let section = |bytes: Vec<u8>| -> Arc<dyn Pager> {
                Arc::new(BytePager {
                    bytes,
                    page_len: PAGE_BYTES,
                    clip: usize::MAX,
                    faults: Arc::clone(&faults),
                })
            };
            let pagers = built
                .tree()
                .dense_levels()
                .iter()
                .map(|l| section(l.to_bytes().unwrap()))
                .collect();
            let cfg = PageCacheCfg::with_capacity(4);
            let tree = MerkleTree::open_paged(pagers, n as usize, fanout, cfg.clone()).unwrap();
            let entries = section(built.dense_entries().to_bytes().unwrap());
            let first_keys = built.first_keys().to_vec();
            let mut paged = MerkleBTree::open_paged(entries, first_keys, tree, cfg).unwrap();
            let mut written = BTreeSet::new();
            for (round, chunk) in picks.chunks(picks.len().div_ceil(rounds)).enumerate() {
                let updates: Vec<KeyedEntry> = chunk
                    .iter()
                    .map(|&p| KeyedEntry { key: (p % n) as u64 * 3, value: (p ^ round as u32) as f64 })
                    .collect();
                built.update_values(&updates).unwrap();
                paged.update_values(&updates).unwrap();
                written.extend(updates.iter().map(|e| e.key as usize / 3));
                let keys: Vec<u64> = updates.iter().map(|e| e.key).chain([0, (n as u64 - 1) * 3]).collect();
                proptest::prop_assert_eq!(paged.prove_keys(&keys).unwrap(), built.prove_keys(&keys).unwrap());
                let (lo, hi) = (keys[0].min(keys[1]), keys[0].max(keys[1]));
                proptest::prop_assert_eq!(paged.prove_key_range(lo, hi).unwrap(), built.prove_key_range(lo, hi).unwrap());
            }
            proptest::prop_assert_eq!(paged.root(), built.root());
            proptest::prop_assert_eq!(
                paged.dense_entries().to_vec().unwrap(),
                built.dense_entries().to_vec().unwrap()
            );
            let mut path: Vec<usize> = written.iter().copied().collect();
            let entry_blocks: BTreeSet<usize> = path.iter().map(|&i| i / PAGE_ENTRIES).collect();
            let want: Vec<bool> = (0..(n as usize).div_ceil(PAGE_ENTRIES)).map(|b| entry_blocks.contains(&b)).collect();
            proptest::prop_assert_eq!(resident(paged.dense_entries()), want);
            let levels = paged.tree().dense_levels().iter().zip(built.tree().dense_levels());
            for (lvl, (p, b)) in levels.enumerate() {
                proptest::prop_assert_eq!(p.to_vec().unwrap(), b.to_vec().unwrap());
                let blocks: BTreeSet<usize> = path.iter().map(|&i| i / Blocks::<Digest>::BLOCK_LEN).collect();
                let root = lvl + 1 == paged.height();
                let want: Vec<bool> = (0..p.blocks().len()).map(|b| root || blocks.contains(&b)).collect();
                proptest::prop_assert_eq!(resident(p), want, "level {}", lvl);
                path = path.iter().map(|&i| i / fanout).collect();
                path.dedup();
            }
        }
    }

    #[test]
    fn negative_zero_and_zero_distinct_bits() {
        // f64 bit-encoding: -0.0 and 0.0 differ — encoding is canonical
        // per bit pattern, which is fine because owners never emit -0.0.
        let a = KeyedEntry { key: 1, value: 0.0 };
        let b = KeyedEntry {
            key: 1,
            value: -0.0,
        };
        assert_ne!(a.digest(), b.digest());
    }
}
