//! Merkle hash tree with configurable fanout and multi-leaf proofs.
//!
//! Section III-B of the paper builds a Merkle tree over the ordered
//! extended-tuples of graph nodes, with an arbitrary fanout `f`
//! (Figure 3b uses `f = 3`; the fanout experiment of Figure 11a sweeps
//! `f ∈ {2,4,8,16,32}`). A proof for a *set* of leaves follows Merkle's
//! subtree rule: hash entry `hᵢ` is included iff
//!
//! 1. the subtree of `hᵢ` contains no proven leaf, and
//! 2. the subtree of `hᵢ`'s parent does.
//!
//! Verification reconstructs the root bottom-up from the proven leaf
//! digests plus the proof entries and compares it against the signed
//! root.

use crate::blocks::Blocks;
use crate::cache::{PageCache, PageCacheCfg};
use crate::digest::{hash_digests, Digest};
use crate::pager::{self, Pager};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Errors raised while building or checking Merkle structures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MerkleError {
    /// A tree must have at least one leaf.
    EmptyTree,
    /// Fanout must be at least 2.
    BadFanout(usize),
    /// A requested leaf index is out of range.
    LeafOutOfRange { index: usize, leaf_count: usize },
    /// Proof verification could not reconstruct the root because a
    /// digest for the given (level, index) slot was neither computable
    /// nor supplied.
    MissingDigest { level: usize, index: usize },
    /// A proof entry collides with a slot that is derivable from the
    /// proven leaves (a well-formed prover never emits this).
    RedundantEntry { level: usize, index: usize },
    /// Proof entry refers to a slot outside the tree shape.
    MalformedEntry { level: usize, index: usize },
    /// No leaves were supplied to verification.
    NoLeaves,
    /// A paged tree failed to fault in a page from its backing store.
    Page(String),
    /// Mutation was attempted on a paged (read-only) tree.
    ReadOnly,
}

impl std::fmt::Display for MerkleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MerkleError::EmptyTree => write!(f, "merkle tree must have at least one leaf"),
            MerkleError::BadFanout(n) => write!(f, "fanout {n} is invalid (must be ≥ 2)"),
            MerkleError::LeafOutOfRange { index, leaf_count } => {
                write!(
                    f,
                    "leaf index {index} out of range (leaf count {leaf_count})"
                )
            }
            MerkleError::MissingDigest { level, index } => {
                write!(
                    f,
                    "proof incomplete: missing digest at level {level}, index {index}"
                )
            }
            MerkleError::RedundantEntry { level, index } => {
                write!(
                    f,
                    "proof entry at level {level}, index {index} shadows a computed digest"
                )
            }
            MerkleError::MalformedEntry { level, index } => {
                write!(
                    f,
                    "proof entry at level {level}, index {index} is outside the tree"
                )
            }
            MerkleError::NoLeaves => write!(f, "verification requires at least one proven leaf"),
            MerkleError::Page(m) => write!(f, "paged tree fault failed: {m}"),
            MerkleError::ReadOnly => write!(f, "paged merkle tree is read-only"),
        }
    }
}

impl std::error::Error for MerkleError {}

/// One digest supplied by the prover, addressed by its tree position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProofEntry {
    /// 0 = leaf level; increases towards the root.
    pub level: u32,
    /// Index within the level.
    pub index: u32,
    /// Digest stored at that slot.
    pub digest: Digest,
}

/// A multi-leaf Merkle proof.
///
/// Carries the tree geometry (leaf count + fanout) so that verification
/// is self-contained; the geometry itself is authenticated because the
/// owner signs `H(root ∘ meta)` where meta encodes the same values
/// (done one layer up, in `spnet-core`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleProof {
    /// Sibling/cover digests per Merkle's rule.
    pub entries: Vec<ProofEntry>,
    /// Total number of leaves in the tree.
    pub leaf_count: u32,
    /// Tree fanout.
    pub fanout: u32,
}

impl MerkleProof {
    /// Number of digests in the proof — the paper's "number of items in
    /// ΓT" metric counts these.
    pub fn num_items(&self) -> usize {
        self.entries.len()
    }

    /// Serialized size in bytes: each entry is a (level, index, digest)
    /// triple, plus the 8-byte geometry header.
    pub fn size_bytes(&self) -> usize {
        8 + self.entries.len() * (4 + 4 + 32)
    }

    /// Reconstructs the root digest from proven `(leaf_index, digest)`
    /// pairs plus this proof's entries.
    ///
    /// Fails if any required digest is missing or the proof is
    /// malformed. The caller compares the returned root against the
    /// owner-signed root.
    pub fn reconstruct_root(&self, leaves: &[(usize, Digest)]) -> Result<Digest, MerkleError> {
        if leaves.is_empty() {
            return Err(MerkleError::NoLeaves);
        }
        let fanout = self.fanout as usize;
        if fanout < 2 {
            return Err(MerkleError::BadFanout(fanout));
        }
        let leaf_count = self.leaf_count as usize;
        let sizes = level_sizes(leaf_count, fanout);

        // Proof entries per level as index-sorted vectors (binary-search
        // lookups; no tree maps). A duplicate entry at one slot keeps
        // the last occurrence, matching the former map insert.
        let mut entry_levels: Vec<Vec<(usize, Digest)>> = vec![Vec::new(); sizes.len()];
        for e in &self.entries {
            let (lvl, idx) = (e.level as usize, e.index as usize);
            if lvl >= sizes.len() || idx >= sizes[lvl] {
                return Err(MerkleError::MalformedEntry {
                    level: lvl,
                    index: idx,
                });
            }
            entry_levels[lvl].push((idx, e.digest));
        }
        for lvl in &mut entry_levels {
            // Stable sort keeps insertion order within one index; the
            // trailing occurrence wins below.
            lvl.sort_by_key(|&(idx, _)| idx);
        }
        let lookup = |lvl: &[(usize, Digest)], idx: usize| -> Option<Digest> {
            // Rightmost match (duplicates keep the last inserted).
            match lvl.partition_point(|&(i, _)| i <= idx) {
                0 => None,
                p if lvl[p - 1].0 == idx => Some(lvl[p - 1].1),
                _ => None,
            }
        };

        // The frontier: slots derivable from proven leaves, sorted by
        // index. A proof entry in a derivable slot is a prover error
        // (it could mask a missing tuple), so reject it.
        let mut frontier: Vec<(usize, Digest)> = Vec::with_capacity(leaves.len());
        for &(idx, digest) in leaves {
            if idx >= leaf_count {
                return Err(MerkleError::LeafOutOfRange {
                    index: idx,
                    leaf_count,
                });
            }
            if lookup(&entry_levels[0], idx).is_some() {
                return Err(MerkleError::RedundantEntry {
                    level: 0,
                    index: idx,
                });
            }
            frontier.push((idx, digest));
        }
        frontier.sort_by_key(|&(idx, _)| idx);
        if let Some(w) = frontier.windows(2).find(|w| w[0].0 == w[1].0) {
            // Two proven digests for one slot — same class of error as
            // an entry shadowing a proven leaf.
            return Err(MerkleError::RedundantEntry {
                level: 0,
                index: w[0].0,
            });
        }

        // Bottom-up: compute every parent that covers a proven leaf.
        // The frontier stays sorted, so each parent's children are a
        // contiguous run consumed by one forward pass. `fanout` is
        // wire-controlled, so cap the pre-allocation by the widest
        // level instead of trusting it (a corrupt proof must fail
        // verification, not abort on an absurd allocation).
        let mut children: Vec<Digest> = Vec::with_capacity(fanout.min(sizes[0]));
        for lvl in 0..sizes.len() - 1 {
            let mut next: Vec<(usize, Digest)> = Vec::with_capacity(frontier.len());
            let mut i = 0usize;
            while i < frontier.len() {
                let p = frontier[i].0 / fanout;
                if lookup(&entry_levels[lvl + 1], p).is_some() {
                    return Err(MerkleError::RedundantEntry {
                        level: lvl + 1,
                        index: p,
                    });
                }
                let first = p * fanout;
                let last = (first + fanout).min(sizes[lvl]);
                children.clear();
                for c in first..last {
                    if i < frontier.len() && frontier[i].0 == c {
                        children.push(frontier[i].1);
                        i += 1;
                    } else if let Some(d) = lookup(&entry_levels[lvl], c) {
                        children.push(d);
                    } else {
                        return Err(MerkleError::MissingDigest {
                            level: lvl,
                            index: c,
                        });
                    }
                }
                next.push((p, hash_digests(&children)));
            }
            frontier = next;
        }

        match frontier.first() {
            Some(&(0, root)) => Ok(root),
            _ => Err(MerkleError::MissingDigest {
                level: sizes.len() - 1,
                index: 0,
            }),
        }
    }
}

/// Sizes of each level, leaf level first, ending with the root level of
/// size 1. A single-leaf tree has one level.
fn level_sizes(leaf_count: usize, fanout: usize) -> Vec<usize> {
    let mut sizes = vec![leaf_count];
    let mut s = leaf_count;
    while s > 1 {
        s = s.div_ceil(fanout);
        sizes.push(s);
    }
    sizes
}

/// Lazily paged tree levels: digests resolve on demand from one
/// [`Pager`] per level, merk-`Link` style — a page is either resident
/// (in the bounded LRU [`PageCache`]) or a stub to be faulted from the
/// backing store. The root is loaded eagerly at open so `root()` stays
/// infallible.
#[derive(Debug, Clone)]
struct PagedLevels {
    /// One pager per level, leaf level first.
    pagers: Vec<Arc<dyn Pager>>,
    /// Logical size of each level, leaf level first.
    sizes: Vec<usize>,
    /// Digests per page (all levels; last page of a level may be short).
    page_digests: usize,
    /// Resident pages keyed by `(level << 32) | page`, shared across
    /// clones so every handle sees the same residency bound.
    cache: Arc<PageCache<Vec<Digest>>>,
    root: Digest,
}

impl PagedLevels {
    fn digest_at(&self, level: usize, index: usize) -> Result<Digest, MerkleError> {
        let page = index / self.page_digests;
        let run = pager::fault(
            &self.cache,
            ((level as u64) << 32) | page as u64,
            &*self.pagers[level],
            self.sizes[level],
            self.page_digests,
            page,
        )?;
        Ok(run[index % self.page_digests])
    }
}

/// Physical representation of the tree levels.
#[derive(Debug, Clone)]
enum Repr {
    /// Every level materialized in memory, as copy-on-write blocks of
    /// one snapshot page each: a clone shares every block, and an
    /// update copies only the blocks on its leaves' paths.
    Dense(Vec<Blocks<Digest>>),
    /// Levels faulted in page-by-page from a backing store.
    Paged(PagedLevels),
}

/// A Merkle hash tree with configurable fanout.
///
/// Built trees ([`MerkleTree::build`]) store every level densely so
/// multi-leaf proofs are O(result) to assemble. Trees opened over a
/// snapshot ([`MerkleTree::open_paged`]) keep only the pages a proof
/// path has touched; they are read-only and hash-identical to the
/// dense tree they were saved from.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    fanout: usize,
    repr: Repr,
}

impl MerkleTree {
    /// Builds a tree over `leaves` with the given `fanout`.
    pub fn build(leaves: Vec<Digest>, fanout: usize) -> Result<Self, MerkleError> {
        if leaves.is_empty() {
            return Err(MerkleError::EmptyTree);
        }
        if fanout < 2 {
            return Err(MerkleError::BadFanout(fanout));
        }
        let mut levels = Vec::new();
        let mut prev = leaves;
        while prev.len() > 1 {
            let next: Vec<Digest> = prev.chunks(fanout).map(hash_digests).collect();
            levels.push(Blocks::from(std::mem::replace(&mut prev, next)));
        }
        levels.push(Blocks::from(prev));
        Ok(MerkleTree {
            fanout,
            repr: Repr::Dense(levels),
        })
    }

    /// Opens a read-only tree whose levels live in a paged backing
    /// store, one pager per level (leaf level first), with the page
    /// cache `cache_cfg` shared by every level. Only the root page is
    /// faulted eagerly; `prove` faults the pages its proof paths touch.
    pub fn open_paged(
        pagers: Vec<Arc<dyn Pager>>,
        leaf_count: usize,
        fanout: usize,
        page_digests: usize,
        cache_cfg: PageCacheCfg,
    ) -> Result<Self, MerkleError> {
        if leaf_count == 0 {
            return Err(MerkleError::EmptyTree);
        }
        if fanout < 2 {
            return Err(MerkleError::BadFanout(fanout));
        }
        if page_digests == 0 {
            return Err(MerkleError::Page("page_digests must be ≥ 1".into()));
        }
        let sizes = level_sizes(leaf_count, fanout);
        if pagers.len() != sizes.len() {
            return Err(MerkleError::Page(format!(
                "{} level pagers for a tree of height {}",
                pagers.len(),
                sizes.len()
            )));
        }
        let mut paged = PagedLevels {
            pagers,
            sizes,
            page_digests,
            cache: Arc::new(PageCache::new(cache_cfg)),
            root: Digest::ZERO,
        };
        paged.root = paged.digest_at(paged.sizes.len() - 1, 0)?;
        Ok(MerkleTree {
            fanout,
            repr: Repr::Paged(paged),
        })
    }

    /// The signed root digest.
    pub fn root(&self) -> Digest {
        match &self.repr {
            Repr::Dense(levels) => levels.last().unwrap()[0],
            Repr::Paged(p) => p.root,
        }
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        match &self.repr {
            Repr::Dense(levels) => levels[0].len(),
            Repr::Paged(p) => p.sizes[0],
        }
    }

    /// Tree fanout.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Tree height in levels (1 for a single leaf).
    pub fn height(&self) -> usize {
        match &self.repr {
            Repr::Dense(levels) => levels.len(),
            Repr::Paged(p) => p.sizes.len(),
        }
    }

    /// Whether this tree resolves digests lazily from a backing store.
    pub fn is_paged(&self) -> bool {
        matches!(self.repr, Repr::Paged(_))
    }

    /// The dense level arrays, leaf level first — present only for
    /// built trees. Snapshot writers use this to serialize levels.
    pub fn dense_levels(&self) -> Option<&[Blocks<Digest>]> {
        match &self.repr {
            Repr::Dense(levels) => Some(levels),
            Repr::Paged(_) => None,
        }
    }

    /// Digest of leaf `i`.
    ///
    /// On a paged tree this faults in the leaf's page; a fault failure
    /// reports as `None`, same as out-of-range.
    pub fn leaf(&self, i: usize) -> Option<Digest> {
        match &self.repr {
            Repr::Dense(levels) => levels[0].get(i).copied(),
            Repr::Paged(p) => {
                if i >= p.sizes[0] {
                    None
                } else {
                    p.digest_at(0, i).ok()
                }
            }
        }
    }

    /// Total number of digests in the tree (logical count for paged
    /// trees) — the ADS storage-overhead metric.
    pub fn total_digests(&self) -> usize {
        match &self.repr {
            Repr::Dense(levels) => levels.iter().map(Blocks::len).sum(),
            Repr::Paged(p) => p.sizes.iter().sum(),
        }
    }

    /// Size of level `lvl` in digests.
    fn level_len(&self, lvl: usize) -> usize {
        match &self.repr {
            Repr::Dense(levels) => levels[lvl].len(),
            Repr::Paged(p) => p.sizes[lvl],
        }
    }

    /// Digest stored at `(level, index)`; faults the containing page on
    /// a paged tree. Callers stay in-shape, so out-of-range indexing on
    /// a dense tree panics like a slice.
    fn digest_at(&self, level: usize, index: usize) -> Result<Digest, MerkleError> {
        match &self.repr {
            Repr::Dense(levels) => Ok(levels[level][index]),
            Repr::Paged(p) => p.digest_at(level, index),
        }
    }

    /// Replaces the digest of leaf `i` and recomputes the O(log n) path
    /// to the root — the incremental-update primitive for dynamic
    /// networks (an edge-weight change touches two leaves).
    ///
    /// Paged trees are read-only snapshots: this returns
    /// [`MerkleError::ReadOnly`] for them.
    pub fn update_leaf(&mut self, i: usize, digest: Digest) -> Result<(), MerkleError> {
        self.update_leaves(&[(i, digest)])
    }

    /// Replaces several leaf digests and recomputes their paths to the
    /// root, hashing each touched interior node once. `leaves` is
    /// sorted by index; a repeated index keeps its last digest. Only
    /// the blocks holding a written digest are copied, each once, so a
    /// clone of the tree keeps every other block shared.
    ///
    /// Paged trees are read-only snapshots: this returns
    /// [`MerkleError::ReadOnly`] for them. An out-of-range index
    /// changes nothing.
    pub fn update_leaves(&mut self, leaves: &[(usize, Digest)]) -> Result<(), MerkleError> {
        let fanout = self.fanout;
        let levels = match &mut self.repr {
            Repr::Dense(levels) => levels,
            Repr::Paged(_) => return Err(MerkleError::ReadOnly),
        };
        let n = levels[0].len();
        if let Some(&(index, _)) = leaves.iter().find(|&&(i, _)| i >= n) {
            return Err(MerkleError::LeafOutOfRange {
                index,
                leaf_count: n,
            });
        }
        levels[0].set_sorted(leaves.iter().copied());
        let mut touched: Vec<usize> = leaves.iter().map(|&(i, _)| i).collect();
        touched.dedup();
        let mut children = Vec::with_capacity(fanout);
        for lvl in 0..levels.len() - 1 {
            touched = touched.iter().map(|&i| i / fanout).collect();
            touched.dedup();
            let (below, above) = levels.split_at_mut(lvl + 1);
            let level = &below[lvl];
            let parents = touched.iter().map(|&p| {
                let first = p * fanout;
                let last = (first + fanout).min(level.len());
                children.clear();
                children.extend((first..last).map(|c| level[c]));
                (p, hash_digests(&children))
            });
            above[0].set_sorted(parents);
        }
        Ok(())
    }

    /// Builds the proof for a set of leaf indices per Merkle's rule.
    ///
    /// One sorted-vector sweep per level: the covered set stays sorted,
    /// so each parent's covered children form a contiguous run and the
    /// uncovered siblings are emitted in index order without set
    /// membership queries. On a paged tree only the pages holding
    /// emitted sibling digests are faulted in.
    pub fn prove(&self, leaf_indices: BTreeSet<usize>) -> Result<MerkleProof, MerkleError> {
        let leaf_count = self.leaf_count();
        if leaf_indices.is_empty() {
            return Err(MerkleError::NoLeaves);
        }
        // Already sorted and distinct, by BTreeSet construction.
        let mut covered: Vec<usize> = leaf_indices.into_iter().collect();
        if let Some(&max) = covered.last() {
            if max >= leaf_count {
                return Err(MerkleError::LeafOutOfRange {
                    index: max,
                    leaf_count,
                });
            }
        }
        let mut entries = Vec::new();
        for lvl in 0..self.height() - 1 {
            let level_size = self.level_len(lvl);
            let mut parents: Vec<usize> = Vec::with_capacity(covered.len());
            let mut i = 0usize;
            while i < covered.len() {
                let p = covered[i] / self.fanout;
                let first = p * self.fanout;
                let last = (first + self.fanout).min(level_size);
                // Supply digests of the parent's uncovered children
                // (rule: subtree has no proven leaf, parent's does).
                for c in first..last {
                    if i < covered.len() && covered[i] == c {
                        i += 1;
                    } else {
                        entries.push(ProofEntry {
                            level: lvl as u32,
                            index: c as u32,
                            digest: self.digest_at(lvl, c)?,
                        });
                    }
                }
                parents.push(p);
            }
            covered = parents;
        }
        Ok(MerkleProof {
            entries,
            leaf_count: leaf_count as u32,
            fanout: self.fanout as u32,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::PAGE_DIGESTS;
    use crate::digest::hash_bytes;

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n)
            .map(|i| hash_bytes(&(i as u64).to_le_bytes()))
            .collect()
    }

    fn check_round_trip(n: usize, fanout: usize, proven: &[usize]) {
        let ls = leaves(n);
        let tree = MerkleTree::build(ls.clone(), fanout).unwrap();
        let set: BTreeSet<usize> = proven.iter().copied().collect();
        let proof = tree.prove(set.clone()).unwrap();
        let pairs: Vec<(usize, Digest)> = set.iter().map(|&i| (i, ls[i])).collect();
        let root = proof.reconstruct_root(&pairs).unwrap();
        assert_eq!(root, tree.root(), "n={n} f={fanout} proven={proven:?}");
    }

    #[test]
    fn single_leaf_tree() {
        let ls = leaves(1);
        let tree = MerkleTree::build(ls.clone(), 2).unwrap();
        assert_eq!(tree.root(), ls[0]);
        assert_eq!(tree.height(), 1);
        check_round_trip(1, 2, &[0]);
    }

    #[test]
    fn empty_tree_rejected() {
        assert!(matches!(
            MerkleTree::build(vec![], 2),
            Err(MerkleError::EmptyTree)
        ));
    }

    #[test]
    fn bad_fanout_rejected() {
        assert!(matches!(
            MerkleTree::build(leaves(4), 1),
            Err(MerkleError::BadFanout(1))
        ));
        assert!(matches!(
            MerkleTree::build(leaves(4), 0),
            Err(MerkleError::BadFanout(0))
        ));
    }

    #[test]
    fn binary_tree_manual_root() {
        // 4 leaves, fanout 2: root = H(H(l0∘l1) ∘ H(l2∘l3))
        let ls = leaves(4);
        let h01 = crate::digest::hash_concat(&[ls[0], ls[1]]);
        let h23 = crate::digest::hash_concat(&[ls[2], ls[3]]);
        let expected = crate::digest::hash_concat(&[h01, h23]);
        let tree = MerkleTree::build(ls, 2).unwrap();
        assert_eq!(tree.root(), expected);
    }

    #[test]
    fn paper_figure3_shape_fanout3() {
        // Figure 3b: 36 leaves, fanout 3 → levels 36, 12, 4, 2, 1.
        let tree = MerkleTree::build(leaves(36), 3).unwrap();
        let sizes: Vec<usize> = tree
            .dense_levels()
            .unwrap()
            .iter()
            .map(Blocks::len)
            .collect();
        assert_eq!(sizes, vec![36, 12, 4, 2, 1]);
    }

    #[test]
    fn irregular_last_chunk() {
        // 5 leaves, fanout 3 → last parent has 2 children; last level of
        // size 2 hashes into a root of a 2-ary node.
        check_round_trip(5, 3, &[4]);
        check_round_trip(5, 3, &[0, 4]);
        check_round_trip(7, 4, &[6]);
    }

    #[test]
    fn round_trips_various_shapes() {
        for &(n, f) in &[
            (2usize, 2usize),
            (3, 2),
            (8, 2),
            (9, 2),
            (10, 3),
            (36, 3),
            (100, 16),
            (33, 32),
            (64, 32),
        ] {
            check_round_trip(n, f, &[0]);
            check_round_trip(n, f, &[n - 1]);
            check_round_trip(n, f, &[n / 2]);
            let all: Vec<usize> = (0..n).collect();
            check_round_trip(n, f, &all);
        }
    }

    #[test]
    fn contiguous_range_proof_smaller_than_scattered() {
        // Locality matters: a contiguous leaf range shares covers.
        let tree = MerkleTree::build(leaves(256), 2).unwrap();
        let contiguous: BTreeSet<usize> = (100..116).collect();
        let scattered: BTreeSet<usize> = (0..16).map(|i| i * 16).collect();
        let p1 = tree.prove(contiguous).unwrap();
        let p2 = tree.prove(scattered).unwrap();
        assert!(
            p1.num_items() < p2.num_items(),
            "contiguous {} vs scattered {}",
            p1.num_items(),
            p2.num_items()
        );
    }

    #[test]
    fn higher_fanout_more_proof_items() {
        // Figure 11a: proof size grows with fanout for a fixed leaf set.
        let ls = leaves(1024);
        let proven: BTreeSet<usize> = (500..510).collect();
        let mut last = 0usize;
        for f in [2usize, 4, 8, 16, 32] {
            let tree = MerkleTree::build(ls.clone(), f).unwrap();
            let p = tree.prove(proven.clone()).unwrap();
            assert!(p.num_items() >= last, "fanout {f}");
            last = p.num_items();
        }
    }

    #[test]
    fn proof_rejects_wrong_leaf_digest() {
        let ls = leaves(16);
        let tree = MerkleTree::build(ls.clone(), 2).unwrap();
        let proof = tree.prove([3usize].into_iter().collect()).unwrap();
        let tampered = hash_bytes(b"evil");
        let root = proof.reconstruct_root(&[(3, tampered)]).unwrap();
        assert_ne!(root, tree.root());
    }

    #[test]
    fn proof_rejects_moved_leaf() {
        // Same digest claimed at a different position must change root.
        let ls = leaves(16);
        let tree = MerkleTree::build(ls.clone(), 2).unwrap();
        let proof = tree.prove([3usize].into_iter().collect()).unwrap();
        // Structurally invalid is fine too; a reconstructed root must
        // differ.
        if let Ok(root) = proof.reconstruct_root(&[(4, ls[3])]) {
            assert_ne!(root, tree.root());
        }
    }

    #[test]
    fn missing_proof_entry_detected() {
        let ls = leaves(16);
        let tree = MerkleTree::build(ls.clone(), 2).unwrap();
        let mut proof = tree.prove([3usize].into_iter().collect()).unwrap();
        proof.entries.pop();
        let err = proof.reconstruct_root(&[(3, ls[3])]).unwrap_err();
        assert!(matches!(err, MerkleError::MissingDigest { .. }));
    }

    #[test]
    fn dropped_tuple_attack_detected() {
        // Section IV-A: a malicious provider removes a tuple from ΓS and
        // adds its digest to ΓT instead. The redundant-entry check
        // catches the other direction; here, verifying with the reduced
        // leaf set against the *original* proof must fail or mismatch.
        let ls = leaves(16);
        let tree = MerkleTree::build(ls.clone(), 2).unwrap();
        let full: BTreeSet<usize> = [3usize, 4].into_iter().collect();
        let proof_full = tree.prove(full).unwrap();
        // Client got only leaf 3 but the proof was built for {3,4}.
        let res = proof_full.reconstruct_root(&[(3, ls[3])]);
        assert!(res.is_err(), "missing leaf must be detected");
    }

    #[test]
    fn redundant_entry_rejected() {
        // A proof entry that shadows a proven leaf slot is rejected —
        // otherwise a provider could substitute digests for tuples.
        let ls = leaves(16);
        let tree = MerkleTree::build(ls.clone(), 2).unwrap();
        let mut proof = tree.prove([3usize].into_iter().collect()).unwrap();
        proof.entries.push(ProofEntry {
            level: 0,
            index: 3,
            digest: ls[3],
        });
        let err = proof.reconstruct_root(&[(3, ls[3])]).unwrap_err();
        assert!(matches!(err, MerkleError::RedundantEntry { .. }));
    }

    #[test]
    fn malformed_entry_rejected() {
        let ls = leaves(8);
        let tree = MerkleTree::build(ls.clone(), 2).unwrap();
        let mut proof = tree.prove([0usize].into_iter().collect()).unwrap();
        proof.entries.push(ProofEntry {
            level: 9,
            index: 0,
            digest: ls[0],
        });
        let err = proof.reconstruct_root(&[(0, ls[0])]).unwrap_err();
        assert!(matches!(err, MerkleError::MalformedEntry { .. }));
    }

    #[test]
    fn out_of_range_leaf_rejected() {
        let tree = MerkleTree::build(leaves(8), 2).unwrap();
        assert!(matches!(
            tree.prove([8usize].into_iter().collect()),
            Err(MerkleError::LeafOutOfRange { .. })
        ));
        let proof = tree.prove([0usize].into_iter().collect()).unwrap();
        assert!(matches!(
            proof.reconstruct_root(&[(8, hash_bytes(b"x"))]),
            Err(MerkleError::LeafOutOfRange { .. })
        ));
    }

    #[test]
    fn empty_index_set_rejected() {
        let tree = MerkleTree::build(leaves(8), 2).unwrap();
        assert!(matches!(
            tree.prove(BTreeSet::new()),
            Err(MerkleError::NoLeaves)
        ));
    }

    #[test]
    fn proof_size_accounting() {
        let tree = MerkleTree::build(leaves(64), 2).unwrap();
        let p = tree.prove([0usize].into_iter().collect()).unwrap();
        // 64 leaves, fanout 2 → 6 sibling digests.
        assert_eq!(p.num_items(), 6);
        assert_eq!(p.size_bytes(), 8 + 6 * 40);
    }

    #[test]
    fn update_leaf_matches_rebuild() {
        for (n, f) in [(1usize, 2usize), (5, 3), (64, 2), (100, 16)] {
            let mut ls = leaves(n);
            let mut tree = MerkleTree::build(ls.clone(), f).unwrap();
            for touch in [0usize, n / 2, n - 1] {
                ls[touch] = hash_bytes(format!("new-{touch}").as_bytes());
                tree.update_leaf(touch, ls[touch]).unwrap();
                let rebuilt = MerkleTree::build(ls.clone(), f).unwrap();
                assert_eq!(tree.root(), rebuilt.root(), "n={n} f={f} touch={touch}");
            }
        }
    }

    #[test]
    fn update_leaf_out_of_range() {
        let mut tree = MerkleTree::build(leaves(8), 2).unwrap();
        assert!(matches!(
            tree.update_leaf(8, hash_bytes(b"x")),
            Err(MerkleError::LeafOutOfRange { .. })
        ));
    }

    #[test]
    fn proofs_after_update_verify_against_new_root() {
        let mut ls = leaves(32);
        let mut tree = MerkleTree::build(ls.clone(), 2).unwrap();
        ls[7] = hash_bytes(b"updated");
        tree.update_leaf(7, ls[7]).unwrap();
        let proof = tree.prove([7usize].into_iter().collect()).unwrap();
        assert_eq!(proof.reconstruct_root(&[(7, ls[7])]).unwrap(), tree.root());
    }

    /// The dense levels as plain vectors, for whole-tree comparisons.
    fn level_vecs(tree: &MerkleTree) -> Vec<Vec<Digest>> {
        tree.dense_levels()
            .unwrap()
            .iter()
            .map(Blocks::to_vec)
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// A batched repair of a random leaf set gives the levels of
        /// one `update_leaf` per leaf and of a fresh build, at fanouts
        /// 2–5 and leaf counts that leave the last group partial.
        #[test]
        fn update_leaves_matches_sequential_updates_and_rebuild(
            n in 1usize..1200,
            fanout in 2usize..6,
            seed in 0u64..u64::MAX,
            picks in proptest::collection::vec(0usize..usize::MAX, 1..40),
        ) {
            let mut ls = leaves(n);
            let mut batched = MerkleTree::build(ls.clone(), fanout).unwrap();
            let mut sequential = batched.clone();
            let mut set: Vec<usize> = picks.iter().map(|p| p % n).collect();
            set.sort_unstable();
            set.dedup();
            let writes: Vec<(usize, Digest)> = set
                .iter()
                .map(|&i| (i, hash_bytes(&(seed ^ i as u64).to_le_bytes())))
                .collect();
            for &(i, d) in &writes {
                ls[i] = d;
                sequential.update_leaf(i, d).unwrap();
            }
            batched.update_leaves(&writes).unwrap();
            let fresh = MerkleTree::build(ls, fanout).unwrap();
            proptest::prop_assert_eq!(level_vecs(&batched), level_vecs(&sequential));
            proptest::prop_assert_eq!(level_vecs(&batched), level_vecs(&fresh));
        }
    }

    #[test]
    fn update_leaves_copies_only_the_blocks_it_writes() {
        // 100k leaves, fanout 4: levels of 782, 196, 49, 13, 4, 1, ...
        // blocks. Two leaves far apart write two leaf blocks and the
        // blocks on their paths; every other block stays shared.
        let old = MerkleTree::build(leaves(100_000), 4).unwrap();
        let mut new = old.clone();
        let writes = [(5usize, hash_bytes(b"a")), (70_000, hash_bytes(b"b"))];
        new.update_leaves(&writes).unwrap();
        let (a, b) = (old.dense_levels().unwrap(), new.dense_levels().unwrap());
        let mut path: Vec<usize> = writes.iter().map(|&(i, _)| i).collect();
        for (lvl, (la, lb)) in a.iter().zip(b).enumerate() {
            let written: Vec<usize> = path.iter().map(|&i| i / PAGE_DIGESTS).collect();
            for (blk, (x, y)) in la.blocks().iter().zip(lb.blocks()).enumerate() {
                assert_eq!(
                    Arc::ptr_eq(x, y),
                    !written.contains(&blk),
                    "level {lvl} block {blk}"
                );
            }
            path = path.iter().map(|&i| i / 4).collect();
        }
        assert_ne!(old.root(), new.root());
        assert_eq!(
            old.leaf(5),
            Some(leaves(6)[5]),
            "the old epoch is untouched"
        );
    }

    #[test]
    fn total_digests_counts_all_levels() {
        let tree = MerkleTree::build(leaves(8), 2).unwrap();
        assert_eq!(tree.total_digests(), 8 + 4 + 2 + 1);
    }

    use crate::mbtree::{KeyedEntry, MbTreeError, MerkleBTree};
    use crate::pager::testing::BytePager;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// One byte pager per level of a dense tree, all counting faults
    /// into one counter; `clip` caps the bytes each page serves.
    fn level_pagers(tree: &MerkleTree, page_digests: usize, clip: usize) -> Vec<Arc<BytePager>> {
        let faults = Arc::new(AtomicU64::new(0));
        tree.dense_levels()
            .unwrap()
            .iter()
            .map(|level| {
                Arc::new(BytePager {
                    bytes: level.iter().flat_map(|d| *d.as_bytes()).collect(),
                    page_len: page_digests * 32,
                    clip,
                    faults: Arc::clone(&faults),
                })
            })
            .collect()
    }

    fn open(
        pagers: &[Arc<BytePager>],
        dense: &MerkleTree,
        pd: usize,
        cfg: PageCacheCfg,
    ) -> MerkleTree {
        let pagers = pagers
            .iter()
            .map(|p| Arc::clone(p) as Arc<dyn Pager>)
            .collect();
        MerkleTree::open_paged(pagers, dense.leaf_count(), dense.fanout(), pd, cfg).unwrap()
    }

    #[test]
    fn paged_tree_matches_dense_proofs() {
        for &(n, f, pd) in &[
            (36usize, 3usize, 4usize),
            (100, 16, 8),
            (64, 2, 128),
            (1, 2, 4),
        ] {
            let ls = leaves(n);
            let dense = MerkleTree::build(ls.clone(), f).unwrap();
            let pagers = level_pagers(&dense, pd, usize::MAX);
            let paged = open(&pagers, &dense, pd, PageCacheCfg::default());
            assert!(paged.is_paged());
            assert_eq!(paged.root(), dense.root());
            assert_eq!(paged.height(), dense.height());
            assert_eq!(paged.leaf_count(), dense.leaf_count());
            assert_eq!(paged.total_digests(), dense.total_digests());
            for proven in [vec![0usize], vec![n - 1], vec![0, n / 2, n - 1]] {
                let set: BTreeSet<usize> = proven.iter().copied().collect();
                let a = dense.prove(set.clone()).unwrap();
                let b = paged.prove(set).unwrap();
                assert_eq!(a, b, "n={n} f={f} pd={pd} proven={proven:?}");
            }
            assert_eq!(paged.leaf(0), dense.leaf(0));
            assert_eq!(paged.leaf(n), None);
        }
    }

    #[test]
    fn paged_tree_faults_only_touched_pages() {
        // 256 leaves, fanout 2, 8-digest pages: one single-leaf proof
        // must not fault every leaf page.
        let ls = leaves(256);
        let dense = MerkleTree::build(ls, 2).unwrap();
        let pagers = level_pagers(&dense, 8, usize::MAX);
        let faults = Arc::clone(&pagers[0].faults);
        let paged = open(&pagers, &dense, 8, PageCacheCfg::default());
        let after_open = faults.load(Ordering::Relaxed);
        assert_eq!(after_open, 1, "open faults only the root page");
        paged.prove([3usize].into_iter().collect()).unwrap();
        let after_prove = faults.load(Ordering::Relaxed);
        let total_pages: usize = dense
            .dense_levels()
            .unwrap()
            .iter()
            .map(|l| l.len().div_ceil(8))
            .sum();
        assert!(
            ((after_prove - after_open) as usize) < total_pages / 2,
            "proof faulted {} of {} pages",
            after_prove - after_open,
            total_pages
        );
        // Re-proving the same leaf hits the cache: no new faults.
        paged.prove([3usize].into_iter().collect()).unwrap();
        assert_eq!(faults.load(Ordering::Relaxed), after_prove);
    }

    #[test]
    fn paged_tree_cache_is_bounded() {
        let ls = leaves(256);
        let dense = MerkleTree::build(ls, 2).unwrap();
        let pagers = level_pagers(&dense, 4, usize::MAX);
        let evictions = Arc::new(AtomicU64::new(0));
        let cfg = PageCacheCfg {
            capacity: 8,
            evictions: Some(Arc::clone(&evictions)),
        };
        let paged = open(&pagers, &dense, 4, cfg);
        // Sweep every leaf page — far more pages than the bound.
        for i in 0..256 {
            assert!(paged.leaf(i).is_some());
        }
        let faults = pagers[0].faults.load(Ordering::Relaxed);
        let evicted = evictions.load(Ordering::Relaxed);
        assert!(evicted > 0, "sweep must overflow an 8-page cache");
        assert!(
            faults - evicted <= 8,
            "resident pages {} exceed the bound",
            faults - evicted
        );
        // Evicted pages re-fault transparently: proofs still match the
        // dense tree.
        let set: BTreeSet<usize> = [0usize, 255].into_iter().collect();
        assert_eq!(paged.prove(set.clone()).unwrap(), dense.prove(set).unwrap());
    }

    #[test]
    fn paged_tree_is_read_only() {
        let dense = MerkleTree::build(leaves(16), 2).unwrap();
        let pagers = level_pagers(&dense, 4, usize::MAX);
        let mut paged = open(&pagers, &dense, 4, PageCacheCfg::default());
        assert!(matches!(
            paged.update_leaf(0, hash_bytes(b"x")),
            Err(MerkleError::ReadOnly)
        ));
    }

    #[test]
    fn paged_tree_rejects_short_page() {
        let dense = MerkleTree::build(leaves(16), 2).unwrap();
        // Pages cut to one digest, then to a digest and a byte. The
        // root page (one digest) passes either way, so open succeeds;
        // the first leaf-page fault reports the bad page.
        for (clip, why) in [(32, "expected 4 records"), (33, "not a multiple of 32")] {
            let pagers = level_pagers(&dense, 4, clip);
            let paged = open(&pagers, &dense, 4, PageCacheCfg::default());
            let err = paged.prove([0usize].into_iter().collect()).unwrap_err();
            assert!(
                matches!(&err, MerkleError::Page(m) if m.contains(why)),
                "{err:?}"
            );
        }
        // Entry pages cut the same way fail the B-tree lookup, typed.
        let entries: Vec<KeyedEntry> = (0..20u64)
            .map(|key| KeyedEntry { key, value: 0.5 })
            .collect();
        let bt = MerkleBTree::build(entries.clone(), 4).unwrap();
        for (clip, why) in [(16, "expected 8 records"), (17, "not a multiple of 16")] {
            let pager = Arc::new(BytePager {
                bytes: entries.iter().flat_map(|e| e.encode()).collect(),
                page_len: 8 * 16,
                clip,
                faults: Arc::new(AtomicU64::new(0)),
            });
            let first_keys = entries.chunks(8).map(|c| c[0].key).collect();
            let cfg = PageCacheCfg::default();
            let paged =
                MerkleBTree::open_paged(pager, 20, 8, first_keys, bt.tree().clone(), cfg).unwrap();
            let err = paged.prove_keys(&[0]).unwrap_err();
            assert!(
                matches!(&err, MbTreeError::Merkle(MerkleError::Page(m)) if m.contains(why)),
                "{err:?}"
            );
        }
        // A pager list that does not match the tree height is refused.
        let pagers = level_pagers(&dense, 4, usize::MAX);
        let short = pagers[1..]
            .iter()
            .map(|p| Arc::clone(p) as Arc<dyn Pager>)
            .collect();
        let err = MerkleTree::open_paged(short, 16, 2, 4, PageCacheCfg::default()).unwrap_err();
        assert!(matches!(err, MerkleError::Page(_)), "{err:?}");
    }
}
