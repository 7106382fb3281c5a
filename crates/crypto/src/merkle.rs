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
//!
//! A tree has one representation, built or opened over a snapshot:
//! each level is a [`Blocks`] array whose blocks are resident or not
//! yet loaded (served through a pager), and updates load what they
//! write.

use crate::blocks::Blocks;
use crate::cache::{PageCache, PageCacheCfg};
use crate::digest::{hash_digests, Digest};
use crate::pager::Pager;
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

/// A Merkle hash tree with configurable fanout.
///
/// Each level is one [`Blocks`] array of digests. A built tree
/// ([`MerkleTree::build`]) holds every block resident, so multi-leaf
/// proofs are O(result) to assemble. A tree opened over a snapshot
/// ([`MerkleTree::open_paged`]) holds only its root block and serves
/// the others through its pagers and one bounded page cache; an update
/// loads the blocks it writes, so either tree can be updated and
/// snapshotted, and both hash identically.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    fanout: usize,
    /// Leaf level first; the last level holds the root.
    levels: Vec<Blocks<Digest>>,
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
        Ok(MerkleTree { fanout, levels })
    }

    /// Opens a tree whose levels live in a paged backing store, one
    /// pager per level (leaf level first, one block to a page), with
    /// the page cache `cache_cfg` shared by every level. Only the root
    /// block is loaded now; `prove` faults the pages its proof paths
    /// touch.
    pub fn open_paged(
        pagers: Vec<Arc<dyn Pager>>,
        leaf_count: usize,
        fanout: usize,
        cache_cfg: PageCacheCfg,
    ) -> Result<Self, MerkleError> {
        if leaf_count == 0 {
            return Err(MerkleError::EmptyTree);
        }
        if fanout < 2 {
            return Err(MerkleError::BadFanout(fanout));
        }
        let sizes = level_sizes(leaf_count, fanout);
        if pagers.len() != sizes.len() {
            return Err(MerkleError::Page(format!(
                "{} level pagers for a tree of height {}",
                pagers.len(),
                sizes.len()
            )));
        }
        let cache = Arc::new(PageCache::new(cache_cfg));
        let mut levels: Vec<Blocks<Digest>> = pagers
            .into_iter()
            .zip(sizes)
            .enumerate()
            .map(|(l, (pager, len))| {
                Blocks::paged(pager, len, Arc::clone(&cache), (l as u64) << 32)
            })
            .collect();
        levels.last_mut().expect("a tree has a root").load_all()?;
        Ok(MerkleTree { fanout, levels })
    }

    /// The signed root digest.
    pub fn root(&self) -> Digest {
        self.levels[self.levels.len() - 1][0]
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// Tree fanout.
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Tree height in levels (1 for a single leaf).
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// The level arrays, leaf level first. Snapshot writers page them
    /// out ([`Blocks::to_bytes`]).
    pub fn dense_levels(&self) -> &[Blocks<Digest>] {
        &self.levels
    }

    /// Digest of leaf `i`.
    ///
    /// A leaf in an unloaded block faults its page; a fault failure
    /// reports as `None`, same as out-of-range.
    pub fn leaf(&self, i: usize) -> Option<Digest> {
        (i < self.leaf_count())
            .then(|| self.levels[0].read(i).ok())
            .flatten()
    }

    /// Total number of digests in the tree — the ADS storage-overhead
    /// metric.
    pub fn total_digests(&self) -> usize {
        self.levels.iter().map(Blocks::len).sum()
    }

    /// Replaces the digest of leaf `i` and recomputes the O(log n) path
    /// to the root — the incremental-update primitive for dynamic
    /// networks (an edge-weight change touches two leaves).
    pub fn update_leaf(&mut self, i: usize, digest: Digest) -> Result<(), MerkleError> {
        self.update_leaves(&[(i, digest)])
    }

    /// Replaces several leaf digests and recomputes their paths to the
    /// root, hashing each touched interior node once. `leaves` is
    /// sorted by index; a repeated index keeps its last digest. Only
    /// the blocks holding a written digest are loaded (if they were
    /// not) and copied, each once, so a clone of the tree keeps every
    /// other block shared, and an unloaded one unloaded. An
    /// out-of-range index changes nothing.
    pub fn update_leaves(&mut self, leaves: &[(usize, Digest)]) -> Result<(), MerkleError> {
        let fanout = self.fanout;
        let n = self.leaf_count();
        if let Some(&(index, _)) = leaves.iter().find(|&&(i, _)| i >= n) {
            return Err(MerkleError::LeafOutOfRange {
                index,
                leaf_count: n,
            });
        }
        self.levels[0].set_sorted(leaves.iter().copied())?;
        let mut touched: Vec<usize> = leaves.iter().map(|&(i, _)| i).collect();
        touched.dedup();
        let mut children = Vec::with_capacity(fanout);
        for lvl in 0..self.levels.len() - 1 {
            touched = touched.iter().map(|&i| i / fanout).collect();
            touched.dedup();
            let level = &self.levels[lvl];
            let mut parents = Vec::with_capacity(touched.len());
            for &p in &touched {
                let first = p * fanout;
                let last = (first + fanout).min(level.len());
                children.clear();
                for c in first..last {
                    children.push(level.read(c)?);
                }
                parents.push((p, hash_digests(&children)));
            }
            self.levels[lvl + 1].set_sorted(parents)?;
        }
        Ok(())
    }

    /// Builds the proof for a set of leaf indices per Merkle's rule.
    ///
    /// One sorted-vector sweep per level: the covered set stays sorted,
    /// so each parent's covered children form a contiguous run and the
    /// uncovered siblings are emitted in index order without set
    /// membership queries. Only the pages holding emitted sibling
    /// digests of unloaded blocks are faulted in.
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
        for (lvl, level) in self.levels[..self.levels.len() - 1].iter().enumerate() {
            let mut parents: Vec<usize> = Vec::with_capacity(covered.len());
            let mut i = 0usize;
            while i < covered.len() {
                let p = covered[i] / self.fanout;
                let first = p * self.fanout;
                let last = (first + self.fanout).min(level.len());
                // Supply digests of the parent's uncovered children
                // (rule: subtree has no proven leaf, parent's does).
                for c in first..last {
                    if i < covered.len() && covered[i] == c {
                        i += 1;
                    } else {
                        entries.push(ProofEntry {
                            level: lvl as u32,
                            index: c as u32,
                            digest: level.read(c)?,
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
    use crate::blocks::{PAGE_BYTES, PAGE_DIGESTS};
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
        let sizes: Vec<usize> = tree.dense_levels().iter().map(Blocks::len).collect();
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
        // 64 leaves, fanout 2 → one sibling digest on each of 6 levels.
        // (Its wire size is the core codec's: `wire::tests`.)
        assert_eq!(p.num_items(), 6);
        let mut levels: Vec<u32> = p.entries.iter().map(|e| e.level).collect();
        levels.sort_unstable();
        assert_eq!(levels, (0..6).collect::<Vec<u32>>());
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
            .iter()
            .map(|l| l.to_vec().unwrap())
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
        let (a, b) = (old.dense_levels(), new.dense_levels());
        let mut path: Vec<usize> = writes.iter().map(|&(i, _)| i).collect();
        for (lvl, (la, lb)) in a.iter().zip(b).enumerate() {
            let written: Vec<usize> = path.iter().map(|&i| i / PAGE_DIGESTS).collect();
            for (blk, (x, y)) in la.blocks().iter().zip(lb.blocks()).enumerate() {
                assert_eq!(
                    Arc::ptr_eq(x.as_ref().unwrap(), y.as_ref().unwrap()),
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

    /// One byte pager per level of a built tree, serving real
    /// snapshot pages, all counting faults into one counter; `clip`
    /// caps the bytes each page serves.
    fn level_pagers(tree: &MerkleTree, clip: usize) -> Vec<Arc<BytePager>> {
        let faults = Arc::new(AtomicU64::new(0));
        tree.dense_levels()
            .iter()
            .map(|level| {
                Arc::new(BytePager {
                    bytes: level.to_bytes().unwrap(),
                    page_len: PAGE_BYTES,
                    clip,
                    faults: Arc::clone(&faults),
                })
            })
            .collect()
    }

    fn open(pagers: &[Arc<BytePager>], built: &MerkleTree, cfg: PageCacheCfg) -> MerkleTree {
        let pagers = pagers
            .iter()
            .map(|p| Arc::clone(p) as Arc<dyn Pager>)
            .collect();
        MerkleTree::open_paged(pagers, built.leaf_count(), built.fanout(), cfg).unwrap()
    }

    #[test]
    fn paged_tree_matches_dense_proofs() {
        for &(n, f) in &[(1000usize, 3usize), (5000, 16), (300, 2), (1, 2)] {
            let ls = leaves(n);
            let dense = MerkleTree::build(ls.clone(), f).unwrap();
            let pagers = level_pagers(&dense, usize::MAX);
            let paged = open(&pagers, &dense, PageCacheCfg::default());
            assert_eq!(paged.root(), dense.root());
            assert_eq!(paged.height(), dense.height());
            assert_eq!(paged.leaf_count(), dense.leaf_count());
            assert_eq!(paged.total_digests(), dense.total_digests());
            for proven in [vec![0usize], vec![n - 1], vec![0, n / 2, n - 1]] {
                let set: BTreeSet<usize> = proven.iter().copied().collect();
                let a = dense.prove(set.clone()).unwrap();
                let b = paged.prove(set).unwrap();
                assert_eq!(a, b, "n={n} f={f} proven={proven:?}");
            }
            assert_eq!(paged.leaf(0), dense.leaf(0));
            assert_eq!(paged.leaf(n), None);
            assert_eq!(level_vecs(&paged), level_vecs(&dense));
        }
    }

    #[test]
    fn paged_tree_faults_only_touched_pages() {
        // 20,000 leaves, fanout 2: 335 pages over 16 levels. One
        // single-leaf proof must not fault every leaf page.
        let ls = leaves(20_000);
        let dense = MerkleTree::build(ls, 2).unwrap();
        let pagers = level_pagers(&dense, usize::MAX);
        let faults = Arc::clone(&pagers[0].faults);
        let paged = open(&pagers, &dense, PageCacheCfg::default());
        let after_open = faults.load(Ordering::Relaxed);
        assert_eq!(after_open, 1, "open faults only the root page");
        paged.prove([3usize].into_iter().collect()).unwrap();
        let after_prove = faults.load(Ordering::Relaxed);
        let total_pages: usize = dense.dense_levels().iter().map(|l| l.blocks().len()).sum();
        assert!(
            ((after_prove - after_open) as usize) < total_pages / 2,
            "proof faulted {} of {} pages",
            after_prove - after_open,
            total_pages
        );
        // Re-proving the same leaf hits the cache: no new faults, and
        // no block but the root became resident.
        paged.prove([3usize].into_iter().collect()).unwrap();
        assert_eq!(faults.load(Ordering::Relaxed), after_prove);
        let resident: usize = paged
            .dense_levels()
            .iter()
            .map(|l| l.blocks().iter().filter(|b| b.is_some()).count())
            .sum();
        assert_eq!(resident, 1);
    }

    #[test]
    fn paged_tree_cache_is_bounded() {
        // 4,096 leaves: 32 leaf pages against an 8-page cache.
        let ls = leaves(4096);
        let dense = MerkleTree::build(ls, 2).unwrap();
        let pagers = level_pagers(&dense, usize::MAX);
        let evictions = Arc::new(AtomicU64::new(0));
        let cfg = PageCacheCfg {
            capacity: 8,
            evictions: Some(Arc::clone(&evictions)),
        };
        let paged = open(&pagers, &dense, cfg);
        // Sweep every leaf page — far more pages than the bound.
        for i in 0..4096 {
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
        let set: BTreeSet<usize> = [0usize, 4095].into_iter().collect();
        assert_eq!(paged.prove(set.clone()).unwrap(), dense.prove(set).unwrap());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// A tree opened over a built tree's pages takes the same
        /// random `update_leaves` sequence as the built tree and stays
        /// equal to it — every level and every proof — while only the
        /// blocks on the written leaves' paths become resident: every
        /// other block still faults.
        #[test]
        fn paged_tree_updates_match_the_built_tree(
            n in 1usize..6000,
            fanout in 2usize..9,
            seed in 0u64..u64::MAX,
            picks in proptest::collection::vec(0usize..usize::MAX, 1..24),
            rounds in 1usize..4,
        ) {
            let mut built = MerkleTree::build(leaves(n), fanout).unwrap();
            let pagers = level_pagers(&built, usize::MAX);
            let mut paged = open(&pagers, &built, PageCacheCfg::with_capacity(4));
            let mut written: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); built.height()];
            written[built.height() - 1].insert(0);
            for (round, chunk) in picks.chunks(picks.len().div_ceil(rounds)).enumerate() {
                let mut set: Vec<usize> = chunk.iter().map(|p| p % n).collect();
                set.sort_unstable();
                set.dedup();
                let writes: Vec<(usize, Digest)> = set
                    .iter()
                    .map(|&i| (i, hash_bytes(&(seed ^ (i + round * n) as u64).to_le_bytes())))
                    .collect();
                built.update_leaves(&writes).unwrap();
                paged.update_leaves(&writes).unwrap();
                let mut path = set;
                for blocks in written.iter_mut() {
                    blocks.extend(path.iter().map(|&i| i / PAGE_DIGESTS));
                    path = path.iter().map(|&i| i / fanout).collect();
                    path.dedup();
                }
                let probe: BTreeSet<usize> = [0, n / 3, n - 1].into_iter().chain(chunk.iter().map(|p| p % n)).collect();
                proptest::prop_assert_eq!(paged.prove(probe.clone()).unwrap(), built.prove(probe).unwrap());
            }
            proptest::prop_assert_eq!(paged.root(), built.root());
            proptest::prop_assert_eq!(level_vecs(&paged), level_vecs(&built));
            for (lvl, level) in paged.dense_levels().iter().enumerate() {
                let resident: BTreeSet<usize> = level
                    .blocks()
                    .iter()
                    .enumerate()
                    .filter_map(|(b, block)| block.is_some().then_some(b))
                    .collect();
                proptest::prop_assert_eq!(&resident, &written[lvl], "level {}", lvl);
            }
            // Unloaded blocks still fault: after five other cold leaf
            // pages pass through the 4-page cache, the first re-faults.
            let cold: Vec<usize> = (0..n.div_ceil(PAGE_DIGESTS))
                .filter(|b| !written[0].contains(b))
                .take(5)
                .collect();
            if cold.len() == 5 {
                for &b in &cold {
                    paged.leaf(b * PAGE_DIGESTS).unwrap();
                }
                let before = pagers[0].faults.load(Ordering::Relaxed);
                paged.leaf(cold[0] * PAGE_DIGESTS).unwrap();
                proptest::prop_assert_eq!(pagers[0].faults.load(Ordering::Relaxed), before + 1);
            }
        }
    }

    #[test]
    fn paged_tree_rejects_short_page() {
        let dense = MerkleTree::build(leaves(16), 2).unwrap();
        // Pages cut to one digest, then to a digest and a byte. The
        // root page (one digest) passes either way, so open succeeds;
        // the first leaf-page fault reports the bad page.
        for (clip, why) in [(32, "expected 16 records"), (33, "not a multiple of 32")] {
            let pagers = level_pagers(&dense, clip);
            let paged = open(&pagers, &dense, PageCacheCfg::default());
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
        for (clip, why) in [(16, "expected 20 records"), (17, "not a multiple of 16")] {
            let pager = Arc::new(BytePager {
                bytes: entries.iter().flat_map(|e| e.encode()).collect(),
                page_len: PAGE_BYTES,
                clip,
                faults: Arc::new(AtomicU64::new(0)),
            });
            let cfg = PageCacheCfg::default();
            let paged = MerkleBTree::open_paged(pager, vec![0], bt.tree().clone(), cfg).unwrap();
            let err = paged.prove_keys(&[0]).unwrap_err();
            assert!(
                matches!(&err, MbTreeError::Merkle(MerkleError::Page(m)) if m.contains(why)),
                "{err:?}"
            );
        }
        // A pager list that does not match the tree height is refused.
        let pagers = level_pagers(&dense, usize::MAX);
        let short = pagers[1..]
            .iter()
            .map(|p| Arc::clone(p) as Arc<dyn Pager>)
            .collect();
        let err = MerkleTree::open_paged(short, 16, 2, PageCacheCfg::default()).unwrap_err();
        assert!(matches!(err, MerkleError::Page(_)), "{err:?}");
    }
}
