//! Query proofs: the shortest-path proof ΓS and integrity proof ΓT.
//!
//! Algorithm 1 of the paper returns, for every query, the result path
//! `P_rslt` plus the pair `(ΓS, ΓT)`. This module defines the concrete
//! proof payloads for all four methods and the size/item accounting the
//! experiments report (Figures 8a/8b).

use crate::ads::SignedRoot;
use crate::enc::Wire;
use crate::methods::full::FullDistanceProof;
use crate::tuple::ExtendedTuple;
use spnet_crypto::mbtree::KeyedProof;
use spnet_crypto::merkle::MerkleProof;
use spnet_graph::Path;
use std::sync::Arc;

/// The integrity proof ΓT: Merkle cover digests plus the leaf position
/// of every tuple shipped in ΓS (positions are bound by reconstruction
/// — lying about one changes the root).
#[derive(Debug, Clone, PartialEq)]
pub struct IntegrityProof {
    /// Leaf positions, parallel to the tuple list of the ΓS payload.
    pub positions: Vec<u32>,
    /// Merkle cover digests per Merkle's rule.
    pub merkle: MerkleProof,
    /// The owner-signed network root this proof verifies against.
    pub signed_root: SignedRoot,
}

impl IntegrityProof {
    /// Number of digest items — the paper's "T-prf" item count.
    pub fn num_items(&self) -> usize {
        self.merkle.num_items()
    }
}

/// The shortest-path proof ΓS, per method.
///
/// Tuples are shipped as shared [`Arc`] handles into the provider's
/// ADS tuple table: assembling a proof bumps reference counts instead
/// of deep-cloning adjacency lists (the seed cloned every tuple into
/// every proof). Equality and the wire encoding see through the `Arc`.
#[derive(Debug, Clone, PartialEq)]
pub enum SpProof {
    /// DIJ / LDM: a subgraph proof — the extended tuples of Lemma 1 /
    /// Lemma 2.
    Subgraph {
        /// The tuples, in the order matched by
        /// [`IntegrityProof::positions`].
        tuples: Vec<Arc<ExtendedTuple>>,
    },
    /// FULL: a distance proof — one materialized tuple with its Merkle
    /// path in the distance tree.
    Distance {
        /// Membership proof of `⟨vs, vt, dist⟩` in the distance ADS.
        full: FullDistanceProof,
        /// The owner-signed distance-tree root.
        signed_root: SignedRoot,
        /// The path-node tuples whose integrity ΓT proves.
        path_tuples: Vec<Arc<ExtendedTuple>>,
    },
    /// HYP: coarse subgraph proof + hyper-edge distance proof + fine
    /// path tuples (Section V-B; shipped combined, as the paper notes).
    Hyp {
        /// All tuples of the source and target cells.
        cell_tuples: Vec<Arc<ExtendedTuple>>,
        /// Tuples of reported-path nodes outside those cells.
        path_tuples: Vec<Arc<ExtendedTuple>>,
        /// Membership proof for every (source-border, target-border)
        /// hyper-edge.
        hyper: KeyedProof,
        /// The owner-signed hyper-edge tree root.
        hyper_signed_root: SignedRoot,
        /// Membership proof of the two cells' population counts in the
        /// signed cell directory (completeness of the coarse proof).
        cell_dir: KeyedProof,
        /// The owner-signed cell-directory root.
        cell_dir_signed_root: SignedRoot,
    },
}

impl SpProof {
    /// All tuples shipped in ΓS, in position order (the order the
    /// integrity proof's `positions` refers to).
    pub fn tuples(&self) -> &[Arc<ExtendedTuple>] {
        match self {
            SpProof::Subgraph { tuples } => tuples,
            SpProof::Distance { path_tuples, .. } => path_tuples,
            SpProof::Hyp { cell_tuples, .. } => cell_tuples,
        }
    }

    /// Mutable access to the primary tuple list — what shape-generic
    /// consumers (e.g. the tamper simulator) mutate without matching on
    /// the method.
    pub fn tuples_mut(&mut self) -> &mut Vec<Arc<ExtendedTuple>> {
        match self {
            SpProof::Subgraph { tuples } => tuples,
            SpProof::Distance { path_tuples, .. } => path_tuples,
            SpProof::Hyp { cell_tuples, .. } => cell_tuples,
        }
    }

    /// HYP ships two tuple lists; this returns the second (path tuples
    /// outside the cells), empty for other methods.
    pub fn extra_tuples(&self) -> &[Arc<ExtendedTuple>] {
        match self {
            SpProof::Hyp { path_tuples, .. } => path_tuples,
            _ => &[],
        }
    }

    /// Number of ΓS items — tuples plus materialized entries plus
    /// auxiliary digests (the paper's "S-prf" count).
    pub fn num_items(&self) -> usize {
        match self {
            SpProof::Subgraph { tuples } => tuples.len(),
            SpProof::Distance { full, .. } => full.num_items(),
            SpProof::Hyp {
                cell_tuples,
                path_tuples,
                hyper,
                cell_dir,
                ..
            } => {
                cell_tuples.len()
                    + path_tuples.len()
                    + hyper.entries.len()
                    + hyper.num_items()
                    + cell_dir.entries.len()
                    + cell_dir.num_items()
            }
        }
    }
}

/// A complete provider answer: the result path and both proofs.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// The reported shortest path `P_rslt`.
    pub path: Path,
    /// The shortest-path proof ΓS.
    pub sp: SpProof,
    /// The integrity proof ΓT (covers every tuple in ΓS).
    pub integrity: IntegrityProof,
}

impl Answer {
    /// Proof-size statistics, the metrics of Figures 8–13.
    pub fn stats(&self) -> ProofStats {
        ProofStats {
            s_items: self.sp.num_items(),
            t_items: self.integrity.num_items(),
            s_bytes: self.sp.encoded_len(),
            t_bytes: self.integrity.encoded_len(),
            path_bytes: self.path.encoded_len(),
        }
    }
}

/// Communication-overhead accounting for one answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProofStats {
    /// Items in ΓS (tuples + materialized entries + digests).
    pub s_items: usize,
    /// Digest items in ΓT.
    pub t_items: usize,
    /// Encoded length of ΓS.
    pub s_bytes: usize,
    /// Encoded length of ΓT.
    pub t_bytes: usize,
    /// Encoded length of the reported path.
    pub path_bytes: usize,
}

impl ProofStats {
    /// Total communication overhead in bytes (ΓS + ΓT + path): the
    /// encoded answer less its version byte.
    pub fn total_bytes(&self) -> usize {
        self.s_bytes + self.t_bytes + self.path_bytes
    }

    /// Total in KBytes, as the figures plot.
    pub fn total_kbytes(&self) -> f64 {
        self.total_bytes() as f64 / 1024.0
    }

    /// Element-wise accumulation (for workload averaging).
    pub fn add(&mut self, other: &ProofStats) {
        self.s_items += other.s_items;
        self.t_items += other.t_items;
        self.s_bytes += other.s_bytes;
        self.t_bytes += other.t_bytes;
        self.path_bytes += other.path_bytes;
    }

    /// Divides all counters by `n` (workload averaging).
    pub fn scale_down(&self, n: usize) -> ProofStats {
        assert!(n > 0);
        ProofStats {
            s_items: self.s_items / n,
            t_items: self.t_items / n,
            s_bytes: self.s_bytes / n,
            t_bytes: self.t_bytes / n,
            path_bytes: self.path_bytes / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_arithmetic() {
        let mut a = ProofStats {
            s_items: 10,
            t_items: 20,
            s_bytes: 1000,
            t_bytes: 2000,
            path_bytes: 48,
        };
        let b = a;
        a.add(&b);
        assert_eq!(a.s_items, 20);
        assert_eq!(a.total_bytes(), 2 * 3048);
        let avg = a.scale_down(2);
        assert_eq!(avg.s_bytes, 1000);
        assert!((b.total_kbytes() - 3048.0 / 1024.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn scale_down_zero_panics() {
        let s = ProofStats::default();
        let _ = s.scale_down(0);
    }
}
