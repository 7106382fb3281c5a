//! Authenticated data structures over the network and signed roots.
//!
//! Section III-B: the data owner fixes a graph-node ordering `O`,
//! builds a Merkle tree over the ordered extended-tuple digests, and
//! signs the root. The signature binds the root *and* its metadata
//! (tag, geometry, method parameters), so a provider can neither swap
//! trees nor lie about parameters like the quantization step λ.

use crate::tuple::ExtendedTuple;
use spnet_bytes::blocks::Blocks;
use spnet_bytes::enc::Encoder;
use spnet_bytes::{wire_enum, wire_struct};
use spnet_crypto::digest::{hash_bytes, Digest};
use spnet_crypto::merkle::{MerkleError, MerkleProof, MerkleTree};
use spnet_crypto::rsa::{RsaKeyPair, RsaPublicKey, RsaSignature};
use spnet_graph::order::NodeOrdering;
use spnet_graph::{Graph, NodeId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// What a signed root authenticates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdsTag {
    /// The network Merkle tree over extended-tuples.
    Network,
    /// The FULL method's all-pairs distance tree.
    Distance,
    /// The HYP method's hyper-edge weight tree.
    HyperEdges,
    /// The HYP method's cell directory (cell id → node count).
    CellDirectory,
    /// A signed point-of-interest set (node id → POI payload), used by
    /// the verified k-nearest-POI operator in `spnet-queries`.
    Poi,
}

wire_enum!(AdsTag {
    1 => Network,
    2 => Distance,
    3 => HyperEdges,
    4 => CellDirectory,
    5 => Poi,
});

/// Metadata bound into a root signature.
#[derive(Debug, Clone, PartialEq)]
pub struct AdsMeta {
    /// Which structure this is.
    pub tag: AdsTag,
    /// Leaf count of the tree.
    pub leaf_count: u64,
    /// Tree fanout.
    pub fanout: u32,
    /// Method parameters the client must trust (e.g. λ for LDM),
    /// canonical-encoded by the method module.
    pub params: Vec<u8>,
}

impl AdsMeta {
    /// The signature pre-image `H(root ∘ meta)`: the first two fields
    /// of the [`SignedRoot`] encoding.
    pub fn signing_digest(&self, root: Digest) -> Digest {
        let mut e = Encoder::new();
        e.put(&root);
        e.put(self);
        hash_bytes(&e.into_bytes())
    }
}

wire_struct!(AdsMeta { tag: AdsTag, leaf_count: u64, fanout: u32, params: Vec<u8> });

/// An owner-signed ADS root: root digest + metadata + RSA signature.
#[derive(Debug, Clone, PartialEq)]
pub struct SignedRoot {
    /// The Merkle root being signed.
    pub root: Digest,
    /// The metadata bound into the signature.
    pub meta: AdsMeta,
    /// RSA signature over [`AdsMeta::signing_digest`].
    pub signature: RsaSignature,
}

impl SignedRoot {
    /// Owner-side: signs `root` with `meta`.
    pub fn sign(keypair: &RsaKeyPair, root: Digest, meta: AdsMeta) -> Self {
        let signature = keypair.sign(&meta.signing_digest(root));
        SignedRoot {
            root,
            meta,
            signature,
        }
    }

    /// Client-side: checks the signature against the owner's key.
    pub fn verify(&self, pk: &RsaPublicKey) -> bool {
        pk.verify(&self.meta.signing_digest(self.root), &self.signature)
    }
}

wire_struct!(SignedRoot {
    root: Digest,
    meta: AdsMeta,
    signature: RsaSignature
});

/// The network ADS: ordering + Merkle tree + per-node tuples.
///
/// Held by the service provider; the owner only needs it long enough to
/// sign the root. A clone shares everything: the ordering (no update
/// writes it) by one reference count, the tuple handles and the tree
/// levels by one per block, so an update copies only the blocks it
/// writes.
#[derive(Debug, Clone)]
pub struct NetworkAds {
    /// Leaf position → node id.
    order: Arc<[NodeId]>,
    /// Node id → leaf position.
    position: Arc<[u32]>,
    /// Tuples indexed by node id, reference-counted so proofs share
    /// them instead of deep-cloning adjacency lists per query.
    tuples: Blocks<Arc<ExtendedTuple>>,
    /// Merkle tree over ordered tuple digests.
    tree: MerkleTree,
}

impl NetworkAds {
    /// Builds the ADS from per-node tuples (indexed by node id).
    ///
    /// # Panics
    /// Panics if `tuples.len() != g.num_nodes()` or the graph is empty.
    pub fn build(
        g: &Graph,
        tuples: Vec<ExtendedTuple>,
        ordering: NodeOrdering,
        fanout: usize,
        seed: u64,
    ) -> Self {
        assert_eq!(tuples.len(), g.num_nodes(), "one tuple per node");
        let order = ordering.order(g, seed);
        let mut position = vec![0u32; order.len()];
        for (i, v) in order.iter().enumerate() {
            position[v.index()] = i as u32;
        }
        let leaves: Vec<Digest> = order.iter().map(|v| tuples[v.index()].digest()).collect();
        let tree = MerkleTree::build(leaves, fanout).expect("non-empty network");
        NetworkAds {
            order: order.into(),
            position: position.into(),
            tuples: tuples.into_iter().map(Arc::new).collect(),
            tree,
        }
    }

    /// Reassembles an ADS from persisted parts (snapshot load): the
    /// leaf ordering, the per-node tuples, and the Merkle tree itself.
    /// Returns `None` when the parts are structurally inconsistent
    /// (length mismatch, or `order` is not a permutation of the node
    /// ids) — the caller maps that to a typed snapshot error.
    pub(crate) fn from_parts(
        order: Vec<NodeId>,
        tuples: Vec<Arc<ExtendedTuple>>,
        tree: MerkleTree,
    ) -> Option<Self> {
        let n = tuples.len();
        if order.len() != n || tree.leaf_count() != n || n == 0 {
            return None;
        }
        let mut position = vec![u32::MAX; n];
        for (i, v) in order.iter().enumerate() {
            let slot = position.get_mut(v.index())?;
            if *slot != u32::MAX {
                return None; // duplicate node in the ordering
            }
            *slot = i as u32;
        }
        Some(NetworkAds {
            order: order.into(),
            position: position.into(),
            tuples: tuples.into_iter().collect(),
            tree,
        })
    }

    /// The Merkle root.
    pub fn root(&self) -> Digest {
        self.tree.root()
    }

    /// Leaf position → node id (the owner's fixed ordering `O`).
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// The underlying Merkle tree (snapshot save pages out its
    /// levels).
    pub fn tree(&self) -> &MerkleTree {
        &self.tree
    }

    /// Number of leaves (= |V|).
    pub fn leaf_count(&self) -> usize {
        self.order.len()
    }

    /// Tree fanout.
    pub fn fanout(&self) -> usize {
        self.tree.fanout()
    }

    /// The extended-tuple of node `v`.
    pub fn tuple(&self, v: NodeId) -> &ExtendedTuple {
        &self.tuples[v.index()]
    }

    /// A shared handle to node `v`'s tuple — what proofs ship. Cloning
    /// the handle is a reference-count bump, not a deep copy of the
    /// adjacency list.
    pub fn tuple_shared(&self, v: NodeId) -> Arc<ExtendedTuple> {
        Arc::clone(&self.tuples[v.index()])
    }

    /// Leaf position of node `v` under the ordering.
    pub fn position(&self, v: NodeId) -> u32 {
        self.position[v.index()]
    }

    /// Replaces the tuples of the nodes they name (`ExtendedTuple::id`)
    /// and patches their Merkle paths in one batched repair
    /// ([`MerkleTree::update_leaves`]) — the dynamic-update primitive
    /// (see `spnet_core::update`). Only the tuple and digest blocks
    /// holding a replaced entry are copied, and of a snapshot-loaded
    /// tree only those digest blocks are loaded.
    pub fn replace_tuples(&mut self, tuples: Vec<ExtendedTuple>) -> Result<(), MerkleError> {
        let mut leaves: Vec<(usize, Digest)> = tuples
            .iter()
            .map(|t| (self.position(t.id) as usize, t.digest()))
            .collect();
        leaves.sort_by_key(|&(pos, _)| pos);
        self.tree.update_leaves(&leaves)?;
        let tuples = tuples.into_iter().map(|t| (t.id.index(), Arc::new(t)));
        Ok(self.tuples.set_sorted(tuples)?)
    }

    /// Builds the Merkle cover proof for a set of nodes.
    pub fn prove_nodes(
        &self,
        nodes: impl IntoIterator<Item = NodeId>,
    ) -> Result<MerkleProof, MerkleError> {
        let idx: BTreeSet<usize> = nodes
            .into_iter()
            .map(|v| self.position[v.index()] as usize)
            .collect();
        self.tree.prove(idx)
    }

    /// Total digests stored — the ADS storage-overhead metric.
    pub fn storage_digests(&self) -> usize {
        self.tree.total_digests()
    }

    /// The signed-meta skeleton for this tree (params filled by the
    /// method module).
    pub fn meta(&self, params: Vec<u8>) -> AdsMeta {
        AdsMeta {
            tag: AdsTag::Network,
            leaf_count: self.leaf_count() as u64,
            fanout: self.fanout() as u32,
            params,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    const PAGE_DIGESTS: usize = Blocks::<Digest>::BLOCK_LEN;
    use spnet_graph::gen::grid_network;

    fn ads(fanout: usize, ordering: NodeOrdering) -> (Graph, NetworkAds) {
        let g = grid_network(8, 8, 1.15, 200);
        let tuples: Vec<ExtendedTuple> = g.nodes().map(|v| ExtendedTuple::base(&g, v)).collect();
        let a = NetworkAds::build(&g, tuples, ordering, fanout, 201);
        (g, a)
    }

    #[test]
    fn positions_invert_order() {
        let (_, a) = ads(2, NodeOrdering::Hilbert);
        for v in 0..a.leaf_count() as u32 {
            let pos = a.position(NodeId(v));
            assert_eq!(a.order[pos as usize], NodeId(v));
        }
    }

    #[test]
    fn proof_round_trip_through_positions() {
        let (g, a) = ads(3, NodeOrdering::Dfs);
        let nodes: Vec<NodeId> = g.nodes().take(5).collect();
        let proof = a.prove_nodes(nodes.clone()).unwrap();
        let leaves: Vec<(usize, Digest)> = nodes
            .iter()
            .map(|&v| (a.position(v) as usize, a.tuple(v).digest()))
            .collect();
        assert_eq!(proof.reconstruct_root(&leaves).unwrap(), a.root());
    }

    #[test]
    fn signed_root_verifies() {
        let (_, a) = ads(2, NodeOrdering::Hilbert);
        let mut rng = StdRng::seed_from_u64(202);
        let kp = RsaKeyPair::generate(&mut rng, 256);
        let signed = SignedRoot::sign(&kp, a.root(), a.meta(vec![1, 2, 3]));
        assert!(signed.verify(kp.public_key()));
    }

    #[test]
    fn signature_binds_params() {
        // Changing method params (e.g. λ) must invalidate the signature.
        let (_, a) = ads(2, NodeOrdering::Hilbert);
        let mut rng = StdRng::seed_from_u64(203);
        let kp = RsaKeyPair::generate(&mut rng, 256);
        let mut signed = SignedRoot::sign(&kp, a.root(), a.meta(vec![1, 2, 3]));
        signed.meta.params = vec![9, 9, 9];
        assert!(!signed.verify(kp.public_key()));
    }

    #[test]
    fn signature_binds_geometry() {
        let (_, a) = ads(2, NodeOrdering::Hilbert);
        let mut rng = StdRng::seed_from_u64(204);
        let kp = RsaKeyPair::generate(&mut rng, 256);
        let mut signed = SignedRoot::sign(&kp, a.root(), a.meta(vec![]));
        signed.meta.fanout = 16;
        assert!(!signed.verify(kp.public_key()));
        let mut signed2 = SignedRoot::sign(&kp, a.root(), a.meta(vec![]));
        signed2.meta.leaf_count += 1;
        assert!(!signed2.verify(kp.public_key()));
    }

    #[test]
    fn signature_binds_tag() {
        let (_, a) = ads(2, NodeOrdering::Hilbert);
        let mut rng = StdRng::seed_from_u64(205);
        let kp = RsaKeyPair::generate(&mut rng, 256);
        let mut signed = SignedRoot::sign(&kp, a.root(), a.meta(vec![]));
        signed.meta.tag = AdsTag::Distance;
        assert!(!signed.verify(kp.public_key()));
    }

    #[test]
    fn different_orderings_different_roots() {
        let (_, a1) = ads(2, NodeOrdering::Hilbert);
        let (_, a2) = ads(2, NodeOrdering::Bfs);
        assert_ne!(a1.root(), a2.root());
    }

    #[test]
    fn different_fanouts_different_roots() {
        let (_, a1) = ads(2, NodeOrdering::Hilbert);
        let (_, a2) = ads(4, NodeOrdering::Hilbert);
        assert_ne!(a1.root(), a2.root());
    }

    #[test]
    fn tampered_tuple_breaks_reconstruction() {
        let (_, a) = ads(2, NodeOrdering::Hilbert);
        let v = NodeId(10);
        let proof = a.prove_nodes([v]).unwrap();
        let mut evil = a.tuple(v).clone();
        evil.adj[0].1 *= 0.5; // halve a road length
        let root = proof
            .reconstruct_root(&[(a.position(v) as usize, evil.digest())])
            .unwrap();
        assert_ne!(root, a.root());
    }

    #[test]
    fn replace_tuples_copies_only_the_blocks_it_writes() {
        // 2,500 nodes: 5 tuple blocks of 512 handles, 20 leaf blocks of
        // 128 digests. Two replaced tuples write their tuple blocks and
        // the tree blocks on their leaves' paths; the other epoch keeps
        // every block and its own root.
        let g = grid_network(50, 50, 1.15, 206);
        let tuples: Vec<ExtendedTuple> = g.nodes().map(|v| ExtendedTuple::base(&g, v)).collect();
        let old = NetworkAds::build(&g, tuples, NodeOrdering::Hilbert, 2, 207);
        let mut new = old.clone();
        let nodes = [NodeId(3), NodeId(2_000)];
        let fresh: Vec<ExtendedTuple> = nodes
            .iter()
            .map(|&v| {
                let mut t = old.tuple(v).clone();
                t.adj[0].1 += 1.0;
                t
            })
            .collect();
        new.replace_tuples(fresh.clone()).unwrap();
        assert!(Arc::ptr_eq(&old.order, &new.order));
        assert!(Arc::ptr_eq(&old.position, &new.position));
        let block = Blocks::<Arc<ExtendedTuple>>::BLOCK_LEN;
        let written: Vec<usize> = nodes.iter().map(|v| v.index() / block).collect();
        for (b, (x, y)) in old
            .tuples
            .blocks()
            .iter()
            .zip(new.tuples.blocks())
            .enumerate()
        {
            let shared = Arc::ptr_eq(x.as_ref().unwrap(), y.as_ref().unwrap());
            assert_eq!(shared, !written.contains(&b), "tuple block {b}");
        }
        let mut path: Vec<usize> = nodes.iter().map(|&v| old.position(v) as usize).collect();
        let levels = old.tree.dense_levels().iter();
        for (lvl, (la, lb)) in levels.zip(new.tree.dense_levels()).enumerate() {
            let written: Vec<usize> = path.iter().map(|&i| i / PAGE_DIGESTS).collect();
            for (b, (x, y)) in la.blocks().iter().zip(lb.blocks()).enumerate() {
                assert_eq!(
                    Arc::ptr_eq(x.as_ref().unwrap(), y.as_ref().unwrap()),
                    !written.contains(&b),
                    "level {lvl} block {b}"
                );
            }
            path = path.iter().map(|&i| i / 2).collect();
        }
        // The new epoch equals a fresh build; the old one is unchanged.
        let mut all: Vec<ExtendedTuple> = g.nodes().map(|v| ExtendedTuple::base(&g, v)).collect();
        for t in &fresh {
            all[t.id.index()] = t.clone();
        }
        let rebuilt = NetworkAds::build(&g, all, NodeOrdering::Hilbert, 2, 207);
        assert_eq!(new.root(), rebuilt.root());
        assert_ne!(old.root(), new.root());
        assert_eq!(old.tuple(nodes[0]), &ExtendedTuple::base(&g, nodes[0]));
    }

    #[test]
    fn storage_accounting() {
        let (_, a) = ads(2, NodeOrdering::Hilbert);
        // 64 leaves binary: 64+32+16+8+4+2+1 = 127 digests.
        assert_eq!(a.storage_digests(), 127);
    }
}
