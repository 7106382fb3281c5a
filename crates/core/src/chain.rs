//! Signature chaining — the related-work baseline for integrity proofs
//! (Section II-B; \[14, 15, 16\]).
//!
//! Instead of one Merkle tree with a single signed root, the owner
//! signs every tuple *chained* with its neighbors in the ordering:
//! `sigᵢ = Sign(H(dᵢ₋₁ ∘ dᵢ ∘ dᵢ₊₁))` where `dᵢ = H(Φ(vᵢ))` and the
//! boundary digests are zero. A proof for a tuple set carries one
//! signature per tuple plus the digests of out-of-set neighbors.
//!
//! The paper cites \[4\] for demonstrating the superiority of
//! MHT-based authentication over signature chaining; the
//! `ablation_chain` experiment in `spnet-bench` reproduces that
//! comparison for shortest-path proofs: chaining pays one RSA
//! signature (~32–64 B + an expensive verification) *per tuple* where
//! the MHT pays a few shared digests.

use crate::ads::NetworkAds;
use crate::enc::Encoder;
use crate::error::VerifyError;
use crate::tuple::ExtendedTuple;
use spnet_crypto::digest::{hash_bytes, Digest};
use spnet_crypto::rsa::{RsaKeyPair, RsaPublicKey, RsaSignature};
use spnet_graph::NodeId;
use std::collections::HashMap;

/// The chain signing pre-image for position `i`.
fn chain_digest(prev: &Digest, cur: &Digest, next: &Digest) -> Digest {
    let mut e = Encoder::new();
    e.put_raw(prev.as_bytes());
    e.put_raw(cur.as_bytes());
    e.put_raw(next.as_bytes());
    hash_bytes(&e.into_bytes())
}

/// Owner-side: per-tuple chained signatures over the ADS ordering.
#[derive(Debug, Clone)]
pub struct ChainedAds {
    /// Signature per leaf position.
    sigs: Vec<RsaSignature>,
    /// Tuple digest per leaf position.
    digests: Vec<Digest>,
    /// Construction seconds (|V| RSA signatures dominate).
    pub build_seconds: f64,
}

impl ChainedAds {
    /// Signs every tuple of the (already ordered) network ADS.
    pub fn build(ads: &NetworkAds, keypair: &RsaKeyPair) -> Self {
        let start = std::time::Instant::now();
        let n = ads.leaf_count();
        // digests in leaf order
        let mut digests = vec![Digest::ZERO; n];
        for v in 0..n as u32 {
            let pos = ads.position(NodeId(v)) as usize;
            digests[pos] = ads.tuple(NodeId(v)).digest();
        }
        let at = |i: isize| -> Digest {
            if i < 0 || i as usize >= n {
                Digest::ZERO
            } else {
                digests[i as usize]
            }
        };
        let sigs = (0..n as isize)
            .map(|i| keypair.sign(&chain_digest(&at(i - 1), &at(i), &at(i + 1))))
            .collect();
        ChainedAds {
            sigs,
            digests,
            build_seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// Builds the chaining proof for a set of leaf positions: one
    /// signature per position plus boundary digests for out-of-set
    /// neighbors.
    pub fn prove(&self, positions: &[u32]) -> ChainProof {
        let set: std::collections::BTreeSet<u32> = positions.iter().copied().collect();
        let n = self.sigs.len() as u32;
        let mut boundary = Vec::new();
        for &p in &set {
            for nb in [p.wrapping_sub(1), p + 1] {
                if nb < n && !set.contains(&nb) {
                    boundary.push((nb, self.digests[nb as usize]));
                }
            }
        }
        boundary.sort_by_key(|&(p, _)| p);
        boundary.dedup_by_key(|&mut (p, _)| p);
        ChainProof {
            sigs: set
                .iter()
                .map(|&p| (p, self.sigs[p as usize].clone()))
                .collect(),
            boundary,
        }
    }
}

/// A signature-chaining integrity proof.
#[derive(Debug, Clone, PartialEq)]
pub struct ChainProof {
    /// `(position, signature)` per proven tuple.
    pub sigs: Vec<(u32, RsaSignature)>,
    /// Digests of out-of-set chain neighbors.
    pub boundary: Vec<(u32, Digest)>,
}

impl ChainProof {
    /// Proof size in bytes (position + signature per tuple, position +
    /// digest per boundary entry).
    pub fn size_bytes(&self) -> usize {
        self.sigs
            .iter()
            .map(|(_, s)| 4 + s.as_bytes().len())
            .sum::<usize>()
            + self.boundary.len() * (4 + 32)
    }

    /// Number of proof items (signatures + boundary digests).
    pub fn num_items(&self) -> usize {
        self.sigs.len() + self.boundary.len()
    }

    /// Client-side verification: every tuple's chained signature must
    /// check out against the owner's key.
    ///
    /// `tuples` are `(position, tuple)` pairs matching `sigs` order.
    pub fn verify(
        &self,
        tuples: &[(u32, &ExtendedTuple)],
        pk: &RsaPublicKey,
        leaf_count: u32,
    ) -> Result<(), VerifyError> {
        if tuples.len() != self.sigs.len() {
            return Err(VerifyError::MalformedIntegrityProof(format!(
                "{} tuples but {} signatures",
                tuples.len(),
                self.sigs.len()
            )));
        }
        // Digest map: proven tuples + boundary digests.
        let mut digest_at: HashMap<u32, Digest> = HashMap::new();
        for (p, t) in tuples {
            digest_at.insert(*p, t.digest());
        }
        for (p, d) in &self.boundary {
            digest_at.entry(*p).or_insert(*d);
        }
        let get = |i: i64| -> Result<Digest, VerifyError> {
            if i < 0 || i >= leaf_count as i64 {
                return Ok(Digest::ZERO);
            }
            digest_at.get(&(i as u32)).copied().ok_or_else(|| {
                VerifyError::MalformedIntegrityProof(format!("missing digest at {i}"))
            })
        };
        for ((p, sig), (tp, _)) in self.sigs.iter().zip(tuples) {
            if p != tp {
                return Err(VerifyError::MalformedIntegrityProof(
                    "position order mismatch".into(),
                ));
            }
            let i = *p as i64;
            let msg = chain_digest(&get(i - 1)?, &get(i)?, &get(i + 1)?);
            if !pk.verify(&msg, sig) {
                return Err(VerifyError::BadSignature);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enc::Wire;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spnet_graph::gen::grid_network;
    use spnet_graph::order::NodeOrdering;
    use spnet_graph::Graph;

    fn setup() -> (Graph, NetworkAds, ChainedAds, RsaKeyPair) {
        let g = grid_network(7, 7, 1.15, 1500);
        let tuples: Vec<ExtendedTuple> = g.nodes().map(|v| ExtendedTuple::base(&g, v)).collect();
        let ads = NetworkAds::build(&g, tuples, NodeOrdering::Hilbert, 2, 1501);
        let mut rng = StdRng::seed_from_u64(1502);
        let kp = RsaKeyPair::generate(&mut rng, 256);
        let chained = ChainedAds::build(&ads, &kp);
        (g, ads, chained, kp)
    }

    fn proof_for(
        ads: &NetworkAds,
        chained: &ChainedAds,
        nodes: &[NodeId],
    ) -> (ChainProof, Vec<u32>) {
        let mut positions: Vec<u32> = nodes.iter().map(|&v| ads.position(v)).collect();
        positions.sort();
        (chained.prove(&positions), positions)
    }

    #[test]
    fn honest_proof_verifies() {
        let (_, ads, chained, kp) = setup();
        let nodes: Vec<NodeId> = (0..6u32).map(NodeId).collect();
        let (proof, positions) = proof_for(&ads, &chained, &nodes);
        let mut pairs: Vec<(u32, &ExtendedTuple)> = Vec::new();
        for &p in &positions {
            // find the node at position p
            let v = (0..ads.leaf_count() as u32)
                .map(NodeId)
                .find(|&v| ads.position(v) == p)
                .unwrap();
            pairs.push((p, ads.tuple(v)));
        }
        proof
            .verify(&pairs, kp.public_key(), ads.leaf_count() as u32)
            .unwrap();
    }

    #[test]
    fn tampered_tuple_rejected() {
        let (_, ads, chained, kp) = setup();
        let v = NodeId(3);
        let (proof, positions) = proof_for(&ads, &chained, &[v]);
        let mut evil = ads.tuple(v).clone();
        evil.adj[0].1 *= 0.5;
        let pairs = vec![(positions[0], &evil)];
        assert_eq!(
            proof.verify(&pairs, kp.public_key(), ads.leaf_count() as u32),
            Err(VerifyError::BadSignature)
        );
    }

    #[test]
    fn wrong_position_rejected() {
        let (_, ads, chained, kp) = setup();
        let v = NodeId(3);
        let (proof, positions) = proof_for(&ads, &chained, &[v]);
        let wrong = (positions[0] + 1) % ads.leaf_count() as u32;
        let pairs = vec![(wrong, ads.tuple(v))];
        assert!(proof
            .verify(&pairs, kp.public_key(), ads.leaf_count() as u32)
            .is_err());
    }

    #[test]
    fn wrong_key_rejected() {
        let (_, ads, chained, _) = setup();
        let v = NodeId(3);
        let (proof, positions) = proof_for(&ads, &chained, &[v]);
        let mut rng = StdRng::seed_from_u64(1503);
        let other = RsaKeyPair::generate(&mut rng, 256);
        let pairs = vec![(positions[0], ads.tuple(v))];
        assert_eq!(
            proof.verify(&pairs, other.public_key(), ads.leaf_count() as u32),
            Err(VerifyError::BadSignature)
        );
    }

    #[test]
    fn contiguous_run_shares_boundaries() {
        // A run of k consecutive positions needs only 2 boundary
        // digests — the chaining analogue of Merkle locality.
        let (_, ads, chained, _) = setup();
        let n = ads.leaf_count() as u32;
        let positions: Vec<u32> = (10..20.min(n)).collect();
        let proof = chained.prove(&positions);
        assert_eq!(proof.boundary.len(), 2);
        assert_eq!(proof.sigs.len(), positions.len());
    }

    #[test]
    fn chain_proof_larger_than_merkle_proof() {
        // The ablation's headline: per-tuple signatures dwarf shared
        // Merkle digests for realistic proof sets.
        let (_, ads, chained, _) = setup();
        let nodes: Vec<NodeId> = (0..20u32).map(NodeId).collect();
        let (chain_proof, _) = proof_for(&ads, &chained, &nodes);
        let merkle_proof = ads.prove_nodes(nodes.iter().copied()).unwrap();
        assert!(
            chain_proof.size_bytes() > merkle_proof.encoded_len(),
            "chain {} ≤ merkle {}",
            chain_proof.size_bytes(),
            merkle_proof.encoded_len()
        );
    }

    #[test]
    fn boundary_edges_of_ordering_use_zero_digest() {
        // First and last chain positions verify with ZERO sentinels.
        let (_, ads, chained, kp) = setup();
        let n = ads.leaf_count() as u32;
        for p in [0u32, n - 1] {
            let v = (0..n).map(NodeId).find(|&v| ads.position(v) == p).unwrap();
            let (proof, _) = proof_for(&ads, &chained, &[v]);
            let pairs = vec![(p, ads.tuple(v))];
            proof.verify(&pairs, kp.public_key(), n).unwrap();
        }
    }
}
