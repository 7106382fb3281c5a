//! Verified k-nearest-POI queries.
//!
//! The provider cannot be trusted to *rank*: "here are your 3 nearest
//! POIs" is attacked by omitting a closer one, and a per-POI distance
//! proof never notices. The operator therefore certifies the ranking's
//! inputs instead of the ranking:
//!
//! 1. the complete POI directory, via the signed set's whole-keyspace
//!    range proof ([`PoiDirectory::verify`]) — omitting the k-th POI
//!    breaks the leaf run or the signed leaf count, and
//! 2. a proven shortest-path distance for **every** POI, through one
//!    pooled batch under the session's pinned roots.
//!
//! The client then sorts locally, so the returned `k` nearest carry a
//! "no closer POI exists" guarantee by construction. The pooled batch
//! makes the certificate cost sublinear in `k·|pool|`: tuples shared
//! between per-POI subgraphs are shipped once (PERFORMANCE.md §9
//! quantifies this against `|pois|` separate answers).

use crate::poi::{PoiDirectory, PoiSet};
use crate::QueryError;
use spnet_core::ads::SignedRoot;
use spnet_core::batch::BatchAnswer;
use spnet_core::service::Session;
use spnet_crypto::mbtree::KeyRangeProof;
use spnet_graph::NodeId;

/// One verified nearest neighbour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// The POI node.
    pub node: NodeId,
    /// Its proven shortest-path distance from the query source.
    pub distance: f64,
    /// The owner-signed POI payload.
    pub payload: f64,
}

/// A provider's answer to a k-nearest-POI query.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnAnswer {
    /// The requested `k` (echoed; the client checks it).
    pub k: u32,
    /// The owner-signed POI root.
    pub poi_signed: SignedRoot,
    /// Whole-keyspace completeness proof of the POI directory.
    pub poi_proof: KeyRangeProof,
    /// One pooled batch proving the distance from the source to every
    /// POI, in directory (ascending node id) order.
    pub batch: BatchAnswer,
}

/// The batch queries a directory induces: `(source, poi)` per POI, in
/// directory order. Client and provider derive this independently —
/// the pair list itself is never trusted from the wire.
fn directory_pairs(source: NodeId, pois: &[(NodeId, f64)]) -> Vec<(NodeId, NodeId)> {
    pois.iter().map(|&(v, _)| (source, v)).collect()
}

/// Provider half: proves the distance to every POI in one pooled batch
/// and attaches the directory completeness certificate.
pub fn answer_knn(
    session: &Session,
    pois: &PoiSet,
    source: NodeId,
    k: u32,
) -> Result<KnnAnswer, QueryError> {
    let poi_proof = pois.prove_all()?;
    // The proof's run over the whole keyspace is exactly the directory.
    let directory: Vec<(NodeId, f64)> = poi_proof
        .entries
        .iter()
        .map(|e| (NodeId(e.key as u32), e.value))
        .collect();
    let batch = session.answer_batch(&directory_pairs(source, &directory))?;
    Ok(KnnAnswer {
        k,
        poi_signed: pois.signed().clone(),
        poi_proof,
        batch,
    })
}

/// Client half: verifies directory completeness against the owner key,
/// verifies every distance against the session's pinned roots, and
/// ranks locally by `(distance, node id)`.
pub fn verify_knn(
    session: &Session,
    source: NodeId,
    k: u32,
    answer: &KnnAnswer,
) -> Result<Vec<Neighbor>, QueryError> {
    if answer.k != k {
        return Err(QueryError::KnnKMismatch {
            requested: k,
            answered: answer.k,
        });
    }
    let directory =
        PoiDirectory::verify(session.owner_key(), &answer.poi_signed, &answer.poi_proof)?;
    // The client rebuilds the query list from the *verified* directory:
    // a batch answering fewer/other pairs (e.g. with the k-th nearest
    // POI dropped) fails the endpoint checks inside `verify_batch`.
    let pairs = directory_pairs(source, directory.pois());
    let distances = session.verify_batch(&pairs, &answer.batch)?;
    let mut ranked: Vec<Neighbor> = directory
        .pois()
        .iter()
        .zip(&distances)
        .map(|(&(node, payload), &distance)| Neighbor {
            node,
            distance,
            payload,
        })
        .collect();
    ranked.sort_by(|a, b| {
        a.distance
            .total_cmp(&b.distance)
            .then(a.node.0.cmp(&b.node.0))
    });
    ranked.truncate(k as usize);
    Ok(ranked)
}
