//! Dynamic updates: edge-weight changes without full rebuilds.
//!
//! Road networks change (construction, congestion-based weights). The
//! paper's structures are static; this module makes owner updates
//! first-class for **all four methods**:
//!
//! 1. the owner patches the weight in place on the CSR
//!    ([`spnet_graph::Graph::set_edge_weight`], O(log deg)),
//! 2. dispatches [`crate::methods::AuthMethod::repair_hints`] so the method repairs
//!    exactly the hint entries the change can have invalidated (FULL:
//!    dirty distance rows, LDM: landmark rows repaired in place and
//!    the ψ payloads they move, HYP: dirty border-pair hyper-edges)
//!    and re-signs the affected aux roots,
//! 3. rebuilds the dirty extended-tuples and repairs their Merkle paths
//!    in one batch, hashing each touched tree node once, and
//! 4. re-signs the network root.
//!
//! An update repairs a clone of the serving package (the service keeps
//! the previous epochs serving), and that clone is cheap: the package's
//! large arrays are held as reference-counted blocks or rows — tree
//! levels, B-tree entries and tuple handles in blocks of one snapshot
//! page ([`spnet_bytes::blocks`]), LDM's exact landmark rows one row
//! each, the graph's topology behind one handle. A clone bumps
//! reference counts; the repair copies only the blocks and rows it
//! writes, so an epoch costs its repair, and two epochs share every
//! block neither wrote.
//!
//! For FULL and HYP, the dirty set is bounded by a tightness test on
//! four single-source shortest-path trees (from both endpoints, on the
//! pre- and post-update graph): a materialized distance `d(s, t)` can
//! only change if some shortest `s`-tree branch crosses the updated
//! edge, i.e. `|d(s,u) − d(s,v)|` is within ε of the edge weight,
//! before or after the change. LDM runs no endpoint search: its exact
//! landmark rows are shortest-path rows already, and repairing them in
//! place reports exactly which entries moved. Everything outside the
//! dirty set is left bit-identical — re-verified structures and
//! signatures are byte-for-byte the ones a fresh publish of the final
//! graph would produce.

use crate::ads::SignedRoot;
use crate::methods::{ChangeDists, DirtySet, EdgeChange};
use crate::owner::ProviderPackage;
use spnet_bytes::enc::Wire;
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::search::with_thread_workspace;
use spnet_graph::NodeId;

/// Slack for the dirty-set tightness test. Errs toward *more* dirty
/// rows: a false positive recomputes an unchanged value (harmless and
/// bit-identical), a false negative would leave a stale one.
pub const DIRTY_EPS: f64 = 1e-9;

/// Errors from dynamic updates.
#[derive(Debug, Clone, PartialEq)]
pub enum UpdateError {
    /// The edge does not exist.
    NoSuchEdge { u: NodeId, v: NodeId },
    /// The new weight is invalid (negative / non-finite).
    BadWeight(f64),
    /// Internal rebuild failure.
    Rebuild(String),
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::NoSuchEdge { u, v } => write!(f, "no edge ({u}, {v})"),
            UpdateError::BadWeight(w) => write!(f, "invalid weight {w}"),
            UpdateError::Rebuild(m) => write!(f, "rebuild failed: {m}"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// Whether the shortest-path tree rooted at a node with distance
/// vectors `du`/`dv` to the changed edge's endpoints can route through
/// an edge `(u, v)` of weight `w` — the sufficient "dirty" condition.
pub(crate) fn edge_is_tight(du: f64, dv: f64, w: f64) -> bool {
    du.is_finite() && dv.is_finite() && (du - dv).abs() >= w - DIRTY_EPS
}

/// Owner-side: changes the weight of edge `(u, v)` inside a package of
/// **any** method, repairing hints incrementally and re-signing only
/// the affected roots. Returns the [`DirtySet`] describing what was
/// touched (tuples rebuilt, aux entries recomputed, aux roots
/// re-signed; the network re-sign itself is always exactly one more).
///
/// The resulting package is indistinguishable from a fresh publish of
/// the updated graph: unchanged tuples, tree nodes and signatures keep
/// their exact bytes, and repaired ones carry the bytes a rebuild
/// would produce.
pub fn update_edge_weight(
    package: &mut ProviderPackage,
    keypair: &RsaKeyPair,
    u: NodeId,
    v: NodeId,
    new_weight: f64,
) -> Result<DirtySet, UpdateError> {
    let method = package.hints.method();
    if !new_weight.is_finite() || new_weight < 0.0 {
        return Err(UpdateError::BadWeight(new_weight));
    }
    let old_weight = package
        .graph
        .edge_weight(u, v)
        .ok_or(UpdateError::NoSuchEdge { u, v })?;

    // Pre-update endpoint distance trees, if the method's dirty-set
    // bound needs them — computed before the CSR patch below.
    let old_dists = if method.wants_change_dists() {
        Some(ChangeDists {
            from_u: with_thread_workspace(|ws| ws.sssp(&package.graph, u).dist_vec()),
            from_v: with_thread_workspace(|ws| ws.sssp(&package.graph, v).dist_vec()),
        })
    } else {
        None
    };

    package
        .graph
        .set_edge_weight(u, v, new_weight)
        .ok_or(UpdateError::NoSuchEdge { u, v })?;
    let change = EdgeChange {
        u,
        v,
        old_weight,
        new_weight,
        old_dists,
    };

    let mut dirty = method.repair_hints(&package.graph, &change, &mut package.hints, keypair)?;

    // The endpoint tuples always change (their adjacency lists carry
    // the weight); methods add the nodes whose hint payloads moved.
    dirty.tuples.push(u);
    dirty.tuples.push(v);
    dirty.tuples.sort_unstable();
    dirty.tuples.dedup();

    let tuples = dirty
        .tuples
        .iter()
        .map(|&node| method.make_tuple(&package.graph, node, &package.hints))
        .collect();
    package
        .ads
        .replace_tuples(tuples)
        .map_err(|e| UpdateError::Rebuild(e.to_string()))?;
    // Re-sign the network root. Metadata is normally unchanged
    // (geometry and params survive a weight patch); a repair that moved
    // a signed parameter (LDM's λ follows Dmax) hands back the
    // replacement, which takes the params slot a fresh publish of the
    // updated graph would sign.
    let meta = match &dirty.new_params {
        Some(p) => package.ads.meta(p.to_bytes()),
        None => package.network_root.meta.clone(),
    };
    package.network_root = SignedRoot::sign(keypair, package.ads.root(), meta);
    Ok(dirty)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::MethodConfig;
    use crate::owner::{DataOwner, SetupConfig};
    use crate::provider::ServiceProvider;
    use crate::tuple::ExtendedTuple;
    use crate::Client;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spnet_graph::algo::dijkstra_path;
    use spnet_graph::gen::grid_network;

    fn setup() -> (ProviderPackage, RsaKeyPair, Client) {
        let g = grid_network(8, 8, 1.2, 1800);
        let mut rng = StdRng::seed_from_u64(1801);
        // Publish re-generates a key; for updates the owner must keep
        // its keypair, so replicate publish with a retained key.
        let kp = RsaKeyPair::generate(&mut rng, 256);
        let p = DataOwner::publish(&g, &MethodConfig::Dij, &SetupConfig::default(), &mut rng);
        // Re-sign with the retained key so we control future updates.
        let mut package = p.package;
        let meta = package.network_root.meta.clone();
        package.network_root = SignedRoot::sign(&kp, package.ads.root(), meta);
        let client = Client::new(kp.public_key().clone());
        (package, kp, client)
    }

    #[test]
    fn update_preserves_verifiability_with_new_distances() {
        let (mut package, kp, client) = setup();
        let (s, t) = (NodeId(0), NodeId(63));
        let before = dijkstra_path(&package.graph, s, t).unwrap();
        // Make the first edge of the shortest path very expensive.
        let (u, v) = (before.nodes[0], before.nodes[1]);
        update_edge_weight(&mut package, &kp, u, v, 1e6).unwrap();
        let after_truth = dijkstra_path(&package.graph, s, t).unwrap().distance;
        assert!(after_truth > before.distance || (after_truth - before.distance).abs() < 1e-9);
        let provider = ServiceProvider::new(package);
        let answer = provider.answer(s, t).unwrap();
        let verified = client.verify(s, t, &answer).unwrap();
        assert!((verified.distance - after_truth).abs() <= 1e-6 * after_truth.max(1.0));
    }

    #[test]
    fn stale_proofs_fail_after_update() {
        let (package, kp, client) = setup();
        let (s, t) = (NodeId(0), NodeId(63));
        let mut fresh = package.clone();
        let provider_old = ServiceProvider::new(package);
        let stale = provider_old.answer(s, t).unwrap();
        client
            .verify(s, t, &stale)
            .expect("pre-update answer valid");
        // Owner updates some edge elsewhere; new root, new signature.
        let (u, v, _) = fresh.graph.edges().next().unwrap();
        update_edge_weight(&mut fresh, &kp, u, v, 123.456).unwrap();
        let new_client = client.clone();
        // The stale answer's signed root is the OLD root; a client that
        // has learned the new root epoch... in this model both roots
        // verify (same key). Replay protection across epochs requires
        // versioned metadata; what MUST fail is mixing stale tuples
        // with the new signed root.
        let provider_new = ServiceProvider::new(fresh);
        let mut franken = stale.clone();
        franken.integrity.signed_root = provider_new
            .answer(s, t)
            .unwrap()
            .integrity
            .signed_root
            .clone();
        assert!(new_client.verify(s, t, &franken).is_err());
    }

    #[test]
    fn update_rejects_bad_inputs() {
        let (mut package, kp, _) = setup();
        assert!(matches!(
            update_edge_weight(&mut package, &kp, NodeId(0), NodeId(63), 1.0),
            Err(UpdateError::NoSuchEdge { .. })
        ));
        let (u, v, _) = package.graph.edges().next().unwrap();
        assert!(matches!(
            update_edge_weight(&mut package, &kp, u, v, -1.0),
            Err(UpdateError::BadWeight(_))
        ));
        assert!(matches!(
            update_edge_weight(&mut package, &kp, u, v, f64::NAN),
            Err(UpdateError::BadWeight(_))
        ));
    }

    /// Every method — including the hint-carrying ones that used to be
    /// rejected outright — accepts an in-place update and keeps
    /// serving verifiable answers with the new distances.
    #[test]
    fn all_methods_update_in_place() {
        let g = grid_network(6, 6, 1.2, 1802);
        for method in [
            MethodConfig::Dij,
            MethodConfig::Full {
                use_floyd_warshall: false,
            },
            MethodConfig::Ldm(crate::methods::LdmConfig {
                landmarks: 6,
                ..Default::default()
            }),
            MethodConfig::Hyp { cells: 4 },
        ] {
            let mut rng2 = StdRng::seed_from_u64(1804);
            let kp = RsaKeyPair::generate(&mut rng2, 256);
            let p = DataOwner::publish_with_key(&g, &method, &SetupConfig::default(), &kp);
            let mut package = p.package;
            let (s, t) = (NodeId(0), NodeId(35));
            let (u, v) = {
                let path = dijkstra_path(&package.graph, s, t).unwrap();
                (path.nodes[0], path.nodes[1])
            };
            let dirty = update_edge_weight(&mut package, &kp, u, v, 500.0).unwrap();
            assert!(
                dirty.tuples.contains(&u) && dirty.tuples.contains(&v),
                "{}: endpoints must be dirty",
                method.name()
            );
            let truth = dijkstra_path(&package.graph, s, t).unwrap().distance;
            let client = Client::new(p.public_key.clone());
            let provider = ServiceProvider::new(package);
            let answer = provider.answer(s, t).unwrap();
            let verified = client
                .verify(s, t, &answer)
                .unwrap_or_else(|e| panic!("{} fails post-update: {e}", method.name()));
            assert!(
                (verified.distance - truth).abs() <= 1e-6 * truth.max(1.0),
                "{}: distance drift",
                method.name()
            );
        }
    }

    #[test]
    fn incremental_root_matches_full_rebuild() {
        let (mut package, kp, _) = setup();
        let (u, v, _) = package.graph.edges().next().unwrap();
        update_edge_weight(&mut package, &kp, u, v, 77.7).unwrap();
        // Rebuild the ADS from scratch on the updated graph.
        let tuples: Vec<ExtendedTuple> = package
            .graph
            .nodes()
            .map(|n| ExtendedTuple::base(&package.graph, n))
            .collect();
        let rebuilt = crate::ads::NetworkAds::build(
            &package.graph,
            tuples,
            spnet_graph::order::NodeOrdering::Hilbert,
            2,
            0, // SetupConfig::default seed
        );
        assert_eq!(package.ads.root(), rebuilt.root());
    }
}
