//! Verified **range queries**: every node within distance `d` of a
//! source, with a completeness certificate.
//!
//! A plain shortest-path proof certifies one distance; a range answer
//! additionally claims a *set* is exhaustive, so omission — not
//! forgery — is the attack to defeat. The certificate here works for
//! **all four methods** through one generic path:
//!
//! * the provider ships the claimed members' extended tuples as a pool
//!   under one Merkle cover (the same ΓT machinery as batches), and
//! * the client re-runs Dijkstra **restricted to the claimed set**,
//!   checking every relaxation that would *escape* the set: if any
//!   claimed member `u` has an authenticated edge to an unclaimed node
//!   `w` with `dist(u) + w(u,w) ≤ d`, the set provably omits a member
//!   ([`VerifyError::RangeIncomplete`]).
//!
//! Soundness: let `m` be an omitted true member of minimal distance.
//! Every node on `m`'s shortest path before `m` has strictly smaller
//! distance, hence is a claimed member (by `m`'s minimality) whose
//! restricted-Dijkstra distance equals its true distance (its own
//! shortest path lies entirely in the claimed set, same argument). The
//! relaxation from `m`'s path predecessor then reaches `m` at its true
//! distance `≤ d` — caught. Tuples are authenticated against the
//! owner-signed root, so the adjacency the escape check walks cannot
//! be trimmed.
//!
//! Hint-backed methods layer their own attestation on top through
//! [`AuthMethod::prove_range_aux`](crate::methods::AuthMethod::prove_range_aux):
//! FULL re-certifies every member distance under its signed distance
//! tree (one pooled row cover), and the signed method code dispatches
//! which aux shape the client accepts — a provider cannot downgrade.

use crate::ads::SignedRoot;
use crate::batch::BatchAux;
use crate::client::Client;
use crate::enc::Wire;
use crate::error::{ProviderError, VerifyError};
use crate::methods::dij::RADIUS_SLACK;
use crate::methods::{MethodParams, PinnedAux, VerifyCtx};
use crate::proof::IntegrityProof;
use crate::provider::ServiceProvider;
use crate::tuple::ExtendedTuple;
use spnet_crypto::digest::Digest;
use spnet_graph::ofloat::OrderedF64;
use spnet_graph::path::close;
use spnet_graph::search::with_thread_workspace;
use spnet_graph::NodeId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// A provider's answer to a range query `(source, radius)`.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeAnswer {
    /// The queried source node (echoed; the client checks it).
    pub source: NodeId,
    /// The queried radius (echoed; the client checks it bit-exactly,
    /// so a shrunk radius is rejected before any set reasoning).
    pub radius: f64,
    /// The claimed result set `{(v, dist(source, v))}`, strictly
    /// ascending by node id.
    pub members: Vec<(NodeId, f64)>,
    /// The members' extended tuples, parallel to `members` (shared
    /// handles into the provider's ADS — no deep copies).
    pub pool: Vec<Arc<ExtendedTuple>>,
    /// One Merkle cover authenticating the whole pool (positions
    /// parallel to `pool`).
    pub integrity: IntegrityProof,
    /// Method-specific attestation (FULL: pooled row proofs under the
    /// signed distance root; others: nothing beyond the pool).
    pub aux: BatchAux,
}

impl RangeAnswer {
    /// Number of claimed members.
    pub fn num_members(&self) -> usize {
        self.members.len()
    }
}

impl ServiceProvider {
    /// Answers a range query: the set `{v : dist(source, v) ≤ radius}`
    /// with its completeness certificate.
    ///
    /// Membership uses the same float slack as the Lemma 1 ball
    /// (`RADIUS_SLACK`, ε = 1e-9): nodes within `radius · (1 + ε)` are
    /// included, so clients summing weights in a different order never
    /// flag an honest boundary node as missing.
    pub fn answer_range(&self, source: NodeId, radius: f64) -> Result<RangeAnswer, ProviderError> {
        let g = &self.package.graph;
        if g.check_node(source).is_err() {
            return Err(ProviderError::UnknownNode(source));
        }
        if !radius.is_finite() || radius < 0.0 {
            return Err(ProviderError::ProofAssembly(
                "range radius must be finite and non-negative".into(),
            ));
        }
        let slack_radius = radius * (1.0 + RADIUS_SLACK);
        let members: Vec<(NodeId, f64)> = with_thread_workspace(|ws| {
            let view = ws.ball(g, source, slack_radius);
            view.settled_nodes()
                .filter(|&v| view.dist(v) <= slack_radius)
                .map(|v| (v, view.dist(v)))
                .collect()
        });
        let method = self.package.hints.method();
        let aux = method.prove_range_aux(&self.package, source, &members)?;
        let nodes: Vec<NodeId> = members.iter().map(|&(v, _)| v).collect();
        let integrity = self.build_integrity(&nodes)?;
        let pool = nodes
            .iter()
            .map(|&v| self.package.ads.tuple_shared(v))
            .collect();
        Ok(RangeAnswer {
            source,
            radius,
            members,
            pool,
            integrity,
            aux,
        })
    }
}

impl Client {
    /// Verifies a range answer: authenticity of every shipped tuple,
    /// the method's aux attestation, exactness of every claimed
    /// distance, and — the range-specific part — **completeness** of
    /// the claimed set. Returns the verified `(node, distance)` list.
    pub fn verify_range(
        &self,
        source: NodeId,
        radius: f64,
        answer: &RangeAnswer,
    ) -> Result<Vec<(NodeId, f64)>, VerifyError> {
        self.verify_range_impl(source, radius, answer, None, None)
    }

    /// Like [`Self::verify_range`] against a session-pinned signed
    /// root (byte equality instead of a per-answer RSA check; see
    /// [`Client::verify_pinned`] for the pinning contract).
    pub fn verify_range_pinned(
        &self,
        source: NodeId,
        radius: f64,
        answer: &RangeAnswer,
        pinned: &SignedRoot,
        pins: Option<&PinnedAux>,
    ) -> Result<Vec<(NodeId, f64)>, VerifyError> {
        self.verify_range_impl(source, radius, answer, Some(pinned), pins)
    }

    fn verify_range_impl(
        &self,
        source: NodeId,
        radius: f64,
        answer: &RangeAnswer,
        pinned: Option<&SignedRoot>,
        pins: Option<&PinnedAux>,
    ) -> Result<Vec<(NodeId, f64)>, VerifyError> {
        // --- the echoed query must be the client's query. --------------
        if answer.source != source {
            return Err(VerifyError::WrongEndpoints {
                expected: (source, source),
                got: (answer.source, answer.source),
            });
        }
        if answer.radius.to_bits() != radius.to_bits() {
            return Err(VerifyError::RangeRadiusMismatch {
                requested: radius,
                answered: answer.radius,
            });
        }
        // --- ΓT: authenticate the pool once. ---------------------------
        match pinned {
            Some(root) => {
                if answer.integrity.signed_root != *root {
                    return Err(VerifyError::MetaMismatch(
                        "signed root differs from pinned session root",
                    ));
                }
            }
            None => {
                if !answer.integrity.signed_root.verify(self.public_key()) {
                    return Err(VerifyError::BadSignature);
                }
            }
        }
        let params = MethodParams::from_bytes(&answer.integrity.signed_root.meta.params)
            .map_err(|_| VerifyError::MetaMismatch("undecodable method params"))?;
        if answer.pool.len() != answer.members.len()
            || answer.pool.len() != answer.integrity.positions.len()
        {
            return Err(VerifyError::MalformedIntegrityProof(
                "members, pool and positions must be parallel".into(),
            ));
        }
        for (t, &(v, _)) in answer.pool.iter().zip(&answer.members) {
            if t.id != v {
                return Err(VerifyError::TupleIdMismatch {
                    expected: v,
                    got: t.id,
                });
            }
        }
        if answer.members.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(VerifyError::MalformedIntegrityProof(
                "range members not strictly ascending".into(),
            ));
        }
        let leaves: Vec<(usize, Digest)> = answer
            .pool
            .iter()
            .zip(&answer.integrity.positions)
            .map(|(t, &p)| (p as usize, t.digest()))
            .collect();
        let root = answer
            .integrity
            .merkle
            .reconstruct_root(&leaves)
            .map_err(|e| VerifyError::MalformedIntegrityProof(e.to_string()))?;
        if root != answer.integrity.signed_root.root {
            return Err(VerifyError::RootMismatch);
        }
        // --- method aux (signed-method-dispatched, downgrade-proof). ---
        let method = params.method();
        let ctx = VerifyCtx {
            pk: self.public_key(),
            pins,
        };
        method.verify_range_aux(&ctx, &params, &answer.aux, source, &answer.members)?;
        // --- completeness + distance exactness. ------------------------
        let map: HashMap<NodeId, &ExtendedTuple> =
            answer.pool.iter().map(|t| (t.id, &**t)).collect();
        if !map.contains_key(&source) {
            // dist(source, source) = 0 ≤ radius, so the source itself
            // is always a member of an honest answer.
            return Err(VerifyError::RangeIncomplete {
                node: source,
                dist: 0.0,
                radius,
            });
        }
        let slack_radius = radius * (1.0 + RADIUS_SLACK);
        let recomputed = escape_checked_dijkstra(&map, source, radius)?;
        for &(v, claimed) in &answer.members {
            let Some(&d) = recomputed.get(&v) else {
                // Unreachable within the claimed set: a padded member
                // with no certified path (its claimed distance cannot
                // be trusted).
                return Err(VerifyError::RangeOverclaim {
                    node: v,
                    dist: f64::INFINITY,
                    radius,
                });
            };
            if d > slack_radius {
                return Err(VerifyError::RangeOverclaim {
                    node: v,
                    dist: d,
                    radius,
                });
            }
            if !close(claimed, d) {
                return Err(VerifyError::RangeDistanceMismatch {
                    node: v,
                    claimed,
                    recomputed: d,
                });
            }
        }
        Ok(answer.members.clone())
    }
}

/// Dijkstra restricted to the claimed member set, flagging any
/// relaxation that escapes it within the radius. Distances are final
/// (every popped node is settled), so an escape `dist(u) + w ≤ radius`
/// is a *proof* the unclaimed target belongs to the true range set.
fn escape_checked_dijkstra(
    tuples: &HashMap<NodeId, &ExtendedTuple>,
    source: NodeId,
    radius: f64,
) -> Result<HashMap<NodeId, f64>, VerifyError> {
    let mut dist: HashMap<NodeId, f64> = HashMap::with_capacity(tuples.len());
    let mut heap: BinaryHeap<Reverse<(OrderedF64, u32)>> = BinaryHeap::new();
    dist.insert(source, 0.0);
    heap.push(Reverse((OrderedF64::new(0.0), source.0)));
    while let Some(Reverse((OrderedF64(d), v))) = heap.pop() {
        let v = NodeId(v);
        if d > *dist.get(&v).unwrap_or(&f64::INFINITY) {
            continue; // stale
        }
        let t = tuples[&v]; // only member nodes are ever pushed
        for &(u, w) in &t.adj {
            let nd = d + w;
            if !tuples.contains_key(&u) {
                if nd <= radius {
                    return Err(VerifyError::RangeIncomplete {
                        node: u,
                        dist: nd,
                        radius,
                    });
                }
                continue;
            }
            if nd < *dist.get(&u).unwrap_or(&f64::INFINITY) {
                dist.insert(u, nd);
                heap.push(Reverse((OrderedF64::new(nd), u.0)));
            }
        }
    }
    Ok(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{LdmConfig, MethodConfig};
    use crate::owner::{DataOwner, SetupConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spnet_graph::gen::grid_network;
    use spnet_graph::search::with_thread_workspace as ws;
    use spnet_graph::Graph;

    fn deploy(method: MethodConfig, seed: u64) -> (Graph, ServiceProvider, Client) {
        let g = grid_network(10, 10, 1.15, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 1);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        (
            g,
            ServiceProvider::new(p.package),
            Client::new(p.public_key),
        )
    }

    fn all_methods() -> Vec<MethodConfig> {
        vec![
            MethodConfig::Dij,
            MethodConfig::Full {
                use_floyd_warshall: false,
            },
            MethodConfig::Ldm(LdmConfig {
                landmarks: 8,
                ..LdmConfig::default()
            }),
            MethodConfig::Hyp { cells: 9 },
        ]
    }

    /// Unverified reference recomputation: the true range set.
    fn reference_range(g: &Graph, source: NodeId, radius: f64) -> Vec<(NodeId, f64)> {
        ws(|w| {
            let view = w.sssp(g, source);
            (0..g.num_nodes() as u32)
                .map(NodeId)
                .filter(|&v| view.dist(v) <= radius)
                .map(|v| (v, view.dist(v)))
                .collect()
        })
    }

    #[test]
    fn range_matches_reference_for_every_method() {
        for method in all_methods() {
            let (g, provider, client) = deploy(method.clone(), 3100);
            // Grid coordinates span [0..10,000]², so hop weights are
            // ≈ 1,100 — these radii cover a few rings plus the
            // degenerate source-only case.
            for (source, radius) in [
                (NodeId(0), 3_000.0),
                (NodeId(55), 5_500.0),
                (NodeId(99), 0.0),
            ] {
                let answer = provider.answer_range(source, radius).unwrap();
                let verified = client.verify_range(source, radius, &answer).unwrap();
                let truth = reference_range(&g, source, radius);
                assert_eq!(
                    verified.len(),
                    truth.len(),
                    "{}: ({source}, {radius})",
                    method.name()
                );
                for (&(v, d), &(tv, td)) in verified.iter().zip(&truth) {
                    assert_eq!(v, tv, "{}", method.name());
                    assert!(
                        (d - td).abs() <= 1e-9 * td.max(1.0),
                        "{}: {v} claimed {d} vs truth {td}",
                        method.name()
                    );
                }
            }
        }
    }

    #[test]
    fn dropped_member_rejected_for_every_method() {
        for method in all_methods() {
            let (_, provider, client) = deploy(method.clone(), 3101);
            let (source, radius) = (NodeId(0), 4_000.0);
            let honest = provider.answer_range(source, radius).unwrap();
            assert!(honest.members.len() > 2, "need an interior member");
            // Drop one non-source member (keeping members/pool/positions
            // parallel — the strongest attack shape).
            let mut evil = honest.clone();
            let drop_at = evil.members.len() / 2;
            evil.members.remove(drop_at);
            evil.pool.remove(drop_at);
            evil.integrity.positions.remove(drop_at);
            let err = client.verify_range(source, radius, &evil).unwrap_err();
            assert!(
                matches!(
                    err,
                    VerifyError::RangeIncomplete { .. }
                        | VerifyError::MalformedIntegrityProof(_)
                        | VerifyError::RootMismatch
                        | VerifyError::MissingDistanceKey { .. }
                ),
                "{}: {err}",
                method.name()
            );
        }
    }

    #[test]
    fn shrunk_radius_rejected() {
        for method in all_methods() {
            let (_, provider, client) = deploy(method.clone(), 3102);
            let (source, radius) = (NodeId(0), 4_000.0);
            let mut evil = provider.answer_range(source, radius).unwrap();
            evil.radius = radius * 0.5;
            assert!(
                matches!(
                    client.verify_range(source, radius, &evil),
                    Err(VerifyError::RangeRadiusMismatch { .. })
                ),
                "{}",
                method.name()
            );
        }
    }

    #[test]
    fn tampered_member_distance_rejected() {
        for method in all_methods() {
            let (_, provider, client) = deploy(method.clone(), 3103);
            let (source, radius) = (NodeId(0), 4_000.0);
            let mut evil = provider.answer_range(source, radius).unwrap();
            let last = evil.members.len() - 1;
            evil.members[last].1 *= 0.5;
            assert!(
                client.verify_range(source, radius, &evil).is_err(),
                "{}",
                method.name()
            );
        }
    }

    #[test]
    fn tampered_pool_tuple_rejected() {
        for method in all_methods() {
            let (_, provider, client) = deploy(method.clone(), 3104);
            let (source, radius) = (NodeId(0), 4_000.0);
            let mut evil = provider.answer_range(source, radius).unwrap();
            Arc::make_mut(&mut evil.pool[0]).adj[0].1 *= 0.5;
            assert_eq!(
                client.verify_range(source, radius, &evil),
                Err(VerifyError::RootMismatch),
                "{}",
                method.name()
            );
        }
    }

    #[test]
    fn full_subgraph_downgrade_rejected() {
        let (_, provider, client) = deploy(
            MethodConfig::Full {
                use_floyd_warshall: false,
            },
            3105,
        );
        let (source, radius) = (NodeId(0), 4_000.0);
        let mut evil = provider.answer_range(source, radius).unwrap();
        evil.aux = BatchAux::Subgraph;
        assert_eq!(
            client.verify_range(source, radius, &evil),
            Err(VerifyError::MetaMismatch(
                "batch proof shape does not match signed method"
            ))
        );
    }

    #[test]
    fn padded_member_rejected() {
        // A provider padding the set with a far-away node (claiming a
        // small distance) must be caught.
        let (_, provider, client) = deploy(MethodConfig::Dij, 3106);
        let (source, radius) = (NodeId(0), 3.0);
        let honest = provider.answer_range(source, radius).unwrap();
        let outside = (0..100u32)
            .map(NodeId)
            .find(|v| !honest.members.iter().any(|&(m, _)| m == *v))
            .expect("some node outside the ball");
        let mut evil = provider.answer_range(source, radius).unwrap();
        let pos = evil.members.iter().position(|&(m, _)| m > outside);
        let tuple = provider.package().ads.tuple_shared(outside);
        let position = provider.package().ads.position(outside);
        match pos {
            Some(i) => {
                evil.members.insert(i, (outside, radius * 0.5));
                evil.pool.insert(i, tuple);
                evil.integrity.positions.insert(i, position);
            }
            None => {
                evil.members.push((outside, radius * 0.5));
                evil.pool.push(tuple);
                evil.integrity.positions.push(position);
            }
        }
        // The forged Merkle cover no longer matches, or (with a
        // correctly extended cover) the distance checks fire; either
        // way the padded set is rejected.
        assert!(client.verify_range(source, radius, &evil).is_err());
    }

    #[test]
    fn wrong_source_and_bad_radius_rejected() {
        let (_, provider, client) = deploy(MethodConfig::Dij, 3107);
        let answer = provider.answer_range(NodeId(0), 3.0).unwrap();
        assert!(matches!(
            client.verify_range(NodeId(1), 3.0, &answer),
            Err(VerifyError::WrongEndpoints { .. })
        ));
        assert!(provider.answer_range(NodeId(0), -1.0).is_err());
        assert!(provider.answer_range(NodeId(0), f64::NAN).is_err());
        assert!(matches!(
            provider.answer_range(NodeId(999), 1.0),
            Err(ProviderError::UnknownNode(_))
        ));
    }

    #[test]
    fn zero_radius_yields_the_source_alone() {
        let (_, provider, client) = deploy(MethodConfig::Dij, 3108);
        let answer = provider.answer_range(NodeId(7), 0.0).unwrap();
        let verified = client.verify_range(NodeId(7), 0.0, &answer).unwrap();
        assert_eq!(verified, vec![(NodeId(7), 0.0)]);
    }
}
