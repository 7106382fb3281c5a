//! Batched queries with shared integrity and hint proofs — for **all
//! four methods**.
//!
//! The paper notes (Section V-B) that combining proofs "reduces the
//! size of the integrity proof"; this module generalizes that idea:
//! a client (e.g. the logistics auditor of `examples/logistics_audit`)
//! submits *k* queries at once, and the provider ships
//!
//! * one **tuple pool** — the deduplicated union of every extended
//!   tuple any query needs (subgraph Γ for DIJ/LDM, path tuples for
//!   FULL, cell + path tuples for HYP),
//! * one **shared ΓT** — a single Merkle cover for the whole pool
//!   (overlapping queries share both tuples and cover digests),
//! * per query, the reported path plus the pool-indices of its Γ, and
//! * one **method aux block** ([`BatchAux`]) holding whatever the
//!   method's ΓS machinery needs beyond the pool, also pooled:
//!   - DIJ/LDM: nothing — the pool *is* the proof,
//!   - FULL: per-source row proofs with deduplicated Merkle paths
//!     under **one** signed distance root ([`FullBatchProof`]; queries
//!     sharing a source share a single multi-target row cover),
//!   - HYP: **one** hyper-edge proof and **one** cell-directory proof
//!     over the union of touched cells, so each cell's authenticated
//!     border-distance matrix ships and is verified once per batch
//!     instead of once per query.
//!
//! The client authenticates the pool and the aux block once (one
//! signature check per signed root per *batch*, not per query), then
//! re-runs each query's verification against its slice of the pool.
//! Per-query proving and verification fan out over threads via the
//! crate's `par` fan-out point.

use crate::ads::SignedRoot;
use crate::client::check_reported_path;
use crate::error::{ProviderError, VerifyError};
use crate::methods::full::FullBatchProof;
use crate::methods::hyp::HypBatchState;
use crate::methods::{MethodParams, PinnedAux, VerifyCtx};
use crate::proof::IntegrityProof;
use crate::provider::ServiceProvider;
use crate::tuple::ExtendedTuple;
use crate::Client;
use spnet_bytes::enc::Wire;
use spnet_crypto::digest::Digest;
use spnet_crypto::mbtree::KeyedProof;
use spnet_graph::algo::dijkstra_path;
use spnet_graph::{NodeId, Path};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use crate::par::{map_jobs, map_jobs_indexed};

/// One query's slice of a batch answer.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchQueryProof {
    /// The reported shortest path.
    pub path: Path,
    /// Indices into the batch pool forming this query's Γ.
    pub members: Vec<u32>,
}

/// The method-specific part of a batch answer, shipped once per batch.
#[derive(Debug, Clone, PartialEq)]
pub enum BatchAux {
    /// DIJ / LDM: the pooled subgraph tuples are the whole ΓS.
    Subgraph,
    /// FULL: pooled keyed row proofs under one signed distance root.
    Full {
        /// Per-source row proofs sharing one top-tree cover.
        proof: FullBatchProof,
        /// The owner-signed distance-tree root (once per batch).
        signed_root: SignedRoot,
    },
    /// HYP: shared hyper-edge and cell-directory proofs covering the
    /// union of every query's touched cells.
    Hyp {
        /// Membership proof for all needed border-pair hyper-edges.
        hyper: KeyedProof,
        /// The owner-signed hyper-edge tree root (once per batch).
        hyper_signed_root: SignedRoot,
        /// Membership proof for all touched cells' population counts.
        cell_dir: KeyedProof,
        /// The owner-signed cell-directory root (once per batch).
        cell_dir_signed_root: SignedRoot,
    },
}

/// A batched answer for `k` queries.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchAnswer {
    /// Deduplicated union of every query's tuples (shared handles into
    /// the provider's ADS tuple table — no deep copies), ascending by
    /// node id.
    pub pool: Vec<Arc<ExtendedTuple>>,
    /// Per-query paths and pool slices.
    pub queries: Vec<BatchQueryProof>,
    /// Shared integrity proof covering the pool (positions parallel to
    /// `pool`).
    pub integrity: IntegrityProof,
    /// Method-specific pooled hint proofs.
    pub aux: BatchAux,
}

impl ServiceProvider {
    /// The batch-proving engine behind the session and stream facades
    /// ([`crate::service::Session::answer_batch`] is the public entry
    /// point — it adds the epoch guard).
    ///
    /// Per-query search and Γ assembly fan out over threads, each
    /// reusing its thread's search workspace; the pooled result does
    /// not depend on how the queries are split.
    pub(crate) fn answer_batch_impl(
        &self,
        queries: &[(NodeId, NodeId)],
    ) -> Result<BatchAnswer, ProviderError> {
        if queries.is_empty() {
            return Err(ProviderError::ProofAssembly("empty batch".into()));
        }
        let g = &self.package.graph;
        let ads = &self.package.ads;
        let method = self.package.hints.method();
        // Per-query path + covered node set, in parallel.
        let solved = map_jobs(
            queries,
            |&(vs, vt)| -> Result<(Path, Vec<NodeId>), ProviderError> {
                for v in [vs, vt] {
                    if g.check_node(v).is_err() {
                        return Err(ProviderError::UnknownNode(v));
                    }
                }
                let path = dijkstra_path(g, vs, vt).map_err(|_| ProviderError::Unreachable {
                    source: vs,
                    target: vt,
                })?;
                let nodes = method.batch_members(&self.package, vs, vt, &path);
                Ok((path, nodes))
            },
        );
        let mut gammas: Vec<(Path, Vec<NodeId>)> = Vec::with_capacity(queries.len());
        for r in solved {
            gammas.push(r?);
        }
        // Pool = deduplicated union, ordered by node id.
        let mut pool_index: BTreeMap<NodeId, u32> = BTreeMap::new();
        for (_, nodes) in &gammas {
            for &v in nodes {
                let next = pool_index.len() as u32;
                pool_index.entry(v).or_insert(next);
            }
        }
        // BTreeMap iteration is id-ordered but insertion indices are
        // arrival-ordered; rebuild densely in id order for determinism.
        let pool_nodes: Vec<NodeId> = pool_index.keys().copied().collect();
        let index_of: HashMap<NodeId, u32> = pool_nodes
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let pool: Vec<Arc<ExtendedTuple>> =
            pool_nodes.iter().map(|&v| ads.tuple_shared(v)).collect();
        let merkle = ads
            .prove_nodes(pool_nodes.iter().copied())
            .map_err(|e| ProviderError::ProofAssembly(e.to_string()))?;
        let integrity = IntegrityProof {
            positions: pool_nodes.iter().map(|&v| ads.position(v)).collect(),
            merkle,
            signed_root: self.package.network_root.clone(),
        };
        let aux = method.prove_batch(&self.package, queries)?;
        let queries_out = gammas
            .into_iter()
            .map(|(path, nodes)| BatchQueryProof {
                path,
                members: nodes.iter().map(|v| index_of[v]).collect(),
            })
            .collect();
        Ok(BatchAnswer {
            pool,
            queries: queries_out,
            integrity,
            aux,
        })
    }
}

/// Per-batch verified hint context, built once by
/// [`AuthMethod::verify_batch_aux`](crate::methods::AuthMethod::verify_batch_aux)
/// and then consulted by every per-query job.
#[derive(Debug)]
pub enum AuxContext<'a> {
    /// DIJ / LDM: the pooled subgraph tuples are the whole ΓS.
    Subgraph,
    /// FULL: authenticated distances keyed by `composite_key(vs, vt)`.
    Full(HashMap<u64, f64>),
    /// HYP: the (already root/signature-checked) shared proofs.
    Hyp {
        /// The verified hyper-edge membership proof.
        hyper: &'a KeyedProof,
        /// The verified cell-directory membership proof.
        cell_dir: &'a KeyedProof,
    },
}

/// Per-batch verifier scratch state, created once per
/// `verify_batch`/stream-chunk call and shared (behind internal locks)
/// by every per-query verification job of that batch.
#[derive(Debug, Default)]
pub struct BatchVerifyState {
    /// HYP: cell-graph cache plus the multi-source sweep plan — cells
    /// touched by the batch each get **one** calibrated in-cell sweep
    /// seeded with every query endpoint of that cell, and endpoints of
    /// different queries that share a cell reuse one authenticated
    /// cell subgraph instead of rebuilding it per endpoint.
    pub(crate) hyp: HypBatchState,
}

impl Client {
    /// The batch-verification engine behind the session and stream
    /// facades ([`crate::service::Session::verify_batch`] is the public
    /// entry point). With `pinned` the caller vouches it already
    /// RSA-verified that exact signed root (once, at session open): the
    /// batch root must then be byte-identical, and the signature check
    /// is skipped. `pins` extends the same treatment to the method's
    /// auxiliary signed roots (FULL distance tree, HYP hyper-edge and
    /// cell-directory trees).
    pub(crate) fn verify_batch_impl(
        &self,
        queries: &[(NodeId, NodeId)],
        batch: &BatchAnswer,
        pinned: Option<&SignedRoot>,
        pins: Option<&PinnedAux>,
    ) -> Result<Vec<f64>, VerifyError> {
        self.verify_batch_with_state(queries, batch, pinned, pins, &BatchVerifyState::default())
    }

    /// [`Self::verify_batch_impl`] with a caller-owned
    /// [`BatchVerifyState`], so tests can observe the per-batch caches
    /// and sweep counters after verification.
    pub(crate) fn verify_batch_with_state(
        &self,
        queries: &[(NodeId, NodeId)],
        batch: &BatchAnswer,
        pinned: Option<&SignedRoot>,
        pins: Option<&PinnedAux>,
        state: &BatchVerifyState,
    ) -> Result<Vec<f64>, VerifyError> {
        if queries.len() != batch.queries.len() {
            return Err(VerifyError::MalformedIntegrityProof(format!(
                "{} queries but {} proofs",
                queries.len(),
                batch.queries.len()
            )));
        }
        // Shared ΓT: authenticate the pool once.
        match pinned {
            Some(root) => {
                if batch.integrity.signed_root != *root {
                    return Err(VerifyError::MetaMismatch(
                        "signed root differs from pinned session root",
                    ));
                }
            }
            None => {
                if !batch.integrity.signed_root.verify(self.public_key()) {
                    return Err(VerifyError::BadSignature);
                }
            }
        }
        let params = MethodParams::from_bytes(&batch.integrity.signed_root.meta.params)
            .map_err(|_| VerifyError::MetaMismatch("undecodable method params"))?;
        if batch.pool.len() != batch.integrity.positions.len() {
            return Err(VerifyError::MalformedIntegrityProof(
                "positions do not match pool".into(),
            ));
        }
        let leaves: Vec<(usize, Digest)> = batch
            .pool
            .iter()
            .zip(&batch.integrity.positions)
            .map(|(t, &p)| (p as usize, t.digest()))
            .collect();
        let root = batch
            .integrity
            .merkle
            .reconstruct_root(&leaves)
            .map_err(|e| VerifyError::MalformedIntegrityProof(e.to_string()))?;
        if root != batch.integrity.signed_root.root {
            return Err(VerifyError::RootMismatch);
        }
        // Method aux: authenticate the pooled hint proofs once.
        let method = params.method();
        let vctx = VerifyCtx {
            pk: self.public_key(),
            pins,
        };
        let ctx = method.verify_batch_aux(&vctx, &params, &batch.aux)?;
        method.prepare_batch_verify(&params, queries, batch, state);
        // Per query: build the member map and re-run the verification —
        // one independent job per query, fanned out over threads.
        let outcomes = map_jobs_indexed(queries, |qi, &(vs, vt)| -> Result<f64, VerifyError> {
            let q = &batch.queries[qi];
            let mut map: HashMap<NodeId, &ExtendedTuple> = HashMap::with_capacity(q.members.len());
            for &i in &q.members {
                let t = batch
                    .pool
                    .get(i as usize)
                    .ok_or(VerifyError::MalformedIntegrityProof(
                        "member index out of pool".into(),
                    ))?;
                map.insert(t.id, &**t);
            }
            let proven = method.verify_batch_query(&params, &ctx, state, &map, vs, vt)?;
            // Path checks against the authenticated pool.
            check_reported_path(&map, vs, vt, &q.path, proven)?;
            Ok(proven)
        });
        outcomes.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{LdmConfig, MethodConfig};
    use crate::owner::{DataOwner, SetupConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spnet_graph::gen::grid_network;
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

    const QUERIES: [(u32, u32); 4] = [(0, 99), (1, 98), (0, 55), (10, 89)];

    fn as_nodes(qs: &[(u32, u32)]) -> Vec<(NodeId, NodeId)> {
        qs.iter().map(|&(s, t)| (NodeId(s), NodeId(t))).collect()
    }

    #[test]
    fn batch_verifies_for_every_method() {
        for method in all_methods() {
            let (g, provider, client) = deploy(method.clone(), 1700);
            let queries = as_nodes(&QUERIES);
            let batch = provider.answer_batch_impl(&queries).unwrap();
            let distances = client
                .verify_batch_impl(&queries, &batch, None, None)
                .unwrap();
            for (&(s, t), d) in queries.iter().zip(&distances) {
                let truth = dijkstra_path(&g, s, t).unwrap().distance;
                assert!(
                    (d - truth).abs() <= 1e-6 * truth.max(1.0),
                    "{}: ({s},{t})",
                    method.name()
                );
            }
        }
    }

    #[test]
    fn batch_smaller_than_individual_answers() {
        // Overlapping queries: the pool dedups tuples, shares covers,
        // and ships each signed root once — for every method.
        for method in all_methods() {
            let (_, provider, _) = deploy(method.clone(), 1701);
            let queries = as_nodes(&QUERIES);
            let batch = provider.answer_batch_impl(&queries).unwrap();
            let individual: usize = queries
                .iter()
                .map(|&(s, t)| provider.answer(s, t).unwrap().stats().total_bytes())
                .sum();
            assert!(
                batch.encoded_len() < individual,
                "{}: batch {} ≥ individual sum {}",
                method.name(),
                batch.encoded_len(),
                individual
            );
        }
    }

    #[test]
    fn hyp_batch_one_sweep_per_touched_cell() {
        let (_, provider, client) = deploy(MethodConfig::Hyp { cells: 9 }, 1720);
        let queries = as_nodes(&QUERIES);
        let batch = provider.answer_batch_impl(&queries).unwrap();
        // The cells the batch touches, per the authenticated pool.
        let mut cells = std::collections::HashSet::new();
        for &(s, t) in &queries {
            for v in [s, t] {
                let tuple = batch
                    .pool
                    .iter()
                    .find(|tu| tu.id == v)
                    .expect("endpoint pooled");
                cells.insert(tuple.cell.expect("HYP tuples carry cell info").cell);
            }
        }
        assert!(cells.len() >= 2, "queries must span several cells");
        let state = BatchVerifyState::default();
        let swept = client
            .verify_batch_with_state(&queries, &batch, None, None, &state)
            .unwrap();
        assert_eq!(
            state.hyp.sweep_count(),
            cells.len() as u64,
            "exactly one multi-source in-cell sweep per touched cell"
        );
        assert_eq!(
            state.hyp.solo_count(),
            0,
            "no per-endpoint fallback searches on the planned path"
        );
        // Bit-identity with the sequential single-query verification,
        // whose in-cell distances come from solo Dijkstras.
        for (&(s, t), d) in queries.iter().zip(&swept) {
            let single = client
                .verify(s, t, &provider.answer(s, t).unwrap())
                .unwrap();
            assert_eq!(
                d.to_bits(),
                single.distance.to_bits(),
                "({s},{t}): swept verify must be bit-identical"
            );
        }
    }

    #[test]
    fn empty_batch_rejected() {
        let (_, provider, _) = deploy(MethodConfig::Dij, 1702);
        assert!(matches!(
            provider.answer_batch_impl(&[]),
            Err(ProviderError::ProofAssembly(_))
        ));
    }

    #[test]
    fn tampered_pool_tuple_rejected_for_every_method() {
        for method in all_methods() {
            let (_, provider, client) = deploy(method.clone(), 1703);
            let queries = as_nodes(&QUERIES);
            let mut batch = provider.answer_batch_impl(&queries).unwrap();
            Arc::make_mut(&mut batch.pool[0]).adj[0].1 *= 0.5;
            assert!(
                client
                    .verify_batch_impl(&queries, &batch, None, None)
                    .is_err(),
                "{}",
                method.name()
            );
        }
    }

    #[test]
    fn every_pool_entry_is_referenced_and_tamper_breaks_the_batch() {
        // The shared pool is covered by ONE Merkle reconstruction, so a
        // flipped pooled entry invalidates the whole batch — in
        // particular every query whose Γ references it. Also asserts
        // the pool carries no dead entries (each index is referenced by
        // at least one query's member list).
        for method in all_methods() {
            let (_, provider, client) = deploy(method.clone(), 1708);
            let queries = as_nodes(&QUERIES);
            let honest = provider.answer_batch_impl(&queries).unwrap();
            let referenced: std::collections::HashSet<u32> = honest
                .queries
                .iter()
                .flat_map(|q| q.members.iter().copied())
                .collect();
            assert_eq!(
                referenced.len(),
                honest.pool.len(),
                "{}: pool has unreferenced entries",
                method.name()
            );
            for i in 0..honest.pool.len() {
                let mut evil = honest.clone();
                let t = Arc::make_mut(&mut evil.pool[i]);
                if t.adj.is_empty() {
                    continue;
                }
                t.adj[0].1 *= 0.5;
                assert_eq!(
                    client.verify_batch_impl(&queries, &evil, None, None),
                    Err(VerifyError::RootMismatch),
                    "{}: pool[{i}]",
                    method.name()
                );
            }
        }
    }

    #[test]
    fn tampered_full_row_entry_rejected() {
        let (_, provider, client) = deploy(
            MethodConfig::Full {
                use_floyd_warshall: false,
            },
            1709,
        );
        let queries = as_nodes(&QUERIES);
        let mut batch = provider.answer_batch_impl(&queries).unwrap();
        let BatchAux::Full { proof, .. } = &mut batch.aux else {
            panic!("FULL batch must carry a Full aux");
        };
        proof.rows[0].entries[0].value *= 0.5;
        assert_eq!(
            client.verify_batch_impl(&queries, &batch, None, None),
            Err(VerifyError::RootMismatch)
        );
    }

    #[test]
    fn tampered_hyp_hyper_entry_rejected() {
        let (_, provider, client) = deploy(MethodConfig::Hyp { cells: 9 }, 1710);
        let queries = as_nodes(&QUERIES);
        let mut batch = provider.answer_batch_impl(&queries).unwrap();
        let BatchAux::Hyp { hyper, .. } = &mut batch.aux else {
            panic!("HYP batch must carry a Hyp aux");
        };
        assert!(!hyper.entries.is_empty());
        hyper.entries[0].value *= 0.5;
        assert_eq!(
            client.verify_batch_impl(&queries, &batch, None, None),
            Err(VerifyError::RootMismatch)
        );
    }

    #[test]
    fn aux_method_mismatch_rejected() {
        // A FULL-signed deployment shipping a Subgraph aux (method
        // downgrade) must be rejected before any per-query work.
        let (_, provider, client) = deploy(
            MethodConfig::Full {
                use_floyd_warshall: false,
            },
            1711,
        );
        let queries = as_nodes(&QUERIES);
        let mut batch = provider.answer_batch_impl(&queries).unwrap();
        batch.aux = BatchAux::Subgraph;
        assert_eq!(
            client.verify_batch_impl(&queries, &batch, None, None),
            Err(VerifyError::MetaMismatch(
                "batch proof shape does not match signed method"
            ))
        );
    }

    #[test]
    fn missing_full_distance_key_rejected() {
        let (_, provider, client) = deploy(
            MethodConfig::Full {
                use_floyd_warshall: false,
            },
            1712,
        );
        let queries = as_nodes(&QUERIES);
        let mut batch = provider.answer_batch_impl(&queries).unwrap();
        let BatchAux::Full { proof, .. } = &mut batch.aux else {
            panic!("FULL batch must carry a Full aux");
        };
        // Drop one row entirely: its queries must fail with a missing
        // key (or a malformed cover), never silently pass.
        proof.rows.remove(0);
        assert!(client
            .verify_batch_impl(&queries, &batch, None, None)
            .is_err());
    }

    #[test]
    fn dropped_member_rejected() {
        for method in all_methods() {
            let (_, provider, client) = deploy(method.clone(), 1704);
            let queries = as_nodes(&QUERIES);
            let mut batch = provider.answer_batch_impl(&queries).unwrap();
            // Hide part of query 0's Γ: its verification must hit a
            // missing tuple (subgraph search, path check, or HYP cell
            // completeness).
            let keep = batch.queries[0].members.len() / 2;
            batch.queries[0].members.truncate(keep);
            assert!(
                client
                    .verify_batch_impl(&queries, &batch, None, None)
                    .is_err(),
                "{}",
                method.name()
            );
        }
    }

    #[test]
    fn suboptimal_path_in_batch_rejected() {
        let (g, provider, client) = deploy(MethodConfig::Dij, 1705);
        let queries = as_nodes(&QUERIES);
        let honest = provider.answer_batch_impl(&queries).unwrap();
        // Replace query 1's path with a detour (keep honest proofs).
        let single = provider.answer(queries[1].0, queries[1].1).unwrap();
        if let Some(evil_single) =
            crate::tamper::apply(crate::tamper::Attack::SuboptimalPath, &g, &single)
        {
            let mut evil = honest.clone();
            evil.queries[1].path = evil_single.path;
            assert!(client
                .verify_batch_impl(&queries, &evil, None, None)
                .is_err());
        }
    }

    #[test]
    fn query_count_mismatch_rejected() {
        let (_, provider, client) = deploy(MethodConfig::Dij, 1706);
        let queries = as_nodes(&QUERIES);
        let batch = provider.answer_batch_impl(&queries).unwrap();
        assert!(client
            .verify_batch_impl(&queries[..2], &batch, None, None)
            .is_err());
    }

    #[test]
    fn member_index_out_of_pool_rejected() {
        let (_, provider, client) = deploy(MethodConfig::Dij, 1707);
        let queries = as_nodes(&QUERIES);
        let mut batch = provider.answer_batch_impl(&queries).unwrap();
        batch.queries[0].members.push(batch.pool.len() as u32 + 7);
        assert!(client
            .verify_batch_impl(&queries, &batch, None, None)
            .is_err());
    }
}
