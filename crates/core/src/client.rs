//! The client: verifies answers against the owner's public key alone.
//!
//! A path is accepted iff (Section III-A):
//!
//! 1. every tuple in ΓS is authentic — the reconstructed Merkle root
//!    matches the owner-signed network root (ΓT);
//! 2. the ΓS machinery proves the true optimum `dist(vs, vt)`;
//! 3. the reported path uses only authenticated edges, starts at `vs`,
//!    ends at `vt`, and its summed weight equals both its claimed
//!    distance and the proven optimum.

use crate::ads::SignedRoot;
use crate::enc::Wire;
use crate::error::VerifyError;
use crate::methods::{MethodParams, PinnedAux, VerifyCtx};
use crate::proof::{Answer, IntegrityProof, SpProof};
use crate::tuple::ExtendedTuple;
use spnet_crypto::digest::Digest;
use spnet_crypto::rsa::RsaPublicKey;
use spnet_graph::path::close;
use spnet_graph::NodeId;
use std::collections::HashMap;

/// A successfully verified answer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verified {
    /// The proven optimal distance `dist(vs, vt)`.
    pub distance: f64,
}

/// The client role.
#[derive(Debug, Clone)]
pub struct Client {
    public_key: RsaPublicKey,
}

impl Client {
    /// A client trusting the given owner key.
    pub fn new(public_key: RsaPublicKey) -> Self {
        Client { public_key }
    }

    /// The owner key this client trusts.
    pub fn public_key(&self) -> &RsaPublicKey {
        &self.public_key
    }

    /// Verifies a provider answer for query `(vs, vt)`.
    pub fn verify(&self, vs: NodeId, vt: NodeId, answer: &Answer) -> Result<Verified, VerifyError> {
        self.verify_impl(vs, vt, answer, None, None)
    }

    /// Like [`Self::verify`], but against a signed root this client has
    /// already RSA-verified (once, e.g. at session open): the answer's
    /// root must be byte-identical to `pinned`, and the per-answer
    /// signature check is skipped. An answer signed for a *different*
    /// epoch — even legitimately, by the same owner — is rejected,
    /// which is what turns owner updates into explicit session
    /// invalidation instead of silently accepted stale roots.
    ///
    /// `pins` extends the same treatment to the method's *auxiliary*
    /// roots (FULL's distance tree, HYP's hyper-edge and cell-directory
    /// trees): a root covered by the pins skips its per-answer RSA
    /// check too. All Merkle reconstructions still run in full.
    pub fn verify_pinned(
        &self,
        vs: NodeId,
        vt: NodeId,
        answer: &Answer,
        pinned: &SignedRoot,
        pins: Option<&PinnedAux>,
    ) -> Result<Verified, VerifyError> {
        self.verify_impl(vs, vt, answer, Some(pinned), pins)
    }

    fn verify_impl(
        &self,
        vs: NodeId,
        vt: NodeId,
        answer: &Answer,
        pinned: Option<&SignedRoot>,
        pins: Option<&PinnedAux>,
    ) -> Result<Verified, VerifyError> {
        // --- ΓT: authenticate every shipped tuple. ---------------------
        match pinned {
            Some(root) => {
                if answer.integrity.signed_root != *root {
                    return Err(VerifyError::MetaMismatch(
                        "signed root differs from pinned session root",
                    ));
                }
            }
            None => {
                if !answer.integrity.signed_root.verify(&self.public_key) {
                    return Err(VerifyError::BadSignature);
                }
            }
        }
        let params = MethodParams::from_bytes(&answer.integrity.signed_root.meta.params)
            .map_err(|_| VerifyError::MetaMismatch("undecodable method params"))?;
        // Signed method code must match the proof's shape — prevents a
        // malicious provider from downgrading the verification method.
        let method = params.method();
        if !method.matches_proof(&answer.sp) {
            return Err(VerifyError::MetaMismatch(
                "proof shape does not match signed method",
            ));
        }
        let tuples = self.verify_integrity(&answer.integrity, &answer.sp)?;

        // --- ΓS: recompute the optimum (trait-dispatched). -------------
        let ctx = VerifyCtx {
            pk: &self.public_key,
            pins,
        };
        let proven = method.verify(&ctx, &params, &answer.sp, &tuples, vs, vt)?;

        // --- P_rslt: authenticate the reported path itself. ------------
        check_reported_path(&tuples, vs, vt, &answer.path, proven)?;
        Ok(Verified { distance: proven })
    }

    /// Reconstructs the network root from all shipped tuples and the ΓT
    /// cover digests; returns the authenticated tuple map.
    fn verify_integrity<'a>(
        &self,
        integrity: &IntegrityProof,
        sp: &'a SpProof,
    ) -> Result<HashMap<NodeId, &'a ExtendedTuple>, VerifyError> {
        let all: Vec<&ExtendedTuple> = sp
            .tuples()
            .iter()
            .chain(sp.extra_tuples().iter())
            .map(|t| &**t)
            .collect();
        if all.len() != integrity.positions.len() {
            return Err(VerifyError::MalformedIntegrityProof(format!(
                "{} tuples but {} positions",
                all.len(),
                integrity.positions.len()
            )));
        }
        let leaves: Vec<(usize, Digest)> = all
            .iter()
            .zip(&integrity.positions)
            .map(|(t, &p)| (p as usize, t.digest()))
            .collect();
        let root = integrity
            .merkle
            .reconstruct_root(&leaves)
            .map_err(|e| VerifyError::MalformedIntegrityProof(e.to_string()))?;
        if root != integrity.signed_root.root {
            return Err(VerifyError::RootMismatch);
        }
        let mut map = HashMap::with_capacity(all.len());
        for t in all {
            map.insert(t.id, t);
        }
        Ok(map)
    }
}

/// Checks a reported path `P_rslt` against authenticated tuples and a
/// proven optimum: endpoints, edge existence, summed weight vs both
/// the claimed distance and the optimum. Shared by the single-query
/// and batched verification paths.
pub(crate) fn check_reported_path(
    tuples: &HashMap<NodeId, &ExtendedTuple>,
    vs: NodeId,
    vt: NodeId,
    path: &spnet_graph::Path,
    proven: f64,
) -> Result<(), VerifyError> {
    let got = (path.source(), path.target());
    if got != (vs, vt) {
        return Err(VerifyError::WrongEndpoints {
            expected: (vs, vt),
            got,
        });
    }
    let mut sum = 0.0;
    for w in path.nodes.windows(2) {
        let t = tuples.get(&w[0]).ok_or(VerifyError::MissingTuple(w[0]))?;
        let weight = t.edge_to(w[1]).ok_or(VerifyError::FakeEdge {
            from: w[0],
            to: w[1],
        })?;
        sum += weight;
    }
    if !close(sum, path.distance) {
        return Err(VerifyError::InconsistentPathDistance {
            claimed: path.distance,
            recomputed: sum,
        });
    }
    if !close(sum, proven) {
        return Err(VerifyError::NotShortest {
            reported: sum,
            proven,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{LdmConfig, MethodConfig};
    use crate::owner::{DataOwner, SetupConfig};
    use crate::provider::ServiceProvider;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spnet_graph::gen::grid_network;

    fn end_to_end(method: MethodConfig, queries: &[(u32, u32)]) {
        let g = grid_network(9, 9, 1.15, 900);
        let mut rng = StdRng::seed_from_u64(901);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        let provider = ServiceProvider::new(p.package);
        let client = Client::new(p.public_key);
        for &(s, t) in queries {
            let (s, t) = (NodeId(s), NodeId(t));
            let answer = provider.answer(s, t).unwrap();
            let v = client
                .verify(s, t, &answer)
                .unwrap_or_else(|e| panic!("{}: ({s},{t}) rejected: {e}", method.name()));
            assert!(
                close(v.distance, answer.path.distance),
                "{}: distance mismatch",
                method.name()
            );
        }
    }

    const QUERIES: [(u32, u32); 5] = [(0, 80), (4, 76), (40, 41), (80, 0), (9, 71)];

    #[test]
    fn dij_end_to_end() {
        end_to_end(MethodConfig::Dij, &QUERIES);
    }

    #[test]
    fn full_end_to_end() {
        end_to_end(
            MethodConfig::Full {
                use_floyd_warshall: false,
            },
            &QUERIES,
        );
    }

    #[test]
    fn ldm_end_to_end() {
        end_to_end(
            MethodConfig::Ldm(LdmConfig {
                landmarks: 8,
                ..LdmConfig::default()
            }),
            &QUERIES,
        );
    }

    #[test]
    fn hyp_end_to_end() {
        end_to_end(MethodConfig::Hyp { cells: 9 }, &QUERIES);
    }

    #[test]
    fn wrong_owner_key_rejected() {
        let g = grid_network(6, 6, 1.15, 902);
        let mut rng = StdRng::seed_from_u64(903);
        let p = DataOwner::publish(&g, &MethodConfig::Dij, &SetupConfig::default(), &mut rng);
        let provider = ServiceProvider::new(p.package);
        let answer = provider.answer(NodeId(0), NodeId(35)).unwrap();
        // A client trusting a different owner.
        let mut rng2 = StdRng::seed_from_u64(904);
        let other = spnet_crypto::rsa::RsaKeyPair::generate(&mut rng2, 256);
        let client = Client::new(other.public_key().clone());
        assert_eq!(
            client.verify(NodeId(0), NodeId(35), &answer),
            Err(VerifyError::BadSignature)
        );
    }

    #[test]
    fn wrong_query_pair_rejected() {
        let g = grid_network(6, 6, 1.15, 905);
        let mut rng = StdRng::seed_from_u64(906);
        let p = DataOwner::publish(&g, &MethodConfig::Dij, &SetupConfig::default(), &mut rng);
        let provider = ServiceProvider::new(p.package);
        let client = Client::new(p.public_key);
        let answer = provider.answer(NodeId(0), NodeId(35)).unwrap();
        // Replaying the answer for a different query.
        let err = client.verify(NodeId(0), NodeId(34), &answer);
        assert!(err.is_err());
    }
}
