//! The service provider: answers queries with proofs (Algorithm 1).

use crate::error::ProviderError;
use crate::owner::ProviderPackage;
use crate::proof::{Answer, IntegrityProof};
use spnet_graph::algo::dijkstra_path;
use spnet_graph::NodeId;

/// The service provider role: holds the owner's package and answers
/// shortest-path queries with verification proofs.
///
/// `Clone` shares the package's blocks — the service facade's MVCC
/// epoch ring clones the serving state so an owner update repairs its
/// own epoch while pinned epochs keep draining the original. The clone
/// bumps reference counts on the tree levels, tuple handles, B-tree
/// entries, landmark rows and graph topology; the repair then copies
/// only the blocks it writes, so older epochs never see its changes.
#[derive(Clone)]
pub struct ServiceProvider {
    pub(crate) package: ProviderPackage,
}

impl ServiceProvider {
    /// Wraps an owner package.
    pub fn new(package: ProviderPackage) -> Self {
        ServiceProvider { package }
    }

    /// Read access to the package (used by the tamper simulator).
    pub fn package(&self) -> &ProviderPackage {
        &self.package
    }

    /// The wire code of the method this provider serves (stamped into
    /// stream frame headers).
    pub fn method_code(&self) -> u8 {
        self.package.hints.method().params_code()
    }

    /// Algorithm 1: computes the shortest path and assembles
    /// `(P_rslt, ΓS, ΓT)`.
    pub fn answer(&self, vs: NodeId, vt: NodeId) -> Result<Answer, ProviderError> {
        let g = &self.package.graph;
        for v in [vs, vt] {
            if g.check_node(v).is_err() {
                return Err(ProviderError::UnknownNode(v));
            }
        }
        // Line 1: `algosp`. The client's check does not depend on how
        // the path was found, so plain Dijkstra serves.
        let path = dijkstra_path(g, vs, vt).map_err(|_| ProviderError::Unreachable {
            source: vs,
            target: vt,
        })?;
        // Lines 2–3: ΓS from the hints (dispatched through the method's
        // `AuthMethod` implementation), ΓT from the ADS.
        let method = self.package.hints.method();
        let (sp, covered_nodes) = method.prove(&self.package, vs, vt, &path)?;
        let integrity = self.build_integrity(&covered_nodes)?;
        Ok(Answer {
            path,
            sp,
            integrity,
        })
    }

    /// Builds ΓT over the given node list (order defines the positions
    /// vector). Shared with the range operator ([`crate::queries`]).
    pub(crate) fn build_integrity(
        &self,
        nodes: &[NodeId],
    ) -> Result<IntegrityProof, ProviderError> {
        let ads = &self.package.ads;
        let merkle = ads
            .prove_nodes(nodes.iter().copied())
            .map_err(|e| ProviderError::ProofAssembly(e.to_string()))?;
        Ok(IntegrityProof {
            positions: nodes.iter().map(|&v| ads.position(v)).collect(),
            merkle,
            signed_root: self.package.network_root.clone(),
        })
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

    fn provider(method: MethodConfig) -> ServiceProvider {
        let g = grid_network(9, 9, 1.15, 800);
        let mut rng = StdRng::seed_from_u64(801);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        ServiceProvider::new(p.package)
    }

    #[test]
    fn answers_have_consistent_shapes() {
        for method in [
            MethodConfig::Dij,
            MethodConfig::Full {
                use_floyd_warshall: false,
            },
            MethodConfig::Ldm(LdmConfig {
                landmarks: 6,
                ..LdmConfig::default()
            }),
            MethodConfig::Hyp { cells: 9 },
        ] {
            let sp = provider(method.clone());
            let a = sp.answer(NodeId(0), NodeId(80)).unwrap();
            assert_eq!(a.path.source(), NodeId(0));
            assert_eq!(a.path.target(), NodeId(80));
            let n_tuples = a.sp.tuples().len() + a.sp.extra_tuples().len();
            assert_eq!(
                a.integrity.positions.len(),
                n_tuples,
                "{}: positions parallel tuples",
                method.name()
            );
            let stats = a.stats();
            assert!(stats.s_bytes > 0 && stats.t_bytes > 0);
        }
    }

    #[test]
    fn unknown_node_rejected() {
        let sp = provider(MethodConfig::Dij);
        assert!(matches!(
            sp.answer(NodeId(0), NodeId(999)),
            Err(ProviderError::UnknownNode(_))
        ));
    }

    #[test]
    fn dij_proof_larger_than_full_proof() {
        // The headline comparison of Figure 8a, at unit scale.
        let dij = provider(MethodConfig::Dij);
        let full = provider(MethodConfig::Full {
            use_floyd_warshall: false,
        });
        let a1 = dij.answer(NodeId(0), NodeId(80)).unwrap();
        let a2 = full.answer(NodeId(0), NodeId(80)).unwrap();
        assert!(
            a1.stats().total_bytes() > a2.stats().total_bytes(),
            "DIJ {} ≤ FULL {}",
            a1.stats().total_bytes(),
            a2.stats().total_bytes()
        );
    }
}
