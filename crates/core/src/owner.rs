//! The data owner: builds and signs the authenticated structures
//! (Figure 2, left).

use crate::ads::{NetworkAds, SignedRoot};
use crate::methods::full::{DistanceAds, FullBuildStats};
use crate::methods::hyp::HypHints;
use crate::methods::ldm::LdmHints;
use crate::methods::{dij, full, hyp, ldm, AuthMethod, MethodConfig};
use crate::tuple::ExtendedTuple;
use rand::Rng;
use spnet_bytes::enc::Wire;
use spnet_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use spnet_graph::order::NodeOrdering;
use spnet_graph::Graph;

/// Owner-side setup parameters common to all methods.
#[derive(Debug, Clone, PartialEq)]
pub struct SetupConfig {
    /// Graph-node ordering of the Merkle leaves (paper default: hbt).
    pub ordering: NodeOrdering,
    /// Merkle tree fanout (paper default: 2).
    pub fanout: usize,
    /// Seed for ordering/landmark randomness.
    pub seed: u64,
    /// RSA modulus size in bits.
    pub rsa_bits: usize,
}

impl Default for SetupConfig {
    fn default() -> Self {
        SetupConfig {
            ordering: NodeOrdering::Hilbert,
            fanout: 2,
            seed: 0,
            rsa_bits: 256, // research-scale; see crate security note
        }
    }
}

/// Everything the service provider receives from the owner.
#[derive(Debug, Clone)]
pub struct ProviderPackage {
    /// The road network itself.
    pub graph: Graph,
    /// The network ADS (ordered tuples + Merkle tree).
    pub ads: NetworkAds,
    /// The owner-signed network root (with method params in its meta).
    pub network_root: SignedRoot,
    /// Per-method hints and auxiliary signed structures.
    pub hints: MethodHints,
}

/// Method-specific authenticated hints held by the provider.
///
/// One instance lives per provider package, so the size spread
/// between the empty `Dij` variant and the hint-heavy ones is
/// irrelevant in practice.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum MethodHints {
    /// DIJ needs none.
    Dij,
    /// FULL: the distance ADS and its signed root.
    Full {
        /// The two-level all-pairs distance tree.
        ads: DistanceAds,
        /// Owner signature on its root.
        signed_root: SignedRoot,
        /// Construction statistics.
        stats: FullBuildStats,
    },
    /// LDM: compressed landmark vectors (also baked into tuples).
    Ldm(LdmHints),
    /// HYP: partition, hyper-edge tree and cell directory with signed
    /// roots.
    Hyp {
        /// Partition, hyper-edge tree, cell directory.
        hints: HypHints,
        /// Owner signature on the hyper-edge tree root.
        hyper_signed: SignedRoot,
        /// Owner signature on the cell-directory root.
        cell_dir_signed: SignedRoot,
    },
}

impl MethodHints {
    /// The method's lifecycle implementation — how a provider holding
    /// these hints dispatches proof assembly.
    pub fn method(&self) -> &'static dyn AuthMethod {
        match self {
            MethodHints::Dij => &dij::DijMethod,
            MethodHints::Full { .. } => &full::FullMethod,
            MethodHints::Ldm(_) => &ldm::LdmMethod,
            MethodHints::Hyp { .. } => &hyp::HypMethod,
        }
    }

    /// The auxiliary signed roots this method's proofs reference beyond
    /// the network root: FULL's distance-tree root, HYP's hyper-edge
    /// and cell-directory roots. A session RSA-verifies these once at
    /// open and pins them, so per-chunk verification replaces the
    /// repeated signature checks with byte equality.
    pub fn aux_roots(&self) -> Vec<&SignedRoot> {
        match self {
            MethodHints::Dij | MethodHints::Ldm(_) => Vec::new(),
            MethodHints::Full { signed_root, .. } => vec![signed_root],
            MethodHints::Hyp {
                hyper_signed,
                cell_dir_signed,
                ..
            } => vec![hyper_signed, cell_dir_signed],
        }
    }
}

/// Result of `DataOwner::publish`.
#[derive(Debug, Clone)]
pub struct Published {
    /// Hand this to the service provider.
    pub package: ProviderPackage,
    /// Distribute this to clients.
    pub public_key: RsaPublicKey,
    /// Offline construction time of the authenticated hints, in seconds
    /// (the Figures 8c / 9b / 12b / 13b metric; excludes key
    /// generation, includes ADS hashing and all hint computation).
    pub construction_seconds: f64,
}

impl Published {
    /// Persists this epoch into `dir` (see [`crate::snapshot`]): one
    /// page-aligned snapshot file holding the graph, the owner public
    /// key, every signed root, the tuples, the Merkle levels and the
    /// method hints. Signs nothing — the publish-time signatures are
    /// persisted as bytes. Returns the snapshot file's path.
    pub fn save_snapshot(
        &self,
        dir: &std::path::Path,
    ) -> Result<std::path::PathBuf, crate::snapshot::SnapshotError> {
        crate::snapshot::save_package(self, dir)
    }
}

impl ProviderPackage {
    /// Cold-starts a provider package from a snapshot directory
    /// written by [`Published::save_snapshot`] — **zero RSA signing**;
    /// every persisted signed root is re-verified against the
    /// persisted owner key. See [`crate::snapshot::load_package`].
    pub fn load_snapshot(
        dir: &std::path::Path,
        backend: spnet_store::StoreBackend,
    ) -> Result<crate::snapshot::LoadedSnapshot, crate::snapshot::SnapshotError> {
        crate::snapshot::load_package(dir, backend)
    }
}

/// The data owner role.
pub struct DataOwner;

impl DataOwner {
    /// Builds, signs and packages everything for `method`, generating a
    /// fresh owner keypair. Owners that will publish **updates** later
    /// should retain their keypair and use [`Self::publish_with_key`].
    pub fn publish<R: Rng + ?Sized>(
        graph: &Graph,
        method: &MethodConfig,
        cfg: &SetupConfig,
        rng: &mut R,
    ) -> Published {
        let keypair = RsaKeyPair::generate(rng, cfg.rsa_bits);
        Self::publish_with_key(graph, method, cfg, &keypair)
    }

    /// Builds, signs and packages everything for `method` with a
    /// caller-retained keypair, so the owner can later re-sign epoch
    /// bumps ([`crate::update::update_edge_weight`],
    /// [`crate::service::SpService::update_edge_weight`]).
    ///
    /// All method-specific work — hint construction, auxiliary-root
    /// signing, per-node tuple payloads — dispatches through the
    /// method's [`AuthMethod`] implementation.
    pub fn publish_with_key(
        graph: &Graph,
        method: &MethodConfig,
        cfg: &SetupConfig,
        keypair: &RsaKeyPair,
    ) -> Published {
        let start = std::time::Instant::now();
        let method_impl = method.method();

        // Method-specific hints first (tuples may embed them).
        let (hints, params) = method_impl.build_hints(graph, method, cfg, keypair);
        let tuples: Vec<ExtendedTuple> = graph
            .nodes()
            .map(|v| method_impl.make_tuple(graph, v, &hints))
            .collect();

        let ads = NetworkAds::build(graph, tuples, cfg.ordering, cfg.fanout, cfg.seed);
        let network_root = SignedRoot::sign(keypair, ads.root(), ads.meta(params.to_bytes()));
        let construction_seconds = start.elapsed().as_secs_f64();

        Published {
            package: ProviderPackage {
                graph: graph.clone(),
                ads,
                network_root,
                hints,
            },
            public_key: keypair.public_key().clone(),
            construction_seconds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::LdmConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spnet_graph::gen::grid_network;

    fn publish(method: MethodConfig) -> Published {
        let g = grid_network(8, 8, 1.15, 700);
        let mut rng = StdRng::seed_from_u64(701);
        DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng)
    }

    #[test]
    fn all_methods_publish_signed_roots() {
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
            let p = publish(method.clone());
            assert!(
                p.package.network_root.verify(&p.public_key),
                "{} network root",
                method.name()
            );
            match &p.package.hints {
                MethodHints::Full { signed_root, .. } => {
                    assert!(signed_root.verify(&p.public_key));
                }
                MethodHints::Hyp {
                    hyper_signed,
                    cell_dir_signed,
                    ..
                } => {
                    assert!(hyper_signed.verify(&p.public_key));
                    assert!(cell_dir_signed.verify(&p.public_key));
                }
                _ => {}
            }
            assert!(p.construction_seconds >= 0.0);
        }
    }

    #[test]
    fn method_params_bound_into_network_meta() {
        let p = publish(MethodConfig::Ldm(LdmConfig {
            landmarks: 6,
            ..LdmConfig::default()
        }));
        let params =
            crate::methods::MethodParams::from_bytes(&p.package.network_root.meta.params).unwrap();
        assert!(matches!(params, crate::methods::MethodParams::Ldm { lambda } if lambda > 0.0));
    }

    #[test]
    fn dij_has_no_hints() {
        let p = publish(MethodConfig::Dij);
        assert!(matches!(p.package.hints, MethodHints::Dij));
    }

    #[test]
    fn different_keys_per_publish() {
        let g = grid_network(4, 4, 1.1, 702);
        let mut r1 = StdRng::seed_from_u64(1);
        let mut r2 = StdRng::seed_from_u64(2);
        let p1 = DataOwner::publish(&g, &MethodConfig::Dij, &SetupConfig::default(), &mut r1);
        let p2 = DataOwner::publish(&g, &MethodConfig::Dij, &SetupConfig::default(), &mut r2);
        assert_ne!(p1.public_key, p2.public_key);
        // Same tree roots though — the ADS is deterministic.
        assert_eq!(p1.package.network_root.root, p2.package.network_root.root);
    }
}
