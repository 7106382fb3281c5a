//! The four verification methods: DIJ, FULL, LDM, HYP.
//!
//! Each method module provides the owner-side hint construction, the
//! provider-side ΓS assembly, and the client-side ΓS verification,
//! packaged as an [`AuthMethod`] trait implementation. The method
//! identity and its public parameters are bound into the signed
//! network-root metadata so that a provider cannot silently downgrade
//! or re-parameterize a method.
//!
//! The enums in this module ([`MethodConfig`], [`MethodParams`]) and
//! [`MethodHints`] are thin configuration /
//! wire adapters: each resolves to its method's trait object via a
//! `method()` accessor, and the provider, client, batch, owner, update
//! and tamper paths all dispatch through the trait — no per-method
//! `match` survives in those hot paths.

pub mod dij;
pub mod full;
pub mod hyp;
pub mod ldm;

use crate::ads::SignedRoot;
use crate::batch::{AuxContext, BatchAnswer, BatchAux, BatchVerifyState};
use crate::error::{ProviderError, VerifyError};
use crate::owner::{MethodHints, ProviderPackage, SetupConfig};
use crate::proof::SpProof;
use crate::tuple::ExtendedTuple;
use spnet_bytes::wire_enum;
use spnet_crypto::rsa::{RsaKeyPair, RsaPublicKey};
use spnet_graph::landmark::{CompressionStrategy, LandmarkStrategy};
use spnet_graph::{Graph, NodeId, Path};
use std::collections::HashMap;

/// The authenticated tuples of a proof, keyed by node id — the shape
/// both the single-query and the batched ΓS verifications consume.
pub type TupleMap<'a> = HashMap<NodeId, &'a ExtendedTuple>;

/// Auxiliary signed roots a verifier has **already RSA-verified** —
/// typically once, at [`crate::service::SpService::open_session`].
///
/// FULL ships its signed distance-tree root with every answer/batch,
/// HYP its signed hyper-edge and cell-directory roots; without pinning
/// each chunk of a stream pays those signature checks again. A method
/// verification that finds its aux root **byte-identical** to a pinned
/// one skips the RSA check (Merkle root reconstructions still run); a
/// root *not* covered by the pin set falls back to the full signature
/// check, so pinning is purely an accelerator and never widens what a
/// client accepts.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PinnedAux {
    roots: Vec<SignedRoot>,
}

impl PinnedAux {
    /// Pins the given roots. The caller vouches it RSA-verified every
    /// one of them against the owner key it trusts.
    pub fn new(roots: Vec<SignedRoot>) -> Self {
        PinnedAux { roots }
    }

    /// True if `root` is byte-identical to a pinned root.
    pub fn covers(&self, root: &SignedRoot) -> bool {
        self.roots.iter().any(|r| r == root)
    }

    /// Number of pinned roots.
    pub fn len(&self) -> usize {
        self.roots.len()
    }

    /// True when nothing is pinned.
    pub fn is_empty(&self) -> bool {
        self.roots.is_empty()
    }
}

/// What a client-side verification trusts: the owner's public key and
/// (optionally) the aux signed roots pinned at session open. Bundled
/// so every [`AuthMethod`] verification entry point receives both
/// through one parameter.
#[derive(Debug, Clone, Copy)]
pub struct VerifyCtx<'a> {
    /// The owner public key the client trusts.
    pub pk: &'a RsaPublicKey,
    /// Session-pinned aux roots, if any.
    pub pins: Option<&'a PinnedAux>,
}

impl<'a> VerifyCtx<'a> {
    /// A context with no pinned aux roots (every signed root pays its
    /// own RSA check).
    pub fn new(pk: &'a RsaPublicKey) -> Self {
        VerifyCtx { pk, pins: None }
    }

    /// A context with session-pinned aux roots.
    pub fn with_pins(pk: &'a RsaPublicKey, pins: &'a PinnedAux) -> Self {
        VerifyCtx {
            pk,
            pins: Some(pins),
        }
    }

    /// True if `root` may skip its RSA check: it is byte-identical to
    /// a root this context already verified.
    pub fn trusts(&self, root: &SignedRoot) -> bool {
        self.pins.is_some_and(|p| p.covers(root))
    }
}

/// A single undirected edge-weight change, as seen by
/// [`AuthMethod::repair_hints`]. The graph passed alongside already
/// carries `new_weight`; methods that need shortest-path state of the
/// *pre-update* graph read it from `old_dists`, which the update
/// driver computes before patching the CSR (only when the method's
/// [`AuthMethod::wants_change_dists`] asks for it).
#[derive(Debug, Clone)]
pub struct EdgeChange {
    /// One endpoint of the changed edge.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
    /// The weight before the update.
    pub old_weight: f64,
    /// The weight after the update.
    pub new_weight: f64,
    /// Single-source distances from `u` and `v` on the **old** graph;
    /// present iff the method opted in via `wants_change_dists`.
    pub old_dists: Option<ChangeDists>,
}

/// Pre-update single-source shortest-path distances from the changed
/// edge's endpoints (indexed by node id).
#[derive(Debug, Clone)]
pub struct ChangeDists {
    /// `dist_old(u, ·)`.
    pub from_u: Vec<f64>,
    /// `dist_old(v, ·)`.
    pub from_v: Vec<f64>,
}

/// What an incremental hint repair touched — the owner's re-signing
/// and re-publication bill for one edge update.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DirtySet {
    /// Nodes whose extended tuples must be rebuilt and re-proven into
    /// the network tree (the update driver handles the rebuild; the
    /// changed edge's endpoints are always included).
    pub tuples: Vec<NodeId>,
    /// Auxiliary structure entries the repair recomputed: FULL distance
    /// rows, HYP hyper-edges, and LDM landmark rows with at least one
    /// changed cell (every row when they are re-seeded after a
    /// snapshot load).
    pub aux_repaired: usize,
    /// Auxiliary signed roots re-signed by the repair (the network
    /// root's own re-sign is accounted by the driver).
    pub aux_resigned: usize,
    /// Replacement public parameters, when the repair may have moved a
    /// signed scalar (LDM's quantization step λ tracks `Dmax`, which an
    /// edge change can shift: LDM hands λ back whenever it
    /// re-quantized in full, and `None` when its windowed re-sweep
    /// found λ's bits unchanged). The update driver encodes them into
    /// the network root's metadata before re-signing; `None` keeps the
    /// previous metadata byte-for-byte.
    pub new_params: Option<MethodParams>,
}

/// One verification method's complete lifecycle, as a trait object.
///
/// The paper's four methods (DIJ, FULL, LDM, HYP) share one protocol —
/// the **owner** builds authenticated hints, the **provider** assembles
/// `(P_rslt, ΓS, ΓT)` per query, and the **client** verifies against
/// owner-signed roots. This trait captures that lifecycle so the
/// provider ([`crate::ServiceProvider`]), client ([`crate::Client`]),
/// batch layer ([`crate::batch`]) and the [`crate::service::SpService`]
/// facade serve every method through one dispatch point. New methods
/// plug in by implementing this trait and registering a wire code.
///
/// Implementations are stateless unit structs; all per-deployment
/// state flows through [`MethodHints`] (provider side) and
/// [`MethodParams`] (client side, authenticated by the signed root
/// metadata). Obtain an instance from [`MethodConfig::method`],
/// [`MethodParams::method`] or [`MethodHints::method`].
pub trait AuthMethod: Send + Sync {
    /// Short display name as used in the paper's figures.
    fn name(&self) -> &'static str;

    /// Wire code bound into signed metadata (`1..=4` for the built-in
    /// methods).
    fn params_code(&self) -> u8;

    // ---- owner side ----------------------------------------------------

    /// Owner-side hint construction: builds (and signs, where the
    /// method has auxiliary trees) everything the provider needs
    /// beyond the network ADS, plus the public parameters the client
    /// must learn authentically.
    ///
    /// `config` carries the method's tuning knobs and must be the same
    /// [`MethodConfig`] variant this trait object was resolved from.
    fn build_hints(
        &self,
        g: &Graph,
        config: &MethodConfig,
        setup: &SetupConfig,
        keypair: &RsaKeyPair,
    ) -> (MethodHints, MethodParams);

    /// Builds one node's extended tuple (the network-ADS leaf payload),
    /// embedding whatever per-node hint data the method requires.
    fn make_tuple(&self, g: &Graph, v: NodeId, hints: &MethodHints) -> ExtendedTuple;

    /// Whether [`AuthMethod::repair_hints`] needs pre-update distances
    /// from the changed edge's endpoints ([`EdgeChange::old_dists`]).
    /// FULL and HYP use them to bound the dirty set. DIJ has nothing to
    /// bound, and LDM reads the same distances out of its own exact
    /// landmark rows.
    fn wants_change_dists(&self) -> bool {
        false
    }

    /// Owner-side incremental repair after one edge-weight change:
    /// recomputes exactly the hint entries the change can have
    /// invalidated and re-signs the affected auxiliary roots, instead
    /// of republishing. `g` already carries the new weight. Returns
    /// the [`DirtySet`] — the nodes whose network tuples the update
    /// driver must rebuild, plus the repair's crypto bill.
    ///
    /// The default (DIJ, whose hints are empty) repairs nothing and
    /// marks only the changed edge's endpoints dirty.
    fn repair_hints(
        &self,
        _g: &Graph,
        change: &EdgeChange,
        _hints: &mut MethodHints,
        _keypair: &RsaKeyPair,
    ) -> Result<DirtySet, crate::update::UpdateError> {
        Ok(DirtySet {
            tuples: vec![change.u, change.v],
            ..DirtySet::default()
        })
    }

    // ---- persistence ---------------------------------------------------

    /// Writes this method's hint sections into a snapshot (see
    /// [`crate::snapshot`] for the section-id map). Signed auxiliary
    /// roots are persisted as their canonical bytes — the owner signs
    /// nothing here. The default writes nothing (DIJ has no hints).
    fn snapshot_hints(
        &self,
        _hints: &MethodHints,
        _w: &mut spnet_store::SnapshotWriter,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        Ok(())
    }

    /// Reconstructs this method's hints from a snapshot **without any
    /// signing**: persisted signed roots are decoded and checked
    /// structurally against the loaded trees. The caller
    /// ([`crate::snapshot::load_package`]) RSA-verifies every root
    /// returned through [`MethodHints::aux_roots`] against the
    /// persisted owner key.
    fn load_hints(
        &self,
        g: &Graph,
        store: &spnet_store::NodeStore,
    ) -> Result<MethodHints, crate::snapshot::SnapshotError>;

    // ---- provider side -------------------------------------------------

    /// Algorithm 1, lines 2–3: assembles ΓS for one query and returns
    /// it with the node list ΓT must cover, in the exact order the
    /// proof ships them.
    fn prove(
        &self,
        pkg: &ProviderPackage,
        vs: NodeId,
        vt: NodeId,
        path: &Path,
    ) -> Result<(SpProof, Vec<NodeId>), ProviderError>;

    /// The node set one batched query contributes to the shared tuple
    /// pool (the same Γ the single-query proof would ship).
    fn batch_members(
        &self,
        pkg: &ProviderPackage,
        vs: NodeId,
        vt: NodeId,
        path: &Path,
    ) -> Vec<NodeId>;

    /// Assembles the method-specific pooled hint proofs for a batch
    /// ([`BatchAux`]), shipped once per batch.
    fn prove_batch(
        &self,
        pkg: &ProviderPackage,
        queries: &[(NodeId, NodeId)],
    ) -> Result<BatchAux, ProviderError>;

    // ---- client side ---------------------------------------------------

    /// Whether a ΓS payload has the shape this method's verification
    /// expects — the signed method code must match the proof shape, or
    /// a malicious provider could downgrade the verification method.
    fn matches_proof(&self, sp: &SpProof) -> bool;

    /// Verifies ΓS for one query against already integrity-verified
    /// tuples, returning the proven optimum `dist(vs, vt)`. Aux signed
    /// roots covered by `ctx`'s pins skip their RSA check (byte
    /// equality instead); uncovered roots are signature-verified.
    fn verify(
        &self,
        ctx: &VerifyCtx<'_>,
        params: &MethodParams,
        sp: &SpProof,
        tuples: &TupleMap<'_>,
        vs: NodeId,
        vt: NodeId,
    ) -> Result<f64, VerifyError>;

    /// Authenticates a batch's pooled hint proofs once (signatures —
    /// unless pinned in `ctx` — plus Merkle roots) and returns the
    /// context every per-query job reads.
    fn verify_batch_aux<'a>(
        &self,
        ctx: &VerifyCtx<'_>,
        params: &MethodParams,
        aux: &'a BatchAux,
    ) -> Result<AuxContext<'a>, VerifyError>;

    /// Batch-wide preparation between aux authentication and the
    /// per-query fan-out: a method may seed `state` with work plans
    /// derived from the whole batch. HYP uses this to group query
    /// endpoints by their authenticated cell so batch verification
    /// runs **one multi-source in-cell sweep per touched cell**
    /// instead of one Dijkstra per endpoint. Purely an accelerator:
    /// outcomes must be bit-identical with or without it. Default:
    /// nothing.
    fn prepare_batch_verify(
        &self,
        _params: &MethodParams,
        _queries: &[(NodeId, NodeId)],
        _batch: &BatchAnswer,
        _state: &BatchVerifyState,
    ) {
    }

    /// Verifies one batched query's ΓS against the pre-verified aux
    /// context and the query's slice of the authenticated pool.
    /// `state` carries per-batch verifier caches (e.g. HYP's in-cell
    /// CSR remaps, shared by queries touching the same cell).
    fn verify_batch_query(
        &self,
        params: &MethodParams,
        ctx: &AuxContext<'_>,
        state: &BatchVerifyState,
        tuples: &TupleMap<'_>,
        vs: NodeId,
        vt: NodeId,
    ) -> Result<f64, VerifyError>;

    // ---- range queries -------------------------------------------------

    /// Assembles the method-specific attestation shipped with a
    /// verified range answer ([`crate::queries::RangeAnswer::aux`]).
    ///
    /// The generic completeness certificate — the pooled member
    /// subgraph plus the client's escape-checked Dijkstra — is sound
    /// for every method, so the default ships nothing beyond the pool.
    /// FULL overrides this to additionally attest every member
    /// distance under its signed distance tree, mirroring the batch
    /// path's downgrade protection.
    fn prove_range_aux(
        &self,
        _pkg: &ProviderPackage,
        _source: NodeId,
        _members: &[(NodeId, f64)],
    ) -> Result<BatchAux, ProviderError> {
        Ok(BatchAux::Subgraph)
    }

    /// Authenticates a range answer's aux block against the signed
    /// method: the aux shape must match what [`Self::prove_range_aux`]
    /// produces, or a malicious provider could downgrade the range
    /// certificate of a hint-backed method to the bare subgraph form.
    fn verify_range_aux(
        &self,
        _ctx: &VerifyCtx<'_>,
        _params: &MethodParams,
        aux: &BatchAux,
        _source: NodeId,
        _members: &[(NodeId, f64)],
    ) -> Result<(), VerifyError> {
        match aux {
            BatchAux::Subgraph => Ok(()),
            _ => Err(VerifyError::MetaMismatch(
                "range proof shape does not match signed method",
            )),
        }
    }
}

/// Method selection plus owner-side tuning knobs.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodConfig {
    /// Dijkstra subgraph verification: no pre-computation (Section IV-A).
    Dij,
    /// Fully materialized distances (Section IV-B).
    Full {
        /// Use the O(|V|³) Floyd–Warshall (as the paper prescribes)
        /// instead of the output-equivalent all-pairs Dijkstra.
        use_floyd_warshall: bool,
    },
    /// Landmark-based verification (Section V-A).
    Ldm(LdmConfig),
    /// Hyper-graph verification (Section V-B).
    Hyp {
        /// Number of grid cells `p` (rounded to a square).
        cells: usize,
    },
}

impl MethodConfig {
    /// The method's lifecycle implementation (thin-adapter dispatch:
    /// this is the only place the config enum maps to behaviour).
    pub fn method(&self) -> &'static dyn AuthMethod {
        match self {
            MethodConfig::Dij => &dij::DijMethod,
            MethodConfig::Full { .. } => &full::FullMethod,
            MethodConfig::Ldm(_) => &ldm::LdmMethod,
            MethodConfig::Hyp { .. } => &hyp::HypMethod,
        }
    }

    /// Short display name as used in the figures.
    pub fn name(&self) -> &'static str {
        self.method().name()
    }

    /// Wire code bound into signed metadata.
    pub fn code(&self) -> u8 {
        self.method().params_code()
    }
}

/// LDM parameters (Section V-A): `c` landmarks, `b` quantization bits,
/// ξ compression threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct LdmConfig {
    /// Number of landmarks `c` (paper default 200).
    pub landmarks: usize,
    /// Quantization bits `b` (paper default 12).
    pub bits: u8,
    /// Compression threshold ξ (paper default 50.0).
    pub xi: f64,
    /// Landmark selection strategy.
    pub strategy: LandmarkStrategy,
    /// Compression strategy (paper greedy, or scalable Hilbert sweep).
    pub compression: CompressionStrategy,
}

impl Default for LdmConfig {
    fn default() -> Self {
        LdmConfig {
            landmarks: 200,
            bits: 12,
            xi: 50.0,
            strategy: LandmarkStrategy::Farthest,
            compression: CompressionStrategy::HilbertSweep,
        }
    }
}

/// The public method parameters a client must learn authentically.
///
/// Encoded into the signed network-root metadata (`AdsMeta::params`).
#[derive(Debug, Clone, PartialEq)]
pub enum MethodParams {
    /// DIJ carries no parameters.
    Dij,
    /// FULL carries no parameters.
    Full,
    /// LDM: the quantization step λ (the client's bound arithmetic
    /// needs it; Eq. 6).
    Ldm {
        /// Quantization step λ.
        lambda: f64,
    },
    /// HYP carries no parameters (cell ids and border flags live inside
    /// authenticated tuples; cell population counts live in the signed
    /// cell directory).
    Hyp,
}

// The `AdsMeta::params` record.
wire_enum!(MethodParams {
    1 => Dij,
    2 => Full,
    3 => Ldm { lambda: f64 },
    4 => Hyp,
});

impl MethodParams {
    /// The method's lifecycle implementation — how a client that has
    /// authenticated these params dispatches verification.
    pub fn method(&self) -> &'static dyn AuthMethod {
        match self {
            MethodParams::Dij => &dij::DijMethod,
            MethodParams::Full => &full::FullMethod,
            MethodParams::Ldm { .. } => &ldm::LdmMethod,
            MethodParams::Hyp => &hyp::HypMethod,
        }
    }

    /// The method code (matches `MethodConfig::code`).
    pub fn code(&self) -> u8 {
        self.method().params_code()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spnet_bytes::enc::Wire;

    #[test]
    fn params_round_trip() {
        for p in [
            MethodParams::Dij,
            MethodParams::Full,
            MethodParams::Ldm { lambda: 2.5 },
            MethodParams::Hyp,
        ] {
            assert_eq!(MethodParams::from_bytes(&p.to_bytes()).unwrap(), p);
        }
    }

    #[test]
    fn params_reject_garbage() {
        assert!(MethodParams::from_bytes(&[]).is_err());
        assert!(MethodParams::from_bytes(&[99]).is_err());
        assert!(MethodParams::from_bytes(&[3, 1, 2]).is_err()); // truncated λ
        assert!(MethodParams::from_bytes(&[1, 0]).is_err()); // trailing byte
    }

    #[test]
    fn codes_consistent() {
        assert_eq!(MethodConfig::Dij.code(), MethodParams::Dij.code());
        assert_eq!(
            MethodConfig::Full {
                use_floyd_warshall: false
            }
            .code(),
            MethodParams::Full.code()
        );
        assert_eq!(
            MethodConfig::Ldm(LdmConfig::default()).code(),
            MethodParams::Ldm { lambda: 1.0 }.code()
        );
        assert_eq!(
            MethodConfig::Hyp { cells: 100 }.code(),
            MethodParams::Hyp.code()
        );
    }

    #[test]
    fn names() {
        assert_eq!(MethodConfig::Dij.name(), "DIJ");
        assert_eq!(MethodConfig::Ldm(LdmConfig::default()).name(), "LDM");
    }
}
