//! LDM — landmark-based verification (Section V-A).
//!
//! The owner selects `c` landmarks, computes distance vectors,
//! quantizes them to `b` bits (Eq. 5) and compresses them with
//! threshold ξ; the payload is embedded in every extended tuple
//! (Eq. 4). The provider ships the A\* search cone of Lemma 2 (plus
//! neighbors and referenced representatives); the client re-runs A\*
//! with the compressed lower bound (Lemmas 3–4) and checks the optimum.

use crate::batch::{AuxContext, BatchAux, BatchVerifyState};
use crate::error::{ProviderError, VerifyError};
use crate::methods::{AuthMethod, LdmConfig, MethodConfig, MethodParams, TupleMap, VerifyCtx};
use crate::owner::{MethodHints, ProviderPackage, SetupConfig};
use crate::proof::SpProof;
use crate::snapshot::{self, SnapshotError};
use crate::tuple::{ExtendedTuple, PsiPayload};
use spnet_bytes::enc::{DecodeError, Decoder, Encoder, Wire};
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::landmark::{
    repair_row, select_landmarks, CompressedVectors, CompressionStrategy, LandmarkVectors, NodePsi,
    QuantizedVectors,
};
use spnet_graph::ofloat::OrderedF64;
use spnet_graph::order::hilbert_order;
use spnet_graph::{Graph, NodeId, Path};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap};
use std::sync::Arc;

/// LDM's [`AuthMethod`] implementation: compressed quantized landmark
/// vectors as hints, the Lemma 2 A\* cone as ΓS, client-side A\* with
/// the compressed lower bound as verification.
#[derive(Debug, Clone, Copy, Default)]
pub struct LdmMethod;

impl LdmMethod {
    /// The LDM hints out of a provider package (dispatch pairs the
    /// trait object with its own hints variant).
    fn hints(pkg: &ProviderPackage) -> &LdmHints {
        match &pkg.hints {
            MethodHints::Ldm(h) => h,
            _ => unreachable!("LdmMethod dispatched with non-LDM hints"),
        }
    }

    /// The quantization step λ out of authenticated method params.
    fn lambda(params: &MethodParams) -> f64 {
        match params {
            MethodParams::Ldm { lambda } => *lambda,
            _ => unreachable!("LdmMethod dispatched with non-LDM params"),
        }
    }
}

impl AuthMethod for LdmMethod {
    fn name(&self) -> &'static str {
        "LDM"
    }

    fn params_code(&self) -> u8 {
        3
    }

    fn build_hints(
        &self,
        g: &Graph,
        config: &MethodConfig,
        setup: &SetupConfig,
        _keypair: &RsaKeyPair,
    ) -> (MethodHints, MethodParams) {
        let MethodConfig::Ldm(lcfg) = config else {
            unreachable!("LdmMethod dispatched with non-LDM config");
        };
        let hints = LdmHints::build(g, lcfg, setup.seed ^ 0x1D4);
        let lambda = hints.lambda();
        (MethodHints::Ldm(hints), MethodParams::Ldm { lambda })
    }

    fn make_tuple(&self, g: &Graph, v: NodeId, hints: &MethodHints) -> ExtendedTuple {
        let MethodHints::Ldm(h) = hints else {
            unreachable!("LdmMethod dispatched with non-LDM hints");
        };
        ExtendedTuple::with_psi(g, v, &h.vectors)
    }

    /// LDM repair, bounded by what the change reaches:
    ///
    /// 1. Each exact landmark row is repaired in place
    ///    ([`spnet_graph::landmark::repair_row`], fanned over the
    ///    landmarks). A row the edge does not reach costs O(1); the
    ///    others re-settle only the entries the edge can move. The rows
    ///    stay bit-identical to fresh Dijkstras, and no endpoint search
    ///    is needed: the tightness inputs are entries of the rows
    ///    themselves.
    /// 2. If λ = Dmax/(2^b − 1) keeps its bits and the vectors were
    ///    built by the Hilbert sweep, the sweep is re-run only over
    ///    the windows of positions the changed nodes can reach
    ///    ([`CompressedVectors::resweep`], in the kept
    ///    [`LdmHints::sweep_order`]), and λ is left as signed
    ///    (`new_params: None`).
    /// 3. Otherwise (λ moved, greedy compression, or rows re-seeded
    ///    after a snapshot load) everything is re-quantized and
    ///    re-compressed, and λ is handed back for the driver to sign.
    ///
    /// Dirty tuples are exactly the nodes whose ψ payload moved. LDM
    /// carries no auxiliary signed root: the driver's network re-sign
    /// is the whole crypto bill.
    fn repair_hints(
        &self,
        g: &Graph,
        change: &crate::methods::EdgeChange,
        hints: &mut MethodHints,
        _keypair: &RsaKeyPair,
    ) -> Result<crate::methods::DirtySet, crate::update::UpdateError> {
        use crate::update::UpdateError;
        let MethodHints::Ldm(h) = hints else {
            return Err(UpdateError::Rebuild("LDM hints expected".into()));
        };
        if h.landmarks.is_empty() {
            return Err(UpdateError::Rebuild(
                "LDM landmark set unavailable for repair".into(),
            ));
        }
        // Nodes whose row entries moved, when known.
        let (changed, repaired) = match &mut h.exact {
            Some(exact) => {
                let mut rows: Vec<(NodeId, &mut Arc<[f64]>)> = exact.rows_mut().collect();
                let per_row = crate::par::map_jobs_mut(&mut rows, |(l, row)| {
                    repair_row(g, *l, row, change.u, change.v, change.old_weight)
                });
                let repaired = per_row.iter().filter(|c| !c.is_empty()).count();
                let mut changed: Vec<NodeId> = per_row.into_iter().flatten().collect();
                changed.sort_unstable();
                changed.dedup();
                (Some(changed), repaired)
            }
            cache @ None => {
                // Snapshot-loaded hints dropped the exact rows; re-seed
                // them once, repair in place thereafter.
                *cache = Some(landmark_rows(g, &h.landmarks));
                (None, h.landmarks.len())
            }
        };
        let exact = h.exact.as_ref().expect("exact rows ensured above");
        if let (Some(changed), CompressionStrategy::HilbertSweep) = (&changed, h.compression) {
            let order = h.sweep_order.get_or_insert_with(|| hilbert_order(g).into());
            if let Some(tuples) = h.vectors.resweep(exact, order, changed) {
                return Ok(crate::methods::DirtySet {
                    tuples,
                    aux_repaired: repaired,
                    aux_resigned: 0,
                    new_params: None,
                });
            }
        }
        let qv = QuantizedVectors::quantize(exact, h.vectors.bits());
        let fresh = CompressedVectors::build(g, &qv, h.vectors.xi(), h.compression);
        let lambda = fresh.lambda();
        let tuples: Vec<NodeId> = g
            .nodes()
            .filter(|&v| fresh.node_psi(v) != h.vectors.node_psi(v))
            .collect();
        h.vectors = fresh;
        Ok(crate::methods::DirtySet {
            tuples,
            aux_repaired: repaired,
            aux_resigned: 0,
            new_params: Some(MethodParams::Ldm { lambda }),
        })
    }

    fn snapshot_hints(
        &self,
        hints: &MethodHints,
        w: &mut spnet_store::SnapshotWriter,
    ) -> Result<(), SnapshotError> {
        let MethodHints::Ldm(h) = hints else {
            return Err(SnapshotError::Corrupt("LDM hints expected"));
        };
        let cv = &h.vectors;
        let c = cv.num_landmarks();
        let mut e = Encoder::new();
        e.put(&(cv.lambda(), cv.xi()));
        e.put(&(c as u64, cv.bits()));
        e.put(&(cv.num_nodes() as u64));
        for v in 0..cv.num_nodes() as u32 {
            match cv.node_psi(NodeId(v)) {
                NodePsi::Full(q) => {
                    e.put(&0u8);
                    q.iter().for_each(|x| e.put(x));
                }
                NodePsi::Compressed { theta, eps } => {
                    e.put(&1u8);
                    e.put(&(*theta, *eps));
                }
            }
        }
        w.blob(snapshot::SEC_LDM_VECTORS, &e.into_bytes())?;
        w.blob(snapshot::SEC_LDM_BUILD, &h.build_seconds.to_bytes())?;
        let mut l = Encoder::new();
        l.put(&(h.compression, h.landmarks.len() as u64));
        h.landmarks.iter().for_each(|lm| l.put(lm));
        w.blob(snapshot::SEC_LDM_LANDMARKS, &l.into_bytes())?;
        Ok(())
    }

    fn load_hints(
        &self,
        g: &Graph,
        store: &spnet_store::NodeStore,
    ) -> Result<MethodHints, SnapshotError> {
        let bytes = store.blob(snapshot::SEC_LDM_VECTORS)?;
        let mut d = Decoder::new(&bytes);
        let (lambda, xi) = d.take()?;
        let (c, bits): (u64, u8) = d.take()?;
        let (c, n) = (c as usize, d.take::<u64>()? as usize);
        if n != g.num_nodes() {
            return Err(SnapshotError::Corrupt("LDM vector count mismatch"));
        }
        if c == 0 || c > n {
            return Err(SnapshotError::Corrupt("LDM landmark count out of range"));
        }
        let mut psi = Vec::with_capacity(n);
        for _ in 0..n {
            psi.push(match d.take()? {
                0 => NodePsi::Full(d.take_n(c)?.into()),
                1 => {
                    let (theta, eps) = d.take()?;
                    NodePsi::Compressed { theta, eps }
                }
                t => return Err(SnapshotError::Decode(DecodeError::BadTag(t))),
            });
        }
        d.finish()?;
        let vectors = CompressedVectors::from_parts(lambda, psi, xi, c, bits).ok_or(
            SnapshotError::Corrupt("LDM vectors fail structural validation"),
        )?;
        let build_seconds = f64::from_bytes(&store.blob(snapshot::SEC_LDM_BUILD)?)?;
        let lm_bytes = store.blob(snapshot::SEC_LDM_LANDMARKS)?;
        let mut ld = Decoder::new(&lm_bytes);
        let (compression, lm_count): (CompressionStrategy, u64) = ld.take()?;
        if lm_count != c as u64 {
            return Err(SnapshotError::Corrupt("LDM landmark list length mismatch"));
        }
        let landmarks: Vec<NodeId> = ld.take_n(c)?;
        if landmarks.iter().any(|lm| lm.index() >= n) {
            return Err(SnapshotError::Corrupt("LDM landmark id out of range"));
        }
        ld.finish()?;
        Ok(MethodHints::Ldm(LdmHints {
            vectors,
            landmarks,
            compression,
            exact: None,
            sweep_order: None,
            build_seconds,
        }))
    }

    fn prove(
        &self,
        pkg: &ProviderPackage,
        vs: NodeId,
        vt: NodeId,
        path: &Path,
    ) -> Result<(SpProof, Vec<NodeId>), ProviderError> {
        let nodes = gamma_nodes(&pkg.graph, Self::hints(pkg), vs, vt, path.distance);
        let tuples: Vec<Arc<ExtendedTuple>> =
            nodes.iter().map(|&v| pkg.ads.tuple_shared(v)).collect();
        Ok((SpProof::Subgraph { tuples }, nodes))
    }

    fn batch_members(
        &self,
        pkg: &ProviderPackage,
        vs: NodeId,
        vt: NodeId,
        path: &Path,
    ) -> Vec<NodeId> {
        gamma_nodes(&pkg.graph, Self::hints(pkg), vs, vt, path.distance)
    }

    fn prove_batch(
        &self,
        _pkg: &ProviderPackage,
        _queries: &[(NodeId, NodeId)],
    ) -> Result<BatchAux, ProviderError> {
        Ok(BatchAux::Subgraph)
    }

    fn matches_proof(&self, sp: &SpProof) -> bool {
        matches!(sp, SpProof::Subgraph { .. })
    }

    fn verify(
        &self,
        _ctx: &VerifyCtx<'_>,
        params: &MethodParams,
        _sp: &SpProof,
        tuples: &TupleMap<'_>,
        vs: NodeId,
        vt: NodeId,
    ) -> Result<f64, VerifyError> {
        verify_subgraph_astar(tuples, vs, vt, Self::lambda(params))
    }

    fn verify_batch_aux<'a>(
        &self,
        _ctx: &VerifyCtx<'_>,
        _params: &MethodParams,
        aux: &'a BatchAux,
    ) -> Result<AuxContext<'a>, VerifyError> {
        match aux {
            BatchAux::Subgraph => Ok(AuxContext::Subgraph),
            _ => Err(VerifyError::MetaMismatch(
                "batch proof shape does not match signed method",
            )),
        }
    }

    fn verify_batch_query(
        &self,
        params: &MethodParams,
        _ctx: &AuxContext<'_>,
        _state: &BatchVerifyState,
        tuples: &TupleMap<'_>,
        vs: NodeId,
        vt: NodeId,
    ) -> Result<f64, VerifyError> {
        verify_subgraph_astar(tuples, vs, vt, Self::lambda(params))
    }
}

/// The owner-side LDM hints: compressed quantized landmark vectors.
#[derive(Debug, Clone)]
pub struct LdmHints {
    /// The compressed vectors (embedded into tuples at ADS build).
    pub vectors: CompressedVectors,
    /// The selected landmark nodes, persisted so dynamic updates can
    /// repair the vectors of the *original* landmark set instead of
    /// re-selecting (which would dirty every tuple).
    pub landmarks: Vec<NodeId>,
    /// The compression strategy of the original build (repairs must
    /// recompress identically to stay bit-compatible with a fresh
    /// publish).
    pub compression: CompressionStrategy,
    /// Owner-side exact (unquantized) landmark rows, which every
    /// update repairs in place and reads its changed nodes from.
    /// `None` after a snapshot load; the first repair then recomputes
    /// every row, one Dijkstra per landmark fanned over the cores, and
    /// repairs in place from then on. Never persisted: it is
    /// reproducible and |V|·c floats. Each row is shared between
    /// epochs until an update reaches it: an epoch copies only the
    /// rows its repair writes (|V| floats each).
    pub exact: Option<LandmarkVectors>,
    /// Owner-side Hilbert order of the nodes, the compression sweep's
    /// order. It depends on coordinates only, so the first windowed
    /// re-sweep computes it and every later epoch shares it. Never
    /// persisted.
    pub sweep_order: Option<Arc<[NodeId]>>,
    /// Construction wall-clock seconds (landmark Dijkstras +
    /// quantization + compression) for Figure 12b.
    pub build_seconds: f64,
}

impl LdmHints {
    /// Runs the owner-side hint construction.
    pub fn build(g: &Graph, cfg: &LdmConfig, seed: u64) -> Self {
        let start = std::time::Instant::now();
        let lms = select_landmarks(g, cfg.landmarks.min(g.num_nodes()), cfg.strategy, seed);
        let exact = landmark_rows(g, &lms);
        let qv = QuantizedVectors::quantize(&exact, cfg.bits);
        let vectors = CompressedVectors::build(g, &qv, cfg.xi, cfg.compression);
        LdmHints {
            vectors,
            landmarks: lms,
            compression: cfg.compression,
            exact: Some(exact),
            sweep_order: None,
            build_seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// The quantization step λ (public parameter signed into the ADS
    /// meta).
    pub fn lambda(&self) -> f64 {
        self.vectors.lambda()
    }
}

/// The exact landmark rows, one Dijkstra per landmark fanned over the
/// cores (each row bit-identical to a sequential
/// [`LandmarkVectors::compute`]).
fn landmark_rows(g: &Graph, landmarks: &[NodeId]) -> LandmarkVectors {
    let rows = crate::par::map_jobs(landmarks, |&l| {
        spnet_graph::search::with_thread_workspace(|ws| ws.sssp(g, l).dist_vec())
    });
    LandmarkVectors::from_rows(landmarks.to_vec(), rows)
}

/// Provider side: the Lemma 2 node set —
/// core nodes `{v | dist(vs,v) + distLB(v,vt) ≤ dist(vs,vt)}`, their
/// neighbors, and the representatives (θ) referenced by any included
/// node.
pub fn gamma_nodes(
    g: &Graph,
    hints: &LdmHints,
    source: NodeId,
    target: NodeId,
    sp_dist: f64,
) -> Vec<NodeId> {
    let slack = sp_dist * (1.0 + super::dij::RADIUS_SLACK);
    let cv = &hints.vectors;
    let mut gamma: BTreeSet<NodeId> = BTreeSet::new();
    spnet_graph::search::with_thread_workspace(|ws| {
        let ball = ws.ball(g, source, slack);
        for v in g.nodes() {
            let d = ball.dist(v);
            if d.is_finite() && d + cv.lower_bound(v, target) <= slack {
                gamma.insert(v);
                for (u, _) in g.neighbors(v) {
                    gamma.insert(u);
                }
            }
        }
    });
    gamma.insert(source);
    gamma.insert(target);
    // θ closure: every compressed node's representative must ship too.
    let snapshot: Vec<NodeId> = gamma.iter().copied().collect();
    for v in snapshot {
        if let NodePsi::Compressed { theta, .. } = cv.node_psi(v) {
            gamma.insert(*theta);
        }
    }
    gamma.into_iter().collect()
}

/// Client side: A\* over the proof subgraph with the compressed
/// landmark lower bound. Re-opens nodes (the compressed bound is
/// admissible but not consistent), so the first pop of the target is
/// provably optimal.
pub fn verify_subgraph_astar(
    tuples: &HashMap<NodeId, &ExtendedTuple>,
    source: NodeId,
    target: NodeId,
    lambda: f64,
) -> Result<f64, VerifyError> {
    if source == target {
        return Ok(0.0);
    }
    // Resolve the target's (θ, ε) once.
    let (qt, et) = resolve_psi(tuples, target)?;
    let lb = |v: NodeId| -> Result<f64, VerifyError> {
        let (qv, ev) = resolve_psi(tuples, v)?;
        let loose = spnet_graph::landmark::quantize::loose_lb_from_indices(qv, qt, lambda);
        Ok((loose - ev - et).max(0.0))
    };
    let mut gscore: HashMap<NodeId, f64> = HashMap::new();
    let mut heap: BinaryHeap<Reverse<(OrderedF64, u32)>> = BinaryHeap::new();
    gscore.insert(source, 0.0);
    heap.push(Reverse((OrderedF64::new(lb(source)?), source.0)));
    while let Some(Reverse((OrderedF64(f), v))) = heap.pop() {
        let v = NodeId(v);
        let g_v = *gscore.get(&v).unwrap_or(&f64::INFINITY);
        // Stale check: the entry's f corresponds to an older, larger g.
        let lb_v = lb(v)?;
        if f > g_v + lb_v + 1e-12 * (1.0 + g_v.abs()) {
            continue;
        }
        if v == target {
            return Ok(g_v);
        }
        let Some(t) = tuples.get(&v) else {
            return Err(VerifyError::MissingTuple(v));
        };
        for &(u, w) in &t.adj {
            let nd = g_v + w;
            if nd < *gscore.get(&u).unwrap_or(&f64::INFINITY) {
                gscore.insert(u, nd);
                let lb_u = lb(u)?;
                heap.push(Reverse((OrderedF64::new(nd + lb_u), u.0)));
            }
        }
    }
    Err(VerifyError::TargetUnreachable)
}

/// Resolves a node's quantized index vector and compression error from
/// the proof tuples: `(θ's full vector, ε)`.
fn resolve_psi<'a>(
    tuples: &'a HashMap<NodeId, &ExtendedTuple>,
    v: NodeId,
) -> Result<(&'a [u32], f64), VerifyError> {
    let t = tuples.get(&v).ok_or(VerifyError::MissingTuple(v))?;
    match &t.psi {
        None => Err(VerifyError::MissingPsi(v)),
        Some(PsiPayload::Full { q, .. }) => Ok((q, 0.0)),
        Some(PsiPayload::Ref { theta, eps }) => {
            let rt = tuples.get(theta).ok_or(VerifyError::MissingReference {
                node: v,
                theta: *theta,
            })?;
            match &rt.psi {
                Some(PsiPayload::Full { q, .. }) => Ok((q, *eps)),
                _ => Err(VerifyError::MissingReference {
                    node: v,
                    theta: *theta,
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spnet_graph::algo::dijkstra_path;
    use spnet_graph::gen::grid_network;
    use spnet_graph::landmark::{CompressionStrategy, LandmarkStrategy};

    fn setup(seed: u64) -> (Graph, LdmHints) {
        let g = grid_network(10, 10, 1.15, seed);
        let cfg = LdmConfig {
            landmarks: 8,
            bits: 10,
            xi: 300.0,
            strategy: LandmarkStrategy::Farthest,
            compression: CompressionStrategy::HilbertSweep,
        };
        let hints = LdmHints::build(&g, &cfg, seed ^ 1);
        (g, hints)
    }

    fn proof_tuples(g: &Graph, hints: &LdmHints, nodes: &[NodeId]) -> Vec<ExtendedTuple> {
        nodes
            .iter()
            .map(|&v| ExtendedTuple::with_psi(g, v, &hints.vectors))
            .collect()
    }

    fn as_map(tuples: &[ExtendedTuple]) -> HashMap<NodeId, &ExtendedTuple> {
        tuples.iter().map(|t| (t.id, t)).collect()
    }

    #[test]
    fn client_recovers_exact_distance() {
        let (g, hints) = setup(500);
        for (s, t) in [(0u32, 99u32), (9, 90), (45, 54), (99, 2)] {
            let (s, t) = (NodeId(s), NodeId(t));
            let d = dijkstra_path(&g, s, t).unwrap().distance;
            let gamma = gamma_nodes(&g, &hints, s, t, d);
            let tuples = proof_tuples(&g, &hints, &gamma);
            let got = verify_subgraph_astar(&as_map(&tuples), s, t, hints.lambda()).unwrap();
            assert!(
                (got - d).abs() <= 1e-9 * d.max(1.0),
                "({s},{t}): got {got}, want {d}"
            );
        }
    }

    #[test]
    fn gamma_not_larger_than_dij_ball() {
        // The landmark bound prunes: LDM's cone ⊆ DIJ's ball ∪ fringe.
        let (g, hints) = setup(501);
        let (s, t) = (NodeId(0), NodeId(99));
        let d = dijkstra_path(&g, s, t).unwrap().distance;
        let ldm = gamma_nodes(&g, &hints, s, t, d);
        let dij = super::super::dij::gamma_nodes(&g, s, d);
        // Core pruning usually strict on a 100-node grid with 8
        // landmarks; allow equality but verify it's not a superset by
        // more than the neighbor/θ fringe.
        assert!(
            ldm.len() <= dij.len() + g.num_nodes() / 4,
            "{} vs {}",
            ldm.len(),
            dij.len()
        );
    }

    #[test]
    fn missing_core_tuple_detected() {
        let (g, hints) = setup(502);
        let (s, t) = (NodeId(0), NodeId(99));
        let d = dijkstra_path(&g, s, t).unwrap().distance;
        let p = dijkstra_path(&g, s, t).unwrap();
        let victim = p.nodes[p.nodes.len() / 2];
        let gamma: Vec<NodeId> = gamma_nodes(&g, &hints, s, t, d)
            .into_iter()
            .filter(|&v| v != victim)
            .collect();
        let tuples = proof_tuples(&g, &hints, &gamma);
        let err = verify_subgraph_astar(&as_map(&tuples), s, t, hints.lambda());
        assert!(err.is_err(), "dropping a path node must invalidate");
    }

    #[test]
    fn missing_reference_detected() {
        let (g, hints) = setup(503);
        let (s, t) = (NodeId(0), NodeId(99));
        let d = dijkstra_path(&g, s, t).unwrap().distance;
        let gamma = gamma_nodes(&g, &hints, s, t, d);
        // Drop a representative that some compressed gamma node points
        // to (if compression produced any).
        let mut theta_of_someone = None;
        for &v in &gamma {
            if let NodePsi::Compressed { theta, .. } = hints.vectors.node_psi(v) {
                theta_of_someone = Some(*theta);
                break;
            }
        }
        let Some(victim) = theta_of_someone else {
            return; // nothing compressed on this seed — vacuous
        };
        let gamma: Vec<NodeId> = gamma.into_iter().filter(|&v| v != victim).collect();
        let tuples = proof_tuples(&g, &hints, &gamma);
        let err = verify_subgraph_astar(&as_map(&tuples), s, t, hints.lambda());
        assert!(err.is_err());
    }

    #[test]
    fn missing_psi_detected() {
        let (g, hints) = setup(504);
        let (s, t) = (NodeId(0), NodeId(99));
        let d = dijkstra_path(&g, s, t).unwrap().distance;
        let gamma = gamma_nodes(&g, &hints, s, t, d);
        // Strip the landmark payload from the target's tuple.
        let mut tuples = proof_tuples(&g, &hints, &gamma);
        for t_ in tuples.iter_mut() {
            if t_.id == t {
                t_.psi = None;
            }
        }
        let err = verify_subgraph_astar(&as_map(&tuples), s, t, hints.lambda());
        assert_eq!(err, Err(VerifyError::MissingPsi(t)));
    }

    #[test]
    fn trivial_query() {
        let (_, hints) = setup(505);
        let map = HashMap::new();
        assert_eq!(
            verify_subgraph_astar(&map, NodeId(4), NodeId(4), hints.lambda()).unwrap(),
            0.0
        );
    }

    #[test]
    fn zero_xi_no_compression_still_works() {
        let g = grid_network(8, 8, 1.2, 506);
        let cfg = LdmConfig {
            landmarks: 6,
            bits: 12,
            xi: -1.0, // nothing compresses (ϱ ≥ 0 > ξ)
            strategy: LandmarkStrategy::Random,
            compression: CompressionStrategy::HilbertSweep,
        };
        let hints = LdmHints::build(&g, &cfg, 507);
        let (s, t) = (NodeId(0), NodeId(63));
        let d = dijkstra_path(&g, s, t).unwrap().distance;
        let gamma = gamma_nodes(&g, &hints, s, t, d);
        let tuples = proof_tuples(&g, &hints, &gamma);
        let got = verify_subgraph_astar(&as_map(&tuples), s, t, hints.lambda()).unwrap();
        assert!((got - d).abs() <= 1e-9 * d.max(1.0));
    }

    #[test]
    fn an_epoch_copies_only_the_rows_and_vectors_its_update_writes() {
        use crate::owner::{DataOwner, SetupConfig};
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use spnet_crypto::rsa::RsaKeyPair;
        use spnet_graph::gen::road_network;

        let g = road_network(30, 30, 1.05, 1.0, 510);
        let kp = RsaKeyPair::generate(&mut StdRng::seed_from_u64(511), 256);
        let method = MethodConfig::Ldm(LdmConfig {
            landmarks: 8,
            ..LdmConfig::default()
        });
        let mut epoch1 =
            DataOwner::publish_with_key(&g, &method, &SetupConfig::default(), &kp).package;
        let hints = |p: &ProviderPackage| match &p.hints {
            MethodHints::Ldm(h) => h.clone(),
            _ => unreachable!(),
        };
        // A first update computes the sweep order, which later epochs
        // share.
        let (a, b, w) = g.edges().next().unwrap();
        crate::update::update_edge_weight(&mut epoch1, &kp, a, b, w * 1.5).unwrap();
        // Raise an edge on landmark 0's shortest-path tree and off
        // landmark 7's: it reaches row 0, and not row 7.
        let old = hints(&epoch1);
        let rows = old.exact.as_ref().unwrap().rows();
        let tight = |r: &[f64], x: NodeId, y: NodeId, w: f64| {
            r[y.index()] == r[x.index()] + w || r[x.index()] == r[y.index()] + w
        };
        let (u, v, w) = g
            .edges()
            .find(|&(x, y, w)| tight(&rows[0], x, y, w) && !tight(&rows[7], x, y, w))
            .expect("landmark trees differ");
        let mut epoch2 = epoch1.clone();
        let dirty = crate::update::update_edge_weight(&mut epoch2, &kp, u, v, w * 3.0).unwrap();
        let new = hints(&epoch2);

        let (old_rows, new_rows) = (old.exact.unwrap(), new.exact.unwrap());
        let mut copied = 0;
        for (l, (x, y)) in old_rows.rows().iter().zip(new_rows.rows()).enumerate() {
            let same = x
                .iter()
                .zip(y.iter())
                .all(|(p, q)| p.to_bits() == q.to_bits());
            assert_eq!(Arc::ptr_eq(x, y), same, "row {l}");
            copied += usize::from(!same);
        }
        assert!((1..8).contains(&copied), "{copied} of 8 rows copied");
        assert!(Arc::ptr_eq(
            old.sweep_order.as_ref().unwrap(),
            new.sweep_order.as_ref().unwrap()
        ));
        // λ held, so the windowed re-sweep ran: a full vector is shared
        // unless the re-sweep rewrote it.
        assert!(dirty.new_params.is_none());
        let mut shared = 0;
        for x in g.nodes() {
            if let (NodePsi::Full(p), NodePsi::Full(q)) =
                (old.vectors.node_psi(x), new.vectors.node_psi(x))
            {
                assert_eq!(Arc::ptr_eq(p, q), p == q, "ψ({x})");
                shared += usize::from(Arc::ptr_eq(p, q));
            }
        }
        assert!(shared > 0);
    }

    #[test]
    fn more_landmarks_smaller_gamma() {
        // Figure 12a's mechanism: more landmarks ⇒ tighter bounds ⇒
        // smaller cone.
        let g = grid_network(14, 14, 1.15, 508);
        let mk = |c: usize| {
            LdmHints::build(
                &g,
                &LdmConfig {
                    landmarks: c,
                    bits: 14,
                    xi: -1.0,
                    strategy: LandmarkStrategy::Farthest,
                    compression: CompressionStrategy::HilbertSweep,
                },
                509,
            )
        };
        let (s, t) = (NodeId(0), NodeId(195));
        let d = dijkstra_path(&g, s, t).unwrap().distance;
        let few = gamma_nodes(&g, &mk(2), s, t, d).len();
        let many = gamma_nodes(&g, &mk(24), s, t, d).len();
        assert!(many <= few, "{many} > {few}");
    }
}
