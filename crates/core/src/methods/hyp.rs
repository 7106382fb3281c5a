//! HYP — hyper-graph verification (Section V-B).
//!
//! The owner partitions the network into a grid of `p` cells, marks
//! border nodes, and materializes a hyper-edge weight
//! `W*(b, b′) = dist(b, b′)` for **every pair of border nodes**
//! (the paper's footnote 1) in a signed Merkle B-tree. A signed *cell
//! directory* (cell id → population count) additionally lets the client
//! check it received the complete source and target cells — without
//! it, a malicious provider could silently drop border nodes and
//! inflate the verified optimum.
//!
//! The provider ships (coarse proof) all tuples of the source and
//! target cells plus the hyper-edges between their border sets, and
//! (fine proof) the tuples of reported-path nodes in intermediate
//! cells. The client:
//!
//! 1. authenticates everything against the signed roots,
//! 2. runs in-cell Dijkstra from `vs` and `vt`,
//! 3. combines `dist_in(vs,b) + W*(b,b′) + dist_in(b′,vt)` over all
//!    border pairs (Theorem 2) to obtain the exact optimum,
//! 4. checks the reported path's length equals that optimum.

use crate::ads::{AdsMeta, AdsTag, SignedRoot};
use crate::batch::{AuxContext, BatchAux, BatchVerifyState};
use crate::error::{ProviderError, VerifyError};
use crate::methods::{AuthMethod, MethodConfig, MethodParams, TupleMap, VerifyCtx};
use crate::owner::{MethodHints, ProviderPackage, SetupConfig};
use crate::proof::SpProof;
use crate::snapshot::{self, SnapshotError};
use crate::tuple::ExtendedTuple;
use spnet_bytes::enc::Wire;
use spnet_crypto::mbtree::{composite_key, KeyedEntry, KeyedProof, MbTreeError, MerkleBTree};
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::partition::GridPartition;
use spnet_graph::{Graph, NodeId, Path};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The owner-side HYP hints.
#[derive(Debug, Clone)]
pub struct HypHints {
    /// The grid partition (cell ids and border flags also live inside
    /// the authenticated tuples).
    pub partition: GridPartition,
    /// Hyper-edge weights for all border pairs, keyed by the normalized
    /// composite `(min, max)`.
    pub hyper_tree: Option<MerkleBTree>,
    /// Cell directory: cell id → node count.
    pub cell_dir: MerkleBTree,
    /// Construction wall-clock seconds (border Dijkstras + tree
    /// hashing) for Figure 13b.
    pub build_seconds: f64,
}

/// Normalized hyper-edge key for an unordered border pair.
pub fn hyper_key(a: NodeId, b: NodeId) -> u64 {
    let (lo, hi) = if a.0 <= b.0 { (a.0, b.0) } else { (b.0, a.0) };
    composite_key(lo, hi)
}

impl HypHints {
    /// Runs the owner-side construction: partition, border Dijkstras,
    /// hyper-edge tree, cell directory.
    ///
    /// The all-pairs border distances (footnote 1) dominate this cost;
    /// the border sources fan out over threads, each reusing its
    /// thread's search workspace. Entries are sorted by key afterwards,
    /// so the tree does not depend on the split.
    pub fn build(g: &Graph, cells: usize, fanout: usize) -> Self {
        let start = std::time::Instant::now();
        let partition = GridPartition::with_cells(g, cells);
        let borders = partition.all_borders();
        let indexed: Vec<(usize, NodeId)> = borders.iter().copied().enumerate().collect();
        let per_border_entries: Vec<Vec<KeyedEntry>> = crate::par::map_jobs(&indexed, |&(i, b)| {
            spnet_graph::search::with_thread_workspace(|ws| {
                let sssp = ws.sssp(g, b);
                borders[i + 1..]
                    .iter()
                    .map(|&b2| KeyedEntry {
                        key: hyper_key(b, b2),
                        value: sssp.dist(b2),
                    })
                    .collect()
            })
        });
        let mut entries: Vec<KeyedEntry> = per_border_entries.into_iter().flatten().collect();
        entries.sort_by_key(|e| e.key);
        let hyper_tree = if entries.is_empty() {
            None
        } else {
            Some(MerkleBTree::build(entries, fanout).expect("sorted entries"))
        };
        let dir_entries: Vec<KeyedEntry> = (0..partition.num_cells() as u32)
            .map(|c| KeyedEntry {
                key: c as u64,
                value: partition.cell_members(c).len() as f64,
            })
            .collect();
        let cell_dir = MerkleBTree::build(dir_entries, fanout).expect("cells exist");
        HypHints {
            partition,
            hyper_tree,
            cell_dir,
            build_seconds: start.elapsed().as_secs_f64(),
        }
    }

    /// Signs the hyper-edge tree root (ZERO digest if no borders — the
    /// signature still binds that fact).
    pub fn sign_hyper(&self, keypair: &RsaKeyPair, fanout: u32) -> SignedRoot {
        let (root, leaves) = match &self.hyper_tree {
            Some(t) => (t.root(), t.len() as u64),
            None => (spnet_crypto::digest::Digest::ZERO, 0),
        };
        SignedRoot::sign(
            keypair,
            root,
            AdsMeta {
                tag: AdsTag::HyperEdges,
                leaf_count: leaves,
                fanout,
                params: Vec::new(),
            },
        )
    }

    /// Owner-side incremental repair after one edge-weight change:
    /// recomputes only the hyper-edges whose shortest border-to-border
    /// path can route through the changed edge (a crossing path comes
    /// within ε of the stored distance, before or after the change).
    ///
    /// Dirty pairs are recomputed grouped by their **lower-index**
    /// border in [`GridPartition::all_borders`] order — the same SSSP
    /// source [`HypHints::build`] uses — so repaired values carry the
    /// exact bits a fresh build of the updated graph would produce,
    /// and clean pairs keep theirs. The dirty scan reads every
    /// hyper-edge, so the entry blocks of a snapshot-loaded tree are
    /// made resident first (one verified read per page not yet loaded,
    /// no re-hash); a later repair of the same package reads no entry
    /// page.
    /// Returns the number of hyper-edges recomputed.
    pub(crate) fn repair_hyper_edges(
        &mut self,
        g: &Graph,
        change: &crate::methods::EdgeChange,
        old: &crate::methods::ChangeDists,
    ) -> Result<usize, crate::update::UpdateError> {
        use crate::update::{UpdateError, DIRTY_EPS};
        let rebuild = |e: MbTreeError| UpdateError::Rebuild(e.to_string());
        let Some(tree) = self.hyper_tree.as_mut() else {
            return Ok(0); // single cell, no borders: nothing materialized
        };
        tree.load_entries().map_err(rebuild)?;
        let du_n = spnet_graph::search::with_thread_workspace(|ws| ws.sssp(g, change.u).dist_vec());
        let dv_n = spnet_graph::search::with_thread_workspace(|ws| ws.sssp(g, change.v).dist_vec());
        let borders = self.partition.all_borders();
        // Best distance from a to b through the changed edge, given
        // endpoint distance vectors of one graph.
        let via = |da: &[f64], db: &[f64], w: f64, a: NodeId, b: NodeId| {
            (da[a.index()] + db[b.index()]).min(db[a.index()] + da[b.index()]) + w
        };
        let mut by_source: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
        let mut repaired = 0usize;
        for (i, &b1) in borders.iter().enumerate() {
            let mut targets = Vec::new();
            for &b2 in &borders[i + 1..] {
                let d_old = tree
                    .get(hyper_key(b1, b2))
                    .ok_or_else(|| UpdateError::Rebuild("hyper-edge missing".into()))?;
                let via_o = via(&old.from_u, &old.from_v, change.old_weight, b1, b2);
                let via_n = via(&du_n, &dv_n, change.new_weight, b1, b2);
                // Slack errs toward dirty: a false positive recomputes
                // an unchanged (bit-identical) value.
                let slack = DIRTY_EPS * (1.0 + d_old.abs());
                if via_o <= d_old + slack || via_n <= d_old + slack {
                    targets.push(b2);
                }
            }
            if !targets.is_empty() {
                repaired += targets.len();
                by_source.push((b1, targets));
            }
        }
        let fresh: Vec<Vec<KeyedEntry>> = crate::par::map_jobs(&by_source, |(b, targets)| {
            spnet_graph::search::with_thread_workspace(|ws| {
                let sssp = ws.sssp(g, *b);
                targets
                    .iter()
                    .map(|&b2| KeyedEntry {
                        key: hyper_key(*b, b2),
                        value: sssp.dist(b2),
                    })
                    .collect()
            })
        });
        let fresh: Vec<KeyedEntry> = fresh.into_iter().flatten().collect();
        tree.update_values(&fresh).map_err(rebuild)?;
        Ok(repaired)
    }

    /// Signs the cell-directory root.
    pub fn sign_cell_dir(&self, keypair: &RsaKeyPair, fanout: u32) -> SignedRoot {
        SignedRoot::sign(
            keypair,
            self.cell_dir.root(),
            AdsMeta {
                tag: AdsTag::CellDirectory,
                leaf_count: self.cell_dir.len() as u64,
                fanout,
                params: Vec::new(),
            },
        )
    }

    /// Provider side: the coarse node set — all nodes of the source and
    /// target cells.
    pub fn coarse_nodes(&self, vs: NodeId, vt: NodeId) -> Vec<NodeId> {
        let cs = self.partition.cell_of(vs);
        let ct = self.partition.cell_of(vt);
        let mut nodes: Vec<NodeId> = self.partition.cell_members(cs).to_vec();
        if ct != cs {
            nodes.extend_from_slice(self.partition.cell_members(ct));
        }
        nodes.sort();
        nodes
    }

    /// Provider side: the hyper-edge keys the proof must carry — every
    /// pair between the source-cell border set and the target-cell
    /// border set (all pairs within the cell when `cs == ct`).
    pub fn hyper_keys(&self, vs: NodeId, vt: NodeId) -> Vec<u64> {
        self.batch_hyper_keys(&[(vs, vt)])
    }

    /// Provider side, batched: the deduplicated union of hyper-edge
    /// keys over all queries. Queries sharing a cell pair contribute
    /// the same keys once, so each touched cell's border-distance
    /// matrix ships (and is Merkle-verified) once per batch.
    pub fn batch_hyper_keys(&self, queries: &[(NodeId, NodeId)]) -> Vec<u64> {
        let mut keys: HashSet<u64> = HashSet::new();
        let mut seen_cell_pairs: HashSet<(u32, u32)> = HashSet::new();
        for &(vs, vt) in queries {
            let cs = self.partition.cell_of(vs);
            let ct = self.partition.cell_of(vt);
            if !seen_cell_pairs.insert((cs.min(ct), cs.max(ct))) {
                continue;
            }
            let bs = self.partition.cell_borders(cs);
            let bt = self.partition.cell_borders(ct);
            for &a in &bs {
                for &b in &bt {
                    if a != b {
                        keys.insert(hyper_key(a, b));
                    }
                }
            }
        }
        let mut out: Vec<u64> = keys.into_iter().collect();
        out.sort_unstable();
        out
    }

    /// Provider side, batched: the deduplicated union of
    /// cell-directory keys (touched cell ids) over all queries.
    pub fn batch_dir_keys(&self, queries: &[(NodeId, NodeId)]) -> Vec<u64> {
        let mut cells: BTreeSet<u64> = BTreeSet::new();
        for &(vs, vt) in queries {
            cells.insert(self.partition.cell_of(vs) as u64);
            cells.insert(self.partition.cell_of(vt) as u64);
        }
        cells.into_iter().collect()
    }
}

/// Client side: authenticates the two HYP auxiliary structures —
/// owner signatures and Merkle roots — ahead of `verify_hyp_impl`.
/// Shared by the single-query and batched verification paths so the
/// authentication rules cannot drift between them. Roots pinned at
/// session open (already RSA-verified there) are accepted by byte
/// equality; the Merkle reconstructions below always run.
pub(crate) fn verify_hyp_aux(
    ctx: &VerifyCtx<'_>,
    hyper: &KeyedProof,
    hyper_signed_root: &SignedRoot,
    cell_dir: &KeyedProof,
    cell_dir_signed_root: &SignedRoot,
) -> Result<(), VerifyError> {
    if !ctx.trusts(hyper_signed_root) && !hyper_signed_root.verify(ctx.pk) {
        return Err(VerifyError::BadSignature);
    }
    if !ctx.trusts(cell_dir_signed_root) && !cell_dir_signed_root.verify(ctx.pk) {
        return Err(VerifyError::BadSignature);
    }
    // An empty hyper proof is acceptable only when the touched cells
    // are border-free: verify_hyp fails on the first needed pair
    // otherwise, so no explicit check is required here.
    if !hyper.entries.is_empty() {
        let root = hyper
            .reconstruct_root()
            .map_err(|e| VerifyError::MalformedIntegrityProof(e.to_string()))?;
        if root != hyper_signed_root.root {
            return Err(VerifyError::RootMismatch);
        }
    }
    let dir_root = cell_dir
        .reconstruct_root()
        .map_err(|e| VerifyError::MalformedIntegrityProof(e.to_string()))?;
    if dir_root != cell_dir_signed_root.root {
        return Err(VerifyError::RootMismatch);
    }
    Ok(())
}

/// Client side: verifies the HYP ΓS and returns the proven optimum,
/// with optional per-batch state: queries of one batch
/// that touch the same cell share one authenticated cell subgraph
/// instead of rebuilding it per endpoint, and their in-cell distance
/// rows come out of **one multi-source sweep per touched cell**
/// (planned in [`HypMethod::prepare_batch_verify`]) instead of one
/// Dijkstra per endpoint. Both accelerations are bit-transparent: the
/// proven optimum equals the stateless single-query verification's.
pub(crate) fn verify_hyp_impl(
    tuples: &HashMap<NodeId, &ExtendedTuple>,
    hyper: &KeyedProof,
    cell_dir: &KeyedProof,
    vs: NodeId,
    vt: NodeId,
    state: Option<&HypBatchState>,
) -> Result<f64, VerifyError> {
    if vs == vt {
        return Ok(0.0);
    }
    let ts = tuples
        .get(&vs)
        .ok_or(VerifyError::MissingEndpointTuple(vs))?;
    let tt = tuples
        .get(&vt)
        .ok_or(VerifyError::MissingEndpointTuple(vt))?;
    let cs = ts
        .cell
        .ok_or(VerifyError::MetaMismatch("source tuple lacks cell info"))?
        .cell;
    let ct = tt
        .cell
        .ok_or(VerifyError::MetaMismatch("target tuple lacks cell info"))?
        .cell;

    // Completeness of the coarse proof: the signed directory tells the
    // client how many nodes each cell must contain.
    for cell in if cs == ct { vec![cs] } else { vec![cs, ct] } {
        let expected = cell_dir
            .value_for(cell as u64)
            .ok_or(VerifyError::MissingProofPart("cell directory entry"))?
            as usize;
        let got = tuples
            .values()
            .filter(|t| t.cell.is_some_and(|ci| ci.cell == cell))
            .count();
        if got < expected {
            return Err(VerifyError::MetaMismatch("incomplete cell in coarse proof"));
        }
    }

    // In-cell Dijkstras from both endpoints, on a dense node-index
    // remap of each cell (no per-pop hashing). The remap is only built
    // after the completeness check above, so a cached cell graph is
    // always the full authentic cell.
    let cache = state.map(|st| &st.cells);
    let cg_s = cell_graph(tuples, cs, cache)?;
    let cg_t = if ct == cs {
        Arc::clone(&cg_s)
    } else {
        cell_graph(tuples, ct, cache)?
    };
    let din_s = in_cell_distances(&cg_s, cs, vs, state)?;
    let din_t = in_cell_distances(&cg_t, ct, vt, state)?;

    // Border sets, from authenticated flags, restricted to in-cell
    // reachable nodes (unreachable borders cannot host the first/last
    // crossing of the optimum).
    let bs = din_s.reachable_borders();
    let bt = din_t.reachable_borders();

    let mut best = f64::INFINITY;
    if cs == ct {
        if let Some(d) = din_s.dist_to(vt) {
            best = d;
        }
    }
    for &b1 in &bs {
        for &b2 in &bt {
            if b1 == b2 {
                continue;
            }
            let w = hyper
                .value_for(hyper_key(b1, b2))
                .ok_or(VerifyError::MissingDistanceKey { a: b1, b: b2 })?;
            let cand = din_s.dist_to(b1).expect("b1 is reachable")
                + w
                + din_t.dist_to(b2).expect("b2 is reachable");
            if cand < best {
                best = cand;
            }
        }
    }
    if best.is_infinite() {
        return Err(VerifyError::CoarseUnreachable);
    }
    Ok(best)
}

/// In-cell distances from `v`, served from the batch's planned
/// multi-source sweep when possible, else by a solo in-cell Dijkstra.
/// Both routes are bit-identical (`multi_sssp_rows` projects each
/// source's row exactly as its solo search would produce it).
fn in_cell_distances<'a>(
    cg: &'a Arc<CellGraph>,
    cell: u32,
    v: NodeId,
    state: Option<&HypBatchState>,
) -> Result<CellDistances<'a>, VerifyError> {
    if let Some(st) = state {
        if let Some(dist) = st.planned_row(cell, v, cg) {
            return Ok(CellDistances { cg, dist });
        }
        st.solo.fetch_add(1, Ordering::Relaxed);
    }
    cg.distances_from(v)
}

/// Per-batch HYP verifier state: the cell-graph cache plus the
/// multi-source sweep plan and its lazily computed distance rows.
///
/// [`HypMethod::prepare_batch_verify`] groups the batch's query
/// endpoints by their authenticated cell; the first verification job
/// to need a cell's rows runs **one** calibrated multi-source sweep
/// (seeding every planned endpoint of that cell) and publishes the
/// per-endpoint rows through a [`OnceLock`], so concurrent jobs
/// neither duplicate nor partially observe the sweep. Endpoints the
/// plan or the sweep missed (duplicate-id pools, oversized product
/// spaces) fall back to a solo in-cell Dijkstra with identical bits.
#[derive(Default)]
pub(crate) struct HypBatchState {
    /// Cache of authenticated in-cell CSR remaps, keyed by cell id.
    pub(crate) cells: CellGraphCache,
    /// Cell id → deduplicated query endpoints needing rows there.
    plan: Mutex<HashMap<u32, Vec<NodeId>>>,
    /// Cell id → once-computed endpoint rows from that cell's sweep.
    #[allow(clippy::type_complexity)]
    rows: Mutex<HashMap<u32, Arc<OnceLock<HashMap<NodeId, Arc<Vec<f64>>>>>>>,
    /// Multi-source sweeps actually run (one per touched cell).
    sweeps: AtomicU64,
    /// Solo per-endpoint fallback searches (zero on the planned path).
    solo: AtomicU64,
}

impl HypBatchState {
    /// Installs the cell → endpoints sweep plan (once, before fan-out).
    fn set_plan(&self, plan: HashMap<u32, Vec<NodeId>>) {
        *self.plan.lock().expect("hyp plan poisoned") = plan;
    }

    /// The planned in-cell distance row for endpoint `v` of `cell`,
    /// running the cell's one multi-source sweep on first use.
    fn planned_row(&self, cell: u32, v: NodeId, cg: &CellGraph) -> Option<Arc<Vec<f64>>> {
        let once = {
            let mut rows = self.rows.lock().expect("hyp rows poisoned");
            Arc::clone(rows.entry(cell).or_default())
        };
        let computed = once.get_or_init(|| {
            let sources: Vec<NodeId> = self
                .plan
                .lock()
                .expect("hyp plan poisoned")
                .get(&cell)
                .cloned()
                .unwrap_or_default();
            // Only endpoints actually present in the authenticated
            // cell participate; the rest fall back (and fail with the
            // proper per-query error there).
            let present: Vec<(NodeId, NodeId)> = sources
                .iter()
                .filter_map(|&id| cg.local.get(&id).map(|&l| (id, NodeId(l))))
                .collect();
            let n = cg.sub.num_nodes();
            if present.is_empty() || present.len().saturating_mul(n) >= u32::MAX as usize {
                // Product space too large for one sweep: leave the map
                // empty and let every endpoint take the solo route.
                return HashMap::new();
            }
            self.sweeps.fetch_add(1, Ordering::Relaxed);
            let locals: Vec<NodeId> = present.iter().map(|&(_, l)| l).collect();
            let swept = spnet_graph::search::with_thread_workspace(|ws| {
                ws.multi_sssp_rows(&cg.sub, &locals)
            });
            present
                .iter()
                .zip(swept)
                .map(|(&(id, _), row)| (id, Arc::new(row)))
                .collect()
        });
        computed.get(&v).cloned()
    }

    /// Number of multi-source sweeps run so far (test observability).
    #[cfg(test)]
    pub(crate) fn sweep_count(&self) -> u64 {
        self.sweeps.load(Ordering::Relaxed)
    }

    /// Number of solo fallback searches run so far (test observability).
    #[cfg(test)]
    pub(crate) fn solo_count(&self) -> u64 {
        self.solo.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for HypBatchState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HypBatchState({:?}, {} sweeps)",
            self.cells,
            self.sweeps.load(Ordering::Relaxed)
        )
    }
}

/// Resolves a cell's authenticated subgraph, through the per-batch
/// cache when one is supplied.
fn cell_graph(
    tuples: &HashMap<NodeId, &ExtendedTuple>,
    cell: u32,
    cache: Option<&CellGraphCache>,
) -> Result<Arc<CellGraph>, VerifyError> {
    match cache {
        Some(c) => c.get_or_build(cell, tuples),
        None => Ok(Arc::new(CellGraph::build(tuples, cell)?)),
    }
}

/// A compact dense remap of one cell's authenticated tuples: the
/// in-cell CSR subgraph every endpoint Dijkstra of that cell runs on.
///
/// The seed implementation ran Dijkstra directly over
/// `HashMap<NodeId, …>` state, paying several hash lookups per edge
/// relaxation; PR 1 remapped each cell to `0..k` per *endpoint*. Now
/// the remap is built once per cell and shared — within one query
/// when both endpoints share a cell, and across a whole batch via
/// [`CellGraphCache`].
pub(crate) struct CellGraph {
    /// Local index → node id (ascending).
    ids: Vec<NodeId>,
    /// Node id → local index.
    local: HashMap<NodeId, u32>,
    /// The in-cell CSR subgraph (local indices).
    sub: Graph,
    /// Local index → authenticated border flag.
    border: Vec<bool>,
}

impl CellGraph {
    /// Assembles the cell's subgraph from authenticated adjacency;
    /// each undirected edge is added once, from its lower endpoint.
    fn build(
        tuples: &HashMap<NodeId, &ExtendedTuple>,
        cell: u32,
    ) -> Result<CellGraph, VerifyError> {
        // Gather the cell's nodes in ascending id order (determinism).
        let mut ids: Vec<NodeId> = tuples
            .values()
            .filter(|t| t.cell.is_some_and(|ci| ci.cell == cell))
            .map(|t| t.id)
            .collect();
        ids.sort_unstable();
        let local: HashMap<NodeId, u32> = ids
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, i as u32))
            .collect();
        let mut b = spnet_graph::GraphBuilder::with_capacity(ids.len(), ids.len() * 2);
        for _ in &ids {
            b.add_node(0.0, 0.0);
        }
        let mut border = vec![false; ids.len()];
        for (li, &id) in ids.iter().enumerate() {
            let t = tuples[&id];
            border[li] = t.cell.is_some_and(|ci| ci.is_border);
            for &(u, w) in &t.adj {
                if let Some(&lu) = local.get(&u) {
                    if (li as u32) < lu {
                        b.add_edge(NodeId(li as u32), NodeId(lu), w).map_err(|_| {
                            VerifyError::MetaMismatch("malformed in-cell adjacency")
                        })?;
                    }
                }
            }
        }
        let sub = b
            .try_build()
            .map_err(|_| VerifyError::MetaMismatch("malformed in-cell adjacency"))?;
        Ok(CellGraph {
            ids,
            local,
            sub,
            border,
        })
    }

    /// Runs the in-cell Dijkstra from `source` on the thread's reused
    /// dense [`spnet_graph::search::SearchWorkspace`].
    fn distances_from(&self, source: NodeId) -> Result<CellDistances<'_>, VerifyError> {
        let source_local = *self
            .local
            .get(&source)
            .ok_or(VerifyError::MissingEndpointTuple(source))?;
        let dist = spnet_graph::search::with_thread_workspace(|ws| {
            ws.sssp(&self.sub, NodeId(source_local)).dist_vec()
        });
        Ok(CellDistances {
            cg: self,
            dist: Arc::new(dist),
        })
    }
}

/// A per-batch cache of [`CellGraph`]s keyed by cell id, shared
/// (behind a lock) by every per-query verification job of one batch.
/// Builds are deterministic functions of the authenticated pool, so a
/// cache hit returns exactly what a rebuild would.
#[derive(Default)]
pub(crate) struct CellGraphCache {
    inner: Mutex<HashMap<u32, Arc<CellGraph>>>,
}

impl CellGraphCache {
    fn get_or_build(
        &self,
        cell: u32,
        tuples: &HashMap<NodeId, &ExtendedTuple>,
    ) -> Result<Arc<CellGraph>, VerifyError> {
        if let Some(hit) = self.inner.lock().expect("cell cache poisoned").get(&cell) {
            return Ok(Arc::clone(hit));
        }
        // Build outside the lock (other cells can proceed); racing
        // builders converge on the first insert.
        let built = Arc::new(CellGraph::build(tuples, cell)?);
        Ok(Arc::clone(
            self.inner
                .lock()
                .expect("cell cache poisoned")
                .entry(cell)
                .or_insert(built),
        ))
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.inner.lock().expect("cell cache poisoned").len()
    }
}

impl std::fmt::Debug for CellGraphCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let len = self.inner.lock().map(|m| m.len()).unwrap_or(0);
        write!(f, "CellGraphCache({len} cells)")
    }
}

/// In-cell shortest-path distances from one endpoint over a (possibly
/// shared) [`CellGraph`].
struct CellDistances<'a> {
    cg: &'a CellGraph,
    /// Local index → in-cell distance from the endpoint (∞ unreached);
    /// shared when served from a batch sweep's row store.
    dist: Arc<Vec<f64>>,
}

impl CellDistances<'_> {
    /// In-cell distance to `v`, `None` when unreached or outside the
    /// cell.
    fn dist_to(&self, v: NodeId) -> Option<f64> {
        let i = *self.cg.local.get(&v)? as usize;
        self.dist[i].is_finite().then(|| self.dist[i])
    }

    /// Authenticated border nodes reachable in-cell, ascending by id.
    fn reachable_borders(&self) -> Vec<NodeId> {
        self.cg
            .ids
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.cg.border[i] && self.dist[i].is_finite())
            .map(|(_, &v)| v)
            .collect()
    }
}

/// An empty keyed proof — shipped when the touched cells have no
/// borders at all (single populated cell): verification then relies on
/// in-cell distances alone, and the owner's signature binds the
/// emptiness.
pub(crate) fn empty_keyed_proof(fanout: u32) -> KeyedProof {
    KeyedProof {
        entries: vec![],
        positions: vec![],
        merkle: spnet_crypto::merkle::MerkleProof {
            entries: vec![],
            leaf_count: 0,
            fanout,
        },
    }
}

/// HYP's [`AuthMethod`] implementation: grid partition + signed
/// hyper-edge/cell-directory trees as hints, the source/target cells
/// plus border-pair hyper-edges as ΓS, Theorem 2's border-pair
/// combination as verification.
#[derive(Debug, Clone, Copy, Default)]
pub struct HypMethod;

impl HypMethod {
    /// The HYP hints out of a provider package.
    fn hints(pkg: &ProviderPackage) -> (&HypHints, &SignedRoot, &SignedRoot) {
        match &pkg.hints {
            MethodHints::Hyp {
                hints,
                hyper_signed,
                cell_dir_signed,
            } => (hints, hyper_signed, cell_dir_signed),
            _ => unreachable!("HypMethod dispatched with non-HYP hints"),
        }
    }

    /// Coarse cells plus reported-path nodes outside them — the node
    /// set both the single-query proof and a batched query ship.
    fn covered_nodes(hints: &HypHints, vs: NodeId, vt: NodeId, path: &Path) -> Vec<NodeId> {
        let coarse = hints.coarse_nodes(vs, vt);
        let coarse_set: BTreeSet<NodeId> = coarse.iter().copied().collect();
        coarse
            .into_iter()
            .chain(
                path.nodes
                    .iter()
                    .copied()
                    .filter(|v| !coarse_set.contains(v)),
            )
            .collect()
    }

    /// Hyper-edge proof for `keys`. An empty key set — the touched
    /// cells meet at a single border node, or have none — ships the
    /// empty proof, which the verifier accepts without a root check.
    fn prove_hyper(
        pkg: &ProviderPackage,
        hints: &HypHints,
        keys: &[u64],
    ) -> Result<KeyedProof, ProviderError> {
        match &hints.hyper_tree {
            Some(t) if !keys.is_empty() => t
                .prove_keys(keys)
                .map_err(|e| ProviderError::ProofAssembly(e.to_string())),
            _ => Ok(empty_keyed_proof(pkg.ads.fanout() as u32)),
        }
    }
}

impl AuthMethod for HypMethod {
    fn name(&self) -> &'static str {
        "HYP"
    }

    fn params_code(&self) -> u8 {
        4
    }

    fn build_hints(
        &self,
        g: &Graph,
        config: &MethodConfig,
        setup: &SetupConfig,
        keypair: &RsaKeyPair,
    ) -> (MethodHints, MethodParams) {
        let MethodConfig::Hyp { cells } = config else {
            unreachable!("HypMethod dispatched with non-HYP config");
        };
        let hints = HypHints::build(g, *cells, setup.fanout);
        let hyper_signed = hints.sign_hyper(keypair, setup.fanout as u32);
        let cell_dir_signed = hints.sign_cell_dir(keypair, setup.fanout as u32);
        (
            MethodHints::Hyp {
                hints,
                hyper_signed,
                cell_dir_signed,
            },
            MethodParams::Hyp,
        )
    }

    fn make_tuple(&self, g: &Graph, v: NodeId, hints: &MethodHints) -> ExtendedTuple {
        let MethodHints::Hyp { hints, .. } = hints else {
            unreachable!("HypMethod dispatched with non-HYP hints");
        };
        ExtendedTuple::with_cell(g, v, &hints.partition)
    }

    fn wants_change_dists(&self) -> bool {
        true
    }

    /// HYP repair: the partition and cell directory are pure geometry
    /// — a weight change cannot touch them (the directory signature
    /// keeps its exact bytes) — so only dirty hyper-edges are
    /// recomputed and only the hyper root is re-signed.
    fn repair_hints(
        &self,
        g: &Graph,
        change: &crate::methods::EdgeChange,
        hints: &mut MethodHints,
        keypair: &RsaKeyPair,
    ) -> Result<crate::methods::DirtySet, crate::update::UpdateError> {
        let MethodHints::Hyp {
            hints: h,
            hyper_signed,
            ..
        } = hints
        else {
            return Err(crate::update::UpdateError::Rebuild(
                "HYP repair dispatched with non-HYP hints".into(),
            ));
        };
        let old = change.old_dists.as_ref().ok_or_else(|| {
            crate::update::UpdateError::Rebuild("missing pre-update endpoint distances".into())
        })?;
        let repaired = h.repair_hyper_edges(g, change, old)?;
        let fanout = hyper_signed.meta.fanout;
        *hyper_signed = h.sign_hyper(keypair, fanout);
        Ok(crate::methods::DirtySet {
            tuples: Vec::new(),
            aux_repaired: repaired,
            aux_resigned: 1,
            new_params: None,
        })
    }

    fn snapshot_hints(
        &self,
        hints: &MethodHints,
        w: &mut spnet_store::SnapshotWriter,
    ) -> Result<(), SnapshotError> {
        let MethodHints::Hyp {
            hints: h,
            hyper_signed,
            cell_dir_signed,
        } = hints
        else {
            return Err(SnapshotError::Corrupt("HYP hints expected"));
        };
        let config = (
            h.partition.side(),
            cell_dir_signed.meta.fanout,
            h.build_seconds,
            h.hyper_tree.as_ref().map_or(0, |t| t.len() as u64),
            h.cell_dir.len() as u64,
        );
        w.blob(snapshot::SEC_HYP_CONFIG, &config.to_bytes())?;
        w.blob(snapshot::SEC_HYP_HYPER_SIGNED, &hyper_signed.to_bytes())?;
        w.blob(snapshot::SEC_HYP_DIR_SIGNED, &cell_dir_signed.to_bytes())?;
        if let Some(t) = &h.hyper_tree {
            snapshot::write_btree(
                w,
                t,
                snapshot::SEC_HYP_HYPER_ENTRIES,
                snapshot::SEC_HYP_HYPER_KEYS,
                snapshot::SEC_HYP_HYPER_TREE,
            )?;
        }
        snapshot::write_btree(
            w,
            &h.cell_dir,
            snapshot::SEC_HYP_DIR_ENTRIES,
            snapshot::SEC_HYP_DIR_KEYS,
            snapshot::SEC_HYP_DIR_TREE,
        )
    }

    fn load_hints(
        &self,
        g: &Graph,
        store: &spnet_store::NodeStore,
    ) -> Result<MethodHints, SnapshotError> {
        let (side, fanout, build_seconds, hyper_len, dir_len) =
            <(u32, u32, f64, u64, u64)>::from_bytes(&store.blob(snapshot::SEC_HYP_CONFIG)?)?;
        let (fanout, hyper_len, dir_len) = (fanout as usize, hyper_len as usize, dir_len as usize);
        if side == 0 || fanout < 2 {
            return Err(SnapshotError::Corrupt("HYP config out of range"));
        }

        let hyper_signed = SignedRoot::from_bytes(&store.blob(snapshot::SEC_HYP_HYPER_SIGNED)?)?;
        let cell_dir_signed = SignedRoot::from_bytes(&store.blob(snapshot::SEC_HYP_DIR_SIGNED)?)?;
        if hyper_signed.meta.tag != AdsTag::HyperEdges
            || cell_dir_signed.meta.tag != AdsTag::CellDirectory
        {
            return Err(SnapshotError::Corrupt(
                "HYP signed root carries a foreign tag",
            ));
        }
        if hyper_signed.meta.fanout as usize != fanout
            || cell_dir_signed.meta.fanout as usize != fanout
        {
            return Err(SnapshotError::Corrupt("HYP fanout contradicts signed meta"));
        }

        // The partition is a deterministic function of the graph and
        // grid side; the border flags it yields are cross-checked by
        // the authenticated tuples at verification time.
        let partition = GridPartition::build(g, side);

        let hyper_tree = if hyper_len == 0 {
            if hyper_signed.meta.leaf_count != 0
                || hyper_signed.root != spnet_crypto::digest::Digest::ZERO
            {
                return Err(SnapshotError::Corrupt(
                    "empty hyper tree contradicts its signed root",
                ));
            }
            None
        } else {
            let t = snapshot::load_btree(
                store,
                hyper_len,
                fanout,
                snapshot::SEC_HYP_HYPER_ENTRIES,
                snapshot::SEC_HYP_HYPER_KEYS,
                snapshot::SEC_HYP_HYPER_TREE,
            )?;
            if hyper_signed.meta.leaf_count != t.len() as u64 || hyper_signed.root != t.root() {
                return Err(SnapshotError::Corrupt(
                    "HYP hyper root does not match loaded tree",
                ));
            }
            Some(t)
        };

        let cell_dir = snapshot::load_btree(
            store,
            dir_len,
            fanout,
            snapshot::SEC_HYP_DIR_ENTRIES,
            snapshot::SEC_HYP_DIR_KEYS,
            snapshot::SEC_HYP_DIR_TREE,
        )?;
        if cell_dir_signed.meta.leaf_count != cell_dir.len() as u64
            || cell_dir_signed.root != cell_dir.root()
        {
            return Err(SnapshotError::Corrupt(
                "HYP directory root does not match loaded tree",
            ));
        }
        if cell_dir.len() != partition.num_cells() {
            return Err(SnapshotError::Corrupt("cell directory size mismatch"));
        }

        Ok(MethodHints::Hyp {
            hints: HypHints {
                partition,
                hyper_tree,
                cell_dir,
                build_seconds,
            },
            hyper_signed,
            cell_dir_signed,
        })
    }

    fn prove(
        &self,
        pkg: &ProviderPackage,
        vs: NodeId,
        vt: NodeId,
        path: &Path,
    ) -> Result<(SpProof, Vec<NodeId>), ProviderError> {
        let (hints, hyper_signed, cell_dir_signed) = Self::hints(pkg);
        let coarse = hints.coarse_nodes(vs, vt);
        let coarse_set: BTreeSet<NodeId> = coarse.iter().copied().collect();
        let extra: Vec<NodeId> = path
            .nodes
            .iter()
            .copied()
            .filter(|v| !coarse_set.contains(v))
            .collect();
        let cell_tuples: Vec<Arc<ExtendedTuple>> =
            coarse.iter().map(|&v| pkg.ads.tuple_shared(v)).collect();
        let path_tuples: Vec<Arc<ExtendedTuple>> =
            extra.iter().map(|&v| pkg.ads.tuple_shared(v)).collect();
        let hyper = Self::prove_hyper(pkg, hints, &hints.hyper_keys(vs, vt))?;
        let cell_dir = hints
            .cell_dir
            .prove_keys(&hints.batch_dir_keys(&[(vs, vt)]))
            .map_err(|e| ProviderError::ProofAssembly(e.to_string()))?;
        let covered: Vec<NodeId> = coarse.into_iter().chain(extra).collect();
        Ok((
            SpProof::Hyp {
                cell_tuples,
                path_tuples,
                hyper,
                hyper_signed_root: hyper_signed.clone(),
                cell_dir,
                cell_dir_signed_root: cell_dir_signed.clone(),
            },
            covered,
        ))
    }

    fn batch_members(
        &self,
        pkg: &ProviderPackage,
        vs: NodeId,
        vt: NodeId,
        path: &Path,
    ) -> Vec<NodeId> {
        let (hints, _, _) = Self::hints(pkg);
        Self::covered_nodes(hints, vs, vt, path)
    }

    fn prove_batch(
        &self,
        pkg: &ProviderPackage,
        queries: &[(NodeId, NodeId)],
    ) -> Result<BatchAux, ProviderError> {
        let (hints, hyper_signed, cell_dir_signed) = Self::hints(pkg);
        let hyper = Self::prove_hyper(pkg, hints, &hints.batch_hyper_keys(queries))?;
        let cell_dir = hints
            .cell_dir
            .prove_keys(&hints.batch_dir_keys(queries))
            .map_err(|e| ProviderError::ProofAssembly(e.to_string()))?;
        Ok(BatchAux::Hyp {
            hyper,
            hyper_signed_root: hyper_signed.clone(),
            cell_dir,
            cell_dir_signed_root: cell_dir_signed.clone(),
        })
    }

    fn matches_proof(&self, sp: &SpProof) -> bool {
        matches!(sp, SpProof::Hyp { .. })
    }

    fn verify(
        &self,
        ctx: &VerifyCtx<'_>,
        _params: &MethodParams,
        sp: &SpProof,
        tuples: &TupleMap<'_>,
        vs: NodeId,
        vt: NodeId,
    ) -> Result<f64, VerifyError> {
        let SpProof::Hyp {
            hyper,
            hyper_signed_root,
            cell_dir,
            cell_dir_signed_root,
            ..
        } = sp
        else {
            return Err(VerifyError::MetaMismatch(
                "proof shape does not match method",
            ));
        };
        // Authenticate both auxiliary structures first.
        verify_hyp_aux(
            ctx,
            hyper,
            hyper_signed_root,
            cell_dir,
            cell_dir_signed_root,
        )?;
        verify_hyp_impl(tuples, hyper, cell_dir, vs, vt, None)
    }

    fn verify_batch_aux<'a>(
        &self,
        ctx: &VerifyCtx<'_>,
        _params: &MethodParams,
        aux: &'a BatchAux,
    ) -> Result<AuxContext<'a>, VerifyError> {
        match aux {
            BatchAux::Hyp {
                hyper,
                hyper_signed_root,
                cell_dir,
                cell_dir_signed_root,
            } => {
                verify_hyp_aux(
                    ctx,
                    hyper,
                    hyper_signed_root,
                    cell_dir,
                    cell_dir_signed_root,
                )?;
                Ok(AuxContext::Hyp { hyper, cell_dir })
            }
            _ => Err(VerifyError::MetaMismatch(
                "batch proof shape does not match signed method",
            )),
        }
    }

    fn prepare_batch_verify(
        &self,
        _params: &MethodParams,
        queries: &[(NodeId, NodeId)],
        batch: &crate::batch::BatchAnswer,
        state: &BatchVerifyState,
    ) {
        // Group the batch's query endpoints by their authenticated
        // cell. The plan is advisory: a per-query job only consumes a
        // planned row after ITS OWN completeness check passed, and any
        // endpoint the plan mislabels (e.g. a malicious duplicate-id
        // pool) simply misses the row store and takes the bit-identical
        // solo route.
        let mut cell_of: HashMap<NodeId, u32> = HashMap::with_capacity(batch.pool.len());
        for t in &batch.pool {
            if let Some(ci) = t.cell {
                cell_of.entry(t.id).or_insert(ci.cell);
            }
        }
        let mut plan: HashMap<u32, Vec<NodeId>> = HashMap::new();
        for &(vs, vt) in queries {
            if vs == vt {
                continue; // verified as 0.0 without any search
            }
            for v in [vs, vt] {
                if let Some(&c) = cell_of.get(&v) {
                    let endpoints = plan.entry(c).or_default();
                    if !endpoints.contains(&v) {
                        endpoints.push(v);
                    }
                }
            }
        }
        state.hyp.set_plan(plan);
    }

    fn verify_batch_query(
        &self,
        _params: &MethodParams,
        ctx: &AuxContext<'_>,
        state: &BatchVerifyState,
        tuples: &TupleMap<'_>,
        vs: NodeId,
        vt: NodeId,
    ) -> Result<f64, VerifyError> {
        let AuxContext::Hyp { hyper, cell_dir } = ctx else {
            unreachable!("verify_batch_aux checked the pairing");
        };
        verify_hyp_impl(tuples, hyper, cell_dir, vs, vt, Some(&state.hyp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spnet_graph::algo::dijkstra_path;
    use spnet_graph::gen::grid_network;

    fn setup(seed: u64, cells: usize) -> (Graph, HypHints) {
        let g = grid_network(12, 12, 1.2, seed);
        let hints = HypHints::build(&g, cells, 4);
        (g, hints)
    }

    fn proof_parts(
        g: &Graph,
        hints: &HypHints,
        vs: NodeId,
        vt: NodeId,
        path_nodes: &[NodeId],
    ) -> (Vec<ExtendedTuple>, KeyedProof, KeyedProof) {
        let coarse = hints.coarse_nodes(vs, vt);
        let mut nodes: Vec<NodeId> = coarse.clone();
        for &v in path_nodes {
            if !nodes.contains(&v) {
                nodes.push(v);
            }
        }
        let tuples: Vec<ExtendedTuple> = nodes
            .iter()
            .map(|&v| ExtendedTuple::with_cell(g, v, &hints.partition))
            .collect();
        let keys = hints.hyper_keys(vs, vt);
        let hyper = match &hints.hyper_tree {
            Some(t) => t.prove_keys(&keys).unwrap(),
            None => panic!("test graphs always have borders"),
        };
        let cs = hints.partition.cell_of(vs);
        let ct = hints.partition.cell_of(vt);
        let mut dir_keys = vec![cs as u64];
        if ct != cs {
            dir_keys.push(ct as u64);
        }
        dir_keys.sort();
        let cell_dir = hints.cell_dir.prove_keys(&dir_keys).unwrap();
        (tuples, hyper, cell_dir)
    }

    fn as_map(tuples: &[ExtendedTuple]) -> HashMap<NodeId, &ExtendedTuple> {
        tuples.iter().map(|t| (t.id, t)).collect()
    }

    #[test]
    fn client_recovers_exact_distance_cross_cell() {
        let (g, hints) = setup(600, 9);
        for (s, t) in [(0u32, 143u32), (3, 140), (130, 10)] {
            let (s, t) = (NodeId(s), NodeId(t));
            let p = dijkstra_path(&g, s, t).unwrap();
            let (tuples, hyper, dir) = proof_parts(&g, &hints, s, t, &p.nodes);
            let got = verify_hyp_impl(&as_map(&tuples), &hyper, &dir, s, t, None).unwrap();
            assert!(
                (got - p.distance).abs() <= 1e-9 * p.distance.max(1.0),
                "({s},{t}): got {got}, want {}",
                p.distance
            );
        }
    }

    #[test]
    fn client_recovers_exact_distance_same_cell() {
        let (g, hints) = setup(601, 4);
        // Find two nodes in the same cell.
        let part = &hints.partition;
        let cell0 = (0..part.num_cells() as u32)
            .find(|&c| part.cell_members(c).len() >= 2)
            .unwrap();
        let ms = part.cell_members(cell0);
        let (s, t) = (ms[0], ms[ms.len() - 1]);
        let p = dijkstra_path(&g, s, t).unwrap();
        let (tuples, hyper, dir) = proof_parts(&g, &hints, s, t, &p.nodes);
        let got = verify_hyp_impl(&as_map(&tuples), &hyper, &dir, s, t, None).unwrap();
        assert!((got - p.distance).abs() <= 1e-9 * p.distance.max(1.0));
    }

    #[test]
    fn hyper_edges_are_exact_distances() {
        let (g, hints) = setup(602, 9);
        let borders = hints.partition.all_borders();
        let tree = hints.hyper_tree.as_ref().unwrap();
        for (i, &b1) in borders.iter().enumerate().take(5) {
            for &b2 in borders.iter().skip(i + 1).take(5) {
                let w = tree.get(hyper_key(b1, b2)).unwrap();
                let d = dijkstra_path(&g, b1, b2).unwrap().distance;
                assert!((w - d).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dropped_border_detected_via_directory() {
        // The attack the cell directory exists for: omit a border node
        // of the source cell.
        let (g, hints) = setup(603, 9);
        let (s, t) = (NodeId(0), NodeId(143));
        let p = dijkstra_path(&g, s, t).unwrap();
        let (tuples, hyper, dir) = proof_parts(&g, &hints, s, t, &p.nodes);
        let cs = hints.partition.cell_of(s);
        let victim = hints.partition.cell_borders(cs)[0];
        let reduced: Vec<ExtendedTuple> = tuples.into_iter().filter(|t_| t_.id != victim).collect();
        let err = verify_hyp_impl(&as_map(&reduced), &hyper, &dir, s, t, None);
        assert!(err.is_err(), "incomplete cell must be rejected");
    }

    #[test]
    fn missing_hyper_edge_detected() {
        let (g, hints) = setup(604, 9);
        let (s, t) = (NodeId(0), NodeId(143));
        let p = dijkstra_path(&g, s, t).unwrap();
        let (tuples, mut hyper, dir) = proof_parts(&g, &hints, s, t, &p.nodes);
        // The provider hides the candidate crossings. (Dropping a single
        // entry is only detected when its border pair is in-cell
        // reachable, which depends on the generated graph; an empty
        // entry list fails on the first needed pair unconditionally.)
        hyper.entries.clear();
        hyper.positions.clear();
        let err = verify_hyp_impl(&as_map(&tuples), &hyper, &dir, s, t, None);
        assert!(matches!(err, Err(VerifyError::MissingDistanceKey { .. })));
    }

    #[test]
    fn missing_endpoint_detected() {
        let (g, hints) = setup(605, 9);
        let (s, t) = (NodeId(0), NodeId(143));
        let p = dijkstra_path(&g, s, t).unwrap();
        let (tuples, hyper, dir) = proof_parts(&g, &hints, s, t, &p.nodes);
        let reduced: Vec<ExtendedTuple> = tuples.into_iter().filter(|t_| t_.id != s).collect();
        let err = verify_hyp_impl(&as_map(&reduced), &hyper, &dir, s, t, None);
        assert_eq!(err, Err(VerifyError::MissingEndpointTuple(s)));
    }

    #[test]
    fn trivial_query() {
        let (_, _hints) = setup(606, 4);
        let map = HashMap::new();
        let hyper = KeyedProof {
            entries: vec![],
            positions: vec![],
            merkle: spnet_crypto::merkle::MerkleProof {
                entries: vec![],
                leaf_count: 1,
                fanout: 2,
            },
        };
        let dir = hyper.clone();
        assert_eq!(
            verify_hyp_impl(&map, &hyper, &dir, NodeId(3), NodeId(3), None).unwrap(),
            0.0
        );
    }

    #[test]
    fn same_cell_query_that_must_exit_the_cell() {
        // The optimum between two same-cell nodes can leave the cell:
        // A—B costs 100 directly, but A—C—B (through the other cell)
        // costs 2. Theorem 2's border-pair combination must find it.
        use spnet_graph::GraphBuilder;
        let mut b = GraphBuilder::new();
        let a = b.add_node(1.0, 1.0);
        let b_ = b.add_node(2.0, 1.0);
        let c = b.add_node(9.0, 1.0);
        b.add_edge(a, b_, 100.0).unwrap();
        b.add_edge(a, c, 1.0).unwrap();
        b.add_edge(c, b_, 1.0).unwrap();
        let g = b.build();
        let hints = HypHints::build(&g, 4, 2);
        assert_eq!(hints.partition.cell_of(a), hints.partition.cell_of(b_));
        assert_ne!(hints.partition.cell_of(a), hints.partition.cell_of(c));
        let p = dijkstra_path(&g, a, b_).unwrap();
        assert_eq!(p.distance, 2.0, "optimum goes through the other cell");
        let (tuples, hyper, dir) = proof_parts(&g, &hints, a, b_, &p.nodes);
        let got = verify_hyp_impl(&as_map(&tuples), &hyper, &dir, a, b_, None).unwrap();
        assert_eq!(got, 2.0);
    }

    #[test]
    fn endpoint_on_border_works() {
        // A query whose source IS a border node: the prefix is trivial.
        let (g, hints) = setup(609, 9);
        let borders = hints.partition.all_borders();
        let s = borders[0];
        let t = borders[borders.len() - 1];
        if hints.partition.cell_of(s) == hints.partition.cell_of(t) {
            return; // want a cross-cell query on this seed
        }
        let p = dijkstra_path(&g, s, t).unwrap();
        let (tuples, hyper, dir) = proof_parts(&g, &hints, s, t, &p.nodes);
        let got = verify_hyp_impl(&as_map(&tuples), &hyper, &dir, s, t, None).unwrap();
        assert!((got - p.distance).abs() <= 1e-9 * p.distance.max(1.0));
    }

    #[test]
    fn more_cells_fewer_coarse_nodes() {
        // Figure 13a's mechanism: more cells ⇒ smaller cells ⇒ smaller
        // coarse proof.
        let g = grid_network(16, 16, 1.15, 607);
        let few = HypHints::build(&g, 4, 4);
        let many = HypHints::build(&g, 64, 4);
        let (s, t) = (NodeId(0), NodeId(255));
        assert!(many.coarse_nodes(s, t).len() < few.coarse_nodes(s, t).len());
    }

    #[test]
    fn build_seconds_recorded() {
        let (_, hints) = setup(608, 9);
        assert!(hints.build_seconds >= 0.0);
    }

    #[test]
    fn cell_graph_cache_shares_remaps_and_preserves_results() {
        let (g, hints) = setup(611, 9);
        let queries = [(NodeId(0), NodeId(143)), (NodeId(1), NodeId(142))];
        // An unplanned batch state: the cell-graph cache is shared,
        // while every endpoint takes the solo-Dijkstra fallback.
        let state = HypBatchState::default();
        for &(s, t) in &queries {
            let p = dijkstra_path(&g, s, t).unwrap();
            // A pooled map large enough for both queries (as a batch
            // pool would be): both cells complete + path nodes.
            let (tuples, hyper, dir) = proof_parts(&g, &hints, s, t, &p.nodes);
            let plain = verify_hyp_impl(&as_map(&tuples), &hyper, &dir, s, t, None).unwrap();
            let cached =
                verify_hyp_impl(&as_map(&tuples), &hyper, &dir, s, t, Some(&state)).unwrap();
            assert_eq!(
                plain.to_bits(),
                cached.to_bits(),
                "cache must not change the proven optimum"
            );
        }
        // Both queries touch the same two cells: two remaps total, not
        // four endpoint rebuilds.
        assert_eq!(state.cells.len(), 2);
        // No plan was installed, so no sweeps ran and all four
        // endpoint searches fell back to solo Dijkstras.
        assert_eq!(state.sweep_count(), 0);
        assert_eq!(state.solo_count(), 4);
    }

    #[test]
    fn batch_keys_are_union_of_single_query_keys() {
        let (_, hints) = setup(610, 9);
        let queries = [
            (NodeId(0), NodeId(143)),
            (NodeId(3), NodeId(140)),
            (NodeId(143), NodeId(0)), // swapped cell pair: dedups away
            (NodeId(130), NodeId(10)),
        ];
        let batch = hints.batch_hyper_keys(&queries);
        let mut union: BTreeSet<u64> = BTreeSet::new();
        for &(s, t) in &queries {
            union.extend(hints.hyper_keys(s, t));
        }
        assert_eq!(batch, union.into_iter().collect::<Vec<_>>());
        assert!(batch.windows(2).all(|w| w[0] < w[1]), "sorted + distinct");

        let dirs = hints.batch_dir_keys(&queries);
        let mut dir_union: BTreeSet<u64> = BTreeSet::new();
        for &(s, t) in &queries {
            dir_union.insert(hints.partition.cell_of(s) as u64);
            dir_union.insert(hints.partition.cell_of(t) as u64);
        }
        assert_eq!(dirs, dir_union.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn single_border_cell_proves_an_empty_hyper_key_set() {
        use crate::owner::{DataOwner, SetupConfig};
        use crate::{Client, MethodConfig, ServiceProvider, SpService};
        use rand::{rngs::StdRng, SeedableRng};
        use spnet_graph::GraphBuilder;
        // 2×2 cells. The bottom-left cell {0, 1, 2} reaches the rest of
        // the network only through node 2, so a query inside it needs
        // no hyper-edge at all.
        let mut b = GraphBuilder::new();
        for (x, y) in [
            (0.0, 0.0),
            (1.0, 1.0),
            (2.0, 2.0),
            (8.0, 1.0),
            (9.0, 2.0),
            (1.0, 8.0),
            (2.0, 9.0),
            (8.0, 8.0),
            (9.0, 9.0),
        ] {
            b.add_node(x, y);
        }
        for (u, v, w) in [
            (0u32, 1u32, 1.5),
            (1, 2, 1.5),
            (0, 2, 3.5),
            (2, 3, 6.0),
            (2, 5, 6.5),
            (3, 4, 1.5),
            (3, 7, 7.0),
            (4, 8, 7.0),
            (5, 6, 1.5),
            (6, 7, 7.5),
            (7, 8, 1.5),
        ] {
            b.add_edge(NodeId(u), NodeId(v), w).unwrap();
        }
        let g = b.build();
        let mut rng = StdRng::seed_from_u64(611);
        let p = DataOwner::publish(
            &g,
            &MethodConfig::Hyp { cells: 4 },
            &SetupConfig::default(),
            &mut rng,
        );
        let MethodHints::Hyp { hints, .. } = &p.package.hints else {
            unreachable!("published HYP");
        };
        assert_eq!(hints.partition.cell_borders(0), vec![NodeId(2)]);
        assert!(hints.hyper_keys(NodeId(0), NodeId(1)).is_empty());
        let client = Client::new(p.public_key.clone());
        let queries = [(NodeId(0), NodeId(1)), (NodeId(1), NodeId(0))];

        let provider = ServiceProvider::new(p.package.clone());
        for &(s, t) in &queries {
            let truth = dijkstra_path(&g, s, t).unwrap().distance;
            let a = provider.answer(s, t).unwrap();
            let v = client.verify(s, t, &a).unwrap();
            assert_eq!(v.distance.to_bits(), truth.to_bits(), "({s},{t})");
        }
        let service = SpService::new(p.package);
        let session = service.open_session(client).unwrap();
        for (answer, &(s, t)) in session.query_batch(&queries).unwrap().iter().zip(&queries) {
            let truth = dijkstra_path(&g, s, t).unwrap().distance;
            assert_eq!(
                answer.distance.to_bits(),
                truth.to_bits(),
                "batch ({s},{t})"
            );
        }
    }
}
