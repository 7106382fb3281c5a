//! FULL — fully materialized distances (Section IV-B).
//!
//! The owner materializes `dist(vᵢ, vⱼ)` for **every** pair of nodes
//! and certifies them in a distance Merkle tree; the provider's ΓS is a
//! single tuple `⟨vs.id, vt.id, dist⟩` with its Merkle path.
//!
//! ## Realization
//!
//! The paper prescribes Floyd–Warshall (O(|V|³) time, O(|V|²) space)
//! and a Merkle B-tree over all |V|² tuples. Materializing |V|²
//! digests is memory-prohibitive beyond ~10⁴ nodes, so the tree here is
//! the equivalent **two-level** structure: one *row tree* per source
//! node over its |V| distance tuples, and a *top tree* over the row
//! roots. Only the row roots are retained (O(|V|) memory); the provider
//! regenerates a row on demand (one Dijkstra) when assembling a proof.
//! Construction still performs the full all-pairs computation and hashes
//! all |V|² tuples — exactly the cost the paper's Figures 8c/9b measure
//! — and proof size stays O(f·log|V|). The two-level root commits to
//! the same |V|² tuples, so the substitution changes memory, not what
//! the signature certifies.

use crate::ads::{AdsMeta, AdsTag, SignedRoot};
use crate::batch::{AuxContext, BatchAux, BatchVerifyState};
use crate::enc::Wire;
use crate::error::{ProviderError, VerifyError};
use crate::methods::{AuthMethod, MethodConfig, MethodParams, TupleMap, VerifyCtx};
use crate::owner::{MethodHints, ProviderPackage, SetupConfig};
use crate::proof::SpProof;
use crate::snapshot::{self, SnapshotError};
use crate::tuple::ExtendedTuple;
use spnet_crypto::cache::{PageCache, PageCacheCfg};
use spnet_crypto::digest::Digest;
use spnet_crypto::mbtree::{composite_key, split_key, KeyedEntry};
use spnet_crypto::merkle::{MerkleProof, MerkleTree};
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::algo::floyd_warshall;
use spnet_graph::algo::floyd_warshall::DistanceMatrix;
use spnet_graph::path::close;
use spnet_graph::search::with_thread_workspace;
use spnet_graph::{Graph, NodeId, Path};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// The FULL method's authenticated distance structure.
#[derive(Debug, Clone)]
pub struct DistanceAds {
    fanout: usize,
    /// Tree over the row roots: its leaf `s` is the root of source
    /// `s`'s row tree.
    top: MerkleTree,
    /// Floyd–Warshall mode retains the full matrix (the paper's FULL
    /// stores all O(|V|²) distances at the provider; it is only
    /// feasible for small networks anyway). Dijkstra mode regenerates
    /// rows on demand instead, keeping memory O(|V|).
    matrix: Option<DistanceMatrix>,
    /// Provider-side LRU over hot sources: proving a row costs one
    /// Dijkstra (Dijkstra mode) plus |V| leaf hashes either way, so
    /// repeated-source batches reuse the regenerated row tree instead
    /// of rebuilding it per batch.
    row_cache: PageCache<RowEntry>,
}

/// One cached source row: its distance values and rebuilt row tree.
#[derive(Debug)]
struct RowEntry {
    values: Vec<f64>,
    tree: MerkleTree,
}

/// Default number of hot source rows a provider retains.
const ROW_CACHE_CAPACITY: usize = 64;

/// An empty hot-source LRU. The cache is pure memoization of a
/// deterministic function of the immutable graph, so hits and misses
/// never change proof bytes, and a cloned [`DistanceAds`] starts with an
/// empty one ([`PageCache`]'s `Clone`).
fn row_cache() -> PageCache<RowEntry> {
    PageCache::new(PageCacheCfg::with_capacity(ROW_CACHE_CAPACITY))
}

/// Construction statistics (reported by the benchmark harness).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FullBuildStats {
    /// Number of materialized distance tuples (|V|²).
    pub tuples: u64,
    /// Wall-clock seconds of the all-pairs computation + hashing.
    pub seconds: f64,
}

impl DistanceAds {
    /// Builds the distance ADS.
    ///
    /// With `use_floyd_warshall` the all-pairs matrix is computed by the
    /// paper's O(|V|³) algorithm first; otherwise each row comes from
    /// one Dijkstra (identical output).
    pub fn build(g: &Graph, fanout: usize, use_floyd_warshall: bool) -> (Self, FullBuildStats) {
        let start = std::time::Instant::now();
        let n = g.num_nodes();
        assert!(n > 0, "empty graph");
        let fw = use_floyd_warshall.then(|| floyd_warshall::floyd_warshall(g));
        let top =
            MerkleTree::build(build_row_roots(g, fw.as_ref(), fanout), fanout).expect("non-empty");
        let stats = FullBuildStats {
            tuples: (n as u64) * (n as u64),
            seconds: start.elapsed().as_secs_f64(),
        };
        (
            DistanceAds {
                fanout,
                top,
                matrix: fw,
                row_cache: row_cache(),
            },
            stats,
        )
    }

    /// The signed root digest.
    pub fn root(&self) -> Digest {
        self.top.root()
    }

    /// Signed-meta for this structure.
    pub fn meta(&self) -> AdsMeta {
        AdsMeta {
            tag: AdsTag::Distance,
            leaf_count: (self.top.leaf_count() as u64).pow(2),
            fanout: self.fanout as u32,
            params: Vec::new(),
        }
    }

    /// Owner-side signing helper.
    pub fn sign(&self, keypair: &RsaKeyPair) -> SignedRoot {
        SignedRoot::sign(keypair, self.root(), self.meta())
    }

    /// Regenerates the materialized distance row of source `vs` (from
    /// the retained matrix in Floyd–Warshall mode, or one Dijkstra).
    fn row_values(&self, g: &Graph, vs: NodeId) -> Vec<f64> {
        match &self.matrix {
            Some(m) => m.row(vs.index()).to_vec(),
            None => with_thread_workspace(|ws| ws.sssp(g, vs).dist_vec()),
        }
    }

    /// The (values, row tree) of source `vs`, through the hot-source
    /// LRU: a repeated source costs a cache lookup instead of a
    /// Dijkstra + |V| leaf hashes.
    fn cached_row(&self, g: &Graph, vs: NodeId) -> Arc<RowEntry> {
        if let Some(hit) = self.row_cache.get(vs.0 as u64) {
            return hit;
        }
        let values = self.row_values(g, vs);
        let tree = row_tree(vs.0, &values, self.fanout);
        debug_assert_eq!(Some(tree.root()), self.top.leaf(vs.index()));
        self.row_cache
            .insert(vs.0 as u64, Arc::new(RowEntry { values, tree }))
    }

    /// Provider side: assembles the distance proof for `(vs, vt)`.
    ///
    /// Regenerates row `vs` with one Dijkstra (the materialized values
    /// are a deterministic function of the owner's graph, which the
    /// provider holds) unless the hot-source LRU still holds it.
    pub fn prove(&self, g: &Graph, vs: NodeId, vt: NodeId) -> FullDistanceProof {
        let row = self.cached_row(g, vs);
        let row_proof = row
            .tree
            .prove([vt.index()].into_iter().collect())
            .expect("row proof");
        let top_proof = self
            .top
            .prove([vs.index()].into_iter().collect())
            .expect("top proof");
        FullDistanceProof {
            entry: entry(vs.0, vt.0, row.values[vt.index()]),
            row_index: vt.0,
            row_proof,
            top_index: vs.0,
            top_proof,
        }
    }

    /// Provider side, batched: one pooled proof for all `pairs`.
    ///
    /// Queries are grouped by source row, so a row is regenerated (one
    /// Dijkstra + |V| leaf hashes) **once per distinct source** no
    /// matter how many queries read it, every row proof is a single
    /// multi-target Merkle cover, and one shared top-tree cover spans
    /// all touched rows. Row assembly fans out over threads via the
    /// crate's `par::map_jobs`.
    pub fn prove_batch(&self, g: &Graph, pairs: &[(NodeId, NodeId)]) -> FullBatchProof {
        let mut by_source: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
        for &(vs, vt) in pairs {
            by_source.entry(vs.0).or_default().insert(vt.0);
        }
        let groups: Vec<(u32, Vec<u32>)> = by_source
            .into_iter()
            .map(|(s, ts)| (s, ts.into_iter().collect()))
            .collect();
        let rows = crate::par::map_jobs(&groups, |(s, targets)| {
            let vs = NodeId(*s);
            let row = self.cached_row(g, vs);
            let row_proof = row
                .tree
                .prove(targets.iter().map(|&t| t as usize).collect())
                .expect("row proof");
            FullRowProof {
                source: *s,
                entries: targets
                    .iter()
                    .map(|&t| entry(*s, t, row.values[t as usize]))
                    .collect(),
                row_proof,
            }
        });
        let top_proof = self
            .top
            .prove(rows.iter().map(|r| r.source as usize).collect())
            .expect("top proof");
        FullBatchProof { rows, top_proof }
    }

    /// Owner-side incremental repair: recomputes the given source rows
    /// on the (already-patched) graph, patches their row roots and
    /// top-tree leaf paths in place, and drops the hot-row cache
    /// (cached rows of dirty sources are stale). In Floyd–Warshall
    /// mode the retained matrix rows are overwritten with the
    /// recomputed values so row digests stay consistent with what the
    /// provider re-serves. Returns the number of rows repaired.
    pub(crate) fn repair_rows(
        &mut self,
        g: &Graph,
        rows: &[u32],
    ) -> Result<usize, crate::update::UpdateError> {
        let fresh: Vec<(u32, Vec<f64>)> = crate::par::map_jobs(rows, |&s| {
            let row = with_thread_workspace(|ws| ws.sssp(g, NodeId(s)).dist_vec());
            (s, row)
        });
        let mut roots = Vec::with_capacity(fresh.len());
        for (s, row) in fresh {
            if let Some(m) = &mut self.matrix {
                m.set_row(s as usize, &row);
            }
            roots.push((s as usize, row_tree(s, &row, self.fanout).root()));
        }
        roots.sort_by_key(|&(s, _)| s);
        self.top
            .update_leaves(&roots)
            .map_err(|e| crate::update::UpdateError::Rebuild(e.to_string()))?;
        self.row_cache = row_cache();
        Ok(rows.len())
    }
}

/// Builds the row tree of source `s` from its values.
fn row_tree(s: u32, row: &[f64], fanout: usize) -> MerkleTree {
    let leaves: Vec<Digest> = row
        .iter()
        .enumerate()
        .map(|(t, &d)| entry(s, t as u32, d).digest())
        .collect();
    MerkleTree::build(leaves, fanout).expect("non-empty row")
}

/// One Merkle row-root per source node.
///
/// The all-pairs computation + |V|² tuple hashing is the paper's FULL
/// construction cost (Figures 8c/9b); the sources fan out over
/// threads, each reusing its thread's search workspace. Rows are
/// independent deterministic functions of the graph, so the roots do
/// not depend on the split.
fn build_row_roots(g: &Graph, fw: Option<&DistanceMatrix>, fanout: usize) -> Vec<Digest> {
    let sources: Vec<usize> = (0..g.num_nodes()).collect();
    crate::par::map_jobs(&sources, |&s| match fw {
        Some(m) => row_tree(s as u32, m.row(s), fanout).root(),
        None => with_thread_workspace(|ws| {
            let row = ws.sssp(g, NodeId(s as u32)).dist_vec();
            row_tree(s as u32, &row, fanout).root()
        }),
    })
}

fn entry(s: u32, t: u32, d: f64) -> KeyedEntry {
    KeyedEntry {
        key: composite_key(s, t),
        value: d,
    }
}

/// The FULL distance proof: one materialized tuple plus its two-level
/// Merkle path.
#[derive(Debug, Clone, PartialEq)]
pub struct FullDistanceProof {
    /// The tuple `⟨vs.id, vt.id, dist(vs, vt)⟩`.
    pub entry: KeyedEntry,
    /// Leaf index of `vt` in the row tree.
    pub row_index: u32,
    /// Row-tree cover digests.
    pub row_proof: MerkleProof,
    /// Leaf index of `vs` in the top tree.
    pub top_index: u32,
    /// Top-tree cover digests.
    pub top_proof: MerkleProof,
}

impl FullDistanceProof {
    /// Number of digest items (the paper's S-prf count for FULL).
    pub fn num_items(&self) -> usize {
        1 + self.row_proof.num_items() + self.top_proof.num_items()
    }

    /// Client side: checks the proof against the signed distance root
    /// and returns the authenticated `dist(vs, vt)`.
    pub fn verify(&self, vs: NodeId, vt: NodeId, signed_root: &Digest) -> Result<f64, VerifyError> {
        if self.entry.key != composite_key(vs.0, vt.0) {
            return Err(VerifyError::MissingDistanceKey { a: vs, b: vt });
        }
        let row_root = self
            .row_proof
            .reconstruct_root(&[(self.row_index as usize, self.entry.digest())])
            .map_err(|e| VerifyError::MalformedIntegrityProof(e.to_string()))?;
        let top_root = self
            .top_proof
            .reconstruct_root(&[(self.top_index as usize, row_root)])
            .map_err(|e| VerifyError::MalformedIntegrityProof(e.to_string()))?;
        if top_root != *signed_root {
            return Err(VerifyError::RootMismatch);
        }
        Ok(self.entry.value)
    }
}

/// One source row's slice of a batched FULL proof: the distance
/// entries of every target queried from that source plus a single
/// multi-leaf Merkle cover over the row tree.
#[derive(Debug, Clone, PartialEq)]
pub struct FullRowProof {
    /// Source node id — also the row's leaf index in the top tree.
    pub source: u32,
    /// Distance entries for the queried targets, ascending by target
    /// id. Row-tree leaf positions are the target ids carried in the
    /// composite keys, so positions need not ship separately.
    pub entries: Vec<KeyedEntry>,
    /// Row-tree cover digests for all entry positions at once.
    pub row_proof: MerkleProof,
}

/// FULL's batched ΓS: per-source row proofs sharing one top-tree cover
/// (and, at the batch layer, one signed distance root for all of them).
#[derive(Debug, Clone, PartialEq)]
pub struct FullBatchProof {
    /// Row proofs, strictly ascending by source id.
    pub rows: Vec<FullRowProof>,
    /// Top-tree cover digests spanning every touched row root.
    pub top_proof: MerkleProof,
}

impl FullBatchProof {
    /// Number of digest/entry items (the batched S-prf count).
    pub fn num_items(&self) -> usize {
        self.rows
            .iter()
            .map(|r| r.entries.len() + r.row_proof.num_items())
            .sum::<usize>()
            + self.top_proof.num_items()
    }

    /// Client side: authenticates every carried entry against the
    /// signed distance root **once**, returning the proven distances
    /// keyed by `composite_key(vs, vt)`.
    ///
    /// Entry digests bind `(source, target, dist)`, row positions are
    /// derived from the keys, and the reconstructed two-level root must
    /// equal `signed_root` — so a provider can neither move, swap nor
    /// alter any pooled entry without detection.
    pub fn verify(&self, signed_root: &Digest) -> Result<HashMap<u64, f64>, VerifyError> {
        let mut top_leaves: Vec<(usize, Digest)> = Vec::with_capacity(self.rows.len());
        let mut proven: HashMap<u64, f64> = HashMap::new();
        let mut last_source: Option<u32> = None;
        for row in &self.rows {
            if last_source.is_some_and(|p| p >= row.source) {
                return Err(VerifyError::MalformedIntegrityProof(
                    "batch row sources not strictly ascending".into(),
                ));
            }
            last_source = Some(row.source);
            let mut leaves = Vec::with_capacity(row.entries.len());
            for e in &row.entries {
                let (s, t) = split_key(e.key);
                if s != row.source {
                    return Err(VerifyError::MalformedIntegrityProof(
                        "batch row entry keyed outside its row".into(),
                    ));
                }
                leaves.push((t as usize, e.digest()));
                proven.insert(e.key, e.value);
            }
            let row_root = row
                .row_proof
                .reconstruct_root(&leaves)
                .map_err(|e| VerifyError::MalformedIntegrityProof(e.to_string()))?;
            top_leaves.push((row.source as usize, row_root));
        }
        let top_root = self
            .top_proof
            .reconstruct_root(&top_leaves)
            .map_err(|e| VerifyError::MalformedIntegrityProof(e.to_string()))?;
        if top_root != *signed_root {
            return Err(VerifyError::RootMismatch);
        }
        Ok(proven)
    }
}

/// FULL's [`AuthMethod`] implementation: the all-pairs distance ADS as
/// hints, a single authenticated `⟨vs, vt, dist⟩` tuple (plus the
/// reported path's tuples) as ΓS, two Merkle path reconstructions as
/// verification.
#[derive(Debug, Clone, Copy, Default)]
pub struct FullMethod;

impl FullMethod {
    /// The FULL hints out of a provider package.
    fn hints(pkg: &ProviderPackage) -> (&DistanceAds, &SignedRoot) {
        match &pkg.hints {
            MethodHints::Full {
                ads, signed_root, ..
            } => (ads, signed_root),
            _ => unreachable!("FullMethod dispatched with non-FULL hints"),
        }
    }
}

impl AuthMethod for FullMethod {
    fn name(&self) -> &'static str {
        "FULL"
    }

    fn params_code(&self) -> u8 {
        2
    }

    fn build_hints(
        &self,
        g: &Graph,
        config: &MethodConfig,
        setup: &SetupConfig,
        keypair: &RsaKeyPair,
    ) -> (MethodHints, MethodParams) {
        let MethodConfig::Full { use_floyd_warshall } = config else {
            unreachable!("FullMethod dispatched with non-FULL config");
        };
        let (ads, stats) = DistanceAds::build(g, setup.fanout, *use_floyd_warshall);
        let signed_root = ads.sign(keypair);
        (
            MethodHints::Full {
                ads,
                signed_root,
                stats,
            },
            MethodParams::Full,
        )
    }

    fn make_tuple(&self, g: &Graph, v: NodeId, _hints: &MethodHints) -> ExtendedTuple {
        ExtendedTuple::base(g, v)
    }

    fn wants_change_dists(&self) -> bool {
        true
    }

    /// FULL repair: a materialized distance `d(s, t)` can only change
    /// if a shortest tree rooted at `s` routes through the updated
    /// edge, which requires `|d(s,u) − d(s,v)|` to reach the edge
    /// weight (before or after the change). Rows failing that test on
    /// both graphs are untouched — their roots, matrix bits and proof
    /// bytes stay identical to a fresh build. One re-sign total.
    fn repair_hints(
        &self,
        g: &Graph,
        change: &crate::methods::EdgeChange,
        hints: &mut MethodHints,
        keypair: &RsaKeyPair,
    ) -> Result<crate::methods::DirtySet, crate::update::UpdateError> {
        let MethodHints::Full {
            ads, signed_root, ..
        } = hints
        else {
            return Err(crate::update::UpdateError::Rebuild(
                "FULL repair dispatched with non-FULL hints".into(),
            ));
        };
        let old = change.old_dists.as_ref().ok_or_else(|| {
            crate::update::UpdateError::Rebuild("missing pre-update endpoint distances".into())
        })?;
        let du_new = with_thread_workspace(|ws| ws.sssp(g, change.u).dist_vec());
        let dv_new = with_thread_workspace(|ws| ws.sssp(g, change.v).dist_vec());
        let dirty_rows: Vec<u32> = (0..g.num_nodes() as u32)
            .filter(|&s| {
                let i = s as usize;
                crate::update::edge_is_tight(old.from_u[i], old.from_v[i], change.old_weight)
                    || crate::update::edge_is_tight(du_new[i], dv_new[i], change.new_weight)
            })
            .collect();
        let repaired = ads.repair_rows(g, &dirty_rows)?;
        *signed_root = ads.sign(keypair);
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
        let MethodHints::Full {
            ads,
            signed_root,
            stats,
        } = hints
        else {
            return Err(SnapshotError::Corrupt("FULL hints expected"));
        };
        w.blob(snapshot::SEC_FULL_SIGNED, &signed_root.to_bytes())?;
        let config = (
            ads.fanout as u32,
            ads.top.leaf_count() as u64,
            stats.tuples,
            stats.seconds,
            ads.matrix.is_some(),
        );
        w.blob(snapshot::SEC_FULL_CONFIG, &config.to_bytes())?;
        w.paged(
            snapshot::SEC_FULL_ROWROOTS,
            &ads.top.dense_levels()[0].to_bytes()?,
            snapshot::PAGE_BYTES,
        )?;
        // Floyd–Warshall mode must persist the matrix raw: FW and
        // Dijkstra sum in different orders, and row digests hash the
        // exact f64 bit patterns.
        if let Some(m) = &ads.matrix {
            let raw: Vec<u8> = m.raw().iter().flat_map(|d| d.to_le_bytes()).collect();
            w.paged(snapshot::SEC_FULL_MATRIX, &raw, 4096)?;
        }
        Ok(())
    }

    fn load_hints(
        &self,
        g: &Graph,
        store: &spnet_store::NodeStore,
    ) -> Result<MethodHints, SnapshotError> {
        let signed_root = SignedRoot::from_bytes(&store.blob(snapshot::SEC_FULL_SIGNED)?)?;
        let (fanout, n, tuples, seconds, has_matrix) =
            <(u32, u64, u64, f64, bool)>::from_bytes(&store.blob(snapshot::SEC_FULL_CONFIG)?)?;
        let (fanout, n) = (fanout as usize, n as usize);
        if n != g.num_nodes() || fanout < 2 {
            return Err(SnapshotError::Corrupt("FULL geometry mismatch"));
        }
        let row_roots =
            snapshot::digests_from_bytes(&store.paged_all(snapshot::SEC_FULL_ROWROOTS)?)?;
        if row_roots.len() != n {
            return Err(SnapshotError::Corrupt("FULL row-root count mismatch"));
        }
        let matrix = if has_matrix {
            let raw = store.paged_all(snapshot::SEC_FULL_MATRIX)?;
            if raw.len() != n * n * 8 {
                return Err(SnapshotError::Corrupt("FULL matrix size mismatch"));
            }
            let data: Vec<f64> = raw
                .chunks_exact(8)
                .map(|c| f64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
                .collect();
            Some(
                DistanceMatrix::from_raw(n, data)
                    .ok_or(SnapshotError::Corrupt("FULL matrix shape"))?,
            )
        } else {
            None
        };
        // The top tree is O(|V|) digests — rebuilding it from the
        // persisted row roots is cheap on both backends and reproduces
        // the owner's tree bit-identically.
        let top = MerkleTree::build(row_roots, fanout)?;
        let ads = DistanceAds {
            fanout,
            top,
            matrix,
            row_cache: row_cache(),
        };
        if signed_root.root != ads.root() || signed_root.meta != ads.meta() {
            return Err(SnapshotError::Corrupt(
                "FULL signed root does not match loaded distance tree",
            ));
        }
        Ok(MethodHints::Full {
            ads,
            signed_root,
            stats: FullBuildStats { tuples, seconds },
        })
    }

    fn prove(
        &self,
        pkg: &ProviderPackage,
        vs: NodeId,
        vt: NodeId,
        path: &Path,
    ) -> Result<(SpProof, Vec<NodeId>), ProviderError> {
        let (dads, signed_root) = Self::hints(pkg);
        let full = dads.prove(&pkg.graph, vs, vt);
        let path_tuples: Vec<Arc<ExtendedTuple>> = path
            .nodes
            .iter()
            .map(|&v| pkg.ads.tuple_shared(v))
            .collect();
        Ok((
            SpProof::Distance {
                full,
                signed_root: signed_root.clone(),
                path_tuples,
            },
            path.nodes.clone(),
        ))
    }

    fn batch_members(
        &self,
        _pkg: &ProviderPackage,
        _vs: NodeId,
        _vt: NodeId,
        path: &Path,
    ) -> Vec<NodeId> {
        // FULL proves the optimum from the distance tree; the pool only
        // authenticates the reported path.
        path.nodes.clone()
    }

    fn prove_batch(
        &self,
        pkg: &ProviderPackage,
        queries: &[(NodeId, NodeId)],
    ) -> Result<BatchAux, ProviderError> {
        let (dads, signed_root) = Self::hints(pkg);
        Ok(BatchAux::Full {
            proof: dads.prove_batch(&pkg.graph, queries),
            signed_root: signed_root.clone(),
        })
    }

    fn matches_proof(&self, sp: &SpProof) -> bool {
        matches!(sp, SpProof::Distance { .. })
    }

    fn verify(
        &self,
        ctx: &VerifyCtx<'_>,
        _params: &MethodParams,
        sp: &SpProof,
        _tuples: &TupleMap<'_>,
        vs: NodeId,
        vt: NodeId,
    ) -> Result<f64, VerifyError> {
        let SpProof::Distance {
            full, signed_root, ..
        } = sp
        else {
            return Err(VerifyError::MetaMismatch(
                "proof shape does not match method",
            ));
        };
        // A root pinned at session open was RSA-verified there; byte
        // equality replaces the signature check.
        if !ctx.trusts(signed_root) && !signed_root.verify(ctx.pk) {
            return Err(VerifyError::BadSignature);
        }
        full.verify(vs, vt, &signed_root.root)
    }

    fn verify_batch_aux<'a>(
        &self,
        ctx: &VerifyCtx<'_>,
        _params: &MethodParams,
        aux: &'a BatchAux,
    ) -> Result<AuxContext<'a>, VerifyError> {
        match aux {
            BatchAux::Full { proof, signed_root } => {
                if !ctx.trusts(signed_root) && !signed_root.verify(ctx.pk) {
                    return Err(VerifyError::BadSignature);
                }
                Ok(AuxContext::Full(proof.verify(&signed_root.root)?))
            }
            _ => Err(VerifyError::MetaMismatch(
                "batch proof shape does not match signed method",
            )),
        }
    }

    fn verify_batch_query(
        &self,
        _params: &MethodParams,
        ctx: &AuxContext<'_>,
        _state: &BatchVerifyState,
        _tuples: &TupleMap<'_>,
        vs: NodeId,
        vt: NodeId,
    ) -> Result<f64, VerifyError> {
        let AuxContext::Full(dists) = ctx else {
            unreachable!("verify_batch_aux checked the pairing");
        };
        dists
            .get(&composite_key(vs.0, vt.0))
            .copied()
            .ok_or(VerifyError::MissingDistanceKey { a: vs, b: vt })
    }

    fn prove_range_aux(
        &self,
        pkg: &ProviderPackage,
        source: NodeId,
        members: &[(NodeId, f64)],
    ) -> Result<BatchAux, ProviderError> {
        // One pooled row proof attests every member distance under the
        // signed distance tree — all members share the source's row, so
        // the whole attestation is one multi-target row cover.
        let pairs: Vec<(NodeId, NodeId)> = members.iter().map(|&(v, _)| (source, v)).collect();
        self.prove_batch(pkg, &pairs)
    }

    fn verify_range_aux(
        &self,
        ctx: &VerifyCtx<'_>,
        params: &MethodParams,
        aux: &BatchAux,
        source: NodeId,
        members: &[(NodeId, f64)],
    ) -> Result<(), VerifyError> {
        // Rejects a Subgraph downgrade outright (the signed method is
        // FULL, so the aux must carry the distance-tree attestation).
        let AuxContext::Full(dists) = self.verify_batch_aux(ctx, params, aux)? else {
            unreachable!("FULL verify_batch_aux yields a Full context");
        };
        for &(v, claimed) in members {
            let proven = dists
                .get(&composite_key(source.0, v.0))
                .copied()
                .ok_or(VerifyError::MissingDistanceKey { a: source, b: v })?;
            if !close(claimed, proven) {
                return Err(VerifyError::RangeDistanceMismatch {
                    node: v,
                    claimed,
                    recomputed: proven,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spnet_graph::algo::dijkstra_path;
    use spnet_graph::gen::grid_network;

    fn build(seed: u64, fw: bool) -> (Graph, DistanceAds) {
        let g = grid_network(7, 7, 1.15, seed);
        let (ads, stats) = DistanceAds::build(&g, 4, fw);
        assert_eq!(stats.tuples, 49 * 49);
        (g, ads)
    }

    #[test]
    fn floyd_warshall_and_dijkstra_builds_agree_semantically() {
        // Summation order differs between the two algorithms, so the
        // hashed f64 bit patterns (hence roots) may differ; the proven
        // distances must still agree within float tolerance and each
        // proof must verify against its own signed root.
        let (g, a1) = build(400, true);
        let (_, a2) = build(400, false);
        for (s, t) in [(0u32, 48u32), (5, 17)] {
            let (s, t) = (NodeId(s), NodeId(t));
            let d1 = a1.prove(&g, s, t).verify(s, t, &a1.root()).unwrap();
            let d2 = a2.prove(&g, s, t).verify(s, t, &a2.root()).unwrap();
            assert!((d1 - d2).abs() <= 1e-9 * d1.max(1.0));
        }
    }

    #[test]
    fn prove_verify_round_trip() {
        let (g, ads) = build(401, false);
        let root = ads.root();
        for (s, t) in [(0u32, 48u32), (3, 40), (48, 0), (7, 7)] {
            let (s, t) = (NodeId(s), NodeId(t));
            let proof = ads.prove(&g, s, t);
            let d = proof.verify(s, t, &root).unwrap();
            let expected = if s == t {
                0.0
            } else {
                dijkstra_path(&g, s, t).unwrap().distance
            };
            assert!((d - expected).abs() < 1e-9, "({s},{t})");
        }
    }

    #[test]
    fn forged_distance_detected() {
        let (g, ads) = build(402, false);
        let (s, t) = (NodeId(0), NodeId(30));
        let mut proof = ads.prove(&g, s, t);
        proof.entry.value *= 2.0;
        assert_eq!(
            proof.verify(s, t, &ads.root()),
            Err(VerifyError::RootMismatch)
        );
    }

    #[test]
    fn wrong_pair_detected() {
        let (g, ads) = build(403, false);
        let proof = ads.prove(&g, NodeId(0), NodeId(30));
        // Presenting the proof for a different query pair.
        assert!(matches!(
            proof.verify(NodeId(0), NodeId(31), &ads.root()),
            Err(VerifyError::MissingDistanceKey { .. })
        ));
    }

    #[test]
    fn moved_indices_detected() {
        let (g, ads) = build(404, false);
        let (s, t) = (NodeId(2), NodeId(9));
        let mut proof = ads.prove(&g, s, t);
        proof.row_index += 1;
        let r = proof.verify(s, t, &ads.root());
        assert!(
            r == Err(VerifyError::RootMismatch)
                || matches!(r, Err(VerifyError::MalformedIntegrityProof(_)))
        );
    }

    #[test]
    fn proof_size_logarithmic() {
        let g = grid_network(16, 16, 1.1, 405);
        let (ads, _) = DistanceAds::build(&g, 4, false);
        let proof = ads.prove(&g, NodeId(0), NodeId(255));
        // Two trees of 256 leaves at fanout 4: 4 levels each, ≤ 3 cover
        // digests per level.
        assert!(proof.num_items() <= 1 + 2 * 4 * 3 + 2);
        assert!(proof.encoded_len() < 1500, "{}", proof.encoded_len());
    }

    #[test]
    fn build_stats_sane() {
        let g = grid_network(5, 5, 1.1, 406);
        let (_, stats) = DistanceAds::build(&g, 2, true);
        assert_eq!(stats.tuples, 625);
        assert!(stats.seconds >= 0.0);
    }

    const BATCH_PAIRS: [(u32, u32); 5] = [(0, 48), (0, 30), (3, 40), (48, 0), (7, 7)];

    fn batch_pairs() -> Vec<(NodeId, NodeId)> {
        BATCH_PAIRS
            .iter()
            .map(|&(s, t)| (NodeId(s), NodeId(t)))
            .collect()
    }

    #[test]
    fn batch_proof_matches_single_proofs() {
        let (g, ads) = build(407, false);
        let pairs = batch_pairs();
        let batch = ads.prove_batch(&g, &pairs);
        let proven = batch.verify(&ads.root()).unwrap();
        for &(s, t) in &pairs {
            let single = ads.prove(&g, s, t).verify(s, t, &ads.root()).unwrap();
            let batched = proven[&composite_key(s.0, t.0)];
            assert_eq!(batched.to_bits(), single.to_bits(), "({s},{t})");
        }
        // Queries sharing a source share one row proof.
        assert_eq!(batch.rows.len(), 4, "4 distinct sources");
    }

    #[test]
    fn batch_proof_smaller_than_single_sum() {
        let (g, ads) = build(408, false);
        let pairs = batch_pairs();
        let batch = ads.prove_batch(&g, &pairs);
        let singles: usize = pairs
            .iter()
            .map(|&(s, t)| ads.prove(&g, s, t).encoded_len())
            .sum();
        assert!(
            batch.encoded_len() < singles,
            "batch {} ≥ single sum {}",
            batch.encoded_len(),
            singles
        );
    }

    #[test]
    fn batch_tampered_entry_detected() {
        let (g, ads) = build(409, false);
        let pairs = batch_pairs();
        let honest = ads.prove_batch(&g, &pairs);
        for row in 0..honest.rows.len() {
            let mut evil = honest.clone();
            evil.rows[row].entries[0].value += 1.0;
            assert!(
                matches!(evil.verify(&ads.root()), Err(VerifyError::RootMismatch)),
                "row {row}"
            );
        }
    }

    #[test]
    fn batch_swapped_key_detected() {
        let (g, ads) = build(410, false);
        let pairs = batch_pairs();
        let honest = ads.prove_batch(&g, &pairs);
        // Re-keying an entry to a different target moves its claimed
        // leaf position: the reconstruction must fail or mismatch.
        let mut evil = honest.clone();
        let e = &mut evil.rows[0].entries[0];
        e.key = composite_key(split_key(e.key).0, split_key(e.key).1 + 1);
        assert!(evil.verify(&ads.root()).is_err());
        // Re-keying it to a different *row* is rejected outright.
        let mut evil2 = honest;
        evil2.rows[0].entries[0].key = composite_key(u32::MAX, 0);
        assert!(matches!(
            evil2.verify(&ads.root()),
            Err(VerifyError::MalformedIntegrityProof(_))
        ));
    }

    #[test]
    fn row_cache_reuses_hot_sources_across_proofs() {
        let (g, ads) = build(412, false);
        assert_eq!(ads.row_cache.len(), 0);
        let p1 = ads.prove(&g, NodeId(0), NodeId(30));
        assert_eq!(ads.row_cache.len(), 1, "first proof fills the cache");
        let p2 = ads.prove(&g, NodeId(0), NodeId(31));
        assert_eq!(ads.row_cache.len(), 1, "same source hits, not refills");
        assert!(p1.verify(NodeId(0), NodeId(30), &ads.root()).is_ok());
        assert!(p2.verify(NodeId(0), NodeId(31), &ads.root()).is_ok());
        // Batches reuse rows across calls and stay byte-identical.
        let pairs = batch_pairs();
        let b1 = ads.prove_batch(&g, &pairs);
        let b2 = ads.prove_batch(&g, &pairs);
        assert_eq!(b1, b2, "cached rows must not change proof bytes");
        assert!(b1.verify(&ads.root()).is_ok());
        // A clone starts cold (memoization is per-instance).
        assert_eq!(ads.clone().row_cache.len(), 0);
    }

    #[test]
    fn row_cache_evicts_least_recently_used() {
        let mk = |n: u32| {
            Arc::new(RowEntry {
                values: vec![n as f64],
                tree: MerkleTree::build(vec![Digest::ZERO], 2).unwrap(),
            })
        };
        let rc = PageCache::new(PageCacheCfg::with_capacity(2));
        rc.insert(1, mk(1));
        rc.insert(2, mk(2));
        assert!(rc.get(1).is_some()); // refresh 1 → LRU is 2
        rc.insert(3, mk(3));
        assert!(rc.get(2).is_none(), "LRU entry evicted");
        assert!(rc.get(1).is_some() && rc.get(3).is_some());
        assert_eq!(rc.len(), 2);
    }

    #[test]
    fn batch_unsorted_rows_rejected() {
        let (g, ads) = build(411, false);
        let pairs = batch_pairs();
        let mut evil = ads.prove_batch(&g, &pairs);
        assert!(evil.rows.len() >= 2);
        evil.rows.swap(0, 1);
        assert!(matches!(
            evil.verify(&ads.root()),
            Err(VerifyError::MalformedIntegrityProof(_))
        ));
    }
}
