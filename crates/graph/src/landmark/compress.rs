//! Reference-node compression of quantized distance vectors
//! (Section V-A "Compression of Distance Vectors").
//!
//! Each node `v` either keeps its full quantized vector (it is a
//! *representative*, or too far from every representative) or stores
//! only a reference node `v.θ` and compression error
//! `v.ε = ϱ(v, v.θ) ≤ ξ`.
//!
//! Lemma 4: for any pair `(v, v′)`,
//! `distLB^loose(v.θ, v′.θ) − (v.ε + v′.ε) ≤ distLB^loose(v, v′)`,
//! so the compressed bound remains admissible.
//!
//! Two strategies:
//! * [`CompressionStrategy::GreedyExact`] — the paper's iterative greedy
//!   algorithm (pick the node covering the most uncompressed nodes
//!   within ξ; O(|V|²·c) per round — use on small graphs).
//! * [`CompressionStrategy::HilbertSweep`] — scalable substitute: scan
//!   nodes in Hilbert order, open a new representative whenever the
//!   current one's error would exceed ξ. Same ε ≤ ξ guarantee (all that
//!   Lemma 4 requires); compression ratio is close to greedy on road
//!   networks because vector similarity tracks spatial proximity, and
//!   one sweep avoids greedy's O(|V|²·c) rounds.

use crate::graph::Graph;
use crate::ids::NodeId;
use crate::landmark::quantize::{self, diff_from_indices, QuantizedVectors};
use crate::landmark::vectors::LandmarkVectors;
use crate::order::hilbert_order;
use std::sync::Arc;

/// How the owner compresses quantized vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompressionStrategy {
    /// The paper's greedy max-coverage algorithm.
    GreedyExact,
    /// Hilbert-order sweep (scalable approximation).
    HilbertSweep,
}

// The snapshot's compression byte.
spnet_bytes::wire_enum!(CompressionStrategy {
    0 => GreedyExact,
    1 => HilbertSweep,
});

/// Per-node compressed representation.
#[derive(Debug, Clone, PartialEq)]
pub enum NodePsi {
    /// The node keeps its full quantized index vector (shared, so a
    /// clone of the vectors allocates nothing per node).
    Full(Arc<[u32]>),
    /// The node is represented by `theta` with quantized error `eps`.
    Compressed {
        /// The reference node `v.θ` (always a `Full` node).
        theta: NodeId,
        /// The compression error `v.ε = ϱ(v, v.θ)`.
        eps: f64,
    },
}

/// The compressed landmark hint set. A clone copies one
/// representation per node; full vectors are shared.
#[derive(Debug, Clone)]
pub struct CompressedVectors {
    /// λ of the underlying quantization.
    lambda: f64,
    /// Per-node representation.
    psi: Vec<NodePsi>,
    /// Compression threshold ξ.
    xi: f64,
    /// Number of landmarks.
    c: usize,
    /// Bits per quantized entry (from the underlying quantization).
    bits: u8,
}

impl CompressedVectors {
    /// Compresses `qv` with threshold `xi` using `strategy`.
    pub fn build(g: &Graph, qv: &QuantizedVectors, xi: f64, strategy: CompressionStrategy) -> Self {
        let n = qv.num_nodes();
        let mut psi: Vec<Option<NodePsi>> = vec![None; n];
        match strategy {
            CompressionStrategy::GreedyExact => greedy_exact(qv, xi, &mut psi),
            CompressionStrategy::HilbertSweep => hilbert_sweep(g, qv, xi, &mut psi),
        }
        CompressedVectors {
            lambda: qv.lambda(),
            psi: psi
                .into_iter()
                .map(|p| p.expect("all nodes assigned"))
                .collect(),
            xi,
            c: qv.num_landmarks(),
            bits: qv.bits(),
        }
    }

    /// Reassembles compressed vectors from persisted parts — the
    /// inverse of reading `lambda()`, `node_psi()`, `xi()`,
    /// `num_landmarks()`, `bits()` back out. Validates the structural
    /// invariants: every `Full` vector has `c` entries, and every
    /// `Compressed` node references an in-range `Full` node with a
    /// finite `eps` in `[0, xi]`.
    pub fn from_parts(lambda: f64, psi: Vec<NodePsi>, xi: f64, c: usize, bits: u8) -> Option<Self> {
        if !(lambda.is_finite() && xi.is_finite()) || c == 0 {
            return None;
        }
        for p in &psi {
            match p {
                NodePsi::Full(vec) => {
                    if vec.len() != c {
                        return None;
                    }
                }
                NodePsi::Compressed { theta, eps } => {
                    if !(eps.is_finite() && *eps >= 0.0 && *eps <= xi) {
                        return None;
                    }
                    match psi.get(theta.index()) {
                        Some(NodePsi::Full(_)) => {}
                        _ => return None,
                    }
                }
            }
        }
        Some(CompressedVectors {
            lambda,
            psi,
            xi,
            c,
            bits,
        })
    }

    /// Re-runs the [`CompressionStrategy::HilbertSweep`] that built
    /// these vectors over only the positions an update can have
    /// changed. `exact` holds the updated rows, `order` is
    /// [`hilbert_order`] of the graph (it depends on coordinates only,
    /// so callers keep it across updates), and `changed` names every
    /// node whose row entries moved. Returns the nodes whose ψ changed,
    /// sorted, or `None` when Dmax moved λ's bits: every index may then
    /// change, and the caller re-quantizes and re-compresses in full.
    ///
    /// With λ fixed, a node's indices depend on its own entries alone,
    /// and the sweep's only state is the representative leading the
    /// current run. So the sweep restarts at each changed Hilbert
    /// position with the representative that led the position before
    /// it, computes indices from `exact` on the fly, and runs until,
    /// at an unchanged node, its representative is the old sweep's and
    /// is itself unchanged: from there the old sweep repeats up to the
    /// next changed position. The result equals a fresh build's bit
    /// for bit.
    ///
    /// Vectors built by [`CompressionStrategy::GreedyExact`] must be
    /// rebuilt instead.
    pub fn resweep(
        &mut self,
        exact: &LandmarkVectors,
        order: &[NodeId],
        changed: &[NodeId],
    ) -> Option<Vec<NodeId>> {
        let lambda = quantize::lambda_for(exact.max_distance(), self.bits);
        if lambda.to_bits() != self.lambda.to_bits() {
            return None;
        }
        let n = order.len();
        let mut pos = vec![0u32; n];
        for (i, v) in order.iter().enumerate() {
            pos[v.index()] = i as u32;
        }
        let mut starts: Vec<usize> = changed.iter().map(|v| pos[v.index()] as usize).collect();
        starts.sort_unstable();
        let mut starts = starts.into_iter();
        let mut is_changed = vec![false; n];
        for v in changed {
            is_changed[v.index()] = true;
        }
        let (c, bits) = (self.c, self.bits);
        let indices = |v: NodeId| -> Arc<[u32]> {
            (0..c)
                .map(|i| quantize::index_of(exact.landmark_dist(i, v), lambda, bits))
                .collect()
        };
        // The representative leading the old sweep after position p.
        let old_rep = |p: usize| self.theta_eps(order[p]).0;
        let mut window = Vec::new();
        let (mut rep, mut rep_q): (_, Arc<[u32]>) = (None, Arc::new([]));
        let mut p = 0;
        let mut in_step = true;
        loop {
            if in_step {
                // The old sweep repeats up to the next changed position.
                let Some(q) = starts.find(|&s| s >= p) else {
                    break;
                };
                p = q;
                rep = q.checked_sub(1).map(old_rep);
                rep_q = rep.map(indices).unwrap_or_else(|| Arc::new([]));
            }
            let v = order[p];
            let q = indices(v);
            let psi = match rep.and_then(|r| join_run(&q, r, &rep_q, lambda, self.xi)) {
                Some(psi) => psi,
                None => {
                    rep = Some(v);
                    rep_q = Arc::clone(&q);
                    NodePsi::Full(q)
                }
            };
            window.push((v, psi));
            p += 1;
            in_step = p >= n
                || (!is_changed[order[p].index()]
                    && matches!(rep, Some(r) if r == old_rep(p - 1) && !is_changed[r.index()]));
        }
        let mut dirty = Vec::new();
        for (v, psi) in window {
            if self.psi[v.index()] != psi {
                self.psi[v.index()] = psi;
                dirty.push(v);
            }
        }
        dirty.sort_unstable();
        Some(dirty)
    }

    /// Number of nodes covered by these vectors.
    pub fn num_nodes(&self) -> usize {
        self.psi.len()
    }

    /// Bits per quantized entry `b`.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// λ of the underlying quantization.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Compression threshold ξ.
    pub fn xi(&self) -> f64 {
        self.xi
    }

    /// Number of landmarks.
    pub fn num_landmarks(&self) -> usize {
        self.c
    }

    /// The representation of node `v`.
    pub fn node_psi(&self, v: NodeId) -> &NodePsi {
        &self.psi[v.index()]
    }

    /// Number of nodes whose vector was compressed away.
    pub fn num_compressed(&self) -> usize {
        self.psi
            .iter()
            .filter(|p| matches!(p, NodePsi::Compressed { .. }))
            .count()
    }

    /// The reference node and error for `v`: `(v, 0)` when `v` holds a
    /// full vector.
    pub fn theta_eps(&self, v: NodeId) -> (NodeId, f64) {
        match &self.psi[v.index()] {
            NodePsi::Full(_) => (v, 0.0),
            NodePsi::Compressed { theta, eps } => (*theta, *eps),
        }
    }

    /// The full index vector of a representative node.
    ///
    /// # Panics
    /// Panics if `v` is a compressed node (its vector was discarded).
    pub fn full_indices(&self, v: NodeId) -> &[u32] {
        match &self.psi[v.index()] {
            NodePsi::Full(q) => q,
            NodePsi::Compressed { .. } => panic!("{v} holds no full vector"),
        }
    }

    /// The compressed lower bound of Lemma 4:
    /// `max{0, distLB^loose(v.θ, v′.θ) − (v.ε + v′.ε)}`.
    pub fn lower_bound(&self, v: NodeId, w: NodeId) -> f64 {
        let (tv, ev) = self.theta_eps(v);
        let (tw, ew) = self.theta_eps(w);
        let loose = crate::landmark::quantize::loose_lb_from_indices(
            self.full_indices(tv),
            self.full_indices(tw),
            self.lambda,
        );
        (loose - ev - ew).max(0.0)
    }

    /// Hint storage in bytes: full vectors count `c` indices (4B each),
    /// compressed nodes count a node id + error (8B, mirroring the
    /// paper's "(θ, ε)" pairs).
    pub fn storage_bytes(&self) -> usize {
        self.psi
            .iter()
            .map(|p| match p {
                NodePsi::Full(q) => q.len() * 4,
                NodePsi::Compressed { .. } => 8,
            })
            .sum()
    }
}

/// The paper's greedy algorithm: repeatedly pick the node `v_rep`
/// maximizing `|{v′ uncompressed : ϱ(v′, v_rep) ≤ ξ}|`, represent that
/// set by `v_rep`, and recurse on the remainder. A node whose best
/// coverage is only itself stays uncompressed (paper: v8, v9 "lie too
/// far away from any representative node").
fn greedy_exact(qv: &QuantizedVectors, xi: f64, psi: &mut [Option<NodePsi>]) {
    let n = qv.num_nodes();
    let mut remaining: Vec<u32> = (0..n as u32).collect();
    while !remaining.is_empty() {
        let mut best_rep = remaining[0];
        let mut best_cover: Vec<u32> = Vec::new();
        for &cand in &remaining {
            let cover: Vec<u32> = remaining
                .iter()
                .copied()
                .filter(|&v| v != cand && qv.quantized_diff(NodeId(v), NodeId(cand)) <= xi)
                .collect();
            if cover.len() > best_cover.len() {
                best_rep = cand;
                best_cover = cover;
            }
        }
        if best_cover.is_empty() {
            // No candidate covers anyone: everyone left keeps a full
            // vector.
            for &v in &remaining {
                psi[v as usize] = Some(NodePsi::Full(qv.indices(NodeId(v)).into()));
            }
            break;
        }
        psi[best_rep as usize] = Some(NodePsi::Full(qv.indices(NodeId(best_rep)).into()));
        for &v in &best_cover {
            psi[v as usize] = Some(NodePsi::Compressed {
                theta: NodeId(best_rep),
                eps: qv.quantized_diff(NodeId(v), NodeId(best_rep)),
            });
        }
        remaining.retain(|&v| v != best_rep && !best_cover.contains(&v));
    }
}

/// Hilbert-order sweep: the current representative compresses each
/// subsequent node within ξ; otherwise that node opens a new run.
fn hilbert_sweep(g: &Graph, qv: &QuantizedVectors, xi: f64, psi: &mut [Option<NodePsi>]) {
    let order = hilbert_order(g);
    let mut rep: Option<NodeId> = None;
    for &v in &order {
        let q = qv.indices(v);
        psi[v.index()] = Some(
            match rep.and_then(|r| join_run(q, r, qv.indices(r), qv.lambda(), xi)) {
                Some(p) => p,
                None => {
                    rep = Some(v);
                    NodePsi::Full(q.into())
                }
            },
        );
    }
}

/// The sweep's rule for a node with indices `q` while `rep` (indices
/// `rep_q`) leads the current run: compressed against `rep` within ξ,
/// else `None` (the node opens a new run).
fn join_run(q: &[u32], rep: NodeId, rep_q: &[u32], lambda: f64, xi: f64) -> Option<NodePsi> {
    let eps = diff_from_indices(q, rep_q, lambda);
    (eps <= xi).then_some(NodePsi::Compressed { theta: rep, eps })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::grid_network;
    use crate::landmark::select::{select_landmarks, LandmarkStrategy};
    use crate::landmark::vectors::figure5_graph;
    use crate::landmark::vectors::LandmarkVectors;

    fn fig5_compressed(xi: f64) -> (crate::graph::Graph, QuantizedVectors, CompressedVectors) {
        let g = figure5_graph();
        let lv = LandmarkVectors::compute(&g, &[NodeId(1), NodeId(6)]);
        let qv = QuantizedVectors::quantize(&lv, 3);
        let cv = CompressedVectors::build(&g, &qv, xi, CompressionStrategy::GreedyExact);
        (g, qv, cv)
    }

    #[test]
    fn figure6b_compression_errors_bounded() {
        // ξ = 2 on the Figure 6a table: paper compresses v1,v3 → v2,
        // v5 → v4, v7 → v6; v8, v9 stay uncompressed. Greedy tie
        // breaking may pick different (equally sized) covers, so assert
        // the invariants rather than the exact assignment.
        let (_, qv, cv) = fig5_compressed(2.0);
        assert!(cv.num_compressed() >= 3, "at least 3 nodes compress at ξ=2");
        for v in 0..9u32 {
            let (theta, eps) = cv.theta_eps(NodeId(v));
            assert!(eps <= 2.0, "ε must be ≤ ξ");
            assert!(matches!(cv.node_psi(theta), NodePsi::Full(_)));
            assert_eq!(eps, qv.quantized_diff(NodeId(v), theta));
        }
        // v9 (id 8) has vector ⟨14,8⟩ — no other node within ξ=2:
        // paper says it stays uncompressed.
        assert!(matches!(cv.node_psi(NodeId(8)), NodePsi::Full(_)));
    }

    #[test]
    fn lemma4_compressed_bound_below_loose_bound() {
        let g = grid_network(8, 8, 1.15, 60);
        let lms = select_landmarks(&g, 5, LandmarkStrategy::Farthest, 61);
        let lv = LandmarkVectors::compute(&g, &lms);
        let qv = QuantizedVectors::quantize(&lv, 8);
        for strat in [
            CompressionStrategy::GreedyExact,
            CompressionStrategy::HilbertSweep,
        ] {
            let cv = CompressedVectors::build(&g, &qv, 300.0, strat);
            for u in 0..g.num_nodes() {
                for v in 0..g.num_nodes() {
                    let comp = cv.lower_bound(NodeId(u as u32), NodeId(v as u32));
                    let loose = qv.loose_lower_bound(NodeId(u as u32), NodeId(v as u32));
                    assert!(
                        comp <= loose + 1e-9,
                        "{strat:?} ({u},{v}): {comp} > {loose}"
                    );
                }
            }
        }
    }

    #[test]
    fn compressed_bound_admissible() {
        let g = grid_network(7, 7, 1.2, 62);
        let lms = select_landmarks(&g, 4, LandmarkStrategy::Farthest, 63);
        let lv = LandmarkVectors::compute(&g, &lms);
        let qv = QuantizedVectors::quantize(&lv, 10);
        let cv = CompressedVectors::build(&g, &qv, 200.0, CompressionStrategy::HilbertSweep);
        let apsp = crate::algo::apsp_dijkstra(&g);
        for u in 0..g.num_nodes() {
            for v in 0..g.num_nodes() {
                assert!(
                    cv.lower_bound(NodeId(u as u32), NodeId(v as u32)) <= apsp.get(u, v) + 1e-9
                );
            }
        }
    }

    #[test]
    fn zero_xi_compresses_only_identical_vectors() {
        let (_, qv, cv) = fig5_compressed(0.0);
        for v in 0..9u32 {
            if let NodePsi::Compressed { theta, eps } = cv.node_psi(NodeId(v)) {
                assert_eq!(*eps, 0.0);
                assert_eq!(qv.quantized_diff(NodeId(v), *theta), 0.0);
            }
        }
        // v4 and v5 share ⟨4,10⟩: at least one compression happens.
        assert!(cv.num_compressed() >= 1);
    }

    #[test]
    fn larger_xi_compresses_more() {
        let g = grid_network(9, 9, 1.1, 64);
        let lms = select_landmarks(&g, 4, LandmarkStrategy::Random, 65);
        let lv = LandmarkVectors::compute(&g, &lms);
        let qv = QuantizedVectors::quantize(&lv, 10);
        let mut last = 0usize;
        for xi in [0.0, 200.0, 1000.0, 1e9] {
            let cv = CompressedVectors::build(&g, &qv, xi, CompressionStrategy::HilbertSweep);
            assert!(cv.num_compressed() >= last, "ξ={xi}");
            last = cv.num_compressed();
        }
        // Unbounded ξ ⇒ single representative in the sweep.
        assert_eq!(last, g.num_nodes() - 1);
    }

    #[test]
    fn storage_shrinks_with_compression() {
        let g = grid_network(10, 10, 1.1, 66);
        let lms = select_landmarks(&g, 16, LandmarkStrategy::Random, 67);
        let lv = LandmarkVectors::compute(&g, &lms);
        let qv = QuantizedVectors::quantize(&lv, 12);
        let none = CompressedVectors::build(&g, &qv, -1.0, CompressionStrategy::HilbertSweep);
        let lots = CompressedVectors::build(&g, &qv, 2000.0, CompressionStrategy::HilbertSweep);
        assert!(lots.storage_bytes() < none.storage_bytes());
    }

    #[test]
    fn resweep_matches_a_fresh_build() {
        use crate::gen::road_network;
        use crate::landmark::repair_row;
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};

        let mut g = road_network(12, 12, 1.05, 1.0, 70);
        let lms = select_landmarks(&g, 6, LandmarkStrategy::Random, 71);
        let mut lv = LandmarkVectors::compute(&g, &lms);
        let build = |g: &Graph, lv: &LandmarkVectors| {
            let qv = QuantizedVectors::quantize(lv, 10);
            CompressedVectors::build(g, &qv, 300.0, CompressionStrategy::HilbertSweep)
        };
        let mut cv = build(&g, &lv);
        let order = hilbert_order(&g);
        let edges: Vec<(NodeId, NodeId, f64)> = g.edges().collect();
        let mut rng = StdRng::seed_from_u64(72);
        let mut windowed = 0;
        for step in 0..40 {
            let (u, v, _) = edges[rng.random_range(0..edges.len())];
            let w_old = g.edge_weight(u, v).unwrap();
            g.set_edge_weight(u, v, w_old * rng.random_range(0.3f64..2.5))
                .unwrap();
            let mut changed: Vec<NodeId> = lv
                .rows_mut()
                .flat_map(|(l, row)| repair_row(&g, l, row, u, v, w_old))
                .collect();
            changed.sort_unstable();
            changed.dedup();
            let fresh = build(&g, &lv);
            let before = cv.clone();
            match cv.resweep(&lv, &order, &changed) {
                Some(dirty) => {
                    windowed += 1;
                    let want: Vec<NodeId> = g
                        .nodes()
                        .filter(|&x| fresh.node_psi(x) != before.node_psi(x))
                        .collect();
                    assert_eq!(dirty, want, "step {step}: dirty set");
                }
                None => {
                    assert_ne!(fresh.lambda().to_bits(), before.lambda().to_bits());
                    cv = fresh.clone();
                }
            }
            assert_eq!(cv.lambda().to_bits(), fresh.lambda().to_bits());
            for x in g.nodes() {
                assert_eq!(cv.node_psi(x), fresh.node_psi(x), "step {step}: ψ({x})");
            }
        }
        assert!(windowed > 0, "no update kept λ");
    }

    #[test]
    fn theta_always_points_to_full_vector() {
        let g = grid_network(8, 8, 1.2, 68);
        let lms = select_landmarks(&g, 6, LandmarkStrategy::Farthest, 69);
        let lv = LandmarkVectors::compute(&g, &lms);
        let qv = QuantizedVectors::quantize(&lv, 8);
        for strat in [
            CompressionStrategy::GreedyExact,
            CompressionStrategy::HilbertSweep,
        ] {
            let cv = CompressedVectors::build(&g, &qv, 500.0, strat);
            for v in 0..g.num_nodes() as u32 {
                let (theta, _) = cv.theta_eps(NodeId(v));
                assert!(
                    matches!(cv.node_psi(theta), NodePsi::Full(_)),
                    "{strat:?}: θ of v{v} is itself compressed"
                );
            }
        }
    }
}
