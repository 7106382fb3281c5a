//! Exact landmark distance vectors Ψ(v) and the triangle-inequality
//! lower bound.
//!
//! Equation 2: `Ψ(v) = ⟨dist(s₁,v), …, dist(s_c,v)⟩`.
//! Equation 3: `distLB(v,v′) = maxᵢ |dist(sᵢ,v) − dist(sᵢ,v′)|`.
//! Theorem 1 guarantees `distLB(v,v′) ≤ dist(v,v′)`.

use crate::graph::Graph;
use crate::ids::NodeId;
use crate::search::SearchWorkspace;
use std::sync::Arc;

/// Exact landmark distance vectors for every node.
///
/// Each row is reference-counted: a clone shares every row, and an
/// in-place [`repair_row`](crate::landmark::repair_row) copies only the
/// rows an edge change reaches.
#[derive(Debug, Clone)]
pub struct LandmarkVectors {
    /// The landmark nodes s₁…s_c.
    landmarks: Vec<NodeId>,
    /// `dist[l][v]` = graph distance from landmark `l` to node `v`
    /// (undirected graphs: symmetric in direction).
    dist: Vec<Arc<[f64]>>,
}

impl LandmarkVectors {
    /// Computes vectors with one Dijkstra per landmark —
    /// O(c·(|E| + |V| log |V|)), the dominant LDM construction cost
    /// measured in Figure 12b.
    pub fn compute(g: &Graph, landmarks: &[NodeId]) -> Self {
        // One reused workspace across all landmark searches: the only
        // per-landmark allocation is the stored row itself.
        let mut ws = SearchWorkspace::with_capacity(g.num_nodes());
        let dist = landmarks
            .iter()
            .map(|&lm| ws.sssp(g, lm).dist_vec())
            .collect();
        LandmarkVectors::from_rows(landmarks.to_vec(), dist)
    }

    /// Assembles vectors from rows computed elsewhere: `rows[i]` must be
    /// the SSSP distance row of `landmarks[i]` (callers fan the
    /// Dijkstras out over threads).
    ///
    /// # Panics
    /// Panics if the counts differ or the rows differ in length.
    pub fn from_rows(landmarks: Vec<NodeId>, rows: Vec<Vec<f64>>) -> Self {
        assert_eq!(landmarks.len(), rows.len(), "one row per landmark");
        assert!(
            rows.windows(2).all(|w| w[0].len() == w[1].len()),
            "row length mismatch"
        );
        LandmarkVectors {
            landmarks,
            dist: rows.into_iter().map(Arc::from).collect(),
        }
    }

    /// Number of landmarks `c`.
    pub fn num_landmarks(&self) -> usize {
        self.landmarks.len()
    }

    /// Number of nodes the vectors cover.
    pub fn num_nodes(&self) -> usize {
        self.dist.first().map_or(0, |row| row.len())
    }

    /// The landmark nodes.
    pub fn landmarks(&self) -> &[NodeId] {
        &self.landmarks
    }

    /// Ψ(v): the distance vector of node `v` (one entry per landmark).
    pub fn psi(&self, v: NodeId) -> Vec<f64> {
        self.dist.iter().map(|row| row[v.index()]).collect()
    }

    /// `dist(sᵢ, v)` for landmark index `i`.
    #[inline]
    pub fn landmark_dist(&self, i: usize, v: NodeId) -> f64 {
        self.dist[i][v.index()]
    }

    /// Each landmark with its shared distance row — what tests compare
    /// with [`Arc::ptr_eq`] across clones.
    pub fn rows(&self) -> &[Arc<[f64]>] {
        &self.dist
    }

    /// Each landmark with its distance row handle, mutably — the shape
    /// of an in-place [`repair_row`](crate::landmark::repair_row)
    /// fanned over the landmarks, which copies a row shared with a
    /// clone only if the change reaches it.
    pub fn rows_mut(&mut self) -> impl Iterator<Item = (NodeId, &mut Arc<[f64]>)> {
        self.landmarks.iter().copied().zip(self.dist.iter_mut())
    }

    /// The exact lower bound `distLB(v, v′)` of Equation 3.
    ///
    /// Landmarks that do not reach either node are skipped (an infinite
    /// difference would not be a valid bound).
    pub fn lower_bound(&self, v: NodeId, w: NodeId) -> f64 {
        let mut best: f64 = 0.0;
        for row in &self.dist {
            let (a, b) = (row[v.index()], row[w.index()]);
            if a.is_finite() && b.is_finite() {
                best = best.max((a - b).abs());
            }
        }
        best
    }

    /// Largest finite landmark distance — `Dmax` of the quantization
    /// step (Eq. 5).
    pub fn max_distance(&self) -> f64 {
        let mut dmax: f64 = 0.0;
        for row in &self.dist {
            for &d in row.iter() {
                if d.is_finite() {
                    dmax = dmax.max(d);
                }
            }
        }
        dmax
    }
}

/// The 9-node network of Figure 5a with landmarks v2 and v7
/// (node ids v1..v9 ↦ 0..8). Exposed for the quantization and
/// compression test suites, which re-check the Figure 6 tables.
#[cfg(test)]
pub(crate) fn figure5_graph() -> Graph {
    use crate::builder::GraphBuilder;
    let mut b = GraphBuilder::new();
    for _ in 0..9 {
        b.add_node(0.0, 0.0);
    }
    let edges = [
        (0u32, 1u32, 2.0), // v1-v2
        (1, 2, 1.0),       // v2-v3
        (2, 3, 2.0),       // v3-v4
        (3, 4, 1.0),       // v4-v5
        (0, 5, 3.0),       // v1-v6
        (5, 6, 1.0),       // v6-v7
        (6, 7, 3.0),       // v7-v8
        (7, 8, 5.0),       // v8-v9
    ];
    for (u, v, w) in edges {
        b.add_edge(NodeId(u), NodeId(v), w).unwrap();
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dijkstra_path;

    use crate::gen::grid_network;

    #[test]
    fn figure5_landmark_distances() {
        // Figure 5b table: dist(v2,·) and dist(v7,·).
        let g = figure5_graph();
        let lv = LandmarkVectors::compute(&g, &[NodeId(1), NodeId(6)]);
        let expect_v2 = [2.0, 0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 9.0, 14.0];
        let expect_v7 = [4.0, 6.0, 7.0, 9.0, 10.0, 1.0, 0.0, 3.0, 8.0];
        for v in 0..9u32 {
            assert_eq!(
                lv.landmark_dist(0, NodeId(v)),
                expect_v2[v as usize],
                "v{}",
                v + 1
            );
            assert_eq!(
                lv.landmark_dist(1, NodeId(v)),
                expect_v7[v as usize],
                "v{}",
                v + 1
            );
        }
    }

    #[test]
    fn figure5_lower_bound_example() {
        // distLB(v3, v8) = max{|1−9|, |7−3|} = 8 ≤ dist(v3,v8) = 10.
        let g = figure5_graph();
        let lv = LandmarkVectors::compute(&g, &[NodeId(1), NodeId(6)]);
        assert_eq!(lv.lower_bound(NodeId(2), NodeId(7)), 8.0);
        let actual = dijkstra_path(&g, NodeId(2), NodeId(7)).unwrap().distance;
        assert_eq!(actual, 10.0);
    }

    #[test]
    fn theorem1_lower_bound_property() {
        // distLB ≤ dist for all pairs on a random grid.
        let g = grid_network(8, 8, 1.15, 40);
        let lms = crate::landmark::select_landmarks(
            &g,
            6,
            crate::landmark::LandmarkStrategy::Farthest,
            41,
        );
        let lv = LandmarkVectors::compute(&g, &lms);
        let apsp = crate::algo::apsp_dijkstra(&g);
        for u in 0..g.num_nodes() {
            for v in 0..g.num_nodes() {
                let lb = lv.lower_bound(NodeId(u as u32), NodeId(v as u32));
                assert!(
                    lb <= apsp.get(u, v) + 1e-9,
                    "LB {lb} > dist {} for ({u},{v})",
                    apsp.get(u, v)
                );
            }
        }
    }

    #[test]
    fn lower_bound_symmetric_and_zero_on_self() {
        let g = grid_network(6, 6, 1.1, 42);
        let lms =
            crate::landmark::select_landmarks(&g, 4, crate::landmark::LandmarkStrategy::Random, 43);
        let lv = LandmarkVectors::compute(&g, &lms);
        for u in 0..36u32 {
            assert_eq!(lv.lower_bound(NodeId(u), NodeId(u)), 0.0);
            for v in 0..36u32 {
                assert_eq!(
                    lv.lower_bound(NodeId(u), NodeId(v)),
                    lv.lower_bound(NodeId(v), NodeId(u))
                );
            }
        }
    }

    #[test]
    fn exact_at_landmarks() {
        // distLB(s, v) = dist(s, v) when s is itself a landmark.
        let g = grid_network(7, 7, 1.1, 44);
        let lms = vec![NodeId(0), NodeId(48)];
        let lv = LandmarkVectors::compute(&g, &lms);
        for v in 0..49u32 {
            let d = crate::algo::dijkstra_sssp(&g, NodeId(0)).dist[v as usize];
            assert!((lv.lower_bound(NodeId(0), NodeId(v)) - d).abs() < 1e-9);
        }
    }

    #[test]
    fn dmax_is_max() {
        let g = figure5_graph();
        let lv = LandmarkVectors::compute(&g, &[NodeId(1), NodeId(6)]);
        assert_eq!(lv.max_distance(), 14.0);
    }

    #[test]
    fn psi_vector_shape() {
        let g = figure5_graph();
        let lv = LandmarkVectors::compute(&g, &[NodeId(1), NodeId(6)]);
        let psi = lv.psi(NodeId(3)); // v4
        assert_eq!(psi, vec![3.0, 9.0]);
    }
}
