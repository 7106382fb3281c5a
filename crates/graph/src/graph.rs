//! The weighted spatial graph `G = (V, E, W)` in CSR form.

use crate::error::GraphError;
use crate::ids::NodeId;
use crate::search::{Calibration, FrontierKind};
use std::sync::Arc;

/// An undirected, weighted, spatial graph in compressed sparse row
/// (CSR) form.
///
/// * Nodes carry `(x, y)` coordinates (the paper normalizes every
///   network to `[0..10,000]²`; non-spatial graphs may use zeros).
/// * Each undirected edge `(u, v, w)` is stored in both adjacency
///   lists; adjacency lists are sorted by neighbor id, which makes the
///   extended-tuple encoding canonical.
///
/// Construct via [`crate::builder::GraphBuilder`]. A clone shares the
/// coordinates and the adjacency structure, which no weight update
/// writes, and copies only the weights.
#[derive(Debug, Clone)]
pub struct Graph {
    /// Coordinates and CSR structure, shared by every clone.
    pub(crate) topo: Arc<Topology>,
    /// Flattened adjacency weights, parallel to `topo.adj_targets`.
    pub(crate) adj_weights: Vec<f64>,
    /// Number of undirected edges.
    pub(crate) num_edges: usize,
    /// Smallest edge weight (∞ for an edgeless graph); pre-scanned at
    /// build time so searches can calibrate their frontier in O(1).
    pub(crate) min_weight: f64,
    /// Largest edge weight (0 for an edgeless graph).
    pub(crate) max_weight: f64,
}

/// The part of a [`Graph`] that weight updates never write.
#[derive(Debug)]
pub(crate) struct Topology {
    pub(crate) xs: Vec<f64>,
    pub(crate) ys: Vec<f64>,
    /// CSR offsets, length |V| + 1.
    pub(crate) offsets: Vec<u32>,
    /// Flattened adjacency targets, length 2|E|.
    pub(crate) adj_targets: Vec<u32>,
}

impl Graph {
    /// Number of nodes |V|.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.topo.xs.len()
    }

    /// Number of undirected edges |E|.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Coordinates of node `v`.
    #[inline]
    pub fn coords(&self, v: NodeId) -> (f64, f64) {
        (self.topo.xs[v.index()], self.topo.ys[v.index()])
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Neighbors of `v` with edge weights, sorted by neighbor id.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let lo = self.topo.offsets[v.index()] as usize;
        let hi = self.topo.offsets[v.index() + 1] as usize;
        self.topo.adj_targets[lo..hi]
            .iter()
            .zip(&self.adj_weights[lo..hi])
            .map(|(&t, &w)| (NodeId(t), w))
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.topo.offsets[v.index() + 1] - self.topo.offsets[v.index()]) as usize
    }

    /// Weight of edge `(u, v)`, if present.
    pub fn edge_weight(&self, u: NodeId, v: NodeId) -> Option<f64> {
        let lo = self.topo.offsets[u.index()] as usize;
        let hi = self.topo.offsets[u.index() + 1] as usize;
        let slice = &self.topo.adj_targets[lo..hi];
        slice
            .binary_search(&v.0)
            .ok()
            .map(|i| self.adj_weights[lo + i])
    }

    /// True iff edge `(u, v)` exists.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edge_weight(u, v).is_some()
    }

    /// Patches the weight of edge `(u, v)` in place — both CSR mirror
    /// arcs — and returns the previous weight. `None` (and no change)
    /// if the edge does not exist. O(log deg) per endpoint; the
    /// adjacency structure itself is untouched, so node orderings and
    /// partitions derived from topology remain valid.
    ///
    /// The cached weight bounds are only widened, never re-tightened:
    /// they feed search calibration heuristics where a conservative
    /// range is valid (both frontier kinds produce identical results).
    pub fn set_edge_weight(&mut self, u: NodeId, v: NodeId, w: f64) -> Option<f64> {
        let arc = |g: &Graph, a: NodeId, b: NodeId| -> Option<usize> {
            let lo = g.topo.offsets[a.index()] as usize;
            let hi = g.topo.offsets[a.index() + 1] as usize;
            g.topo.adj_targets[lo..hi]
                .binary_search(&b.0)
                .ok()
                .map(|i| lo + i)
        };
        let uv = arc(self, u, v)?;
        let vu = arc(self, v, u)?;
        let old = self.adj_weights[uv];
        self.adj_weights[uv] = w;
        self.adj_weights[vu] = w;
        self.min_weight = self.min_weight.min(w);
        self.max_weight = self.max_weight.max(w);
        Some(old)
    }

    /// Iterator over undirected edges `(u, v, w)` with `u < v`.
    ///
    /// A single sweep over the CSR arc arrays: the owning node is
    /// tracked by advancing an offset cursor instead of re-scanning
    /// every node's adjacency list, and each arc is visited exactly
    /// once (its `u > v` mirror is skipped in place).
    pub fn edges(&self) -> EdgeIter<'_> {
        EdgeIter {
            g: self,
            arc: 0,
            node: 0,
        }
    }

    /// Checks that a node id is within range.
    pub fn check_node(&self, v: NodeId) -> Result<(), GraphError> {
        if v.index() < self.num_nodes() {
            Ok(())
        } else {
            Err(GraphError::NodeOutOfRange {
                node: v,
                num_nodes: self.num_nodes(),
            })
        }
    }

    /// Bounding box `(min_x, min_y, max_x, max_y)` of node coordinates.
    ///
    /// Returns `None` for an empty graph.
    pub fn bounding_box(&self) -> Option<(f64, f64, f64, f64)> {
        if self.num_nodes() == 0 {
            return None;
        }
        let mut bb = (
            f64::INFINITY,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NEG_INFINITY,
        );
        for i in 0..self.num_nodes() {
            bb.0 = bb.0.min(self.topo.xs[i]);
            bb.1 = bb.1.min(self.topo.ys[i]);
            bb.2 = bb.2.max(self.topo.xs[i]);
            bb.3 = bb.3.max(self.topo.ys[i]);
        }
        Some(bb)
    }

    /// Euclidean distance between two nodes' coordinates.
    pub fn euclidean(&self, u: NodeId, v: NodeId) -> f64 {
        let (ux, uy) = self.coords(u);
        let (vx, vy) = self.coords(v);
        ((ux - vx).powi(2) + (uy - vy).powi(2)).sqrt()
    }

    /// Smallest and largest edge weight, pre-scanned at build time;
    /// `None` for an edgeless graph.
    pub fn weight_range(&self) -> Option<(f64, f64)> {
        (self.num_edges > 0).then_some((self.min_weight, self.max_weight))
    }

    /// Which frontier implementation searches on this graph select:
    /// the calibrated bucket queue for strictly positive weight
    /// ranges, the 4-ary heap when the range is degenerate (no edges,
    /// or a zero minimum weight). Both produce bit-identical results;
    /// the choice is purely about speed.
    pub fn frontier_kind(&self) -> FrontierKind {
        self.calibration().kind
    }

    /// Bucket-queue calibration for searches on this graph.
    pub(crate) fn calibration(&self) -> Calibration {
        Calibration::from_weights(
            self.min_weight,
            self.max_weight,
            self.num_edges,
            self.num_nodes(),
        )
    }
}

/// Single-sweep iterator over undirected edges (see [`Graph::edges`]).
#[derive(Debug, Clone)]
pub struct EdgeIter<'a> {
    g: &'a Graph,
    /// Cursor into the flattened arc arrays.
    arc: usize,
    /// Owning node of `arc` (`offsets[node] ≤ arc < offsets[node+1]`).
    node: u32,
}

impl Iterator for EdgeIter<'_> {
    type Item = (NodeId, NodeId, f64);

    fn next(&mut self) -> Option<Self::Item> {
        let num_arcs = self.g.topo.adj_targets.len();
        while self.arc < num_arcs {
            // Advance the owner cursor past empty adjacency lists.
            while self.g.topo.offsets[self.node as usize + 1] as usize <= self.arc {
                self.node += 1;
            }
            let arc = self.arc;
            self.arc += 1;
            let v = self.g.topo.adj_targets[arc];
            if self.node < v {
                return Some((NodeId(self.node), NodeId(v), self.g.adj_weights[arc]));
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Each remaining undirected edge occupies one un-yielded arc
        // pair; at most the remaining arcs, at least half of them.
        let remaining = self.g.topo.adj_targets.len() - self.arc;
        (0, Some(remaining))
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::ids::NodeId;

    fn triangle() -> crate::graph::Graph {
        let mut b = GraphBuilder::new();
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(3.0, 0.0);
        let d = b.add_node(0.0, 4.0);
        b.add_edge(a, c, 3.0).unwrap();
        b.add_edge(c, d, 5.0).unwrap();
        b.add_edge(a, d, 4.0).unwrap();
        b.build()
    }

    #[test]
    fn counts() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn neighbors_sorted_by_id() {
        let g = triangle();
        let ns: Vec<u32> = g.neighbors(NodeId(2)).map(|(n, _)| n.0).collect();
        assert_eq!(ns, vec![0, 1]);
    }

    #[test]
    fn edge_weight_lookup() {
        let g = triangle();
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(3.0));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(0)), Some(3.0));
        assert_eq!(g.edge_weight(NodeId(0), NodeId(0)), None);
        assert!(g.has_edge(NodeId(1), NodeId(2)));
    }

    #[test]
    fn degree() {
        let g = triangle();
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn edges_iterator_each_edge_once() {
        let g = triangle();
        let es: Vec<_> = g.edges().collect();
        assert_eq!(es.len(), 3);
        for (u, v, _) in es {
            assert!(u < v);
        }
    }

    #[test]
    fn euclidean_distance() {
        let g = triangle();
        assert!((g.euclidean(NodeId(1), NodeId(2)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn bounding_box() {
        let g = triangle();
        assert_eq!(g.bounding_box(), Some((0.0, 0.0, 3.0, 4.0)));
    }

    #[test]
    fn check_node_bounds() {
        let g = triangle();
        assert!(g.check_node(NodeId(2)).is_ok());
        assert!(g.check_node(NodeId(3)).is_err());
    }

    #[test]
    fn set_edge_weight_patches_both_arcs() {
        let mut g = triangle();
        assert_eq!(g.set_edge_weight(NodeId(0), NodeId(1), 7.5), Some(3.0));
        assert_eq!(g.edge_weight(NodeId(0), NodeId(1)), Some(7.5));
        assert_eq!(g.edge_weight(NodeId(1), NodeId(0)), Some(7.5));
        // Missing edges are untouched and report None.
        assert_eq!(g.set_edge_weight(NodeId(0), NodeId(0), 1.0), None);
        // Weight bounds only widen.
        let (lo, hi) = g.weight_range().unwrap();
        assert!(lo <= 3.0 && hi >= 7.5);
    }

    #[test]
    fn set_edge_weight_matches_rebuilt_graph() {
        // In-place patching must be indistinguishable from rebuilding
        // the graph with the new weight.
        let mut g = triangle();
        g.set_edge_weight(NodeId(1), NodeId(2), 9.0);
        let mut b = GraphBuilder::new();
        let a = b.add_node(0.0, 0.0);
        let c = b.add_node(3.0, 0.0);
        let d = b.add_node(0.0, 4.0);
        b.add_edge(a, c, 3.0).unwrap();
        b.add_edge(c, d, 9.0).unwrap();
        b.add_edge(a, d, 4.0).unwrap();
        let fresh = b.build();
        for u in g.nodes() {
            let got: Vec<_> = g.neighbors(u).collect();
            let want: Vec<_> = fresh.neighbors(u).collect();
            assert_eq!(got, want, "adjacency of {u}");
        }
    }
}
