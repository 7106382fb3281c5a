//! Paths through the network.

use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::NodeId;

/// A path `v₀ → v₁ → … → vₖ` with its total distance.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// The node sequence, source first.
    pub nodes: Vec<NodeId>,
    /// Sum of edge weights along the path.
    pub distance: f64,
}

spnet_bytes::wire_struct!(Path { nodes: Vec<NodeId>, distance: f64 });

impl Path {
    /// A single-node path of distance zero.
    pub fn trivial(v: NodeId) -> Self {
        Path {
            nodes: vec![v],
            distance: 0.0,
        }
    }

    /// Source node.
    pub fn source(&self) -> NodeId {
        *self.nodes.first().expect("path is never empty")
    }

    /// Target node.
    pub fn target(&self) -> NodeId {
        *self.nodes.last().expect("path is never empty")
    }

    /// Number of edges (hops).
    pub fn num_edges(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// Recomputes the distance from the graph's edge weights,
    /// validating that each consecutive pair is an actual edge.
    ///
    /// This is the `dist(P) = Σ W(v_{zi−1}, v_{zi})` check a client
    /// performs on a reported path.
    pub fn recompute_distance(&self, g: &Graph) -> Result<f64, GraphError> {
        let mut total = 0.0;
        for w in self.nodes.windows(2) {
            total += g.edge_weight(w[0], w[1]).ok_or(GraphError::Unreachable {
                source: w[0],
                target: w[1],
            })?;
        }
        Ok(total)
    }

    /// True iff the stored distance matches the recomputed one within a
    /// relative epsilon (floating-point sums differ across evaluation
    /// orders).
    pub fn distance_consistent(&self, g: &Graph) -> bool {
        match self.recompute_distance(g) {
            Ok(d) => close(d, self.distance),
            Err(_) => false,
        }
    }
}

/// Relative-epsilon comparison used throughout verification.
pub fn close(a: f64, b: f64) -> bool {
    let scale = a.abs().max(b.abs()).max(1.0);
    (a - b).abs() <= 1e-6 * scale
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn line_graph() -> Graph {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..4).map(|i| b.add_node(i as f64, 0.0)).collect();
        b.add_edge(n[0], n[1], 1.0).unwrap();
        b.add_edge(n[1], n[2], 2.0).unwrap();
        b.add_edge(n[2], n[3], 3.0).unwrap();
        b.build()
    }

    #[test]
    fn trivial_path() {
        let p = Path::trivial(NodeId(5));
        assert_eq!(p.source(), NodeId(5));
        assert_eq!(p.target(), NodeId(5));
        assert_eq!(p.num_edges(), 0);
        assert_eq!(p.distance, 0.0);
    }

    #[test]
    fn recompute_distance_valid() {
        let g = line_graph();
        let p = Path {
            nodes: vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            distance: 6.0,
        };
        assert_eq!(p.recompute_distance(&g).unwrap(), 6.0);
        assert!(p.distance_consistent(&g));
    }

    #[test]
    fn recompute_detects_fake_edge() {
        let g = line_graph();
        let p = Path {
            nodes: vec![NodeId(0), NodeId(3)], // no such edge
            distance: 1.0,
        };
        assert!(p.recompute_distance(&g).is_err());
        assert!(!p.distance_consistent(&g));
    }

    #[test]
    fn inconsistent_distance_detected() {
        let g = line_graph();
        let p = Path {
            nodes: vec![NodeId(0), NodeId(1)],
            distance: 99.0, // lies about the length
        };
        assert!(!p.distance_consistent(&g));
    }

    #[test]
    fn close_comparison() {
        assert!(close(1.0, 1.0 + 1e-9));
        assert!(!close(1.0, 1.1));
        assert!(close(1e12, 1e12 * (1.0 + 1e-8)));
        assert!(close(0.0, 0.0));
    }
}
