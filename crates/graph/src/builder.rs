//! Incremental graph construction.

use crate::error::GraphError;
use crate::graph::{Graph, Topology};
use crate::ids::NodeId;
use std::sync::Arc;

/// Builder for [`Graph`].
///
/// Nodes are added first (ids are assigned sequentially), then
/// undirected edges. `build` produces the CSR representation with
/// adjacency lists sorted by neighbor id.
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    xs: Vec<f64>,
    ys: Vec<f64>,
    edges: Vec<(u32, u32, f64)>,
}

impl GraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A builder pre-sized for `nodes` nodes and `edges` edges.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        GraphBuilder {
            xs: Vec::with_capacity(nodes),
            ys: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Coordinates of an already-added node (used by generators to
    /// derive Euclidean edge lengths before `build`).
    pub fn coords(&self, v: NodeId) -> (f64, f64) {
        (self.xs[v.index()], self.ys[v.index()])
    }

    /// Adds a node at `(x, y)` and returns its id.
    pub fn add_node(&mut self, x: f64, y: f64) -> NodeId {
        let id = NodeId(self.xs.len() as u32);
        self.xs.push(x);
        self.ys.push(y);
        id
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.xs.len()
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds an undirected edge with non-negative finite weight.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId, w: f64) -> Result<(), GraphError> {
        let n = self.xs.len();
        for node in [u, v] {
            if node.index() >= n {
                return Err(GraphError::NodeOutOfRange { node, num_nodes: n });
            }
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if !w.is_finite() || w < 0.0 {
            return Err(GraphError::InvalidWeight { u, v, weight: w });
        }
        self.edges.push((u.0, v.0, w));
        Ok(())
    }

    /// True if the undirected edge `(u, v)` was already added.
    ///
    /// Linear scan — intended for generators that add few edges per
    /// node; duplicate detection during `build` is the authoritative
    /// check.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.edges
            .iter()
            .any(|&(a, b, _)| (a == u.0 && b == v.0) || (a == v.0 && b == u.0))
    }

    /// Finalizes the CSR graph.
    ///
    /// Fails on duplicate undirected edges.
    pub fn build(self) -> Graph {
        self.try_build().expect("invalid graph")
    }

    /// Finalizes the CSR graph, returning errors instead of panicking.
    pub fn try_build(self) -> Result<Graph, GraphError> {
        let n = self.xs.len();
        let mut degree = vec![0u32; n];
        // Weight-range pre-scan: searches calibrate their bucket-queue
        // frontier from it without re-touching the edge set.
        let mut min_weight = f64::INFINITY;
        let mut max_weight = 0.0f64;
        for &(u, v, w) in &self.edges {
            degree[u as usize] += 1;
            degree[v as usize] += 1;
            min_weight = min_weight.min(w);
            max_weight = max_weight.max(w);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        offsets.push(0);
        for d in &degree {
            acc += d;
            offsets.push(acc);
        }
        let total = acc as usize;
        let mut targets = vec![0u32; total];
        let mut weights = vec![0f64; total];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for &(u, v, w) in &self.edges {
            for (a, b) in [(u, v), (v, u)] {
                let slot = cursor[a as usize] as usize;
                targets[slot] = b;
                weights[slot] = w;
                cursor[a as usize] += 1;
            }
        }
        // Sort each adjacency list by neighbor id (canonical encoding).
        for i in 0..n {
            let lo = offsets[i] as usize;
            let hi = offsets[i + 1] as usize;
            let mut pairs: Vec<(u32, f64)> = targets[lo..hi]
                .iter()
                .copied()
                .zip(weights[lo..hi].iter().copied())
                .collect();
            pairs.sort_by_key(|&(t, _)| t);
            for (k, (t, w)) in pairs.into_iter().enumerate() {
                if k > 0 && targets[lo + k - 1] == t {
                    return Err(GraphError::DuplicateEdge {
                        u: NodeId(i as u32),
                        v: NodeId(t),
                    });
                }
                targets[lo + k] = t;
                weights[lo + k] = w;
            }
        }
        Ok(Graph {
            topo: Arc::new(Topology {
                xs: self.xs,
                ys: self.ys,
                offsets,
                adj_targets: targets,
            }),
            adj_weights: weights,
            num_edges: self.edges.len(),
            min_weight,
            max_weight,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edge_validation() {
        let mut b = GraphBuilder::new();
        let u = b.add_node(0.0, 0.0);
        let v = b.add_node(1.0, 0.0);
        assert!(b.add_edge(u, v, 1.0).is_ok());
        assert!(matches!(
            b.add_edge(u, u, 1.0),
            Err(GraphError::SelfLoop(_))
        ));
        assert!(matches!(
            b.add_edge(u, NodeId(9), 1.0),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            b.add_edge(u, v, -1.0),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            b.add_edge(u, v, f64::NAN),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            b.add_edge(u, v, f64::INFINITY),
            Err(GraphError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn zero_weight_edges_allowed() {
        let mut b = GraphBuilder::new();
        let u = b.add_node(0.0, 0.0);
        let v = b.add_node(0.0, 0.0);
        assert!(b.add_edge(u, v, 0.0).is_ok());
        let g = b.build();
        assert_eq!(g.edge_weight(u, v), Some(0.0));
    }

    #[test]
    fn duplicate_edge_rejected_at_build() {
        let mut b = GraphBuilder::new();
        let u = b.add_node(0.0, 0.0);
        let v = b.add_node(1.0, 0.0);
        b.add_edge(u, v, 1.0).unwrap();
        b.add_edge(v, u, 2.0).unwrap(); // same undirected edge
        assert!(matches!(
            b.try_build(),
            Err(GraphError::DuplicateEdge { .. })
        ));
    }

    #[test]
    fn empty_graph_builds() {
        let g = GraphBuilder::new().build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn isolated_nodes_have_no_neighbors() {
        let mut b = GraphBuilder::new();
        let u = b.add_node(0.0, 0.0);
        b.add_node(5.0, 5.0);
        let v = b.add_node(1.0, 1.0);
        b.add_edge(u, v, 1.4).unwrap();
        let g = b.build();
        assert_eq!(g.degree(NodeId(1)), 0);
        assert_eq!(g.degree(u), 1);
    }

    #[test]
    fn has_edge_scan() {
        let mut b = GraphBuilder::new();
        let u = b.add_node(0.0, 0.0);
        let v = b.add_node(1.0, 0.0);
        let w = b.add_node(2.0, 0.0);
        b.add_edge(u, v, 1.0).unwrap();
        assert!(b.has_edge(u, v));
        assert!(b.has_edge(v, u));
        assert!(!b.has_edge(u, w));
    }
}
