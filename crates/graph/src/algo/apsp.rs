//! All-pairs shortest paths via repeated Dijkstra.
//!
//! Identical output to Floyd–Warshall but O(|V|·(|E| + |V| log |V|))
//! on sparse road networks (|E| ≈ 1.05·|V| in the paper's datasets).
//! One [`crate::search::SearchWorkspace`] is reused across all sources,
//! so the per-source cost is pure search.

use crate::algo::floyd_warshall::DistanceMatrix;
use crate::graph::Graph;
use crate::ids::NodeId;

/// Sequential all-pairs via |V| Dijkstra runs on one reused workspace.
pub fn apsp_dijkstra(g: &Graph) -> DistanceMatrix {
    let n = g.num_nodes();
    let mut m = DistanceMatrix::new(n);
    let mut ws = crate::search::SearchWorkspace::with_capacity(n);
    for s in 0..n {
        let r = ws.sssp(g, NodeId(s as u32));
        for t in 0..n {
            m.set(s, t, r.dist(NodeId(t as u32)));
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::floyd_warshall::floyd_warshall;
    use crate::gen::grid_network;

    #[test]
    fn apsp_matches_floyd_warshall() {
        let g = grid_network(7, 7, 1.2, 30);
        let (a, b) = (apsp_dijkstra(&g), floyd_warshall(&g));
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            for j in 0..a.len() {
                let (x, y) = (a.get(i, j), b.get(i, j));
                if x.is_infinite() {
                    assert!(y.is_infinite(), "({i},{j})");
                } else {
                    assert!((x - y).abs() < 1e-9, "({i},{j}): {x} vs {y}");
                }
            }
        }
    }
}
