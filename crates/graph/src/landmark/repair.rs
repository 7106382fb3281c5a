//! In-place repair of an exact single-source distance row after one
//! edge-weight change: the dynamic shortest-path update of Ramalingam
//! & Reps ("An incremental algorithm for a generalization of the
//! shortest-path problem", J. Algorithms 21, 1996), for one undirected
//! edge.
//!
//! For weights ≥ 0, a Dijkstra row is, bit for bit, the minimum over
//! paths of the left-to-right float sum of the path's weights: float
//! addition is monotone, so Dijkstra's exchange argument holds on
//! rounded sums. The repair keeps every entry whose minimum provably
//! did not move, and recomputes the rest from the same sums. The
//! repaired row therefore equals a fresh
//! [`SearchWorkspace::sssp`](crate::search::SearchWorkspace::sssp) row
//! to the last bit.

use crate::graph::Graph;
use crate::ids::NodeId;
use crate::ofloat::OrderedF64;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
use std::sync::Arc;

type Frontier = BinaryHeap<Reverse<(OrderedF64, u32)>>;

/// Repairs `row`, the exact distances from `source` before edge
/// `(u, v)` changed from weight `w_old`, in place for `g`, which
/// already carries the new weight. Returns the nodes whose entry
/// changed, each once, in no particular order.
///
/// * *Decrease:* the endpoint that improves seeds a Dijkstra that
///   relaxes only strict improvements.
/// * *Increase:* every node with a tight parent chain
///   (`dist[y] == dist[x] + w`) through the edge at `w_old` is reset
///   and re-seeded from its neighbours, then settled by Dijkstra.
///   Every other node keeps a tight chain that avoids the edge, so its
///   entry cannot move.
///
/// A row the edge does not reach returns after two comparisons,
/// read-only: `row` is made mutable ([`Arc::make_mut`], which copies a
/// row shared with another clone) only when the change reaches it.
///
/// # Panics
/// Panics if `(u, v)` is not an edge of `g`, or `row` does not cover
/// `g`'s nodes.
pub fn repair_row(
    g: &Graph,
    source: NodeId,
    row: &mut Arc<[f64]>,
    u: NodeId,
    v: NodeId,
    w_old: f64,
) -> Vec<NodeId> {
    assert_eq!(row.len(), g.num_nodes(), "row length mismatch");
    let w_new = g.edge_weight(u, v).expect("repaired edge must exist");
    if !reaches(source, row, u, v, w_old, w_new) {
        return Vec::new();
    }
    let row = Arc::make_mut(row);
    if w_new < w_old {
        lower(g, row, u, v, w_new)
    } else {
        raise(g, source, row, u, v, w_old)
    }
}

/// Whether re-weighting `(u, v)` from `w_old` to `w_new` can move an
/// entry of `row`: a decrease that improves an endpoint, or an
/// increase on an edge some shortest path leaves the source through
/// (an endpoint's entry is tight across it). The seeds [`lower`] and
/// [`raise`] start from.
fn reaches(source: NodeId, row: &[f64], u: NodeId, v: NodeId, w_old: f64, w_new: f64) -> bool {
    [(u, v), (v, u)].into_iter().any(|(a, b)| {
        let (da, db) = (row[a.index()], row[b.index()]);
        if w_new < w_old {
            da + w_new < db
        } else {
            w_new > w_old && b != source && da.is_finite() && db == da + w_old
        }
    })
}

/// Weight decrease: only nodes reached more cheaply through the edge
/// change, and each of them is settled exactly once.
fn lower(g: &Graph, row: &mut [f64], u: NodeId, v: NodeId, w_new: f64) -> Vec<NodeId> {
    let mut frontier = Frontier::new();
    for (a, b) in [(u, v), (v, u)] {
        let d = row[a.index()] + w_new;
        if d < row[b.index()] {
            row[b.index()] = d;
            frontier.push(Reverse((OrderedF64(d), b.0)));
        }
    }
    settle(g, row, frontier)
}

/// Weight increase: reset the nodes whose distance may have routed
/// through the edge, re-seed them from the rest, and settle them.
fn raise(
    g: &Graph,
    source: NodeId,
    row: &mut [f64],
    u: NodeId,
    v: NodeId,
    w_old: f64,
) -> Vec<NodeId> {
    // (node, pre-update distance) of every possibly invalid entry.
    let mut invalid: Vec<(NodeId, f64)> = Vec::new();
    let mut seen: HashSet<u32> = HashSet::new();
    for (a, b) in [(u, v), (v, u)] {
        let (da, db) = (row[a.index()], row[b.index()]);
        if b != source && da.is_finite() && db == da + w_old && seen.insert(b.0) {
            invalid.push((b, db));
        }
    }
    if invalid.is_empty() {
        return Vec::new();
    }
    // Grow the set along tight edges: the shortest-path subtrees
    // hanging off the edge. The edge's own old-weight tightness was
    // seeded above; its new weight can only add members, which is
    // harmless.
    let mut next = 0;
    while let Some(&(x, dx)) = invalid.get(next) {
        next += 1;
        for (y, w) in g.neighbors(x) {
            let dy = row[y.index()];
            if y != source && dy == dx + w && seen.insert(y.0) {
                invalid.push((y, dy));
            }
        }
    }
    for &(x, _) in &invalid {
        row[x.index()] = f64::INFINITY;
    }
    // Seed each member from its neighbours outside the set (members
    // read as ∞ and contribute nothing).
    let seeds: Vec<(NodeId, f64)> = invalid
        .iter()
        .map(|&(x, _)| {
            let best = g
                .neighbors(x)
                .map(|(y, w)| row[y.index()] + w)
                .fold(f64::INFINITY, f64::min);
            (x, best)
        })
        .collect();
    let mut frontier = Frontier::new();
    for (x, d) in seeds {
        if d.is_finite() {
            row[x.index()] = d;
            frontier.push(Reverse((OrderedF64(d), x.0)));
        }
    }
    settle(g, row, frontier);
    invalid
        .into_iter()
        .filter(|&(x, old)| row[x.index()].to_bits() != old.to_bits())
        .map(|(x, _)| x)
        .collect()
}

/// Dijkstra from the queued entries over `row`'s current values,
/// relaxing only strict improvements. Returns the nodes it settled.
fn settle(g: &Graph, row: &mut [f64], mut frontier: Frontier) -> Vec<NodeId> {
    let mut settled = Vec::new();
    while let Some(Reverse((OrderedF64(d), x))) = frontier.pop() {
        // Each push strictly lowers the entry, so only a node's newest
        // entry matches its current value.
        if d.to_bits() != row[x as usize].to_bits() {
            continue;
        }
        settled.push(NodeId(x));
        for (y, w) in g.neighbors(NodeId(x)) {
            let nd = d + w;
            if nd < row[y.index()] {
                row[y.index()] = nd;
                frontier.push(Reverse((OrderedF64(nd), y.0)));
            }
        }
    }
    settled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::gen::road_network;
    use crate::search::SearchWorkspace;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Applies `updates` random re-weights to `g` and repairs one row
    /// after each, checking that it equals a fresh SSSP bit for bit and
    /// that exactly the differing entries were reported.
    fn check_sequence(mut g: Graph, source: NodeId, updates: usize, seed: u64) {
        let mut ws = SearchWorkspace::new();
        let mut row: Arc<[f64]> = ws.sssp(&g, source).dist_vec().into();
        let edges: Vec<(NodeId, NodeId)> = g.edges().map(|(a, b, _)| (a, b)).collect();
        let at_source: Vec<(NodeId, NodeId)> =
            g.neighbors(source).map(|(b, _)| (source, b)).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for step in 0..updates {
            // Every fifth update touches the source. Weights go to
            // zero, down, nowhere, up, or far up.
            let (u, v) = if step % 5 == 0 && !at_source.is_empty() {
                at_source[rng.random_range(0..at_source.len())]
            } else {
                edges[rng.random_range(0..edges.len())]
            };
            let w_old = g.edge_weight(u, v).unwrap();
            let w_new = match rng.random_range(0..5u32) {
                0 => 0.0,
                1 => w_old * rng.random_range(0.1f64..1.0),
                2 => w_old,
                3 => w_old * rng.random_range(1.0f64..2.0) + 1.0,
                _ => w_old * 50.0 + 100.0,
            };
            g.set_edge_weight(u, v, w_new).unwrap();
            let before = row.clone();
            let mut changed = repair_row(&g, source, &mut row, u, v, w_old);
            let want = ws.sssp(&g, source).dist_vec();
            for (x, (got, want)) in row.iter().zip(&want).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "step {step}: ({u},{v}) {w_old} -> {w_new}, node {x}"
                );
            }
            let mut expect: Vec<NodeId> = (0..row.len())
                .filter(|&x| before[x].to_bits() != row[x].to_bits())
                .map(|x| NodeId(x as u32))
                .collect();
            changed.sort_unstable();
            expect.sort_unstable();
            assert_eq!(changed, expect, "step {step}: reported changes");
        }
    }

    #[test]
    fn repaired_rows_match_fresh_sssp_bit_for_bit() {
        for (i, ratio) in [1.0, 1.05, 1.5].into_iter().enumerate() {
            for seed in 0..3u64 {
                let g = road_network(9, 9, ratio, 1.0, 70 + seed);
                let source = NodeId((seed as u32 * 37) % 81);
                check_sequence(g, source, 50, 100 * i as u64 + seed);
            }
        }
    }

    #[test]
    fn disconnected_rows_keep_infinite_entries() {
        // A road grid plus a separate 3-node path and an isolated node.
        let base = road_network(6, 6, 1.05, 1.0, 77);
        let mut b = GraphBuilder::new();
        for v in base.nodes() {
            let (x, y) = base.coords(v);
            b.add_node(x, y);
        }
        for (u, v, w) in base.edges() {
            b.add_edge(u, v, w).unwrap();
        }
        let extra: Vec<NodeId> = (0..4).map(|i| b.add_node(i as f64, -1.0)).collect();
        b.add_edge(extra[0], extra[1], 2.0).unwrap();
        b.add_edge(extra[1], extra[2], 3.0).unwrap();
        let g = b.build();
        check_sequence(g.clone(), NodeId(0), 50, 5);
        // Rooted in the small component: the grid stays unreachable.
        check_sequence(g, extra[1], 50, 6);
    }

    #[test]
    fn unreached_rows_and_unchanged_weights_report_nothing() {
        let mut g = road_network(6, 6, 1.5, 1.0, 78);
        let mut ws = SearchWorkspace::new();
        let mut row: Arc<[f64]> = ws.sssp(&g, NodeId(0)).dist_vec().into();
        let (u, v, w) = g.edges().next().unwrap();
        // A row the change does not reach is not copied, even when
        // another clone shares it.
        let shared = Arc::clone(&row);
        assert!(repair_row(&g, NodeId(0), &mut row, u, v, w).is_empty());
        assert!(Arc::ptr_eq(&shared, &row));
        // Raising an edge no shortest path uses changes no entry.
        let (a, b, w) = g
            .edges()
            .find(|&(a, b, w)| {
                row[b.index()] != row[a.index()] + w && row[a.index()] != row[b.index()] + w
            })
            .expect("a 1.5-ratio grid has a non-tree edge");
        g.set_edge_weight(a, b, w * 4.0).unwrap();
        assert!(repair_row(&g, NodeId(0), &mut row, a, b, w).is_empty());
        assert!(Arc::ptr_eq(&shared, &row));
    }
}
