//! Operation lists and their plain-Dijkstra answers, made from the
//! seed. This is harness cost: none of it is timed, and the program
//! under test sees only the graph, the key and these lists.

use crate::spec::{self, Spec};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spnet_graph::algo::dijkstra_path;
use spnet_graph::search::SearchWorkspace;
use spnet_graph::workload::make_workload;
use spnet_graph::{Graph, NodeId};
use std::collections::HashSet;

pub type Pair = (NodeId, NodeId);

/// A list of pairs with the oracle distance of each and whether it
/// belongs to the long-range class.
pub struct PairList {
    pub pairs: Vec<Pair>,
    pub dist: Vec<f64>,
    pub long: Vec<bool>,
}

pub struct Inputs {
    /// Distinct-source pairs, every fourth one long range.
    pub query: PairList,
    /// `queries / 4` sources × 4 targets each, same class mix by source.
    pub stream: PairList,
    /// Sources of the range phase.
    pub range_sources: Vec<NodeId>,
    /// Sources of the k-NN phase.
    pub knn_sources: Vec<NodeId>,
    pub pois: Vec<(NodeId, f64)>,
    /// Edges re-weighted by the churn phase, with their new weight.
    pub updates: Vec<(NodeId, NodeId, f64)>,
}

/// Equal up to the rounding of summing the same edges in another order.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * b.abs().max(1.0)
}

pub fn oracle_distance(g: &Graph, (s, t): Pair) -> f64 {
    dijkstra_path(g, s, t).map_or(f64::INFINITY, |p| p.distance)
}

/// `count` pairs near `range` whose sources are not yet in `used`.
fn distinct_source_pairs(
    g: &Graph,
    range: f64,
    count: usize,
    seed: u64,
    used: &mut HashSet<NodeId>,
) -> Vec<Pair> {
    let mut out = Vec::with_capacity(count);
    let mut round = 0u64;
    while out.len() < count {
        let want = (count - out.len()) * 3 / 2 + 8;
        for (s, t) in make_workload(g, range, want, seed.wrapping_add(round << 32)).pairs {
            if out.len() < count && used.insert(s) {
                out.push((s, t));
            }
        }
        round += 1;
        assert!(round < 64, "graph too small for {count} distinct sources");
    }
    out
}

/// Interleaves three short pairs with one long pair.
fn mix(short: Vec<Pair>, long: Vec<Pair>) -> (Vec<Pair>, Vec<bool>) {
    let (mut s, mut l) = (short.into_iter(), long.into_iter());
    let mut pairs = Vec::new();
    let mut is_long = Vec::new();
    loop {
        let before = pairs.len();
        for _ in 0..3 {
            if let Some(p) = s.next() {
                pairs.push(p);
                is_long.push(false);
            }
        }
        if let Some(p) = l.next() {
            pairs.push(p);
            is_long.push(true);
        }
        if pairs.len() == before {
            return (pairs, is_long);
        }
    }
}

pub fn make(g: &Graph, spec: &Spec, seed: u64) -> Inputs {
    let n = spec::QUERIES;
    let mut used = HashSet::new();
    let short = distinct_source_pairs(g, spec::SHORT_RANGE, n - n / 4, seed ^ 0x51, &mut used);
    let long = distinct_source_pairs(g, spec::LONG_RANGE, n / 4, seed ^ 0x52, &mut used);
    let (pairs, is_long) = mix(short, long);
    let dist = pairs.iter().map(|&p| oracle_distance(g, p)).collect();
    let query = PairList {
        pairs,
        dist,
        long: is_long,
    };

    // Stream list: each source keeps its workload target and gets three
    // more at 0.5–1.5× its range, so a chunk of 16 holds 4 sources.
    let sources = n / 4;
    let mut used = HashSet::new();
    let s_short = distinct_source_pairs(
        g,
        spec::SHORT_RANGE,
        sources - sources / 4,
        seed ^ 0x53,
        &mut used,
    );
    let s_long = distinct_source_pairs(g, spec::LONG_RANGE, sources / 4, seed ^ 0x54, &mut used);
    let (seeds, seed_long) = mix(s_short, s_long);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x55);
    let mut ws = SearchWorkspace::with_capacity(g.num_nodes());
    let mut stream = PairList {
        pairs: Vec::with_capacity(n),
        dist: Vec::with_capacity(n),
        long: Vec::with_capacity(n),
    };
    for (&(s, t0), &is_long) in seeds.iter().zip(&seed_long) {
        let range = if is_long {
            spec::LONG_RANGE
        } else {
            spec::SHORT_RANGE
        };
        let ball = ws.ball(g, s, range * 1.5);
        let ring: Vec<NodeId> = ball
            .settled_nodes()
            .filter(|&v| v != s && v != t0 && ball.dist(v) >= range * 0.5)
            .collect();
        let mut targets = vec![t0];
        while targets.len() < 4 {
            let v = if ring.is_empty() {
                t0
            } else {
                ring[rng.random_range(0..ring.len())]
            };
            targets.push(v);
        }
        for t in targets {
            stream.pairs.push((s, t));
            stream.dist.push(ball.dist(t));
            stream.long.push(is_long);
        }
    }

    let range_sources = query
        .pairs
        .iter()
        .zip(&query.long)
        .filter(|(_, &l)| !l)
        .map(|(&(s, _), _)| s)
        .take(spec::RANGE_SOURCES)
        .collect();

    // One district's POI directory: POIs and k-NN sources are drawn
    // from the `DISTRICT_NODES` nodes nearest a seeded centre. (POIs
    // spread over the whole network would make every k-NN certificate
    // 32 network-wide proofs: 0.76 s per operation under DIJ at 100k.)
    let mut rng = StdRng::seed_from_u64(seed ^ 0x56);
    let centre = query.pairs[3].0;
    let from_centre = ws.sssp(g, centre);
    let mut district: Vec<NodeId> = from_centre.settled_nodes().collect();
    district.sort_by(|&a, &b| from_centre.dist(a).total_cmp(&from_centre.dist(b)));
    district.truncate(spec::DISTRICT_NODES);
    let mut draw = |count: usize| {
        assert!(district.len() >= count, "district smaller than {count}");
        let mut picked = HashSet::new();
        while picked.len() < count {
            picked.insert(district[rng.random_range(0..district.len())]);
        }
        let mut nodes: Vec<NodeId> = picked.into_iter().collect();
        nodes.sort_by_key(|v| v.0);
        nodes
    };
    let pois = draw(spec::POIS)
        .into_iter()
        .map(|v| (v, v.0 as f64))
        .collect();
    let knn_sources = draw(spec::KNN_SOURCES);

    let edges: Vec<(NodeId, NodeId, f64)> = g.edges().collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57);
    let mut picked = HashSet::new();
    let mut updates = Vec::with_capacity(spec.updates);
    while updates.len() < spec.updates {
        let i = rng.random_range(0..edges.len());
        if picked.insert(i) {
            let (u, v, w) = edges[i];
            updates.push((u, v, w * 1.5));
        }
    }

    Inputs {
        query,
        stream,
        range_sources,
        knn_sources,
        pois,
        updates,
    }
}
