//! Criterion micro-benchmarks for the reusable search workspace.
//!
//! The tentpole perf claim — workspace reuse makes repeated Dijkstra
//! runs ≥ 2× faster than the seed's fresh-allocation implementation —
//! is measured here: every `reference/*` bench is the seed code
//! (`spnet_graph::algo::dijkstra::reference`), every `workspace/*`
//! bench the generation-stamped 4-ary-heap implementation on one
//! reused [`SearchWorkspace`]. `landmark_repair/*` times LDM's
//! in-place row repair against the full rows it replaces, and
//! `epoch_update/*` one owner update through the serving facade.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::methods::{LdmConfig, MethodConfig};
use spnet_core::owner::{DataOwner, SetupConfig};
use spnet_core::SpService;
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::algo::dijkstra::reference;
use spnet_graph::gen::{grid_network, road_network};
use spnet_graph::landmark::repair_row;
use spnet_graph::search::SearchWorkspace;
use spnet_graph::NodeId;
use std::hint::black_box;
use std::sync::Arc;

/// Repeated full SSSP on a mid-size network (the FULL/HYP/landmark
/// construction pattern).
fn bench_repeated_sssp(c: &mut Criterion) {
    let g = grid_network(100, 100, 1.1, 21);
    let sources: Vec<NodeId> = (0..16u32).map(|i| NodeId(i * 625)).collect();
    let mut grp = c.benchmark_group("repeated_sssp_10k");
    grp.bench_function("reference", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for &s in &sources {
                let r = reference::sssp(&g, black_box(s));
                acc += r.dist[9999];
            }
            acc
        })
    });
    grp.bench_function("workspace", |b| {
        let mut ws = SearchWorkspace::with_capacity(g.num_nodes());
        b.iter(|| {
            let mut acc = 0.0f64;
            for &s in &sources {
                let r = ws.sssp(&g, black_box(s));
                acc += r.dist(NodeId(9999));
            }
            acc
        })
    });
    grp.finish();
}

/// Walks `hops` edges from `s` (without immediate backtracking) to
/// find a genuinely nearby target.
fn hop_target(g: &spnet_graph::Graph, s: NodeId, hops: usize) -> NodeId {
    let mut cur = s;
    let mut prev = s;
    for _ in 0..hops {
        let next = g
            .neighbors(cur)
            .map(|(u, _)| u)
            .find(|&u| u != prev)
            .unwrap_or(prev);
        prev = cur;
        cur = next;
    }
    cur
}

/// Short-range queries on a large network — the provider's serving
/// pattern, where per-query allocation dominates the seed.
fn bench_short_queries(c: &mut Criterion) {
    let g = grid_network(160, 160, 1.1, 22);
    // Queries a handful of edge hops apart.
    let queries: Vec<(NodeId, NodeId)> = (0..64u32)
        .map(|i| {
            let s = NodeId(i * 397);
            (s, hop_target(&g, s, 6))
        })
        .collect();
    let mut grp = c.benchmark_group("short_p2p_25k");
    grp.bench_function("reference", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for &(s, t) in &queries {
                acc += reference::path(&g, black_box(s), black_box(t))
                    .unwrap()
                    .distance;
            }
            acc
        })
    });
    grp.bench_function("workspace", |b| {
        let mut ws = SearchWorkspace::with_capacity(g.num_nodes());
        b.iter(|| {
            let mut acc = 0.0f64;
            for &(s, t) in &queries {
                acc += ws.distance(&g, black_box(s), black_box(t)).unwrap();
            }
            acc
        })
    });
    grp.finish();
}

/// Bounded balls (the DIJ/LDM Γ assembly pattern).
fn bench_balls(c: &mut Criterion) {
    let g = grid_network(100, 100, 1.1, 23);
    let sources: Vec<NodeId> = (0..32u32).map(|i| NodeId(i * 311)).collect();
    let radius = 800.0;
    let mut grp = c.benchmark_group("ball_r800_10k");
    grp.bench_function("reference", |b| {
        b.iter(|| {
            let mut n = 0usize;
            for &s in &sources {
                let r = reference::ball(&g, black_box(s), radius);
                n += r.dist.iter().filter(|d| d.is_finite()).count();
            }
            n
        })
    });
    grp.bench_function("workspace", |b| {
        let mut ws = SearchWorkspace::with_capacity(g.num_nodes());
        b.iter(|| {
            let mut n = 0usize;
            for &s in &sources {
                let r = ws.ball(&g, black_box(s), radius);
                n += r.settled_nodes().count();
            }
            n
        })
    });
    grp.finish();
}

/// One edge increase on a sparse 10k-node road (|E|/|V| = 1.05, the
/// LDM update pattern): the 16 landmark rows repaired in place against
/// the 16 SSSP rows the repair replaces.
fn bench_landmark_repair(c: &mut Criterion) {
    let mut g = road_network(100, 100, 1.05, 1.0, 24);
    let landmarks: Vec<NodeId> = (0..16u32).map(|i| NodeId(i * 625)).collect();
    let mut ws = SearchWorkspace::with_capacity(g.num_nodes());
    let rows: Vec<Arc<[f64]>> = landmarks
        .iter()
        .map(|&l| ws.sssp(&g, l).dist_vec().into())
        .collect();
    // An edge mid-network on the first landmark's shortest-path tree,
    // raised by half.
    let (u, v, w) = g
        .edges()
        .skip(g.num_edges() / 2)
        .find(|&(a, b, w)| rows[0][b.index()] == rows[0][a.index()] + w)
        .expect("a connected road has tree edges");
    g.set_edge_weight(u, v, w * 1.5);
    let mut grp = c.benchmark_group("landmark_repair");
    // Each sample repairs private copies of the rows, so this times the
    // repair alone; `epoch_update` also pays for copying the rows an
    // edge reaches out of the previous epoch.
    grp.bench_function("incremental", |b| {
        b.iter_batched(
            || rows.iter().map(|r| Arc::from(&r[..])).collect::<Vec<_>>(),
            |mut rows| {
                for (row, &l) in rows.iter_mut().zip(&landmarks) {
                    repair_row(&g, l, row, u, v, w);
                }
                rows
            },
            BatchSize::LargeInput,
        )
    });
    grp.bench_function("full", |b| {
        b.iter(|| {
            landmarks
                .iter()
                .map(|&l| ws.sssp(&g, black_box(l)).dist_vec())
                .collect::<Vec<_>>()
        })
    });
    grp.finish();
}

/// One owner update through `SpService::update_edge_weight` — clone
/// the serving package, repair it, re-sign the root, publish the epoch
/// and drop the one it evicts — for LDM with c = 8 on a 10k-node road,
/// with the default ring of epochs. Updates cycle over edges spread
/// across the network, raising each by half and restoring it on the
/// next pass.
fn bench_epoch_update(c: &mut Criterion) {
    let g = road_network(100, 100, 1.05, 1.0, 25);
    let mut rng = StdRng::seed_from_u64(25);
    let keypair = RsaKeyPair::generate(&mut rng, 1024);
    let method = MethodConfig::Ldm(LdmConfig {
        landmarks: 8,
        ..LdmConfig::default()
    });
    let published = DataOwner::publish_with_key(&g, &method, &SetupConfig::default(), &keypair);
    let service = SpService::builder()
        .package(published.package)
        .threads(0)
        .build();
    let edges: Vec<(NodeId, NodeId, f64)> = g.edges().step_by(g.num_edges() / 64).collect();
    let mut next = 0usize;
    let mut grp = c.benchmark_group("epoch_update");
    grp.bench_function("ldm_c8_10k", |b| {
        b.iter(|| {
            let (u, v, w) = edges[next % edges.len()];
            let raise = (next / edges.len()).is_multiple_of(2);
            next += 1;
            service
                .update_edge_weight(&keypair, u, v, if raise { w * 1.5 } else { w })
                .expect("edge exists")
        })
    });
    grp.finish();
}

criterion_group!(
    benches,
    bench_repeated_sssp,
    bench_short_queries,
    bench_balls,
    bench_landmark_repair,
    bench_epoch_update
);
criterion_main!(benches);
