//! Criterion micro-benchmarks for the graph substrate: the shortest
//! path algorithms the methods build on, the Floyd–Warshall vs
//! all-pairs-Dijkstra comparison behind the FULL realization note, and
//! landmark machinery.

use criterion::{criterion_group, criterion_main, Criterion};
use spnet_graph::algo::{apsp_dijkstra, dijkstra_path, floyd_warshall};
use spnet_graph::gen::grid_network;
use spnet_graph::landmark::{
    select_landmarks, LandmarkStrategy, LandmarkVectors, QuantizedVectors,
};
use spnet_graph::NodeId;
use std::hint::black_box;

fn bench_point_to_point(c: &mut Criterion) {
    let g = grid_network(40, 40, 1.1, 1);
    let (s, t) = (NodeId(0), NodeId(1599));
    let mut grp = c.benchmark_group("p2p_1600");
    grp.bench_function("dijkstra", |b| {
        b.iter(|| dijkstra_path(&g, black_box(s), black_box(t)).unwrap())
    });
    grp.finish();
}

fn bench_all_pairs(c: &mut Criterion) {
    // The FULL construction trade-off: O(V³) vs V × Dijkstra.
    let g = grid_network(14, 14, 1.1, 3);
    let mut grp = c.benchmark_group("apsp_196");
    grp.sample_size(10);
    grp.bench_function("floyd_warshall", |b| {
        b.iter(|| floyd_warshall(black_box(&g)))
    });
    grp.bench_function("repeated_dijkstra", |b| {
        b.iter(|| apsp_dijkstra(black_box(&g)))
    });
    grp.finish();
}

fn bench_landmarks(c: &mut Criterion) {
    let g = grid_network(30, 30, 1.1, 4);
    let mut grp = c.benchmark_group("landmarks_900");
    grp.sample_size(10);
    grp.bench_function("select_farthest_16", |b| {
        b.iter(|| select_landmarks(&g, 16, LandmarkStrategy::Farthest, 5))
    });
    let lms = select_landmarks(&g, 16, LandmarkStrategy::Farthest, 5);
    grp.bench_function("vectors_16", |b| {
        b.iter(|| LandmarkVectors::compute(&g, black_box(&lms)))
    });
    let lv = LandmarkVectors::compute(&g, &lms);
    grp.bench_function("quantize_12b", |b| {
        b.iter(|| QuantizedVectors::quantize(black_box(&lv), 12))
    });
    grp.finish();
}

criterion_group!(
    benches,
    bench_point_to_point,
    bench_all_pairs,
    bench_landmarks
);
criterion_main!(benches);
