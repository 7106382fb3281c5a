//! Dynamic-update integration tests: randomized update sequences must
//! converge to exactly the state a fresh publish of the final graph
//! would produce (bit-identical roots and proofs), the incremental
//! snapshot refresh must round-trip through both store backends, and
//! MVCC sessions must drain across owner updates.
//!
//! Determinism argument these tests pin down: every repaired entry is
//! recomputed by the same SSSP (same float summation order) a fresh
//! build would run, and every clean entry is a deterministic function
//! of the graph bits — so after any update sequence the provider's
//! authenticated state is byte-for-byte the fresh-publish state, and
//! the deterministic RSA signatures match too.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spnet_core::methods::{LdmConfig, MethodConfig};
use spnet_core::owner::{DataOwner, MethodHints, ProviderPackage};
use spnet_core::prelude::*;
use spnet_core::snapshot::{load_package, update_snapshot, SnapshotRefresh};
use spnet_core::update::update_edge_weight;
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::algo::{dijkstra_path, dijkstra_sssp};
use spnet_graph::gen::{grid_network, road_network};
use spnet_graph::landmark::LandmarkStrategy;
use spnet_graph::{Graph, NodeId};
use std::path::PathBuf;

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spnet-churn-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// All four methods, configured for bit-identity under updates: FULL
/// repairs rows with Dijkstra (so no Floyd–Warshall float ordering),
/// LDM selects landmarks weight-independently (`Random`) so a fresh
/// publish of the updated graph picks the same set.
fn all_methods() -> Vec<MethodConfig> {
    vec![
        MethodConfig::Dij,
        MethodConfig::Full {
            use_floyd_warshall: false,
        },
        MethodConfig::Ldm(LdmConfig {
            landmarks: 6,
            strategy: LandmarkStrategy::Random,
            ..LdmConfig::default()
        }),
        MethodConfig::Hyp { cells: 9 },
    ]
}

/// `n` random positive weight updates, applied identically to the
/// package (incremental repair) and to a plain graph (ground truth).
fn random_updates(
    pkg: &mut spnet_core::owner::ProviderPackage,
    truth: &mut Graph,
    kp: &RsaKeyPair,
    n: usize,
    seed: u64,
) {
    let edges: Vec<(NodeId, NodeId, f64)> = truth.edges().collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..n {
        let (u, v, _) = edges[rng.random_range(0..edges.len())];
        let w = rng.random_range(0.05f64..8.0);
        update_edge_weight(pkg, kp, u, v, w).unwrap();
        truth.set_edge_weight(u, v, w).unwrap();
    }
}

/// Byte-level equality of two packages' authenticated state: network
/// root (digest + signature + signed metadata) and every auxiliary
/// signed root.
fn assert_signed_state_eq(
    a: &spnet_core::owner::ProviderPackage,
    b: &spnet_core::owner::ProviderPackage,
    ctx: &str,
) {
    assert_eq!(a.network_root, b.network_root, "{ctx}: network root");
    let (ra, rb) = (a.hints.aux_roots(), b.hints.aux_roots());
    assert_eq!(ra.len(), rb.len(), "{ctx}: aux root count");
    for (x, y) in ra.iter().zip(&rb) {
        assert_eq!(*x, *y, "{ctx}: aux root");
    }
}

const PROBES: [(u32, u32); 4] = [(0, 80), (8, 72), (40, 41), (80, 0)];

/// The tentpole property: N random in-place updates ≡ a fresh publish
/// of the final graph, for every method — same signed roots (deter-
/// ministic RSA over identical digests) and verifying answers with
/// the fresh-publish truth.
#[test]
fn update_sequences_match_fresh_publish_bit_for_bit() {
    for seed in [31u64, 32, 33] {
        let g = grid_network(9, 9, 1.15, 4400 + seed);
        let kp = {
            let mut rng = StdRng::seed_from_u64(4500 + seed);
            RsaKeyPair::generate(&mut rng, 256)
        };
        for method in all_methods() {
            let p = DataOwner::publish_with_key(&g, &method, &SetupConfig::default(), &kp);
            let mut pkg = p.package;
            let mut truth = g.clone();
            random_updates(&mut pkg, &mut truth, &kp, 4, 9000 + seed);
            let fresh = DataOwner::publish_with_key(&truth, &method, &SetupConfig::default(), &kp);
            assert_signed_state_eq(&pkg, &fresh.package, method.name());
            // And the updated provider serves verifying answers with
            // the final graph's distances.
            let client = Client::new(kp.public_key().clone());
            let provider = ServiceProvider::new(pkg);
            for &(s, t) in &PROBES {
                let (s, t) = (NodeId(s), NodeId(t));
                let a = provider.answer(s, t).unwrap();
                let v = client.verify(s, t, &a).unwrap();
                let want = dijkstra_path(&truth, s, t).unwrap().distance;
                assert!(
                    (v.distance - want).abs() <= 1e-6 * want.max(1.0),
                    "{}: updated provider must serve the new truth",
                    method.name()
                );
            }
        }
    }
}

/// LDM on the benchmark's sparse road shape (|E|/|V| = 1.05, where
/// almost every edge lies on some landmark's shortest-path tree): 26
/// updates mixing increases, decreases, an unchanged weight and one
/// that moves λ, each matching a fresh publish of the graph so far,
/// with a snapshot reload mid-sequence (the exact rows are dropped and
/// re-seeded). Both requantise paths must run: the windowed re-sweep,
/// which keeps the signed λ (`new_params: None`), and the full one,
/// which hands λ back.
#[test]
fn ldm_updates_on_a_sparse_road_match_fresh_publish() {
    let g = road_network(12, 12, 1.05, 1.0, 4950);
    let kp = {
        let mut rng = StdRng::seed_from_u64(4951);
        RsaKeyPair::generate(&mut rng, 256)
    };
    let method = MethodConfig::Ldm(LdmConfig {
        landmarks: 6,
        strategy: LandmarkStrategy::Random,
        ..LdmConfig::default()
    });
    let p = DataOwner::publish_with_key(&g, &method, &SetupConfig::default(), &kp);
    let dir = tmpdir("ldm-sparse");
    spnet_core::snapshot::save_package(&p, &dir).unwrap();
    let lambda_of = |pkg: &ProviderPackage| match &pkg.hints {
        MethodHints::Ldm(h) => h.lambda(),
        _ => unreachable!("LDM package"),
    };

    let mut pkg = p.package;
    let mut truth = g.clone();
    let edges: Vec<(NodeId, NodeId, f64)> = g.edges().collect();
    let mut rng = StdRng::seed_from_u64(4952);
    let (mut windowed, mut full) = (0, 0);
    for step in 0..26 {
        if step == 13 {
            update_snapshot(&pkg, kp.public_key(), &dir).unwrap();
            pkg = load_package(&dir, StoreBackend::Mem).unwrap().package;
        }
        let (u, v, w) = if step == 8 {
            // Raise the first edge on the longest landmark path: Dmax,
            // and with it λ, must grow.
            let MethodHints::Ldm(h) = &pkg.hints else {
                unreachable!("LDM package")
            };
            let (_, l, t) = h
                .landmarks
                .iter()
                .flat_map(|&l| {
                    let row = dijkstra_sssp(&truth, l).dist;
                    truth.nodes().map(move |t| (row[t.index()], l, t))
                })
                .max_by(|a, b| a.0.total_cmp(&b.0))
                .unwrap();
            let path = dijkstra_path(&truth, l, t).unwrap();
            let (a, b) = (path.nodes[0], path.nodes[1]);
            (a, b, truth.edge_weight(a, b).unwrap())
        } else {
            let (a, b, _) = edges[rng.random_range(0..edges.len())];
            (a, b, truth.edge_weight(a, b).unwrap())
        };
        let w_new = match step {
            5 => w,
            8 => w + 5000.0,
            _ if step % 2 == 0 => w * rng.random_range(1.2f64..3.0),
            _ => w * rng.random_range(0.3f64..0.9),
        };
        let lambda_before = lambda_of(&pkg);
        let dirty = update_edge_weight(&mut pkg, &kp, u, v, w_new).unwrap();
        truth.set_edge_weight(u, v, w_new).unwrap();
        match dirty.new_params {
            None => windowed += 1,
            Some(_) => full += 1,
        }
        if step == 8 {
            assert_ne!(
                lambda_of(&pkg).to_bits(),
                lambda_before.to_bits(),
                "λ must move"
            );
            assert!(dirty.new_params.is_some(), "a moved λ is re-signed");
        }
        let fresh = DataOwner::publish_with_key(&truth, &method, &SetupConfig::default(), &kp);
        assert_signed_state_eq(&pkg, &fresh.package, &format!("LDM step {step}"));
    }
    assert!(windowed > 0, "the windowed re-sweep never ran");
    assert!(full >= 2, "the full requantise ran {full} times");
    std::fs::remove_dir_all(&dir).ok();
}

/// Incremental snapshot refresh: updates + [`update_snapshot`] leave a
/// file that loads (both backends) to exactly the updated package's
/// signed state — and the refresh takes the in-place path, rewriting
/// only a fraction of the file's pages.
#[test]
fn incremental_snapshot_refresh_round_trips_both_backends() {
    for method in all_methods() {
        let g = grid_network(9, 9, 1.15, 4600);
        let kp = {
            let mut rng = StdRng::seed_from_u64(4601);
            RsaKeyPair::generate(&mut rng, 256)
        };
        let p = DataOwner::publish_with_key(&g, &method, &SetupConfig::default(), &kp);
        let dir = tmpdir(&format!("refresh-{}", method.name()));
        spnet_core::snapshot::save_package(&p, &dir).unwrap();

        let mut pkg = p.package;
        let mut truth = g.clone();
        random_updates(&mut pkg, &mut truth, &kp, 3, 4602);
        let refresh = update_snapshot(&pkg, kp.public_key(), &dir).unwrap();
        match refresh {
            SnapshotRefresh::InPlace(stats) => {
                assert!(
                    stats.sections_rewritten > 0,
                    "{}: an update must dirty something",
                    method.name()
                );
                assert!(
                    stats.sections_rewritten < stats.sections_total,
                    "{}: clean sections (public key, node order) must \
                     be skipped ({} of {} rewritten)",
                    method.name(),
                    stats.sections_rewritten,
                    stats.sections_total
                );
                let file_len = std::fs::metadata(dir.join(spnet_core::snapshot::SNAPSHOT_FILE))
                    .unwrap()
                    .len();
                assert!(
                    stats.bytes_written < file_len,
                    "{}: in-place refresh must write less than the \
                     whole file ({} of {} bytes)",
                    method.name(),
                    stats.bytes_written,
                    file_len
                );
            }
            SnapshotRefresh::FullRewrite => {
                panic!("{}: expected the in-place path", method.name())
            }
        }

        for backend in [StoreBackend::Mem, StoreBackend::File] {
            let loaded = load_package(&dir, backend).unwrap();
            assert_signed_state_eq(&loaded.package, &pkg, method.name());
            let client = Client::new(loaded.public_key.clone());
            let provider = ServiceProvider::new(loaded.package);
            for &(s, t) in &PROBES {
                let (s, t) = (NodeId(s), NodeId(t));
                let a = provider.answer(s, t).unwrap();
                let v = client.verify(s, t, &a).unwrap();
                let want = dijkstra_path(&truth, s, t).unwrap().distance;
                assert!(
                    (v.distance - want).abs() <= 1e-6 * want.max(1.0),
                    "{}: reloaded provider serves the updated truth",
                    method.name()
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A reloaded package stays updatable: load → update → update_snapshot
/// → reload keeps converging on the fresh-publish state. (This is the
/// restart-with-churn lifecycle; LDM rebuilds its owner-side exact
/// cache on the first post-load repair.)
#[test]
fn reloaded_packages_accept_further_updates() {
    for method in all_methods() {
        let g = grid_network(9, 9, 1.15, 4700);
        let kp = {
            let mut rng = StdRng::seed_from_u64(4701);
            RsaKeyPair::generate(&mut rng, 256)
        };
        let p = DataOwner::publish_with_key(&g, &method, &SetupConfig::default(), &kp);
        let dir = tmpdir(&format!("reload-{}", method.name()));
        spnet_core::snapshot::save_package(&p, &dir).unwrap();

        let mut loaded = load_package(&dir, StoreBackend::Mem).unwrap();
        let mut truth = g.clone();
        random_updates(&mut loaded.package, &mut truth, &kp, 2, 4702);
        update_snapshot(&loaded.package, kp.public_key(), &dir).unwrap();

        let fresh = DataOwner::publish_with_key(&truth, &method, &SetupConfig::default(), &kp);
        let reloaded = load_package(&dir, StoreBackend::Mem).unwrap();
        assert_signed_state_eq(&reloaded.package, &fresh.package, method.name());
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// MVCC acceptance: a session (and stream) opened before an update
/// drains on its pinned epoch without [`SessionError::EpochInvalidated`],
/// while a session opened after verifies against the new root.
#[test]
fn sessions_survive_updates_on_their_pinned_epoch() {
    let g = grid_network(9, 9, 1.15, 4800);
    let kp = {
        let mut rng = StdRng::seed_from_u64(4801);
        RsaKeyPair::generate(&mut rng, 256)
    };
    let p = DataOwner::publish_with_key(&g, &MethodConfig::Dij, &SetupConfig::default(), &kp);
    let service = SpService::new(p.package);
    let client = Client::new(kp.public_key().clone());

    let old_truth = dijkstra_path(&g, NodeId(0), NodeId(80)).unwrap().distance;
    let pinned = service.open_session(client.clone()).unwrap();
    let queries: Vec<(NodeId, NodeId)> = PROBES
        .iter()
        .map(|&(s, t)| (NodeId(s), NodeId(t)))
        .collect();
    let mut stream = pinned.query_stream_chunked(&queries, 1);
    let first = stream.next().unwrap().unwrap();
    assert_eq!(first.len(), 1);

    // Owner re-weights the first shortest-path edge mid-stream.
    let path = dijkstra_path(&g, NodeId(0), NodeId(80)).unwrap();
    let (u, v) = (path.nodes[0], path.nodes[1]);
    assert_eq!(service.update_edge_weight(&kp, u, v, 500.0).unwrap(), 1);

    // The pinned session's stream completes on its original epoch...
    let rest: Vec<_> = stream
        .collect::<Result<Vec<_>, _>>()
        .expect("pre-update stream drains on its pinned epoch")
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(first.len() + rest.len(), queries.len());
    // ...still answering with the pre-update truth.
    let a = pinned.query(NodeId(0), NodeId(80)).unwrap();
    assert_eq!(a.distance.to_bits(), old_truth.to_bits());

    // A post-update session binds epoch 1 and the new truth.
    let mut g2 = g.clone();
    g2.set_edge_weight(u, v, 500.0).unwrap();
    let new_truth = dijkstra_path(&g2, NodeId(0), NodeId(80)).unwrap().distance;
    assert!((new_truth - old_truth).abs() > 1e-9);
    let fresh = service.open_session(client).unwrap();
    assert_eq!(fresh.epoch(), 1);
    let b = fresh.query(NodeId(0), NodeId(80)).unwrap();
    assert_eq!(b.distance.to_bits(), new_truth.to_bits());
}

/// A snapshot-backed service refreshes its file in place after a
/// service-level update, and a cold restart from that file serves the
/// updated network.
#[test]
fn service_refreshes_snapshot_after_update() {
    let g = grid_network(9, 9, 1.15, 4900);
    let kp = {
        let mut rng = StdRng::seed_from_u64(4901);
        RsaKeyPair::generate(&mut rng, 256)
    };
    let p = DataOwner::publish_with_key(&g, &MethodConfig::Dij, &SetupConfig::default(), &kp);
    let dir = tmpdir("service-refresh");
    spnet_core::snapshot::save_package(&p, &dir).unwrap();

    let service = SpService::builder()
        .snapshot(&dir, StoreBackend::Mem)
        .unwrap()
        .threads(0)
        .build();
    let path = dijkstra_path(&g, NodeId(0), NodeId(80)).unwrap();
    let (u, v) = (path.nodes[0], path.nodes[1]);
    service.update_edge_weight(&kp, u, v, 500.0).unwrap();
    let refresh = service.refresh_shard_snapshot(0, kp.public_key()).unwrap();
    assert!(matches!(refresh, SnapshotRefresh::InPlace(_)));

    // Cold restart from the refreshed file serves the new truth.
    let restarted = SpService::builder()
        .snapshot(&dir, StoreBackend::Mem)
        .unwrap()
        .threads(0)
        .build();
    let session = restarted
        .open_session(Client::new(kp.public_key().clone()))
        .unwrap();
    let mut g2 = g.clone();
    g2.set_edge_weight(u, v, 500.0).unwrap();
    let want = dijkstra_path(&g2, NodeId(0), NodeId(80)).unwrap().distance;
    let a = session.query(NodeId(0), NodeId(80)).unwrap();
    assert_eq!(a.distance.to_bits(), want.to_bits());
    std::fs::remove_dir_all(&dir).ok();
}

/// Copy-on-write safety: epochs share every block an update does not
/// write, so a repair must never write through a shared block into an
/// older epoch. For every method, a session pinned at epoch 0 answers
/// its queries with the same bytes before and after k updates — one of
/// them raising the edge that the most LDM landmark rows route through
/// far enough to move λ, which repairs those rows and rewrites every
/// tuple — and those answers still verify against the epoch-0 root.
#[test]
fn pinned_epochs_answer_byte_identically_after_updates() {
    let g = road_network(16, 16, 1.05, 1.0, 4990);
    let kp = {
        let mut rng = StdRng::seed_from_u64(4991);
        RsaKeyPair::generate(&mut rng, 256)
    };
    let ldm = all_methods()
        .into_iter()
        .find(|m| matches!(m, MethodConfig::Ldm(_)))
        .unwrap();
    let ldm_pkg = DataOwner::publish_with_key(&g, &ldm, &SetupConfig::default(), &kp).package;
    let MethodHints::Ldm(hints) = &ldm_pkg.hints else {
        unreachable!("LDM package")
    };
    let rows: Vec<Vec<f64>> = hints
        .landmarks
        .iter()
        .map(|&l| dijkstra_sssp(&g, l).dist)
        .collect();
    let tight_rows = |&(a, b, w): &(NodeId, NodeId, f64)| {
        rows.iter()
            .filter(|r| r[b.index()] == r[a.index()] + w || r[a.index()] == r[b.index()] + w)
            .count()
    };
    let heavy = g.edges().max_by_key(tight_rows).unwrap();
    assert!(
        tight_rows(&heavy) * 2 >= rows.len(),
        "the heavy update reaches {} of {} rows",
        tight_rows(&heavy),
        rows.len()
    );
    let edges: Vec<(NodeId, NodeId, f64)> = g.edges().collect();
    let mut rng = StdRng::seed_from_u64(4992);
    let mut updates = vec![(heavy.0, heavy.1, heavy.2 + 5000.0)];
    for _ in 0..3 {
        let (u, v, w) = edges[rng.random_range(0..edges.len())];
        updates.push((u, v, w * rng.random_range(0.3f64..3.0)));
    }
    let dirty =
        update_edge_weight(&mut ldm_pkg.clone(), &kp, heavy.0, heavy.1, updates[0].2).unwrap();
    assert!(
        dirty.tuples.len() * 2 > g.num_nodes(),
        "the heavy update dirties {} of {} tuples",
        dirty.tuples.len(),
        g.num_nodes()
    );

    let queries: Vec<(NodeId, NodeId)> = [(0u32, 255u32), (15, 240), (100, 150), (255, 0)]
        .iter()
        .map(|&(s, t)| (NodeId(s), NodeId(t)))
        .chain([(heavy.0, heavy.1)])
        .collect();
    let client = Client::new(kp.public_key().clone());
    for method in all_methods() {
        let p = DataOwner::publish_with_key(&g, &method, &SetupConfig::default(), &kp);
        let service = SpService::builder()
            .package(p.package)
            .retain_epochs(updates.len() + 1)
            .threads(0)
            .build();
        let pinned = service.open_session(client.clone()).unwrap();
        let answers = |s: &Session| -> Vec<Vec<u8>> {
            queries
                .iter()
                .map(|&q| spnet_core::wire::encode_batch_answer(&s.answer_batch(&[q]).unwrap()))
                .collect()
        };
        let before = answers(&pinned);
        for &(u, v, w) in &updates {
            service.update_edge_weight(&kp, u, v, w).unwrap();
        }
        assert_eq!(service.epoch(), updates.len() as u64);
        assert_eq!(pinned.epoch(), 0);
        let after = answers(&pinned);
        for (i, (a, b)) in before.iter().zip(&after).enumerate() {
            assert!(a == b, "{}: epoch-0 answer {i} changed", method.name());
        }
        for &(s, t) in &queries {
            let got = pinned.query(s, t).unwrap().distance;
            let want = dijkstra_path(&g, s, t).unwrap().distance;
            assert!(
                (got - want).abs() <= 1e-6 * want.max(1.0),
                "{}",
                method.name()
            );
        }
        // The latest epoch serves the updated network.
        let mut truth = g.clone();
        for &(u, v, w) in &updates {
            truth.set_edge_weight(u, v, w).unwrap();
        }
        let latest = service.open_session(client.clone()).unwrap();
        let (s, t) = queries[0];
        let want = dijkstra_path(&truth, s, t).unwrap().distance;
        let got = latest.query(s, t).unwrap().distance;
        assert!(
            (got - want).abs() <= 1e-6 * want.max(1.0),
            "{}",
            method.name()
        );
    }
}

/// A `File`-loaded package — its trees served page by page from the
/// snapshot — takes the same update sequence as a `Mem`-loaded one and
/// as the owner's built package, for every method: it converges on the
/// fresh publish of the final graph, serves the same answer bytes as
/// the `Mem`-loaded package, and saves a snapshot identical to it.
#[test]
fn file_loaded_packages_update_like_mem_loaded_ones() {
    let g = grid_network(16, 16, 1.15, 5100);
    let kp = {
        let mut rng = StdRng::seed_from_u64(5101);
        RsaKeyPair::generate(&mut rng, 256)
    };
    for method in all_methods() {
        let p = DataOwner::publish_with_key(&g, &method, &SetupConfig::default(), &kp);
        let dir = tmpdir(&format!("file-update-{}", method.name()));
        spnet_core::snapshot::save_package(&p, &dir).unwrap();
        let mut file = load_package(&dir, StoreBackend::File).unwrap().package;
        let mut mem = load_package(&dir, StoreBackend::Mem).unwrap().package;
        let (mut truth, mut mem_truth) = (g.clone(), g.clone());
        random_updates(&mut file, &mut truth, &kp, 4, 5102);
        random_updates(&mut mem, &mut mem_truth, &kp, 4, 5102);
        let fresh = DataOwner::publish_with_key(&truth, &method, &SetupConfig::default(), &kp);
        assert_signed_state_eq(&file, &fresh.package, method.name());
        assert_signed_state_eq(&file, &mem, method.name());

        let queries: Vec<(NodeId, NodeId)> = [(0u32, 255u32), (17, 200), (128, 127), (255, 0)]
            .iter()
            .map(|&(s, t)| (NodeId(s), NodeId(t)))
            .collect();
        let client = Client::new(kp.public_key().clone());
        let (file_svc, mem_svc) = (SpService::new(file.clone()), SpService::new(mem.clone()));
        let (fs, ms) = (
            file_svc.open_session(client.clone()).unwrap(),
            mem_svc.open_session(client).unwrap(),
        );
        for &q in &queries {
            let a = spnet_core::wire::encode_batch_answer(&fs.answer_batch(&[q]).unwrap());
            let b = spnet_core::wire::encode_batch_answer(&ms.answer_batch(&[q]).unwrap());
            assert!(a == b, "{}: answer {q:?} differs by backend", method.name());
            let got = fs.query(q.0, q.1).unwrap().distance;
            let want = dijkstra_path(&truth, q.0, q.1).unwrap().distance;
            assert!(
                (got - want).abs() <= 1e-6 * want.max(1.0),
                "{}",
                method.name()
            );
        }

        // The updated File-loaded package snapshots byte-identically to
        // the Mem-loaded one (its unloaded pages come from the file).
        let (file_dir, mem_dir) = (dir.join("file"), dir.join("mem"));
        update_snapshot(&file, kp.public_key(), &file_dir).unwrap();
        update_snapshot(&mem, kp.public_key(), &mem_dir).unwrap();
        let read = |d: &std::path::Path| {
            std::fs::read(d.join(spnet_core::snapshot::SNAPSHOT_FILE)).unwrap()
        };
        assert!(
            read(&file_dir) == read(&mem_dir),
            "{}: snapshots differ by backend",
            method.name()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A `File`-backed service refreshes its snapshot after updates while
/// its epochs keep paging from the file they were loaded from: the
/// refresh writes a new file and renames it over the old one, so a
/// session pinned at epoch 0 answers byte-identically afterwards —
/// also queries whose pages it had not read before the refresh — a
/// new session serves the new truth, and so does a restart from the
/// refreshed file on either backend.
#[test]
fn file_backed_service_refresh_keeps_pinned_epochs() {
    let g = grid_network(16, 16, 1.15, 5200);
    let kp = {
        let mut rng = StdRng::seed_from_u64(5201);
        RsaKeyPair::generate(&mut rng, 256)
    };
    let client = Client::new(kp.public_key().clone());
    let answers = |s: &Session, qs: &[(NodeId, NodeId)]| -> Vec<Vec<u8>> {
        qs.iter()
            .map(|&q| spnet_core::wire::encode_batch_answer(&s.answer_batch(&[q]).unwrap()))
            .collect()
    };
    for method in all_methods() {
        let p = DataOwner::publish_with_key(&g, &method, &SetupConfig::default(), &kp);
        let dir = tmpdir(&format!("file-service-{}", method.name()));
        spnet_core::snapshot::save_package(&p, &dir).unwrap();
        // 256 leaves fill two leaf pages of the network tree. The
        // updates touch nodes of the second page; the first queries
        // stay in the first, so the epoch-0 session has not read the
        // rewritten leaf page before the refresh.
        let pos = |v: NodeId| p.package.ads.position(v) as usize;
        let first: Vec<(NodeId, NodeId)> = g
            .edges()
            .filter(|&(u, v, _)| pos(u) < 32 && pos(v) < 32)
            .map(|(u, v, _)| (u, v))
            .take(2)
            .collect();
        let far: Vec<(NodeId, NodeId, f64)> = g
            .edges()
            .filter(|&(u, v, _)| pos(u) >= 160 && pos(v) >= 160)
            .take(2)
            .collect();
        let later: Vec<(NodeId, NodeId)> = far.iter().map(|&(u, v, _)| (u, v)).collect();
        let reference = SpService::new(p.package.clone());
        let reference = reference.open_session(client.clone()).unwrap();

        let service = SpService::builder()
            .snapshot(&dir, StoreBackend::File)
            .unwrap()
            .threads(0)
            .build();
        let pinned = service.open_session(client.clone()).unwrap();
        let before = answers(&pinned, &first);
        assert_eq!(before, answers(&reference, &first), "{}", method.name());

        let mut truth = g.clone();
        let mut refreshes = Vec::new();
        for &(u, v, w) in &far {
            service.update_edge_weight(&kp, u, v, w * 3.0).unwrap();
            truth.set_edge_weight(u, v, w * 3.0).unwrap();
            refreshes.push(service.refresh_shard_snapshot(0, kp.public_key()).unwrap());
        }
        assert_eq!(service.epoch(), far.len() as u64);
        assert_eq!(pinned.epoch(), 0);
        assert!(
            answers(&pinned, &first) == before,
            "{}: epoch-0 answers changed",
            method.name()
        );
        assert!(
            answers(&pinned, &later) == answers(&reference, &later),
            "{}: epoch-0 answers on unread pages changed",
            method.name()
        );
        // A service paging from its file never rewrites it in place.
        assert!(
            refreshes.iter().all(|r| *r == SnapshotRefresh::FullRewrite),
            "{}: {refreshes:?}",
            method.name()
        );

        let latest = service.open_session(client.clone()).unwrap();
        let restarts: Vec<Session> = [StoreBackend::File, StoreBackend::Mem]
            .into_iter()
            .map(|backend| {
                SpService::builder()
                    .snapshot(&dir, backend)
                    .unwrap()
                    .threads(0)
                    .build()
                    .open_session(client.clone())
                    .unwrap()
            })
            .collect();
        for &(s, t) in first.iter().chain(&later) {
            let want = dijkstra_path(&truth, s, t).unwrap().distance;
            for session in std::iter::once(&latest).chain(&restarts) {
                let got = session.query(s, t).unwrap().distance;
                assert!(
                    (got - want).abs() <= 1e-6 * want.max(1.0),
                    "{}: {s}→{t} serves {got}, not {want}",
                    method.name()
                );
            }
        }
        for restarted in &restarts {
            assert!(answers(restarted, &later) == answers(&latest, &later));
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
