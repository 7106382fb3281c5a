//! Persist & restart: the owner publishes once, snapshots the signed
//! structures to disk, and a later provider process cold-starts from
//! the snapshot — zero re-signing — while clients keep verifying
//! against the original signed root. Then the owner updates one edge
//! on a service that pages from the snapshot file and refreshes the
//! file: a session pinned before the update still verifies, and a
//! restart serves the new distance.
//!
//! ```sh
//! cargo run --release --example persist_restart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::owner::ProviderPackage;
use spnet_core::prelude::*;
use spnet_core::wire::encode_answer;
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::gen::Dataset;
use spnet_graph::NodeId;

fn main() {
    let dir = std::env::temp_dir().join("spnet_persist_demo");
    std::fs::create_dir_all(&dir).expect("temp dir");

    // 1. The owner builds and signs the authenticated network — the
    //    only place in the whole lifecycle where the private key acts.
    //    The owner keeps the keypair to sign later updates.
    let graph = Dataset::De.generate(0.05, 2026);
    let mut rng = StdRng::seed_from_u64(2026);
    let setup = SetupConfig::default();
    let keypair = RsaKeyPair::generate(&mut rng, setup.rsa_bits);
    let sign_ops_before_build = spnet_crypto::rsa::signing_ops();
    let published =
        DataOwner::publish_with_key(&graph, &MethodConfig::Hyp { cells: 25 }, &setup, &keypair);
    println!(
        "owner: {} nodes published in {:.2}s using {} RSA signing ops",
        graph.num_nodes(),
        published.construction_seconds,
        spnet_crypto::rsa::signing_ops() - sign_ops_before_build
    );

    // 2. One snapshot file captures everything a provider needs.
    let path = published.save_snapshot(&dir).expect("snapshot");
    let snapshot_bytes = std::fs::metadata(&path).expect("metadata").len();
    println!(
        "owner: snapshot written — {} bytes at {}",
        snapshot_bytes,
        path.display()
    );

    // 3. "Restart": a fresh provider opens the snapshot lazily. The
    //    signed roots are RSA-verified against the loaded bytes, but
    //    nothing is re-signed — the private key is not even present.
    let sign_ops_before_load = spnet_crypto::rsa::signing_ops();
    let loaded = ProviderPackage::load_snapshot(&dir, StoreBackend::File).expect("load");
    assert_eq!(
        spnet_crypto::rsa::signing_ops(),
        sign_ops_before_load,
        "cold start must not sign"
    );
    assert_eq!(loaded.public_key, published.public_key);
    println!(
        "provider: cold start from the snapshot file (File backend) — 0 signing ops, lazy={}, {} pages faulted at open",
        loaded.store.is_lazy(),
        loaded.store.fault_count()
    );

    // 4. The cold provider serves; proofs fault pages in on demand and
    //    are byte-identical to the freshly built provider's.
    let fresh = ServiceProvider::new(published.package);
    let cold = ServiceProvider::new(loaded.package);
    let (vs, vt) = (NodeId(3), NodeId(graph.num_nodes() as u32 - 2));
    let fresh_bytes = encode_answer(&fresh.answer(vs, vt).expect("reachable"));
    let cold_bytes = encode_answer(&cold.answer(vs, vt).expect("reachable"));
    assert_eq!(fresh_bytes, cold_bytes, "cold answers must be byte-equal");
    println!(
        "provider: {} → {} answered from disk; {} bytes, {} pages faulted so far",
        vs,
        vt,
        cold_bytes.len(),
        loaded.store.fault_count()
    );

    // 5. The client still holds only the owner's public key from the
    //    original publication — the restart is invisible to it.
    let client = Client::new(published.public_key);
    let verified = client
        .verify(vs, vt, &cold.answer(vs, vt).expect("reachable"))
        .expect("authentic & shortest");
    println!(
        "client: ✔ verified shortest path of distance {:.1} against the original signed root",
        verified.distance
    );

    // 6. A service serves straight from the snapshot file (File
    //    backend). A session opened now is pinned to epoch 0.
    let service = SpService::builder()
        .snapshot(&dir, StoreBackend::File)
        .expect("snapshot service")
        .threads(0)
        .build();
    let pinned = service.open_session(client.clone()).expect("session");

    // 7. The owner raises the weight of the first edge on the path and
    //    refreshes the snapshot. The service pages from that file, so
    //    the refresh writes a new file and renames it over the old one;
    //    epoch 0 keeps paging from the old file.
    let path = cold.answer(vs, vt).expect("reachable").path;
    let (u, v) = (path.nodes[0], path.nodes[1]);
    let w = graph.edge_weight(u, v).expect("path edge");
    let epoch = service
        .update_edge_weight(&keypair, u, v, w + 1000.0)
        .expect("update");
    let refresh = service
        .refresh_shard_snapshot(0, keypair.public_key())
        .expect("refresh");
    println!("owner: edge {u}–{v} reweighted {w:.1} → {:.1}, epoch {epoch}, snapshot refresh: {refresh:?}", w + 1000.0);

    // 8. The pinned session still verifies the old distance; a restart
    //    from the refreshed file serves the new one.
    let old = pinned.query(vs, vt).expect("epoch-0 session verifies");
    assert_eq!(old.distance.to_bits(), verified.distance.to_bits());
    println!(
        "client: ✔ epoch-0 session still verifies distance {:.1} after the refresh",
        old.distance
    );
    let restarted = SpService::builder()
        .snapshot(&dir, StoreBackend::File)
        .expect("restart")
        .threads(0)
        .build();
    let new = restarted
        .open_session(client)
        .expect("session")
        .query(vs, vt)
        .expect("restart verifies");
    let mut updated = graph.clone();
    updated.set_edge_weight(u, v, w + 1000.0).expect("edge");
    let want = spnet_graph::algo::dijkstra_path(&updated, vs, vt)
        .expect("reachable")
        .distance;
    assert_eq!(new.distance.to_bits(), want.to_bits());
    println!(
        "provider: ✔ restart from the refreshed file serves the new distance {:.1}",
        new.distance
    );

    std::fs::remove_dir_all(&dir).ok();
}
