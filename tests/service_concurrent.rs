//! Multi-threaded stress tests for the sharded `SpService`: many
//! concurrent sessions across mixed methods sharing one scheduler,
//! asserting (i) proofs bit-identical to single-threaded serving and
//! (ii) deterministic `EpochInvalidated` — whole verified chunks only,
//! never a partial or stale one — under a mid-run owner update.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spnet_core::prelude::*;
use spnet_core::wire::encode_batch_answer;
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::gen::grid_network;
use spnet_graph::{Graph, NodeId};

const NODES: u32 = 64;
const SESSIONS: usize = 8;

fn all_methods() -> Vec<MethodConfig> {
    vec![
        MethodConfig::Dij,
        MethodConfig::Full {
            use_floyd_warshall: false,
        },
        MethodConfig::Ldm(LdmConfig {
            landmarks: 6,
            ..LdmConfig::default()
        }),
        MethodConfig::Hyp { cells: 9 },
    ]
}

/// One shard per method, all signed by the same owner key. Identical
/// inputs produce identical shards, so two calls give a concurrent
/// service and a sequential control over the *same* deployment.
fn mixed_service(g: &Graph, kp: &RsaKeyPair, threads: usize) -> SpService {
    let mut b = SpService::builder().threads(threads);
    for method in all_methods() {
        let p = DataOwner::publish_with_key(g, &method, &SetupConfig::default(), kp);
        b = b.package(p.package);
    }
    b.build()
}

fn queries_for(salt: u64, n: usize) -> Vec<(NodeId, NodeId)> {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ salt);
    (0..n)
        .map(|_| loop {
            let s = rng.random_range(0..NODES);
            let t = rng.random_range(0..NODES);
            if s != t {
                return (NodeId(s), NodeId(t));
            }
        })
        .collect()
}

/// N sessions × 4 methods race on the shared pool; every proof batch
/// must be byte-identical to what an inline (no scheduler) service
/// serves for the same session, and every streamed distance must match
/// the batched one bit for bit.
#[test]
fn concurrent_sessions_match_single_threaded_serving() {
    let g = grid_network(8, 8, 1.2, 9100);
    let mut rng = StdRng::seed_from_u64(9101);
    let kp = RsaKeyPair::generate(&mut rng, 256);
    let service = mixed_service(&g, &kp, 2);
    let control = mixed_service(&g, &kp, 0);
    let client = Client::new(kp.public_key().clone());

    let results: Vec<(usize, Vec<u8>, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let service = service.clone();
                let client = client.clone();
                scope.spawn(move || {
                    let code = (i % 4) as u8 + 1;
                    let session = service.open_session_for(client, code).unwrap();
                    let qs = queries_for(i as u64, 12);
                    let batch = session.answer_batch(&qs).unwrap();
                    session.verify_batch(&qs, &batch).unwrap();
                    let streamed: Vec<u64> = session
                        .query_stream_chunked(&qs, 3)
                        .collect::<Result<Vec<_>, _>>()
                        .unwrap()
                        .into_iter()
                        .flatten()
                        .map(|a| a.distance.to_bits())
                        .collect();
                    (i, encode_batch_answer(&batch), streamed)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (i, proof_bytes, streamed) in results {
        let code = (i % 4) as u8 + 1;
        let session = control.open_session_for(client.clone(), code).unwrap();
        let qs = queries_for(i as u64, 12);
        let batch = session.answer_batch(&qs).unwrap();
        assert_eq!(
            encode_batch_answer(&batch),
            proof_bytes,
            "session {i}: concurrent proof bytes ≡ single-threaded serving"
        );
        let expected: Vec<u64> = session
            .verify_batch(&qs, &batch)
            .unwrap()
            .iter()
            .map(|d| d.to_bits())
            .collect();
        assert_eq!(streamed, expected, "session {i}: stream ≡ batch");
    }

    let (executed, _) = service.scheduler_stats().expect("pool engaged");
    assert!(executed > 0, "streams went through the scheduler");
    assert!(control.scheduler_stats().is_none(), "control stayed inline");
}

/// An owner update racing N streaming sessions: each session either
/// completes in full or observes `EpochInvalidated` — and up to that
/// point it received only whole chunks of pre-update answers, verified
/// against its pinned epoch-0 root. No partial chunk, no stale root,
/// no other error.
#[test]
fn mid_run_update_invalidates_streams_deterministically() {
    const CHUNK: usize = 2;
    let g = grid_network(8, 8, 1.2, 9200);
    let mut rng = StdRng::seed_from_u64(9201);
    let kp = RsaKeyPair::generate(&mut rng, 256);
    let publish =
        || DataOwner::publish_with_key(&g, &MethodConfig::Dij, &SetupConfig::default(), &kp);
    let service = SpService::builder()
        .package(publish().package)
        .threads(2)
        .build();
    let control = SpService::builder()
        .package(publish().package)
        .threads(0)
        .build();
    let client = Client::new(kp.public_key().clone());

    let barrier = std::sync::Barrier::new(SESSIONS + 1);
    let results: Vec<(usize, Vec<u64>, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let service = service.clone();
                let client = client.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    let session = service.open_session(client).unwrap();
                    assert_eq!(session.epoch(), 0);
                    let qs = queries_for(100 + i as u64, 24);
                    barrier.wait();
                    let mut got: Vec<u64> = Vec::new();
                    let mut invalidated = false;
                    for step in session.query_stream_chunked(&qs, CHUNK) {
                        match step {
                            Ok(items) => {
                                assert_eq!(items.len(), CHUNK, "whole chunks only");
                                got.extend(items.iter().map(|a| a.distance.to_bits()));
                            }
                            Err(SessionError::EpochInvalidated { opened, current }) => {
                                assert_eq!(opened, 0);
                                assert_eq!(current, 1);
                                invalidated = true;
                                break;
                            }
                            Err(e) => panic!("only EpochInvalidated is acceptable: {e}"),
                        }
                    }
                    (i, got, invalidated)
                })
            })
            .collect();
        barrier.wait();
        // Let some streams make progress, then update mid-flight.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let (u, v, w) = g.edges().next().unwrap();
        service.update_edge_weight(&kp, u, v, w * 2.0).unwrap();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(service.epoch(), 1);
    let reopened = service.open_session(client.clone()).unwrap();
    assert_eq!(reopened.epoch(), 1, "sessions reopen onto the new epoch");

    for (i, got, invalidated) in results {
        let qs = queries_for(100 + i as u64, 24);
        let truth: Vec<u64> = control
            .open_session(client.clone())
            .unwrap()
            .query_batch(&qs)
            .unwrap()
            .iter()
            .map(|a| a.distance.to_bits())
            .collect();
        if invalidated {
            assert!(got.len() < qs.len(), "session {i}: invalidated mid-run");
            assert_eq!(got.len() % CHUNK, 0, "session {i}: no partial chunk");
        } else {
            assert_eq!(
                got.len(),
                qs.len(),
                "session {i}: completed before the bump"
            );
        }
        assert_eq!(
            &got[..],
            &truth[..got.len()],
            "session {i}: every served chunk is pre-update truth"
        );
    }
}
