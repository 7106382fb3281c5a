//! Integration tests for the `SpService` session facade and the
//! streaming batch path: trait-dispatch parity with the direct role
//! APIs (bit-for-bit), stream ≡ batch ≡ sequential agreement, epoch
//! invalidation, and truncated/tampered-stream rejection.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::prelude::*;
use spnet_core::stream::StreamFrame;
use spnet_core::stream::StreamVerifier;
use spnet_core::wire::{decode, encode};
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::algo::dijkstra_path;
use spnet_graph::gen::grid_network;
use spnet_graph::{Graph, NodeId};

fn method_for(idx: usize) -> MethodConfig {
    match idx {
        0 => MethodConfig::Dij,
        1 => MethodConfig::Full {
            use_floyd_warshall: false,
        },
        2 => MethodConfig::Ldm(LdmConfig {
            landmarks: 6,
            ..LdmConfig::default()
        }),
        _ => MethodConfig::Hyp { cells: 9 },
    }
}

fn all_methods() -> Vec<MethodConfig> {
    (0..4).map(method_for).collect()
}

fn deploy(method: &MethodConfig, seed: u64) -> (Graph, ServiceProvider, Client) {
    let g = grid_network(8, 8, 1.2, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E55);
    let p = DataOwner::publish(&g, method, &SetupConfig::default(), &mut rng);
    (
        g,
        ServiceProvider::new(p.package),
        Client::new(p.public_key),
    )
}

fn deploy_service(method: &MethodConfig, seed: u64) -> (Graph, SpService, Client, RsaKeyPair) {
    let g = grid_network(8, 8, 1.2, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E55);
    let kp = RsaKeyPair::generate(&mut rng, 256);
    let p = DataOwner::publish_with_key(&g, method, &SetupConfig::default(), &kp);
    (g, SpService::new(p.package), Client::new(p.public_key), kp)
}

const QUERIES: [(u32, u32); 5] = [(0, 63), (1, 62), (0, 31), (7, 56), (8, 55)];

fn as_nodes(qs: &[(u32, u32)]) -> Vec<(NodeId, NodeId)> {
    qs.iter().map(|&(s, t)| (NodeId(s), NodeId(t))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The session facade (trait dispatch, pinned epoch root) returns
    /// bit-identical distances and paths to the direct role APIs,
    /// against the *same* deployment, on every method — the parity pin
    /// for the enum-dispatch → trait-dispatch redesign.
    #[test]
    fn facade_matches_direct_roles_bit_for_bit(
        seed in 0u64..300,
        s in 0u32..64,
        t in 0u32..64,
        method_idx in 0usize..4,
    ) {
        prop_assume!(s != t);
        let method = method_for(method_idx);
        let g = grid_network(8, 8, 1.2, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E55);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        let client = Client::new(p.public_key);
        let provider = ServiceProvider::new(p.package.clone());
        let service = SpService::new(p.package);
        let session = service.open_session(client.clone()).unwrap();

        let (s, t) = (NodeId(s), NodeId(t));
        let direct_answer = provider.answer(s, t).unwrap();
        let direct = client.verify(s, t, &direct_answer).unwrap();
        let via_session = session.query(s, t).unwrap();
        prop_assert_eq!(
            via_session.distance.to_bits(),
            direct.distance.to_bits(),
            "facade ≡ direct roles ({})", method.name()
        );
        prop_assert_eq!(&via_session.path, &direct_answer.path);
        // And batch-of-one through the facade agrees too.
        let batched = session.query_batch(&[(s, t)]).unwrap();
        prop_assert_eq!(batched[0].distance.to_bits(), direct.distance.to_bits());
    }

    /// Stream ≡ batch ≡ sequential, bit-for-bit, under arbitrary chunk
    /// sizes, for every method.
    #[test]
    fn stream_batch_sequential_agree_bit_for_bit(
        seed in 0u64..300,
        chunk in 1usize..7,
        method_idx in 0usize..4,
    ) {
        let method = method_for(method_idx);
        let (_, provider, client) = deploy(&method, seed);
        let qs = as_nodes(&QUERIES);
        // Sequential.
        let sequential: Vec<f64> = qs
            .iter()
            .map(|&(s, t)| client.verify(s, t, &provider.answer(s, t).unwrap()).unwrap().distance)
            .collect();
        // Streamed (through the encoded frames).
        let mut verifier = StreamVerifier::new(&client, &qs);
        let mut streamed = vec![f64::NAN; qs.len()];
        for frame in provider.answer_stream(&qs, chunk) {
            for item in verifier.feed(&frame.unwrap()).unwrap() {
                streamed[item.index] = item.distance;
            }
        }
        verifier.finish().unwrap();
        // Batched — through the session facade, the only batch entry
        // point since the raw ones were removed.
        let service = SpService::new(provider.package().clone());
        let session = service.open_session(client.clone()).unwrap();
        let batch = session.answer_batch(&qs).unwrap();
        let batched = session.verify_batch(&qs, &batch).unwrap();
        for i in 0..qs.len() {
            prop_assert_eq!(
                batched[i].to_bits(),
                sequential[i].to_bits(),
                "batch ≡ sequential ({})", method.name()
            );
            prop_assert_eq!(
                streamed[i].to_bits(),
                sequential[i].to_bits(),
                "stream ≡ sequential ({})", method.name()
            );
        }
    }

    /// Stream frames survive an encode/decode round trip unchanged.
    #[test]
    fn stream_frames_round_trip_random(
        seed in 0u64..200,
        chunk in 1usize..7,
        method_idx in 0usize..4,
    ) {
        let method = method_for(method_idx);
        let (_, provider, _) = deploy(&method, seed);
        let qs = as_nodes(&QUERIES[..3]);
        for frame in provider.answer_stream(&qs, chunk) {
            let bytes = frame.unwrap();
            let decoded = decode::<StreamFrame>(&bytes).unwrap();
            prop_assert_eq!(encode(&decoded), bytes);
        }
    }
}

#[test]
fn sessions_reject_tampered_streams_for_every_method() {
    for method in all_methods() {
        let (_, provider, client) = deploy(&method, 4100);
        let qs = as_nodes(&QUERIES);
        let frames: Vec<Vec<u8>> = provider
            .answer_stream(&qs, 2)
            .collect::<Result<_, _>>()
            .unwrap();
        // Flip one byte in every chunk frame position: the stream must
        // never verify to completion with altered bytes accepted.
        for fi in 1..frames.len() - 1 {
            let step = (frames[fi].len() / 11).max(1);
            for pos in (0..frames[fi].len()).step_by(step) {
                let mut verifier = StreamVerifier::new(&client, &qs);
                let mut rejected = false;
                for (j, f) in frames.iter().enumerate() {
                    let bytes = if j == fi {
                        let mut evil = f.clone();
                        evil[pos] ^= 0x01;
                        evil
                    } else {
                        f.clone()
                    };
                    match verifier.feed(&bytes) {
                        Ok(items) => {
                            // Accepted items must still be *correct* —
                            // a flip that survives verification may
                            // only touch framing-irrelevant bytes that
                            // decode to the identical answer.
                            for it in items {
                                let (s, t) = qs[it.index];
                                let honest = client
                                    .verify(s, t, &provider.answer(s, t).unwrap())
                                    .unwrap();
                                assert_eq!(
                                    it.distance.to_bits(),
                                    honest.distance.to_bits(),
                                    "{}: accepted a wrong distance",
                                    method.name()
                                );
                            }
                        }
                        Err(_) => {
                            rejected = true;
                            break;
                        }
                    }
                }
                // Either some frame was rejected, or the stream ran to
                // a verified completion with every released answer
                // checked correct above — a flip may never leave the
                // verifier silently unfinished.
                assert!(
                    rejected || verifier.finished(),
                    "{}: flip at frame {fi} byte {pos} neither rejected nor completed",
                    method.name()
                );
            }
        }
    }
}

#[test]
fn truncated_streams_rejected_for_every_method() {
    for method in all_methods() {
        let (_, provider, client) = deploy(&method, 4200);
        let qs = as_nodes(&QUERIES);
        let frames: Vec<Vec<u8>> = provider
            .answer_stream(&qs, 2)
            .collect::<Result<_, _>>()
            .unwrap();
        // Ending the transport after any proper prefix leaves the
        // verifier unfinished.
        for cut in 0..frames.len() {
            let mut verifier = StreamVerifier::new(&client, &qs);
            for f in &frames[..cut] {
                verifier.feed(f).unwrap();
            }
            assert!(
                !verifier.finished(),
                "{}: prefix of {cut} frames must not count as complete",
                method.name()
            );
            assert!(verifier.finish().is_err(), "{}", method.name());
        }
        // Forging an early End frame with a matching chunk count is
        // caught by the coverage check.
        let mut verifier = StreamVerifier::new(&client, &qs);
        verifier.feed(&frames[0]).unwrap();
        verifier.feed(&frames[1]).unwrap();
        let forged_end = encode(&StreamFrame::End { total_chunks: 1 });
        assert!(
            matches!(
                verifier.feed(&forged_end),
                Err(spnet_core::stream::StreamError::Truncated {
                    verified: 2,
                    expected: 5
                })
            ),
            "{}",
            method.name()
        );
    }
}

#[test]
fn epoch_eviction_is_loud_for_every_method() {
    // Every method repairs in place now. With the MVCC ring collapsed
    // to one epoch (`retain_epochs(1)`), an update evicts the old root
    // immediately and pinned sessions fail loudly; at the default
    // retention the same session drains on its pinned epoch.
    for method in all_methods() {
        let g = grid_network(8, 8, 1.2, 4300);
        let mut rng = StdRng::seed_from_u64(4300 ^ 0x5E55);
        let kp = RsaKeyPair::generate(&mut rng, 256);
        let p = DataOwner::publish_with_key(&g, &method, &SetupConfig::default(), &kp);
        let strict = SpService::builder()
            .package(p.package.clone())
            .retain_epochs(1)
            .build();
        let client = Client::new(p.public_key.clone());
        let session = strict.open_session(client.clone()).unwrap();
        let (u, v, w) = g.edges().next().unwrap();
        strict.update_edge_weight(&kp, u, v, w * 2.0).unwrap();
        assert!(
            matches!(
                session.query(NodeId(0), NodeId(63)),
                Err(SessionError::EpochInvalidated {
                    opened: 0,
                    current: 1
                })
            ),
            "{}: evicted epoch must invalidate loudly",
            method.name()
        );

        let mvcc = SpService::new(p.package);
        let session = mvcc.open_session(client).unwrap();
        mvcc.update_edge_weight(&kp, u, v, w * 3.0).unwrap();
        session.query(NodeId(0), NodeId(63)).unwrap_or_else(|e| {
            panic!(
                "{}: pinned session must survive the update: {e}",
                method.name()
            )
        });
    }
}

/// Session streams agree with the session batch and with the raw
/// provider stream checked by a fresh `StreamVerifier`, inline and on
/// the pool, for an empty list and for chunk sizes of 0 (clamped to 1)
/// up to more than the whole list.
#[test]
fn session_stream_matches_session_batch() {
    let qs = as_nodes(&QUERIES);
    for method in all_methods() {
        let g = grid_network(8, 8, 1.2, 4400);
        let mut rng = StdRng::seed_from_u64(4400 ^ 0x5E55);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        let client = Client::new(p.public_key.clone());
        let provider = ServiceProvider::new(p.package.clone());
        for threads in [0, 2] {
            let service = SpService::builder()
                .package(p.package.clone())
                .threads(threads)
                .build();
            let session = service.open_session(client.clone()).unwrap();
            let batch = session.query_batch(&qs).unwrap();
            for list in [&qs[..], &[]] {
                for chunk_len in [0, 1, 2, 3, 5, 16] {
                    let what = format!(
                        "{} threads({threads}) {} queries chunk_len {chunk_len}",
                        method.name(),
                        list.len()
                    );
                    let streamed: Vec<SessionAnswer> = session
                        .query_stream_chunked(list, chunk_len)
                        .collect::<Result<Vec<_>, _>>()
                        .unwrap()
                        .into_iter()
                        .flatten()
                        .collect();
                    let mut verifier = StreamVerifier::new(&client, list);
                    let mut raw = Vec::new();
                    for frame in provider.answer_stream(list, chunk_len) {
                        raw.extend(verifier.feed(&frame.unwrap()).unwrap());
                    }
                    verifier.finish().unwrap();
                    assert_eq!(streamed.len(), list.len(), "{what}");
                    assert_eq!(raw.len(), list.len(), "{what}");
                    for (i, (s, r)) in streamed.iter().zip(&raw).enumerate() {
                        assert_eq!(r.index, i, "{what}");
                        assert_eq!(s.distance.to_bits(), r.distance.to_bits(), "{what}");
                        assert_eq!(s.path, r.path, "{what}");
                        assert_eq!(s.distance.to_bits(), batch[i].distance.to_bits(), "{what}");
                        assert_eq!(s.path, batch[i].path, "{what}");
                    }
                }
            }
        }
    }
}

#[test]
fn facade_distances_are_true_optima() {
    for method in all_methods() {
        let (g, service, client, _) = deploy_service(&method, 4500);
        let session = service.open_session(client).unwrap();
        for &(s, t) in &QUERIES {
            let (s, t) = (NodeId(s), NodeId(t));
            let a = session.query(s, t).unwrap();
            let truth = dijkstra_path(&g, s, t).unwrap().distance;
            assert!(
                (a.distance - truth).abs() <= 1e-6 * truth.max(1.0),
                "{}: ({s},{t})",
                method.name()
            );
        }
    }
}
