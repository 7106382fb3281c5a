//! Multi-threaded stress tests for `SpService`: many concurrent
//! sessions per service sharing its scheduler, asserting (i) proofs
//! bit-identical to single-threaded serving, for every method, and
//! (ii) under an owner update between chunks, either a clean drain on
//! the pinned epoch or a deterministic `EpochInvalidated` — whole
//! verified chunks only, never a partial or stale one.

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

/// One service per method, all signed by the same owner key. Identical
/// inputs produce identical packages, so two calls give concurrent
/// services and sequential controls over the *same* deployments.
fn method_services(g: &Graph, kp: &RsaKeyPair, threads: usize) -> Vec<SpService> {
    all_methods()
        .iter()
        .map(|method| {
            let p = DataOwner::publish_with_key(g, method, &SetupConfig::default(), kp);
            SpService::builder()
                .package(p.package)
                .threads(threads)
                .build()
        })
        .collect()
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

/// N sessions spread over the four methods' services race on their
/// pools; every proof batch must be byte-identical to what an inline
/// (no scheduler) service serves for the same session, and every
/// streamed distance must match the batched one bit for bit.
#[test]
fn concurrent_sessions_match_single_threaded_serving() {
    let g = grid_network(8, 8, 1.2, 9100);
    let mut rng = StdRng::seed_from_u64(9101);
    let kp = RsaKeyPair::generate(&mut rng, 256);
    let services = method_services(&g, &kp, 2);
    let controls = method_services(&g, &kp, 0);
    let client = Client::new(kp.public_key().clone());

    let results: Vec<(usize, Vec<u8>, Vec<u64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let service = services[i % services.len()].clone();
                let client = client.clone();
                scope.spawn(move || {
                    let session = service.open_session(client).unwrap();
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
        let control = &controls[i % controls.len()];
        let session = control.open_session(client.clone()).unwrap();
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

    for (service, control) in services.iter().zip(&controls) {
        let (executed, _) = service.scheduler_stats().expect("pool engaged");
        assert!(
            executed > 0,
            "{}: streams went through the scheduler",
            service.method_name()
        );
        assert!(control.scheduler_stats().is_none(), "control stayed inline");
    }
}

const CHUNK: usize = 2;
const STREAM_LEN: usize = 24;

/// What one streaming session saw: the distances of the chunks it
/// received, and the error that ended its stream, if any.
type Drained = (Vec<u64>, Option<SessionError>);

/// N sessions stream on one DIJ service with a two-worker pool, in a
/// fixed order: every session pulls its first chunk; barrier; the owner
/// updates one edge; barrier; every session drains. Returns what each
/// session saw and the pre-update truth for its queries, served by an
/// inline control.
fn update_between_chunks(builder: SpServiceBuilder) -> Vec<(Drained, Vec<u64>)> {
    let g = grid_network(8, 8, 1.2, 9200);
    let mut rng = StdRng::seed_from_u64(9201);
    let kp = RsaKeyPair::generate(&mut rng, 256);
    let publish =
        || DataOwner::publish_with_key(&g, &MethodConfig::Dij, &SetupConfig::default(), &kp);
    let service = builder.package(publish().package).threads(2).build();
    let control = SpService::builder()
        .package(publish().package)
        .threads(0)
        .build();
    let client = Client::new(kp.public_key().clone());

    let barrier = std::sync::Barrier::new(SESSIONS + 1);
    let drained: Vec<Drained> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..SESSIONS)
            .map(|i| {
                let service = service.clone();
                let client = client.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    let session = service.open_session(client).unwrap();
                    assert_eq!(session.epoch(), 0);
                    let qs = queries_for(100 + i as u64, STREAM_LEN);
                    let mut stream = session.query_stream_chunked(&qs, CHUNK);
                    let mut got: Vec<u64> = Vec::new();
                    let mut take = |items: Vec<SessionAnswer>| {
                        assert_eq!(items.len(), CHUNK, "whole chunks only");
                        got.extend(items.iter().map(|a| a.distance.to_bits()));
                    };
                    take(
                        stream
                            .next()
                            .unwrap()
                            .expect("first chunk before the update"),
                    );
                    barrier.wait();
                    barrier.wait();
                    let mut error = None;
                    for step in stream.by_ref() {
                        match step {
                            Ok(items) => take(items),
                            Err(e) => {
                                error = Some(e);
                                break;
                            }
                        }
                    }
                    assert!(stream.next().is_none(), "nothing after the end or an error");
                    (got, error)
                })
            })
            .collect();
        barrier.wait();
        let (u, v, w) = g.edges().next().unwrap();
        assert_eq!(service.update_edge_weight(&kp, u, v, w * 2.0).unwrap(), 1);
        barrier.wait();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(service.epoch(), 1);
    let reopened = service.open_session(client.clone()).unwrap();
    assert_eq!(reopened.epoch(), 1, "sessions reopen onto the new epoch");
    let truth = control.open_session(client).unwrap();
    let distances = |session: &Session, qs: &[(NodeId, NodeId)]| -> Vec<u64> {
        session
            .query_batch(qs)
            .unwrap()
            .iter()
            .map(|a| a.distance.to_bits())
            .collect()
    };
    let mut update_visible = false;
    let out = drained
        .into_iter()
        .enumerate()
        .map(|(i, d)| {
            let qs = queries_for(100 + i as u64, STREAM_LEN);
            let before = distances(&truth, &qs);
            update_visible |= distances(&reopened, &qs) != before;
            (d, before)
        })
        .collect();
    assert!(update_visible, "the update must change some answer");
    out
}

/// With one retained epoch, the update evicts every session's epoch:
/// each observes `EpochInvalidated { opened: 0, current: 1 }` on its
/// next chunk — including a chunk the pool prefetched before the
/// update — after receiving only its whole pre-update first chunk.
#[test]
fn mid_run_update_invalidates_streams_deterministically() {
    for (i, ((got, error), truth)) in update_between_chunks(SpService::builder().retain_epochs(1))
        .into_iter()
        .enumerate()
    {
        assert_eq!(
            error,
            Some(SessionError::EpochInvalidated {
                opened: 0,
                current: 1
            }),
            "session {i}: invalidated on the chunk after the update"
        );
        assert_eq!(
            got,
            truth[..CHUNK],
            "session {i}: only the pre-update chunk"
        );
    }
}

/// With the default retention the update evicts nothing: every stream
/// drains to completion on its pinned epoch-0 root, serving pre-update
/// answers only.
#[test]
fn mid_run_update_drains_streams_on_pinned_epoch() {
    for (i, ((got, error), truth)) in update_between_chunks(SpService::builder())
        .into_iter()
        .enumerate()
    {
        assert_eq!(error, None, "session {i}: drained without error");
        assert_eq!(got, truth, "session {i}: every answer is pre-update truth");
    }
}
