//! Hostile bytes: every top-level decoder, and the stream verifier,
//! against truncated and randomly edited copies of honest payloads, for
//! all four methods.
//!
//! For each payload, every proper prefix must fail with a typed error,
//! and each seeded edit of one to four bytes must either fail typed or
//! decode to a different value: the decoded value re-encodes to the
//! edited bytes, so no two byte strings alias one value. A panic
//! anywhere fails the test.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spnet_core::ads::SignedRoot;
use spnet_core::enc::{DecodeError, Wire};
use spnet_core::methods::{LdmConfig, MethodConfig, MethodParams};
use spnet_core::prelude::*;
use spnet_core::stream::{StreamFrame, StreamVerifier};
use spnet_core::tuple::ExtendedTuple;
use spnet_core::wire;
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::gen::grid_network;
use spnet_graph::NodeId;
use spnet_queries::knn::KnnAnswer;
use spnet_queries::matrix::MatrixAnswer;
use spnet_queries::{PoiSet, SessionQueries};

/// Random edits per payload.
const EDITS: usize = 96;

/// `bytes` with one to four bytes changed at seeded positions.
fn edit(bytes: &[u8], rng: &mut StdRng) -> Vec<u8> {
    let mut evil = bytes.to_vec();
    for _ in 0..rng.random_range(1..=4usize) {
        let i = rng.random_range(0..evil.len());
        evil[i] ^= rng.random_range(1..=255u8);
    }
    evil
}

/// Runs the prefix and edit checks on one honest payload. `decode` and
/// `encode` are the payload's codec (top-level payloads carry the
/// version byte, bare records do not).
fn hostile<T: Wire + std::fmt::Debug>(
    what: &str,
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, DecodeError>,
    encode: impl Fn(&T) -> Vec<u8>,
    rng: &mut StdRng,
) {
    let honest = decode(bytes).unwrap_or_else(|e| panic!("{what}: honest bytes: {e}"));
    assert_eq!(encode(&honest), bytes, "{what}: honest round trip");
    for cut in 0..bytes.len() {
        assert!(
            decode(&bytes[..cut]).is_err(),
            "{what}: prefix {cut} decoded"
        );
    }
    for _ in 0..EDITS {
        let evil = edit(bytes, rng);
        if let Ok(v) = decode(&evil) {
            assert_eq!(
                encode(&v),
                evil,
                "{what}: edited bytes alias another encoding"
            );
        }
    }
}

/// A top-level payload: `wire::decode` / `wire::encode`.
fn hostile_payload<T: Wire + std::fmt::Debug>(what: &str, v: &T, rng: &mut StdRng) {
    hostile(what, &wire::encode(v), wire::decode::<T>, wire::encode, rng);
}

/// A bare record: `from_bytes` / `to_bytes`.
fn hostile_record<T: Wire + std::fmt::Debug>(what: &str, v: &T, rng: &mut StdRng) {
    hostile(what, &v.to_bytes(), T::from_bytes, T::to_bytes, rng);
}

fn methods() -> [MethodConfig; 4] {
    [
        MethodConfig::Dij,
        MethodConfig::Full {
            use_floyd_warshall: false,
        },
        MethodConfig::Ldm(LdmConfig {
            landmarks: 5,
            ..LdmConfig::default()
        }),
        MethodConfig::Hyp { cells: 4 },
    ]
}

#[test]
fn every_decoder_rejects_prefixes_and_never_aliases_edits() {
    let g = grid_network(6, 6, 1.15, 4100);
    let keypair = RsaKeyPair::generate(&mut StdRng::seed_from_u64(4101), 256);
    let pois = PoiSet::publish(&keypair, &[(NodeId(5), 1.0), (NodeId(30), 2.0)]).unwrap();
    let queries = [(NodeId(0), NodeId(35)), (NodeId(6), NodeId(29))];
    for (i, method) in methods().iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(4102 + i as u64);
        let name = method.name();
        let p = DataOwner::publish_with_key(&g, method, &SetupConfig::default(), &keypair);
        let provider = ServiceProvider::new(p.package.clone());
        let service = SpService::new(p.package);
        let client = Client::new(keypair.public_key().clone());
        let session = service.open_session(client.clone()).unwrap();

        let answer = provider.answer(NodeId(0), NodeId(35)).unwrap();
        hostile_payload(&format!("{name} answer"), &answer, &mut rng);
        let batch = session.answer_batch(&queries).unwrap();
        hostile_payload(&format!("{name} batch"), &batch, &mut rng);
        let range = session.answer_range(NodeId(14), 2_000.0).unwrap();
        hostile_payload(&format!("{name} range"), &range, &mut rng);
        let knn: KnnAnswer = session.answer_knn(&pois, NodeId(0), 1).unwrap();
        hostile_payload(&format!("{name} knn"), &knn, &mut rng);
        let matrix: MatrixAnswer = session
            .answer_matrix(&[NodeId(0)], &[NodeId(35), NodeId(20)])
            .unwrap();
        hostile_payload(&format!("{name} matrix"), &matrix, &mut rng);

        let root: &SignedRoot = &answer.integrity.signed_root;
        hostile_record(&format!("{name} signed root"), root, &mut rng);
        let params = MethodParams::from_bytes(&root.meta.params).unwrap();
        hostile_record(&format!("{name} params"), &params, &mut rng);
        let tuple: &ExtendedTuple = &answer.sp.tuples()[0];
        hostile_record(&format!("{name} tuple"), tuple, &mut rng);

        let frames: Vec<Vec<u8>> = provider
            .answer_stream(&queries, 1)
            .collect::<Result<_, _>>()
            .unwrap();
        for (k, frame) in frames.iter().enumerate() {
            let f: StreamFrame = wire::decode(frame).unwrap();
            hostile_payload(&format!("{name} frame {k}"), &f, &mut rng);
        }
        hostile_stream(name, &client, &queries, &frames, &mut rng);
    }
}

/// `StreamVerifier::feed` over the honest frames with frame `k` cut or
/// edited: a cut frame fails typed, and an edited one fails typed or
/// releases exactly the honest answers.
fn hostile_stream(
    name: &str,
    client: &Client,
    queries: &[(NodeId, NodeId)],
    frames: &[Vec<u8>],
    rng: &mut StdRng,
) {
    let mut honest = StreamVerifier::new(client, queries);
    let released: Vec<_> = frames.iter().map(|f| honest.feed(f).unwrap()).collect();
    honest.finish().unwrap();
    for (k, frame) in frames.iter().enumerate() {
        let primed = || {
            let mut v = StreamVerifier::new(client, queries);
            frames[..k].iter().for_each(|f| {
                v.feed(f).unwrap();
            });
            v
        };
        // A frame that fails to decode leaves the verifier as it was.
        let mut v = primed();
        for cut in 0..frame.len() {
            assert!(
                v.feed(&frame[..cut]).is_err(),
                "{name}: frame {k} cut at {cut} accepted"
            );
        }
        for _ in 0..EDITS / 8 {
            if let Ok(items) = primed().feed(&edit(frame, rng)) {
                assert_eq!(
                    items, released[k],
                    "{name}: edited frame {k} changed answers"
                );
            }
        }
    }
}
