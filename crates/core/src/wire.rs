//! Wire format: every byte a client receives.
//!
//! Each payload type — the reported path, ΓS, ΓT, batch, range and
//! stream frames — is described by one [`Wire`] impl, whose format
//! rules `spnet_bytes::enc` states once. On top of them:
//!
//! * Every top-level payload opens with the [`WIRE_VERSION`] byte:
//!   another version fails with the typed
//!   [`DecodeError::UnsupportedVersion`] instead of a misleading
//!   truncation, and a payload must be consumed exactly.
//! * Sizes are encoded lengths: every proof size the figures and the
//!   benchmark report is [`Wire::encoded_len`] of the part it names, so
//!   `encode_answer(a).len() == 1 + a.stats().total_bytes()`.
//!
//! Streaming batch serving reuses the [`BatchAnswer`] encoding inside
//! [`StreamFrame::Chunk`] frames.

use crate::ads::SignedRoot;
use crate::batch::{BatchAnswer, BatchAux, BatchQueryProof};
use crate::methods::full::{FullBatchProof, FullDistanceProof, FullRowProof};
use crate::proof::{Answer, IntegrityProof, SpProof};
use crate::queries::RangeAnswer;
use crate::stream::StreamFrame;
use crate::tuple::ExtendedTuple;
use spnet_bytes::enc::{DecodeError, Decoder, Encoder, Wire};
use spnet_bytes::{wire_enum, wire_struct};
use spnet_crypto::mbtree::{KeyedEntry, KeyedProof};
use spnet_crypto::merkle::MerkleProof;
use spnet_graph::{NodeId, Path};
use std::sync::Arc;

/// The wire format version this build encodes and accepts.
///
/// Version 1 was the implicit (headerless) seed format; version 2
/// added the explicit leading version byte and the streaming frames.
pub const WIRE_VERSION: u8 = 2;

/// A top-level payload: the version byte, then the encoding of `v`.
pub fn encode<T: Wire>(v: &T) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put(&WIRE_VERSION);
    e.put(v);
    e.into_bytes()
}

/// Decodes a top-level payload: checks the version byte and requires
/// every byte to be consumed.
pub fn decode<T: Wire>(bytes: &[u8]) -> Result<T, DecodeError> {
    let mut d = Decoder::new(bytes);
    match d.take()? {
        WIRE_VERSION => {}
        v => return Err(DecodeError::UnsupportedVersion(v)),
    }
    let v = d.take()?;
    d.finish()?;
    Ok(v)
}

/// Encodes a full answer into bytes.
pub fn encode_answer(a: &Answer) -> Vec<u8> {
    encode(a)
}

/// Decodes an answer from bytes, requiring full consumption.
pub fn decode_answer(bytes: &[u8]) -> Result<Answer, DecodeError> {
    decode(bytes)
}

/// Encodes a batched answer into bytes.
pub fn encode_batch_answer(b: &BatchAnswer) -> Vec<u8> {
    encode(b)
}

/// Decodes a batched answer from bytes, requiring full consumption.
pub fn decode_batch_answer(bytes: &[u8]) -> Result<BatchAnswer, DecodeError> {
    decode(bytes)
}

/// Encodes a range answer (claimed members + pooled tuples + ΓT +
/// method aux) into bytes.
pub fn encode_range_answer(a: &RangeAnswer) -> Vec<u8> {
    encode(a)
}

/// Decodes a range answer from bytes, requiring full consumption.
pub fn decode_range_answer(bytes: &[u8]) -> Result<RangeAnswer, DecodeError> {
    decode(bytes)
}

wire_enum!(StreamFrame {
    1 => Header { total_queries: u32, chunk_len: u32, method_code: u8 },
    2 => Chunk { start: u32, batch: Box<BatchAnswer> },
    3 => End { total_chunks: u32 },
});

wire_struct!(Answer {
    path: Path,
    sp: SpProof,
    integrity: IntegrityProof
});
wire_struct!(BatchAnswer {
    queries: Vec<BatchQueryProof>,
    pool: Vec<Arc<ExtendedTuple>>,
    integrity: IntegrityProof,
    aux: BatchAux,
});
wire_struct!(BatchQueryProof { path: Path, members: Vec<u32> });
wire_struct!(RangeAnswer {
    source: NodeId,
    radius: f64,
    members: Vec<(NodeId, f64)>,
    pool: Vec<Arc<ExtendedTuple>>,
    integrity: IntegrityProof,
    aux: BatchAux,
});
wire_struct!(IntegrityProof {
    positions: Vec<u32>,
    merkle: MerkleProof,
    signed_root: SignedRoot,
});
wire_struct!(FullDistanceProof {
    entry: KeyedEntry,
    row_index: u32,
    row_proof: MerkleProof,
    top_index: u32,
    top_proof: MerkleProof,
});
wire_struct!(FullBatchProof { rows: Vec<FullRowProof>, top_proof: MerkleProof });
wire_struct!(FullRowProof { source: u32, entries: Vec<KeyedEntry>, row_proof: MerkleProof });

// ΓS: DIJ and LDM ship a subgraph, FULL a distance, HYP both.
wire_enum!(SpProof {
    1 => Subgraph { tuples: Vec<Arc<ExtendedTuple>> },
    2 => Distance {
        full: FullDistanceProof,
        signed_root: SignedRoot,
        path_tuples: Vec<Arc<ExtendedTuple>>,
    },
    3 => Hyp {
        cell_tuples: Vec<Arc<ExtendedTuple>>,
        path_tuples: Vec<Arc<ExtendedTuple>>,
        hyper: KeyedProof,
        hyper_signed_root: SignedRoot,
        cell_dir: KeyedProof,
        cell_dir_signed_root: SignedRoot,
    },
});

// A batch's method block.
wire_enum!(BatchAux {
    1 => Subgraph,
    2 => Full { proof: FullBatchProof, signed_root: SignedRoot },
    3 => Hyp {
        hyper: KeyedProof,
        hyper_signed_root: SignedRoot,
        cell_dir: KeyedProof,
        cell_dir_signed_root: SignedRoot,
    },
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{LdmConfig, MethodConfig};
    use crate::owner::{DataOwner, SetupConfig};
    use crate::provider::ServiceProvider;
    use crate::Client;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spnet_crypto::mbtree::KeyRangeProof;
    use spnet_graph::gen::grid_network;

    fn answers_for(method: MethodConfig) -> (Answer, Client) {
        let g = grid_network(9, 9, 1.15, 1300);
        let mut rng = StdRng::seed_from_u64(1301);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        let client = Client::new(p.public_key);
        let provider = ServiceProvider::new(p.package);
        (provider.answer(NodeId(0), NodeId(80)).unwrap(), client)
    }

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

    #[test]
    fn round_trip_all_methods() {
        for method in all_methods() {
            let (answer, _) = answers_for(method.clone());
            let bytes = encode_answer(&answer);
            let back = decode_answer(&bytes).unwrap();
            assert_eq!(back, answer, "{}", method.name());
        }
    }

    #[test]
    fn decoded_answers_still_verify() {
        for method in all_methods() {
            let (answer, client) = answers_for(method.clone());
            let bytes = encode_answer(&answer);
            let back = decode_answer(&bytes).unwrap();
            client
                .verify(NodeId(0), NodeId(80), &back)
                .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
        }
    }

    #[test]
    fn wire_size_close_to_stats_accounting() {
        // Every size is an encoded length: the stats account for every
        // byte of the answer but its version byte.
        for method in all_methods() {
            let (answer, _) = answers_for(method.clone());
            let stats = answer.stats();
            assert_eq!(
                encode_answer(&answer).len(),
                1 + stats.total_bytes(),
                "{}",
                method.name()
            );
            assert_eq!(stats.path_bytes, 4 + 4 * answer.path.nodes.len() + 8);
            let merkle = &answer.integrity.merkle;
            assert_eq!(merkle.encoded_len(), 12 + 40 * merkle.entries.len());
        }
    }

    #[test]
    fn truncated_bytes_rejected() {
        let (answer, _) = answers_for(MethodConfig::Dij);
        let bytes = encode_answer(&answer);
        for cut in [0usize, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_answer(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let (answer, _) = answers_for(MethodConfig::Dij);
        let mut bytes = encode_answer(&answer);
        bytes.push(0);
        assert!(matches!(
            decode_answer(&bytes),
            Err(DecodeError::TrailingBytes(1))
        ));
    }

    #[test]
    fn bit_flips_change_decoded_answer_or_fail() {
        // Any single byte flip either fails to decode or decodes to a
        // different answer (no silent aliasing).
        let (answer, _) = answers_for(MethodConfig::Dij);
        let bytes = encode_answer(&answer);
        let step = (bytes.len() / 23).max(1);
        for i in (0..bytes.len()).step_by(step) {
            let mut evil = bytes.clone();
            evil[i] ^= 0x01;
            match decode_answer(&evil) {
                Err(_) => {}
                Ok(back) => assert_ne!(back, answer, "flip at {i} aliased"),
            }
        }
    }

    fn batch_for(method: MethodConfig) -> (Vec<(NodeId, NodeId)>, BatchAnswer, Client) {
        let g = grid_network(9, 9, 1.15, 1302);
        let mut rng = StdRng::seed_from_u64(1303);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        let client = Client::new(p.public_key);
        let provider = ServiceProvider::new(p.package);
        let queries = vec![
            (NodeId(0), NodeId(80)),
            (NodeId(1), NodeId(79)),
            (NodeId(0), NodeId(40)),
        ];
        (
            queries.clone(),
            provider.answer_batch_impl(&queries).unwrap(),
            client,
        )
    }

    #[test]
    fn batch_round_trip_all_methods() {
        for method in all_methods() {
            let (_, batch, _) = batch_for(method.clone());
            let bytes = encode_batch_answer(&batch);
            assert_eq!(batch.encoded_len() + 1, bytes.len());
            let back = decode_batch_answer(&bytes).unwrap();
            assert_eq!(back, batch, "{}", method.name());
        }
    }

    #[test]
    fn decoded_batches_still_verify() {
        for method in all_methods() {
            let (queries, batch, client) = batch_for(method.clone());
            let bytes = encode_batch_answer(&batch);
            let back = decode_batch_answer(&bytes).unwrap();
            let want = client
                .verify_batch_impl(&queries, &batch, None, None)
                .unwrap();
            let got = client
                .verify_batch_impl(&queries, &back, None, None)
                .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
            for (w, g) in want.iter().zip(&got) {
                assert_eq!(w.to_bits(), g.to_bits(), "{}", method.name());
            }
        }
    }

    #[test]
    fn truncated_batch_bytes_rejected() {
        for method in all_methods() {
            let (_, batch, _) = batch_for(method);
            let bytes = encode_batch_answer(&batch);
            for cut in [0usize, 1, bytes.len() / 2, bytes.len() - 1] {
                assert!(decode_batch_answer(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            let mut long = bytes.clone();
            long.push(0);
            assert!(matches!(
                decode_batch_answer(&long),
                Err(DecodeError::TrailingBytes(1))
            ));
        }
    }

    #[test]
    fn bad_batch_aux_tag_rejected() {
        let (_, batch, _) = batch_for(MethodConfig::Dij);
        let mut bytes = encode_batch_answer(&batch);
        // The aux block is the final section; for DIJ it is the single
        // trailing Subgraph tag byte.
        assert_eq!(*bytes.last().unwrap(), 1);
        *bytes.last_mut().unwrap() = 99;
        assert!(matches!(
            decode_batch_answer(&bytes),
            Err(DecodeError::BadTag(99))
        ));
    }

    #[test]
    fn bad_sp_tag_rejected() {
        let (answer, _) = answers_for(MethodConfig::Dij);
        let mut bytes = encode_answer(&answer);
        // The ΓS tag byte sits right after the version byte + path
        // block.
        let tag_pos = 1 + 4 + answer.path.nodes.len() * 4 + 8;
        bytes[tag_pos] = 99;
        assert!(matches!(
            decode_answer(&bytes),
            Err(DecodeError::BadTag(99))
        ));
    }

    #[test]
    fn wrong_version_byte_rejected_with_typed_error() {
        let (answer, _) = answers_for(MethodConfig::Dij);
        let mut bytes = encode_answer(&answer);
        assert_eq!(bytes[0], WIRE_VERSION);
        bytes[0] = WIRE_VERSION + 1;
        assert_eq!(
            decode_answer(&bytes),
            Err(DecodeError::UnsupportedVersion(WIRE_VERSION + 1))
        );
        let (_, batch, _) = batch_for(MethodConfig::Dij);
        let mut bbytes = encode_batch_answer(&batch);
        bbytes[0] = 0;
        assert_eq!(
            decode_batch_answer(&bbytes),
            Err(DecodeError::UnsupportedVersion(0))
        );
        let mut fbytes = encode(&StreamFrame::End { total_chunks: 3 });
        fbytes[0] = 7;
        assert_eq!(
            decode::<StreamFrame>(&fbytes),
            Err(DecodeError::UnsupportedVersion(7))
        );
    }

    fn range_for(method: MethodConfig) -> (crate::queries::RangeAnswer, Client) {
        let g = grid_network(9, 9, 1.15, 1304);
        let mut rng = StdRng::seed_from_u64(1305);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        let client = Client::new(p.public_key);
        let provider = ServiceProvider::new(p.package);
        (provider.answer_range(NodeId(40), 3_000.0).unwrap(), client)
    }

    #[test]
    fn range_answer_round_trip_all_methods() {
        for method in all_methods() {
            let (answer, client) = range_for(method.clone());
            let bytes = encode_range_answer(&answer);
            assert_eq!(answer.encoded_len() + 1, bytes.len());
            let back = decode_range_answer(&bytes).unwrap();
            assert_eq!(back, answer, "{}", method.name());
            client
                .verify_range(NodeId(40), 3_000.0, &back)
                .unwrap_or_else(|e| panic!("{}: {e}", method.name()));
        }
    }

    #[test]
    fn truncated_range_bytes_rejected() {
        let (answer, _) = range_for(MethodConfig::Dij);
        let bytes = encode_range_answer(&answer);
        for cut in [0usize, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_range_answer(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = bytes;
        long.push(0);
        assert!(matches!(
            decode_range_answer(&long),
            Err(DecodeError::TrailingBytes(1))
        ));
    }

    #[test]
    fn key_range_proof_round_trip() {
        use spnet_crypto::mbtree::MerkleBTree;
        let entries: Vec<KeyedEntry> = (0..40u64)
            .map(|i| KeyedEntry {
                key: i * 3,
                value: i as f64 * 0.5,
            })
            .collect();
        let tree = MerkleBTree::build(entries, 4).unwrap();
        let proof = tree.prove_key_range(9, 60).unwrap();
        let bytes = proof.to_bytes();
        let back = KeyRangeProof::from_bytes(&bytes).unwrap();
        assert_eq!(back, proof);
        let got = back.verify(tree.root(), 9, 60).unwrap();
        // Keys are multiples of 3; [9, 60] holds 9, 12, …, 60.
        assert_eq!(got.len(), 18);
        for cut in [0usize, 2, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                KeyRangeProof::from_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn stream_frames_round_trip() {
        let (_, batch, _) = batch_for(MethodConfig::Hyp { cells: 9 });
        let frames = [
            StreamFrame::Header {
                total_queries: 3,
                chunk_len: 2,
                method_code: 4,
            },
            StreamFrame::Chunk {
                start: 0,
                batch: Box::new(batch),
            },
            StreamFrame::End { total_chunks: 1 },
        ];
        for f in &frames {
            let bytes = encode(f);
            assert_eq!(&decode::<StreamFrame>(&bytes).unwrap(), f);
            // Truncations never alias to a valid frame.
            for cut in [0usize, 1, bytes.len() / 2, bytes.len() - 1] {
                assert!(
                    decode::<StreamFrame>(&bytes[..cut]).is_err(),
                    "cut at {cut}"
                );
            }
            let mut long = bytes.clone();
            long.push(0);
            assert!(matches!(
                decode::<StreamFrame>(&long),
                Err(DecodeError::TrailingBytes(1))
            ));
        }
        // An unknown frame tag is rejected.
        let mut bytes = encode(&StreamFrame::End { total_chunks: 0 });
        bytes[1] = 42;
        assert!(matches!(
            decode::<StreamFrame>(&bytes),
            Err(DecodeError::BadTag(42))
        ));
    }
}
