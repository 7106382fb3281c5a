//! Wire format: complete serialization of provider answers.
//!
//! Everything a client receives — the reported path, ΓS and ΓT — can be
//! encoded to bytes and decoded back. This is what an actual deployment
//! transmits, and it makes the proof-size figures exact: the harness's
//! byte counts equal `encode_answer(..).len()` (asserted by tests).
//!
//! Every top-level payload (answer, batch answer, stream frame) opens
//! with an explicit format-version byte ([`WIRE_VERSION`]); decoding a
//! payload from a different format fails with the typed
//! [`DecodeError::UnsupportedVersion`] instead of a misleading
//! truncation error. Streaming batch serving reuses the
//! [`BatchAnswer`] encoding inside [`StreamFrame::Chunk`] frames.

use crate::ads::{AdsMeta, AdsTag, SignedRoot};
use crate::batch::{BatchAnswer, BatchAux, BatchQueryProof};
use crate::enc::{DecodeError, Decoder, Encoder};
use crate::methods::full::{FullBatchProof, FullDistanceProof, FullRowProof};
use crate::proof::{Answer, IntegrityProof, SpProof};
use crate::queries::RangeAnswer;
use crate::tuple::ExtendedTuple;
use spnet_crypto::digest::{Digest, DIGEST_LEN};
use spnet_crypto::mbtree::{KeyRangeProof, KeyedEntry, KeyedProof};
use spnet_crypto::merkle::{MerkleProof, ProofEntry};
use spnet_crypto::rsa::RsaSignature;
use spnet_graph::{NodeId, Path};

/// The wire format version this build encodes and accepts.
///
/// Version 1 was the implicit (headerless) seed format; version 2
/// added the explicit leading version byte and the streaming frames.
pub const WIRE_VERSION: u8 = 2;

// Smallest encodings of the repeated elements: what `Decoder::take_len`
// holds a length prefix against before anything is reserved for it.
/// `u64` key + `f64` value.
const KEYED_ENTRY_LEN: usize = 16;
/// Level + index + digest.
const PROOF_ENTRY_LEN: usize = 8 + DIGEST_LEN;
/// A Merkle proof with no entries (leaf count, fanout, entry count).
const MERKLE_MIN: usize = 12;
/// An empty path (node count + distance) plus an empty member list.
const BATCH_QUERY_MIN: usize = 12 + 4;
/// Source + an empty entry list + an empty row proof.
const FULL_ROW_MIN: usize = 8 + MERKLE_MIN;

/// Emits the leading version byte of every top-level payload.
fn put_version(e: &mut Encoder) {
    e.put_u8(WIRE_VERSION);
}

/// Consumes and checks the leading version byte.
fn take_version(d: &mut Decoder<'_>) -> Result<(), DecodeError> {
    match d.take_u8()? {
        WIRE_VERSION => Ok(()),
        v => Err(DecodeError::UnsupportedVersion(v)),
    }
}

/// Encodes a full answer into bytes.
pub fn encode_answer(a: &Answer) -> Vec<u8> {
    let mut e = Encoder::new();
    put_version(&mut e);
    put_path(&mut e, &a.path);
    put_sp(&mut e, &a.sp);
    put_integrity(&mut e, &a.integrity);
    e.into_bytes()
}

/// Decodes an answer from bytes, requiring full consumption.
pub fn decode_answer(bytes: &[u8]) -> Result<Answer, DecodeError> {
    let mut d = Decoder::new(bytes);
    take_version(&mut d)?;
    let path = take_path(&mut d)?;
    let sp = take_sp(&mut d)?;
    let integrity = take_integrity(&mut d)?;
    d.finish()?;
    Ok(Answer {
        path,
        sp,
        integrity,
    })
}

/// Encodes a batched answer into bytes.
pub fn encode_batch_answer(b: &BatchAnswer) -> Vec<u8> {
    let mut e = Encoder::new();
    put_version(&mut e);
    put_batch_body(&mut e, b);
    e.into_bytes()
}

/// The version-less batch payload (shared with stream chunk frames).
fn put_batch_body(e: &mut Encoder, b: &BatchAnswer) {
    e.put_u32(b.queries.len() as u32);
    for q in &b.queries {
        put_path(e, &q.path);
        e.put_u32(q.members.len() as u32);
        for m in &q.members {
            e.put_u32(*m);
        }
    }
    put_tuples(e, &b.pool);
    put_integrity(e, &b.integrity);
    put_batch_aux(e, &b.aux);
}

/// Decodes a batched answer from bytes, requiring full consumption.
pub fn decode_batch_answer(bytes: &[u8]) -> Result<BatchAnswer, DecodeError> {
    let mut d = Decoder::new(bytes);
    take_version(&mut d)?;
    let b = take_batch_body(&mut d)?;
    d.finish()?;
    Ok(b)
}

/// The version-less batch payload (shared with stream chunk frames).
fn take_batch_body(d: &mut Decoder<'_>) -> Result<BatchAnswer, DecodeError> {
    let k = d.take_len(BATCH_QUERY_MIN)?;
    let mut queries = Vec::with_capacity(k);
    for _ in 0..k {
        let path = take_path(d)?;
        let m = d.take_len(4)?;
        let mut members = Vec::with_capacity(m);
        for _ in 0..m {
            members.push(d.take_u32()?);
        }
        queries.push(BatchQueryProof { path, members });
    }
    let pool = take_tuples(d)?;
    let integrity = take_integrity(d)?;
    let aux = take_batch_aux(d)?;
    Ok(BatchAnswer {
        pool,
        queries,
        integrity,
        aux,
    })
}

/// Encodes a range answer (claimed members + pooled tuples + ΓT +
/// method aux) into bytes.
pub fn encode_range_answer(a: &RangeAnswer) -> Vec<u8> {
    let mut e = Encoder::new();
    put_version(&mut e);
    e.put_u32(a.source.0);
    e.put_f64(a.radius);
    e.put_u32(a.members.len() as u32);
    for &(v, d) in &a.members {
        e.put_u32(v.0);
        e.put_f64(d);
    }
    put_tuples(&mut e, &a.pool);
    put_integrity(&mut e, &a.integrity);
    put_batch_aux(&mut e, &a.aux);
    e.into_bytes()
}

/// Decodes a range answer from bytes, requiring full consumption.
pub fn decode_range_answer(bytes: &[u8]) -> Result<RangeAnswer, DecodeError> {
    let mut d = Decoder::new(bytes);
    take_version(&mut d)?;
    let source = NodeId(d.take_u32()?);
    let radius = d.take_f64()?;
    let n = d.take_len(4 + 8)?; // node id + distance
    let mut members = Vec::with_capacity(n);
    for _ in 0..n {
        members.push((NodeId(d.take_u32()?), d.take_f64()?));
    }
    let pool = take_tuples(&mut d)?;
    let integrity = take_integrity(&mut d)?;
    let aux = take_batch_aux(&mut d)?;
    d.finish()?;
    Ok(RangeAnswer {
        source,
        radius,
        members,
        pool,
        integrity,
        aux,
    })
}

// --- streaming frames --------------------------------------------------

/// One frame of a streaming batch answer.
///
/// A stream is `Header`, then `Chunk`s covering contiguous query
/// ranges in order, then `End`. Each frame is independently encoded
/// (version byte + frame tag + payload), so a transport can ship them
/// as separate messages; the [`crate::stream::StreamVerifier`]
/// enforces the framing protocol and rejects truncation, reordering,
/// duplication and count mismatches with typed errors.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamFrame {
    /// Opens a stream: how many queries it will answer, the provider's
    /// chunking, and the method's wire code (cross-checked against the
    /// signed params of every chunk).
    Header {
        /// Total queries the stream will cover.
        total_queries: u32,
        /// Nominal queries per chunk (the last chunk may be smaller).
        chunk_len: u32,
        /// The serving method's wire code.
        method_code: u8,
    },
    /// One pooled batch answer covering queries
    /// `start .. start + batch.queries.len()`.
    Chunk {
        /// Index of the first query this chunk answers.
        start: u32,
        /// The chunk's pooled batch answer (boxed: a chunk dwarfs the
        /// fixed-size header/end frames).
        batch: Box<BatchAnswer>,
    },
    /// Closes a stream; binds the chunk count.
    End {
        /// Number of chunk frames the stream carried.
        total_chunks: u32,
    },
}

const FRAME_HEADER: u8 = 1;
const FRAME_CHUNK: u8 = 2;
const FRAME_END: u8 = 3;

/// Encodes one stream frame into bytes.
pub fn encode_frame(f: &StreamFrame) -> Vec<u8> {
    let mut e = Encoder::new();
    put_version(&mut e);
    match f {
        StreamFrame::Header {
            total_queries,
            chunk_len,
            method_code,
        } => {
            e.put_u8(FRAME_HEADER);
            e.put_u32(*total_queries);
            e.put_u32(*chunk_len);
            e.put_u8(*method_code);
        }
        StreamFrame::Chunk { start, batch } => {
            e.put_u8(FRAME_CHUNK);
            e.put_u32(*start);
            put_batch_body(&mut e, batch);
        }
        StreamFrame::End { total_chunks } => {
            e.put_u8(FRAME_END);
            e.put_u32(*total_chunks);
        }
    }
    e.into_bytes()
}

/// Decodes one stream frame from bytes, requiring full consumption.
pub fn decode_frame(bytes: &[u8]) -> Result<StreamFrame, DecodeError> {
    let mut d = Decoder::new(bytes);
    take_version(&mut d)?;
    let frame = match d.take_u8()? {
        FRAME_HEADER => StreamFrame::Header {
            total_queries: d.take_u32()?,
            chunk_len: d.take_u32()?,
            method_code: d.take_u8()?,
        },
        FRAME_CHUNK => StreamFrame::Chunk {
            start: d.take_u32()?,
            batch: Box::new(take_batch_body(&mut d)?),
        },
        FRAME_END => StreamFrame::End {
            total_chunks: d.take_u32()?,
        },
        t => return Err(DecodeError::BadTag(t)),
    };
    d.finish()?;
    Ok(frame)
}

// --- path -------------------------------------------------------------

fn put_path(e: &mut Encoder, p: &Path) {
    e.put_u32(p.nodes.len() as u32);
    for v in &p.nodes {
        e.put_u32(v.0);
    }
    e.put_f64(p.distance);
}

fn take_path(d: &mut Decoder<'_>) -> Result<Path, DecodeError> {
    let n = d.take_len(4)?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        nodes.push(NodeId(d.take_u32()?));
    }
    Ok(Path {
        nodes,
        distance: d.take_f64()?,
    })
}

// --- digests / signatures / merkle -------------------------------------

fn put_digest(e: &mut Encoder, d: &Digest) {
    e.put_raw(d.as_bytes());
}

fn take_digest(d: &mut Decoder<'_>) -> Result<Digest, DecodeError> {
    let raw = d.take_raw(DIGEST_LEN)?;
    let mut out = [0u8; DIGEST_LEN];
    out.copy_from_slice(raw);
    Ok(Digest(out))
}

fn put_merkle(e: &mut Encoder, m: &MerkleProof) {
    e.put_u32(m.leaf_count);
    e.put_u32(m.fanout);
    e.put_u32(m.entries.len() as u32);
    for entry in &m.entries {
        e.put_u32(entry.level);
        e.put_u32(entry.index);
        put_digest(e, &entry.digest);
    }
}

fn take_merkle(d: &mut Decoder<'_>) -> Result<MerkleProof, DecodeError> {
    let leaf_count = d.take_u32()?;
    let fanout = d.take_u32()?;
    let n = d.take_len(PROOF_ENTRY_LEN)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(ProofEntry {
            level: d.take_u32()?,
            index: d.take_u32()?,
            digest: take_digest(d)?,
        });
    }
    Ok(MerkleProof {
        entries,
        leaf_count,
        fanout,
    })
}

/// Emits a signed ADS root (also used by higher-level crates — e.g.
/// `spnet-queries`' POI certificates — to compose their own payloads).
pub fn put_signed_root(e: &mut Encoder, s: &SignedRoot) {
    put_digest(e, &s.root);
    e.put_u8(match s.meta.tag {
        AdsTag::Network => 1,
        AdsTag::Distance => 2,
        AdsTag::HyperEdges => 3,
        AdsTag::CellDirectory => 4,
        AdsTag::Poi => 5,
    });
    e.put_u64(s.meta.leaf_count);
    e.put_u32(s.meta.fanout);
    e.put_bytes(&s.meta.params);
    e.put_bytes(s.signature.as_bytes());
}

/// Consumes a signed ADS root (counterpart of [`put_signed_root`]).
pub fn take_signed_root(d: &mut Decoder<'_>) -> Result<SignedRoot, DecodeError> {
    let root = take_digest(d)?;
    let tag = match d.take_u8()? {
        1 => AdsTag::Network,
        2 => AdsTag::Distance,
        3 => AdsTag::HyperEdges,
        4 => AdsTag::CellDirectory,
        5 => AdsTag::Poi,
        t => return Err(DecodeError::BadTag(t)),
    };
    let leaf_count = d.take_u64()?;
    let fanout = d.take_u32()?;
    let params = d.take_bytes()?.to_vec();
    let signature = RsaSignature::from_bytes(d.take_bytes()?.to_vec());
    Ok(SignedRoot {
        root,
        meta: AdsMeta {
            tag,
            leaf_count,
            fanout,
            params,
        },
        signature,
    })
}

fn put_keyed(e: &mut Encoder, k: &KeyedProof) {
    e.put_u32(k.entries.len() as u32);
    for entry in &k.entries {
        e.put_u64(entry.key);
        e.put_f64(entry.value);
    }
    for pos in &k.positions {
        e.put_u32(*pos);
    }
    put_merkle(e, &k.merkle);
}

fn take_keyed(d: &mut Decoder<'_>) -> Result<KeyedProof, DecodeError> {
    let n = d.take_len(KEYED_ENTRY_LEN + 4)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(KeyedEntry {
            key: d.take_u64()?,
            value: d.take_f64()?,
        });
    }
    let mut positions = Vec::with_capacity(n);
    for _ in 0..n {
        positions.push(d.take_u32()?);
    }
    Ok(KeyedProof {
        entries,
        positions,
        merkle: take_merkle(d)?,
    })
}

/// Emits a contiguous key-range completeness proof (the certificate
/// shape `spnet-queries`' POI directory ships).
pub fn put_key_range_proof(e: &mut Encoder, k: &KeyRangeProof) {
    e.put_u32(k.entries.len() as u32);
    for entry in &k.entries {
        e.put_u64(entry.key);
        e.put_f64(entry.value);
    }
    e.put_u32(k.first);
    put_merkle(e, &k.merkle);
}

/// Consumes a key-range proof (counterpart of [`put_key_range_proof`]).
pub fn take_key_range_proof(d: &mut Decoder<'_>) -> Result<KeyRangeProof, DecodeError> {
    let n = d.take_len(KEYED_ENTRY_LEN)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        entries.push(KeyedEntry {
            key: d.take_u64()?,
            value: d.take_f64()?,
        });
    }
    let first = d.take_u32()?;
    Ok(KeyRangeProof {
        entries,
        first,
        merkle: take_merkle(&mut *d)?,
    })
}

// --- tuples -------------------------------------------------------------

fn put_tuples(e: &mut Encoder, ts: &[std::sync::Arc<ExtendedTuple>]) {
    e.put_u32(ts.len() as u32);
    for t in ts {
        t.encode(e);
    }
}

fn take_tuples(d: &mut Decoder<'_>) -> Result<Vec<std::sync::Arc<ExtendedTuple>>, DecodeError> {
    let n = d.take_len(ExtendedTuple::MIN_ENCODED_LEN)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(std::sync::Arc::new(ExtendedTuple::decode(d)?));
    }
    Ok(out)
}

// --- ΓS -------------------------------------------------------------

fn put_sp(e: &mut Encoder, sp: &SpProof) {
    match sp {
        SpProof::Subgraph { tuples } => {
            e.put_u8(1);
            put_tuples(e, tuples);
        }
        SpProof::Distance {
            full,
            signed_root,
            path_tuples,
        } => {
            e.put_u8(2);
            e.put_u64(full.entry.key);
            e.put_f64(full.entry.value);
            e.put_u32(full.row_index);
            put_merkle(e, &full.row_proof);
            e.put_u32(full.top_index);
            put_merkle(e, &full.top_proof);
            put_signed_root(e, signed_root);
            put_tuples(e, path_tuples);
        }
        SpProof::Hyp {
            cell_tuples,
            path_tuples,
            hyper,
            hyper_signed_root,
            cell_dir,
            cell_dir_signed_root,
        } => {
            e.put_u8(3);
            put_tuples(e, cell_tuples);
            put_tuples(e, path_tuples);
            put_keyed(e, hyper);
            put_signed_root(e, hyper_signed_root);
            put_keyed(e, cell_dir);
            put_signed_root(e, cell_dir_signed_root);
        }
    }
}

fn take_sp(d: &mut Decoder<'_>) -> Result<SpProof, DecodeError> {
    match d.take_u8()? {
        1 => Ok(SpProof::Subgraph {
            tuples: take_tuples(d)?,
        }),
        2 => {
            let entry = KeyedEntry {
                key: d.take_u64()?,
                value: d.take_f64()?,
            };
            let row_index = d.take_u32()?;
            let row_proof = take_merkle(d)?;
            let top_index = d.take_u32()?;
            let top_proof = take_merkle(d)?;
            let signed_root = take_signed_root(d)?;
            let path_tuples = take_tuples(d)?;
            Ok(SpProof::Distance {
                full: FullDistanceProof {
                    entry,
                    row_index,
                    row_proof,
                    top_index,
                    top_proof,
                },
                signed_root,
                path_tuples,
            })
        }
        3 => Ok(SpProof::Hyp {
            cell_tuples: take_tuples(d)?,
            path_tuples: take_tuples(d)?,
            hyper: take_keyed(d)?,
            hyper_signed_root: take_signed_root(d)?,
            cell_dir: take_keyed(d)?,
            cell_dir_signed_root: take_signed_root(d)?,
        }),
        t => Err(DecodeError::BadTag(t)),
    }
}

// --- batch aux --------------------------------------------------------

fn put_batch_aux(e: &mut Encoder, aux: &BatchAux) {
    match aux {
        BatchAux::Subgraph => e.put_u8(1),
        BatchAux::Full { proof, signed_root } => {
            e.put_u8(2);
            e.put_u32(proof.rows.len() as u32);
            for row in &proof.rows {
                e.put_u32(row.source);
                e.put_u32(row.entries.len() as u32);
                for entry in &row.entries {
                    e.put_u64(entry.key);
                    e.put_f64(entry.value);
                }
                put_merkle(e, &row.row_proof);
            }
            put_merkle(e, &proof.top_proof);
            put_signed_root(e, signed_root);
        }
        BatchAux::Hyp {
            hyper,
            hyper_signed_root,
            cell_dir,
            cell_dir_signed_root,
        } => {
            e.put_u8(3);
            put_keyed(e, hyper);
            put_signed_root(e, hyper_signed_root);
            put_keyed(e, cell_dir);
            put_signed_root(e, cell_dir_signed_root);
        }
    }
}

fn take_batch_aux(d: &mut Decoder<'_>) -> Result<BatchAux, DecodeError> {
    match d.take_u8()? {
        1 => Ok(BatchAux::Subgraph),
        2 => {
            let n = d.take_len(FULL_ROW_MIN)?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                let source = d.take_u32()?;
                let m = d.take_len(KEYED_ENTRY_LEN)?;
                let mut entries = Vec::with_capacity(m);
                for _ in 0..m {
                    entries.push(KeyedEntry {
                        key: d.take_u64()?,
                        value: d.take_f64()?,
                    });
                }
                let row_proof = take_merkle(d)?;
                rows.push(FullRowProof {
                    source,
                    entries,
                    row_proof,
                });
            }
            let top_proof = take_merkle(d)?;
            let signed_root = take_signed_root(d)?;
            Ok(BatchAux::Full {
                proof: FullBatchProof { rows, top_proof },
                signed_root,
            })
        }
        3 => Ok(BatchAux::Hyp {
            hyper: take_keyed(d)?,
            hyper_signed_root: take_signed_root(d)?,
            cell_dir: take_keyed(d)?,
            cell_dir_signed_root: take_signed_root(d)?,
        }),
        t => Err(DecodeError::BadTag(t)),
    }
}

// --- ΓT -------------------------------------------------------------

fn put_integrity(e: &mut Encoder, i: &IntegrityProof) {
    e.put_u32(i.positions.len() as u32);
    for p in &i.positions {
        e.put_u32(*p);
    }
    put_merkle(e, &i.merkle);
    put_signed_root(e, &i.signed_root);
}

fn take_integrity(d: &mut Decoder<'_>) -> Result<IntegrityProof, DecodeError> {
    let n = d.take_len(4)?;
    let mut positions = Vec::with_capacity(n);
    for _ in 0..n {
        positions.push(d.take_u32()?);
    }
    Ok(IntegrityProof {
        positions,
        merkle: take_merkle(d)?,
        signed_root: take_signed_root(d)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{LdmConfig, MethodConfig};
    use crate::owner::{DataOwner, SetupConfig};
    use crate::provider::ServiceProvider;
    use crate::Client;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
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
        // The stats accounting (per-component) and the actual wire
        // bytes agree within framing overhead (< 5% + 64 bytes).
        for method in all_methods() {
            let (answer, _) = answers_for(method.clone());
            let wire = encode_answer(&answer).len();
            let stats = answer.stats().total_bytes();
            let tolerance = stats / 20 + 64;
            assert!(
                wire.abs_diff(stats) <= tolerance,
                "{}: wire {wire} vs stats {stats}",
                method.name()
            );
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
        let mut fbytes = encode_frame(&StreamFrame::End { total_chunks: 3 });
        fbytes[0] = 7;
        assert_eq!(
            decode_frame(&fbytes),
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
        let mut e = Encoder::new();
        put_key_range_proof(&mut e, &proof);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        let back = take_key_range_proof(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(back, proof);
        let got = back.verify(tree.root(), 9, 60).unwrap();
        // Keys are multiples of 3; [9, 60] holds 9, 12, …, 60.
        assert_eq!(got.len(), 18);
        for cut in [0usize, 2, bytes.len() / 2, bytes.len() - 1] {
            let mut d = Decoder::new(&bytes[..cut]);
            assert!(take_key_range_proof(&mut d).is_err(), "cut at {cut}");
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
            let bytes = encode_frame(f);
            assert_eq!(&decode_frame(&bytes).unwrap(), f);
            // Truncations never alias to a valid frame.
            for cut in [0usize, 1, bytes.len() / 2, bytes.len() - 1] {
                assert!(decode_frame(&bytes[..cut]).is_err(), "cut at {cut}");
            }
            let mut long = bytes.clone();
            long.push(0);
            assert!(matches!(
                decode_frame(&long),
                Err(DecodeError::TrailingBytes(1))
            ));
        }
        // An unknown frame tag is rejected.
        let mut bytes = encode_frame(&StreamFrame::End { total_chunks: 0 });
        bytes[1] = 42;
        assert!(matches!(decode_frame(&bytes), Err(DecodeError::BadTag(42))));
    }
}
