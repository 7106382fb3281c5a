//! Streaming batch serving: pooled chunks, verified incrementally.
//!
//! `answer_batch` amortizes beautifully but is all-or-nothing: the
//! client sees no verified answer until the whole batch arrived. For
//! heavy interactive traffic (the ROADMAP's north star) a provider
//! wants to **stream**: prove pooled chunks of the query list and ship
//! each as soon as it is ready, while the client verifies and releases
//! answers incrementally. This module supplies both halves:
//!
//! * [`AnswerStream`] — a lazy provider-side iterator over encoded
//!   [`StreamFrame`]s (`Header`, `Chunk`…, `End`), each chunk a
//!   [`BatchAnswer`] over the next slice of
//!   queries;
//! * [`StreamVerifier`] — a client-side state machine fed one frame at
//!   a time, yielding the verified answers of each chunk and enforcing
//!   the framing protocol (header first, contiguous in-order chunks,
//!   an `End` frame binding the chunk count, full coverage of the
//!   query list). Truncated, reordered, duplicated or tampered streams
//!   fail with typed [`StreamError`]s.
//!
//! The [`crate::service::Session`] facade couples the two in-process
//! (through the actual wire encoding, so the bytes path is exercised
//! end to end); a networked deployment ships the frames instead.

use crate::ads::SignedRoot;
use crate::batch::BatchAnswer;
use crate::client::Client;
use crate::enc::{DecodeError, Wire};
use crate::error::{ProviderError, VerifyError};
use crate::methods::PinnedAux;
use crate::provider::ServiceProvider;
use crate::wire;
use spnet_graph::{NodeId, Path};
use std::ops::Range;

/// Default queries per pooled chunk ([`ServiceProvider::answer_stream`]
/// callers can override).
pub const DEFAULT_CHUNK_LEN: usize = 16;

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

/// Why a stream was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// A frame failed to decode (truncation, version mismatch, bad
    /// tag).
    Decode(DecodeError),
    /// A chunk's batch answer failed cryptographic verification.
    Verify(VerifyError),
    /// The framing protocol was violated (out-of-order chunk, missing
    /// header, duplicate header, frame after end, …).
    Protocol(&'static str),
    /// The stream ended before covering every query.
    Truncated {
        /// Queries verified before the stream ended.
        verified: usize,
        /// Queries the stream promised to answer.
        expected: usize,
    },
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::Decode(e) => write!(f, "stream frame decode failed: {e}"),
            StreamError::Verify(e) => write!(f, "stream chunk rejected: {e}"),
            StreamError::Protocol(m) => write!(f, "stream protocol violation: {m}"),
            StreamError::Truncated { verified, expected } => {
                write!(
                    f,
                    "stream truncated: {verified} of {expected} queries verified"
                )
            }
        }
    }
}

impl std::error::Error for StreamError {}

impl From<DecodeError> for StreamError {
    fn from(e: DecodeError) -> Self {
        StreamError::Decode(e)
    }
}

impl From<VerifyError> for StreamError {
    fn from(e: VerifyError) -> Self {
        StreamError::Verify(e)
    }
}

/// Stage of a [`Framer`].
enum Stage {
    Header,
    /// Chunks while queries remain, then the end frame.
    Body,
    Done,
}

/// The provider side of the stream framing, shared by [`AnswerStream`]
/// and [`crate::service::SessionStream`]: it owns the header, the chunk
/// bounds, the chunk count and the end frame, and asks its caller only
/// for each chunk's encoded frame. [`StreamVerifier`] enforces the
/// result.
pub(crate) struct Framer {
    total: usize,
    chunk_len: usize,
    method_code: u8,
    next: usize,
    chunks: u32,
    stage: Stage,
}

impl Framer {
    /// Framing for `total` queries in chunks of `chunk_len` (clamped to
    /// at least 1; the last chunk may be smaller).
    pub(crate) fn new(total: usize, chunk_len: usize, method_code: u8) -> Self {
        Framer {
            total,
            chunk_len: chunk_len.max(1),
            method_code,
            next: 0,
            chunks: 0,
            stage: Stage::Header,
        }
    }

    /// The chunk starting at query `start`, if any queries remain.
    fn chunk_at(&self, start: usize) -> Option<Range<usize>> {
        (start < self.total).then(|| start..(start + self.chunk_len).min(self.total))
    }

    /// The next encoded frame, `None` once the stream has ended.
    /// `chunk_frame(chunk, following)` produces the frame of the query
    /// range `chunk`; `following` is the chunk after it, for callers
    /// that prefetch. An error ends the stream.
    pub(crate) fn next_frame<E>(
        &mut self,
        chunk_frame: impl FnOnce(Range<usize>, Option<Range<usize>>) -> Result<Vec<u8>, E>,
    ) -> Option<Result<Vec<u8>, E>> {
        match self.stage {
            Stage::Header => {
                self.stage = Stage::Body;
                Some(Ok(wire::encode(&StreamFrame::Header {
                    total_queries: self.total as u32,
                    chunk_len: self.chunk_len as u32,
                    method_code: self.method_code,
                })))
            }
            Stage::Body => match self.chunk_at(self.next) {
                Some(chunk) => {
                    let end = chunk.end;
                    match chunk_frame(chunk, self.chunk_at(end)) {
                        Ok(frame) => {
                            self.next = end;
                            self.chunks += 1;
                            Some(Ok(frame))
                        }
                        Err(e) => {
                            self.stop();
                            Some(Err(e))
                        }
                    }
                }
                None => {
                    self.stop();
                    Some(Ok(wire::encode(&StreamFrame::End {
                        total_chunks: self.chunks,
                    })))
                }
            },
            Stage::Done => None,
        }
    }

    /// Ends the stream: every later step returns `None`.
    pub(crate) fn stop(&mut self) {
        self.stage = Stage::Done;
    }
}

/// Proves `queries` — the chunk starting at query `start` — as one
/// pooled batch and encodes its chunk frame.
pub(crate) fn chunk_frame(
    provider: &ServiceProvider,
    start: usize,
    queries: &[(NodeId, NodeId)],
) -> Result<Vec<u8>, ProviderError> {
    let batch = provider.answer_batch_impl(queries)?;
    Ok(wire::encode(&StreamFrame::Chunk {
        start: start as u32,
        batch: Box::new(batch),
    }))
}

/// A lazy iterator of encoded stream frames: chunk `i` is proven only
/// when the consumer pulls it, so the first verified answers leave the
/// provider after one chunk's work instead of the whole batch's.
pub struct AnswerStream<'a> {
    provider: &'a ServiceProvider,
    queries: &'a [(NodeId, NodeId)],
    framer: Framer,
}

impl ServiceProvider {
    /// Serves `queries` as a lazy stream of encoded frames: a header,
    /// one pooled [`BatchAnswer`] chunk per
    /// `chunk_len` queries (the last chunk may be smaller), and an end
    /// frame. `chunk_len` is clamped to at least 1.
    pub fn answer_stream<'a>(
        &'a self,
        queries: &'a [(NodeId, NodeId)],
        chunk_len: usize,
    ) -> AnswerStream<'a> {
        AnswerStream {
            provider: self,
            queries,
            framer: Framer::new(queries.len(), chunk_len, self.method_code()),
        }
    }
}

impl Iterator for AnswerStream<'_> {
    type Item = Result<Vec<u8>, ProviderError>;

    fn next(&mut self) -> Option<Self::Item> {
        let (provider, queries) = (self.provider, self.queries);
        self.framer
            .next_frame(|chunk, _| chunk_frame(provider, chunk.start, &queries[chunk]))
    }
}

/// One verified answer released by a stream chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifiedItem {
    /// Index of the query in the submitted query list.
    pub index: usize,
    /// The provider's reported shortest path.
    pub path: Path,
    /// The proven optimal distance.
    pub distance: f64,
}

/// Client-side incremental stream verification.
///
/// Feed frames in arrival order with [`Self::feed`]; each chunk frame
/// returns its queries' verified answers. Call [`Self::finish`] (or
/// check [`Self::finished`]) after the transport closes: a stream that
/// never delivered its `End` frame — or whose `End` arrived before
/// every query was covered — is **truncated**, not complete.
pub struct StreamVerifier<'a> {
    client: &'a Client,
    queries: &'a [(NodeId, NodeId)],
    /// Session-pinned epoch root (verify signature once at open).
    pinned: Option<&'a SignedRoot>,
    /// Session-pinned auxiliary roots (FULL distance tree, HYP
    /// hyper-edge and cell-directory trees), RSA-verified at open.
    pins: Option<&'a PinnedAux>,
    /// From the header frame: (method wire code, declared chunk size).
    header: Option<(u8, usize)>,
    next_start: usize,
    chunks_seen: u32,
    done: bool,
}

impl<'a> StreamVerifier<'a> {
    /// A verifier for `queries`, authenticating every chunk's signed
    /// roots from scratch.
    pub fn new(client: &'a Client, queries: &'a [(NodeId, NodeId)]) -> Self {
        StreamVerifier {
            client,
            queries,
            pinned: None,
            pins: None,
            header: None,
            next_start: 0,
            chunks_seen: 0,
            done: false,
        }
    }

    /// A verifier pinned to an already RSA-verified network root and the
    /// session's pinned auxiliary roots (the [`crate::service::Session`]
    /// stream path): chunks signed for any other epoch are rejected
    /// without a signature check, and chunks of FULL/HYP sessions skip
    /// the per-chunk RSA check on aux roots whose bytes match a pin
    /// (Merkle reconstructions still run).
    pub fn with_session_pins(
        client: &'a Client,
        queries: &'a [(NodeId, NodeId)],
        root: &'a SignedRoot,
        pins: &'a PinnedAux,
    ) -> Self {
        StreamVerifier {
            pinned: Some(root),
            pins: Some(pins),
            ..Self::new(client, queries)
        }
    }

    /// Processes one encoded frame, returning the verified answers it
    /// released (empty for header/end frames).
    pub fn feed(&mut self, frame: &[u8]) -> Result<Vec<VerifiedItem>, StreamError> {
        if self.done {
            return Err(StreamError::Protocol("frame after end of stream"));
        }
        match wire::decode(frame)? {
            StreamFrame::Header {
                total_queries,
                chunk_len,
                method_code,
            } => {
                if self.header.is_some() {
                    return Err(StreamError::Protocol("duplicate header frame"));
                }
                if total_queries as usize != self.queries.len() {
                    return Err(StreamError::Protocol(
                        "header query count does not match submitted queries",
                    ));
                }
                if chunk_len == 0 && !self.queries.is_empty() {
                    return Err(StreamError::Protocol("header declares zero chunk size"));
                }
                self.header = Some((method_code, chunk_len as usize));
                Ok(Vec::new())
            }
            StreamFrame::Chunk { start, batch } => {
                let Some((method_code, chunk_len)) = self.header else {
                    return Err(StreamError::Protocol("chunk before header"));
                };
                if start as usize != self.next_start {
                    return Err(StreamError::Protocol(
                        "chunk out of order (start does not continue the stream)",
                    ));
                }
                if self.next_start == self.queries.len() {
                    return Err(StreamError::Protocol("chunk after all queries covered"));
                }
                // The header's declared chunking is binding: every
                // chunk carries exactly chunk_len queries except a
                // smaller final remainder.
                let k = batch.queries.len();
                let expected = chunk_len.min(self.queries.len() - self.next_start);
                if k != expected {
                    return Err(StreamError::Protocol(
                        "chunk size differs from header's declared chunking",
                    ));
                }
                let end = self.next_start + k;
                // Cheap protocol checks precede the expensive batch
                // verification: the signed params' method must be the
                // one the header announced (a header lie is caught on
                // the first chunk, before any RSA/Merkle work).
                let params = crate::methods::MethodParams::from_bytes(
                    &batch.integrity.signed_root.meta.params,
                )
                .map_err(|_| VerifyError::MetaMismatch("undecodable method params"))?;
                if params.code() != method_code {
                    return Err(StreamError::Protocol(
                        "chunk method differs from stream header",
                    ));
                }
                let slice = &self.queries[self.next_start..end];
                let distances =
                    self.client
                        .verify_batch_impl(slice, &batch, self.pinned, self.pins)?;
                let items = batch
                    .queries
                    .iter()
                    .zip(distances)
                    .enumerate()
                    .map(|(i, (q, distance))| VerifiedItem {
                        index: self.next_start + i,
                        path: q.path.clone(),
                        distance,
                    })
                    .collect();
                self.next_start = end;
                self.chunks_seen += 1;
                Ok(items)
            }
            StreamFrame::End { total_chunks } => {
                if self.header.is_none() {
                    return Err(StreamError::Protocol("end before header"));
                }
                if total_chunks != self.chunks_seen {
                    return Err(StreamError::Protocol(
                        "end frame chunk count does not match received chunks",
                    ));
                }
                if self.next_start != self.queries.len() {
                    return Err(StreamError::Truncated {
                        verified: self.next_start,
                        expected: self.queries.len(),
                    });
                }
                self.done = true;
                Ok(Vec::new())
            }
        }
    }

    /// True once the `End` frame was accepted (every query verified).
    pub fn finished(&self) -> bool {
        self.done
    }

    /// Number of queries verified so far.
    pub fn verified_count(&self) -> usize {
        self.next_start
    }

    /// Consumes the verifier; errors unless the stream completed.
    pub fn finish(self) -> Result<(), StreamError> {
        if self.done {
            Ok(())
        } else {
            Err(StreamError::Truncated {
                verified: self.next_start,
                expected: self.queries.len(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{LdmConfig, MethodConfig};
    use crate::owner::{DataOwner, SetupConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spnet_graph::gen::grid_network;

    fn deploy(method: MethodConfig) -> (ServiceProvider, Client) {
        let g = grid_network(9, 9, 1.15, 2100);
        let mut rng = StdRng::seed_from_u64(2101);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        (ServiceProvider::new(p.package), Client::new(p.public_key))
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

    fn queries() -> Vec<(NodeId, NodeId)> {
        vec![
            (NodeId(0), NodeId(80)),
            (NodeId(1), NodeId(79)),
            (NodeId(0), NodeId(40)),
            (NodeId(9), NodeId(71)),
            (NodeId(4), NodeId(76)),
        ]
    }

    fn collect_frames(
        provider: &ServiceProvider,
        qs: &[(NodeId, NodeId)],
        chunk: usize,
    ) -> Vec<Vec<u8>> {
        provider
            .answer_stream(qs, chunk)
            .collect::<Result<Vec<_>, _>>()
            .unwrap()
    }

    #[test]
    fn stream_verifies_incrementally_for_every_method() {
        for method in all_methods() {
            let (provider, client) = deploy(method.clone());
            let qs = queries();
            let frames = collect_frames(&provider, &qs, 2);
            // 5 queries at chunk 2 → header + 3 chunks + end.
            assert_eq!(frames.len(), 5, "{}", method.name());
            let mut verifier = StreamVerifier::new(&client, &qs);
            let mut got = Vec::new();
            for f in &frames {
                got.extend(verifier.feed(f).unwrap());
            }
            assert!(verifier.finished());
            verifier.finish().unwrap();
            assert_eq!(got.len(), qs.len(), "{}", method.name());
            for (i, item) in got.iter().enumerate() {
                assert_eq!(item.index, i);
                assert!(item.distance.is_finite());
            }
        }
    }

    #[test]
    fn truncated_stream_rejected() {
        let (provider, client) = deploy(MethodConfig::Dij);
        let qs = queries();
        let frames = collect_frames(&provider, &qs, 2);
        // Dropping the end frame: finish() reports truncation.
        let mut v = StreamVerifier::new(&client, &qs);
        for f in &frames[..frames.len() - 1] {
            v.feed(f).unwrap();
        }
        assert!(!v.finished());
        assert_eq!(
            v.finish(),
            Err(StreamError::Truncated {
                verified: 5,
                expected: 5
            }),
            "all chunks arrived but the end frame never did"
        );
        // Dropping a chunk *and* forging a consistent end frame: the
        // end frame's coverage check fires.
        let mut v = StreamVerifier::new(&client, &qs);
        v.feed(&frames[0]).unwrap();
        v.feed(&frames[1]).unwrap();
        let end = wire::encode(&StreamFrame::End { total_chunks: 1 });
        assert_eq!(
            v.feed(&end),
            Err(StreamError::Truncated {
                verified: 2,
                expected: 5
            })
        );
        // Byte-truncating a chunk frame: typed decode error.
        let mut v = StreamVerifier::new(&client, &qs);
        v.feed(&frames[0]).unwrap();
        let cut = &frames[1][..frames[1].len() / 2];
        assert!(matches!(v.feed(cut), Err(StreamError::Decode(_))));
    }

    #[test]
    fn tampered_chunk_rejected() {
        let (provider, client) = deploy(MethodConfig::Dij);
        let qs = queries();
        let frames = collect_frames(&provider, &qs, 2);
        let mut v = StreamVerifier::new(&client, &qs);
        v.feed(&frames[0]).unwrap();
        // Flip a byte inside the chunk's pooled tuples: either the
        // decode or the Merkle reconstruction must fail.
        let mut evil = frames[1].clone();
        let mid = evil.len() / 2;
        evil[mid] ^= 0x01;
        assert!(v.feed(&evil).is_err());
    }

    #[test]
    fn protocol_violations_rejected() {
        let (provider, client) = deploy(MethodConfig::Dij);
        let qs = queries();
        let frames = collect_frames(&provider, &qs, 2);
        // Chunk before header.
        let mut v = StreamVerifier::new(&client, &qs);
        assert!(matches!(
            v.feed(&frames[1]),
            Err(StreamError::Protocol("chunk before header"))
        ));
        // Duplicate header.
        let mut v = StreamVerifier::new(&client, &qs);
        v.feed(&frames[0]).unwrap();
        assert!(matches!(
            v.feed(&frames[0]),
            Err(StreamError::Protocol("duplicate header frame"))
        ));
        // Replayed (out-of-order) chunk.
        let mut v = StreamVerifier::new(&client, &qs);
        v.feed(&frames[0]).unwrap();
        v.feed(&frames[1]).unwrap();
        assert!(matches!(v.feed(&frames[1]), Err(StreamError::Protocol(_))));
        // Frame after end.
        let mut v = StreamVerifier::new(&client, &qs);
        for f in &frames {
            v.feed(f).unwrap();
        }
        assert!(matches!(
            v.feed(&frames[0]),
            Err(StreamError::Protocol("frame after end of stream"))
        ));
        // Header for a different query count.
        let short = &qs[..3];
        let mut v = StreamVerifier::new(&client, short);
        assert!(matches!(v.feed(&frames[0]), Err(StreamError::Protocol(_))));
        // A chunk violating the header's declared chunking: header
        // says 2 queries per chunk, the provider ships one of 1.
        let smaller = collect_frames(&provider, &qs, 1);
        let mut v = StreamVerifier::new(&client, &qs);
        v.feed(&frames[0]).unwrap();
        assert!(matches!(
            v.feed(&smaller[1]),
            Err(StreamError::Protocol(
                "chunk size differs from header's declared chunking"
            ))
        ));
    }

    #[test]
    fn empty_stream_completes_with_no_items() {
        let (provider, client) = deploy(MethodConfig::Dij);
        let qs: Vec<(NodeId, NodeId)> = Vec::new();
        let frames = collect_frames(&provider, &qs, 4);
        assert_eq!(frames.len(), 2, "header + end only");
        let mut v = StreamVerifier::new(&client, &qs);
        for f in &frames {
            assert!(v.feed(f).unwrap().is_empty());
        }
        v.finish().unwrap();
    }
}
