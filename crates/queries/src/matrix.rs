//! Verified many-to-many distance matrices.
//!
//! An `s × t` matrix is `s·t` shortest-path queries whose Lemma-1 /
//! Lemma-2 subgraphs overlap heavily — the same road tuples back many
//! cells. The operator therefore proves the whole matrix through
//! **one** pooled batch: every tuple ships once under a single Merkle
//! cover, and every cell's distance is individually proven optimal.
//! Cell tampering is caught by the batch machinery (a doctored tuple
//! breaks the root, a doctored distance breaks the per-query
//! optimality check), and omission cannot arise because the client
//! derives the `sources × targets` pair list itself.
//!
//! For matrices too large to answer in one piece,
//! [`stream_matrix_rows`] rides the session's verified stream with one
//! row per chunk: proving of row `i+1` overlaps verification of row
//! `i`, and the client holds `O(t)` state.

use crate::QueryError;
use spnet_core::batch::BatchAnswer;
use spnet_core::service::Session;
use spnet_graph::NodeId;

/// A provider's answer to a distance-matrix query.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixAnswer {
    /// The requested row nodes (echoed; the client checks them).
    pub sources: Vec<NodeId>,
    /// The requested column nodes (echoed; the client checks them).
    pub targets: Vec<NodeId>,
    /// One pooled batch over all `sources × targets` pairs, row-major.
    pub batch: BatchAnswer,
}

/// A verified distance matrix: every cell's value is proven optimal.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    sources: Vec<NodeId>,
    targets: Vec<NodeId>,
    /// Row-major proven distances.
    values: Vec<f64>,
}

impl DistanceMatrix {
    /// The row nodes.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// The column nodes.
    pub fn targets(&self) -> &[NodeId] {
        &self.targets
    }

    /// The proven distance from `sources()[i]` to `targets()[j]`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.values[i * self.targets.len() + j]
    }

    /// Row `i`: proven distances from `sources()[i]` in target order.
    pub fn row(&self, i: usize) -> &[f64] {
        let t = self.targets.len();
        &self.values[i * t..(i + 1) * t]
    }

    /// All values, row-major.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// The row-major pair list of a matrix query; client and provider
/// derive it independently from the requested shape.
pub fn matrix_pairs(sources: &[NodeId], targets: &[NodeId]) -> Vec<(NodeId, NodeId)> {
    sources
        .iter()
        .flat_map(|&s| targets.iter().map(move |&t| (s, t)))
        .collect()
}

fn check_shape(sources: &[NodeId], targets: &[NodeId]) -> Result<(), QueryError> {
    if sources.is_empty() || targets.is_empty() {
        return Err(QueryError::EmptyMatrix);
    }
    Ok(())
}

/// Provider half: proves all cells through one pooled batch.
pub fn answer_matrix(
    session: &Session,
    sources: &[NodeId],
    targets: &[NodeId],
) -> Result<MatrixAnswer, QueryError> {
    check_shape(sources, targets)?;
    let batch = session.answer_batch(&matrix_pairs(sources, targets))?;
    Ok(MatrixAnswer {
        sources: sources.to_vec(),
        targets: targets.to_vec(),
        batch,
    })
}

/// Client half: checks the echoed shape, verifies the pooled batch
/// against the client-derived pair list, and shapes the proven
/// distances into a [`DistanceMatrix`].
pub fn verify_matrix(
    session: &Session,
    sources: &[NodeId],
    targets: &[NodeId],
    answer: &MatrixAnswer,
) -> Result<DistanceMatrix, QueryError> {
    check_shape(sources, targets)?;
    if answer.sources != sources {
        return Err(QueryError::MatrixShapeMismatch("echoed sources differ"));
    }
    if answer.targets != targets {
        return Err(QueryError::MatrixShapeMismatch("echoed targets differ"));
    }
    let pairs = matrix_pairs(sources, targets);
    let values = session.verify_batch(&pairs, &answer.batch)?;
    Ok(DistanceMatrix {
        sources: sources.to_vec(),
        targets: targets.to_vec(),
        values,
    })
}

/// Streams the matrix row by row through the session's verified
/// stream: each chunk is exactly one row (chunk length = `|targets|`),
/// so proving of the next row overlaps verification of the current one
/// and the client never holds more than one row.
pub fn stream_matrix_rows(
    session: &Session,
    sources: &[NodeId],
    targets: &[NodeId],
    on_row: &mut dyn FnMut(NodeId, &[f64]),
) -> Result<(), QueryError> {
    check_shape(sources, targets)?;
    let pairs = matrix_pairs(sources, targets);
    let mut row = Vec::with_capacity(targets.len());
    let mut next_source = 0usize;
    for chunk in session.query_stream_chunked(&pairs, targets.len()) {
        let answers = chunk?;
        row.clear();
        row.extend(answers.iter().map(|a| a.distance));
        debug_assert_eq!(row.len(), targets.len());
        on_row(sources[next_source], &row);
        next_source += 1;
    }
    debug_assert_eq!(next_source, sources.len());
    Ok(())
}
