//! `b`-bit quantization of landmark distance vectors (Section V-A).
//!
//! Equation 5: `dist_b(sᵢ,v) = λ · round(dist(sᵢ,v)/λ)` with
//! `λ = Dmax / (2^b − 1)`.
//!
//! Equation 6 / Lemma 3: the loosened lower bound
//! `distLB^loose(v,v′) = max{0, −λ + maxᵢ |dist_b(sᵢ,v) − dist_b(sᵢ,v′)|}`
//! never exceeds `distLB(v,v′)` and is therefore still admissible.

use crate::ids::NodeId;
use crate::landmark::vectors::LandmarkVectors;

/// Quantized landmark vectors: each distance stored as a `b`-bit
/// integer index `q`, decoding as `q · λ`.
#[derive(Debug, Clone)]
pub struct QuantizedVectors {
    /// Quantization step λ.
    lambda: f64,
    /// Bits per distance `b`.
    bits: u8,
    /// Number of landmarks.
    c: usize,
    /// `q[v][i]` = quantized index of `dist(sᵢ, v)`; row-major per node.
    q: Vec<u32>,
    num_nodes: usize,
}

impl QuantizedVectors {
    /// Quantizes exact vectors to `bits`-bit indices.
    ///
    /// Unreachable (infinite) landmark distances saturate to the
    /// maximum index; the resulting bound is still a valid lower bound
    /// because both endpoints saturate together only when both are far.
    /// (The paper's connected road networks never hit this case.)
    ///
    /// # Panics
    /// Panics unless `1 ≤ bits ≤ 31`.
    pub fn quantize(exact: &LandmarkVectors, bits: u8) -> Self {
        assert!((1..=31).contains(&bits), "bits must be in 1..=31");
        let lambda = lambda_for(exact.max_distance(), bits);
        let c = exact.num_landmarks();
        let num_nodes = exact.num_nodes();
        let mut q = Vec::with_capacity(num_nodes * c);
        for v in 0..num_nodes {
            for i in 0..c {
                q.push(index_of(
                    exact.landmark_dist(i, NodeId(v as u32)),
                    lambda,
                    bits,
                ));
            }
        }
        QuantizedVectors {
            lambda,
            bits,
            c,
            q,
            num_nodes,
        }
    }

    /// The quantization step λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// Bits per entry.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// Number of landmarks `c`.
    pub fn num_landmarks(&self) -> usize {
        self.c
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The quantized index vector of node `v`.
    pub fn indices(&self, v: NodeId) -> &[u32] {
        let base = v.index() * self.c;
        &self.q[base..base + self.c]
    }

    /// The quantized distance `dist_b(sᵢ, v) = qᵢ·λ`.
    pub fn quantized_dist(&self, i: usize, v: NodeId) -> f64 {
        self.indices(v)[i] as f64 * self.lambda
    }

    /// The quantized difference
    /// `ϱ(v,v′) = maxᵢ |dist_b(sᵢ,v) − dist_b(sᵢ,v′)|` used both by the
    /// loose bound and by the compression algorithm.
    pub fn quantized_diff(&self, v: NodeId, w: NodeId) -> f64 {
        diff_from_indices(self.indices(v), self.indices(w), self.lambda)
    }

    /// The loosened lower bound of Equation 6 (Lemma 3).
    pub fn loose_lower_bound(&self, v: NodeId, w: NodeId) -> f64 {
        (self.quantized_diff(v, w) - self.lambda).max(0.0)
    }

    /// Storage per node in bits (`c·b`) — the hint-size accounting used
    /// by proof-size experiments.
    pub fn bits_per_node(&self) -> usize {
        self.c * self.bits as usize
    }
}

/// The quantization step `λ = Dmax / (2^b − 1)` of Eq. 5. A degenerate
/// `Dmax = 0` (single-node graph) gives λ = 1, so nothing divides by
/// zero and every index is 0.
pub fn lambda_for(dmax: f64, bits: u8) -> f64 {
    if dmax > 0.0 {
        dmax / ((1u64 << bits) - 1) as f64
    } else {
        1.0
    }
}

/// The `bits`-bit index of one exact distance, `round(d/λ)` capped at
/// `2^b − 1`. Unreachable (infinite) distances saturate to the cap.
#[inline]
pub fn index_of(d: f64, lambda: f64, bits: u8) -> u32 {
    let levels = (1u64 << bits) - 1;
    if d.is_finite() {
        ((d / lambda).round() as u64).min(levels) as u32
    } else {
        levels as u32
    }
}

/// `maxᵢ |qᵢ − q′ᵢ| · λ` over two index vectors.
pub fn diff_from_indices(a: &[u32], b: &[u32], lambda: f64) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let max_idx_diff = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| x.abs_diff(y))
        .max()
        .unwrap_or(0);
    max_idx_diff as f64 * lambda
}

/// Loose lower bound from raw index vectors (client-side verification
/// uses this form, Eq. 6).
pub fn loose_lb_from_indices(a: &[u32], b: &[u32], lambda: f64) -> f64 {
    (diff_from_indices(a, b, lambda) - lambda).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::grid_network;
    use crate::landmark::select::{select_landmarks, LandmarkStrategy};
    use crate::landmark::vectors::figure5_graph;

    #[test]
    fn figure6a_quantization() {
        // Paper: Dmax = 14, b = 3 ⇒ λ = 2; v4's vector ⟨3,9⟩ → ⟨4,10⟩.
        let g = figure5_graph();
        let lv = LandmarkVectors::compute(&g, &[NodeId(1), NodeId(6)]);
        let qv = QuantizedVectors::quantize(&lv, 3);
        assert_eq!(qv.lambda(), 2.0);
        assert_eq!(qv.quantized_dist(0, NodeId(3)), 4.0);
        assert_eq!(qv.quantized_dist(1, NodeId(3)), 10.0);
        // Full table check (Figure 6a).
        let expect: [(f64, f64); 9] = [
            (2.0, 4.0),  // v1
            (0.0, 6.0),  // v2
            (2.0, 8.0),  // v3  (1/2 rounds to 0.5→round=1? round(0.5)=1 → 2)
            (4.0, 10.0), // v4
            (4.0, 10.0), // v5
            (6.0, 2.0),  // v6
            (6.0, 0.0),  // v7
            (10.0, 4.0), // v8
            (14.0, 8.0), // v9
        ];
        for (v, &(a, b)) in expect.iter().enumerate() {
            assert_eq!(qv.quantized_dist(0, NodeId(v as u32)), a, "v{}", v + 1);
            assert_eq!(qv.quantized_dist(1, NodeId(v as u32)), b, "v{}", v + 1);
        }
    }

    #[test]
    fn lemma3_loose_bound_below_exact_bound() {
        let g = grid_network(8, 8, 1.15, 50);
        let lms = select_landmarks(&g, 5, LandmarkStrategy::Farthest, 51);
        let lv = LandmarkVectors::compute(&g, &lms);
        for bits in [4u8, 8, 12] {
            let qv = QuantizedVectors::quantize(&lv, bits);
            for u in 0..g.num_nodes() {
                for v in 0..g.num_nodes() {
                    let loose = qv.loose_lower_bound(NodeId(u as u32), NodeId(v as u32));
                    let exact = lv.lower_bound(NodeId(u as u32), NodeId(v as u32));
                    assert!(
                        loose <= exact + 1e-9,
                        "bits={bits} ({u},{v}): loose {loose} > exact {exact}"
                    );
                }
            }
        }
    }

    #[test]
    fn loose_bound_is_admissible() {
        // Transitivity of Lemma 3 + Theorem 1: loose LB ≤ true distance.
        let g = grid_network(7, 7, 1.2, 52);
        let lms = select_landmarks(&g, 4, LandmarkStrategy::Random, 53);
        let lv = LandmarkVectors::compute(&g, &lms);
        let qv = QuantizedVectors::quantize(&lv, 6);
        let apsp = crate::algo::apsp_dijkstra(&g);
        for u in 0..g.num_nodes() {
            for v in 0..g.num_nodes() {
                let lb = qv.loose_lower_bound(NodeId(u as u32), NodeId(v as u32));
                assert!(lb <= apsp.get(u, v) + 1e-9);
            }
        }
    }

    #[test]
    fn more_bits_tighter_lambda() {
        let g = figure5_graph();
        let lv = LandmarkVectors::compute(&g, &[NodeId(1), NodeId(6)]);
        let mut last = f64::INFINITY;
        for bits in [3u8, 6, 9, 12] {
            let qv = QuantizedVectors::quantize(&lv, bits);
            assert!(qv.lambda() < last);
            last = qv.lambda();
        }
    }

    #[test]
    fn indices_fit_in_bits() {
        let g = grid_network(6, 6, 1.1, 54);
        let lms = select_landmarks(&g, 3, LandmarkStrategy::Random, 55);
        let lv = LandmarkVectors::compute(&g, &lms);
        for bits in [1u8, 3, 8] {
            let qv = QuantizedVectors::quantize(&lv, bits);
            let cap = (1u64 << bits) - 1;
            for v in 0..36u32 {
                for &idx in qv.indices(NodeId(v)) {
                    assert!(idx as u64 <= cap);
                }
            }
        }
    }

    #[test]
    fn bits_per_node_accounting() {
        let g = figure5_graph();
        let lv = LandmarkVectors::compute(&g, &[NodeId(1), NodeId(6)]);
        let qv = QuantizedVectors::quantize(&lv, 12);
        assert_eq!(qv.bits_per_node(), 24);
    }

    #[test]
    fn loose_bound_zero_on_self() {
        let g = figure5_graph();
        let lv = LandmarkVectors::compute(&g, &[NodeId(1), NodeId(6)]);
        let qv = QuantizedVectors::quantize(&lv, 5);
        for v in 0..9u32 {
            assert_eq!(qv.loose_lower_bound(NodeId(v), NodeId(v)), 0.0);
        }
    }
}
