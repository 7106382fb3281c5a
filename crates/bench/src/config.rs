//! Harness configuration: the paper's Table II defaults, scaled.

use spnet_core::methods::{LdmConfig, MethodConfig};
use spnet_graph::gen::Dataset;
use spnet_graph::landmark::{CompressionStrategy, LandmarkStrategy};
use spnet_graph::order::NodeOrdering;

/// Global experiment configuration.
///
/// Paper defaults (Table II, bold): dataset DE, ordering hbt, fanout 2,
/// query range 2,000, c = 200 landmarks, p = 100 cells, b = 12 bits,
/// ξ = 50, 100 query pairs. `scale` shrinks the synthetic networks —
/// the default 0.05 keeps the full figure sweep minutes-scale; use
/// `--paper-scale` (scale 1.0) to reproduce the full sizes.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Fraction of the paper's dataset size to generate.
    pub scale: f64,
    /// Number of query pairs per workload.
    pub queries: usize,
    /// Target query range (coordinate units, extent is 10,000).
    pub range: f64,
    /// Merkle-tree fanout.
    pub fanout: usize,
    /// Graph-node ordering.
    pub ordering: NodeOrdering,
    /// Number of LDM landmarks `c`.
    pub landmarks: usize,
    /// LDM quantization bits `b`.
    pub bits: u8,
    /// LDM compression threshold ξ.
    pub xi: f64,
    /// Number of HYP cells `p`.
    pub cells: usize,
    /// Default dataset.
    pub dataset: Dataset,
    /// Master seed.
    pub seed: u64,
    /// Verify every answer client-side (sanity; also timed).
    pub verify: bool,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            scale: 0.05,
            queries: 100,
            range: 2000.0,
            fanout: 2,
            ordering: NodeOrdering::Hilbert,
            landmarks: 200,
            bits: 12,
            xi: 50.0,
            cells: 100,
            dataset: Dataset::De,
            seed: 42,
            verify: true,
        }
    }
}

impl HarnessConfig {
    /// The LDM configuration at the current parameters.
    pub fn ldm(&self) -> MethodConfig {
        MethodConfig::Ldm(LdmConfig {
            landmarks: self.landmarks,
            bits: self.bits,
            xi: self.xi,
            strategy: LandmarkStrategy::Farthest,
            compression: CompressionStrategy::HilbertSweep,
        })
    }

    /// The four methods in the paper's presentation order (D, F, L, H).
    ///
    /// FULL uses the all-pairs-Dijkstra build so the sweep stays
    /// runnable: the output is identical to Floyd–Warshall, at
    /// O(|V|·|E| log |V|) instead of O(|V|³) on sparse road networks.
    pub fn all_methods(&self) -> Vec<MethodConfig> {
        vec![
            MethodConfig::Dij,
            MethodConfig::Full {
                use_floyd_warshall: false,
            },
            self.ldm(),
            MethodConfig::Hyp { cells: self.cells },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_table2() {
        let c = HarnessConfig::default();
        assert_eq!(c.queries, 100);
        assert_eq!(c.range, 2000.0);
        assert_eq!(c.fanout, 2);
        assert_eq!(c.landmarks, 200);
        assert_eq!(c.bits, 12);
        assert_eq!(c.xi, 50.0);
        assert_eq!(c.cells, 100);
        assert_eq!(c.ordering, NodeOrdering::Hilbert);
        assert_eq!(c.dataset, Dataset::De);
    }

    #[test]
    fn method_lists() {
        let c = HarnessConfig::default();
        let names: Vec<&str> = c.all_methods().iter().map(|m| m.name()).collect();
        assert_eq!(names, ["DIJ", "FULL", "LDM", "HYP"]);
    }
}
