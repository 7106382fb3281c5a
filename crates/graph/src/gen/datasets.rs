//! The paper's four evaluation datasets, reproduced synthetically.
//!
//! | name | paper nodes | paper edges | ratio |
//! |------|------------:|------------:|-------|
//! | DE   | 28,867      | 30,429      | 1.054 |
//! | ARG  | 85,287      | 88,357      | 1.036 |
//! | IND  | 149,566     | 155,483     | 1.040 |
//! | NA   | 175,813     | 179,179     | 1.019 |
//!
//! `Dataset::generate(scale, seed)` produces a perturbed-grid network
//! with `scale × paper_nodes` nodes (rounded to the nearest feasible
//! grid) and the dataset's |E|/|V| ratio. `scale = 1.0` reproduces the
//! paper's sizes; the benchmark harness defaults to reduced scales (see
//! the module comment of `crates/bench/src/experiments.rs`).
//!
//! Generation streams through `GraphBuilder` (no intermediate
//! candidate/edge vectors — see [`road_network`]), so peak memory is
//! the builder itself plus two transient bitvecs even at full scale.

use crate::gen::grid::road_network;
use crate::graph::Graph;

/// Edge-weight calibration for the synthetic datasets.
///
/// The paper's weights are road lengths in units where the default
/// query range (2,000) covers most of the network: Figure 8b shows the
/// DIJ ball holding 25,387 of DE's 28,867 nodes (88 %), while ranges up
/// to 8,000 still admit workload pairs. A perturbed grid cannot have
/// both. Measured on DE at seed 42: the diameter (best of four double
/// sweeps) is 2.4k, 2.7k, 3.0k and 2.5k at scales 0.01, 0.05, 0.2 and
/// 1.0, so no range-8,000 pair exists at any scale, and the DIJ ball of
/// a range-2,000 workload pair holds 99.1 % of the nodes at scale 0.05
/// and 98.9 % at scale 1.0. The harness therefore sweeps the paper's
/// ranges as fractions of the measured diameter (fig 11b).
pub const DATASET_WEIGHT_SCALE: f64 = 0.075;

/// One of the paper's four road-network datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Germany — 28,867 nodes, 30,429 edges.
    De,
    /// Argentina — 85,287 nodes, 88,357 edges.
    Arg,
    /// India — 149,566 nodes, 155,483 edges.
    Ind,
    /// North America — 175,813 nodes, 179,179 edges.
    Na,
}

/// All datasets in the paper's presentation order.
pub const ALL_DATASETS: [Dataset; 4] = [Dataset::De, Dataset::Arg, Dataset::Ind, Dataset::Na];

impl Dataset {
    /// The dataset's display name as used in the figures.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::De => "DE",
            Dataset::Arg => "ARG",
            Dataset::Ind => "IND",
            Dataset::Na => "NA",
        }
    }

    /// Node count of the real dataset.
    pub fn paper_nodes(self) -> usize {
        match self {
            Dataset::De => 28_867,
            Dataset::Arg => 85_287,
            Dataset::Ind => 149_566,
            Dataset::Na => 175_813,
        }
    }

    /// Edge count of the real dataset.
    pub fn paper_edges(self) -> usize {
        match self {
            Dataset::De => 30_429,
            Dataset::Arg => 88_357,
            Dataset::Ind => 155_483,
            Dataset::Na => 179_179,
        }
    }

    /// |E|/|V| of the real dataset.
    pub fn edge_ratio(self) -> f64 {
        self.paper_edges() as f64 / self.paper_nodes() as f64
    }

    /// Parses a dataset name (case-insensitive).
    pub fn parse(s: &str) -> Option<Dataset> {
        match s.to_ascii_lowercase().as_str() {
            "de" => Some(Dataset::De),
            "arg" => Some(Dataset::Arg),
            "ind" => Some(Dataset::Ind),
            "na" => Some(Dataset::Na),
            _ => None,
        }
    }

    /// Generates the synthetic stand-in at `scale` of the paper's size.
    ///
    /// The node count is `round(scale × paper_nodes)` arranged on the
    /// most-square grid; the exact count may differ by the grid
    /// rounding (reported by `Graph::num_nodes`).
    ///
    /// # Panics
    /// Panics if `scale` is not in `(0, 1]`.
    pub fn generate(self, scale: f64, seed: u64) -> Graph {
        assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
        let target = ((self.paper_nodes() as f64 * scale).round() as usize).max(4);
        let rows = (target as f64).sqrt().round() as usize;
        let cols = target.div_ceil(rows.max(1));
        road_network(
            rows.max(2),
            cols.max(2),
            self.edge_ratio(),
            DATASET_WEIGHT_SCALE,
            seed ^ self.seed_salt(),
        )
    }

    /// Per-dataset salt so different datasets never share a generator
    /// stream even with equal seeds.
    fn seed_salt(self) -> u64 {
        match self {
            Dataset::De => 0xD0_0D,
            Dataset::Arg => 0xA6_06,
            Dataset::Ind => 0x1B_D1,
            Dataset::Na => 0x4A_4A,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dijkstra_sssp;
    use crate::ids::NodeId;

    #[test]
    fn paper_counts() {
        assert_eq!(Dataset::De.paper_nodes(), 28_867);
        assert_eq!(Dataset::Na.paper_edges(), 179_179);
        assert!((Dataset::De.edge_ratio() - 1.054).abs() < 0.001);
    }

    #[test]
    fn parse_names() {
        assert_eq!(Dataset::parse("de"), Some(Dataset::De));
        assert_eq!(Dataset::parse("NA"), Some(Dataset::Na));
        assert_eq!(Dataset::parse("xx"), None);
    }

    #[test]
    fn scaled_generation_close_to_target() {
        let g = Dataset::De.generate(0.05, 1);
        let target = (28_867.0 * 0.05) as usize;
        let got = g.num_nodes();
        assert!(
            (got as f64 - target as f64).abs() / target as f64 <= 0.05,
            "target {target}, got {got}"
        );
        let ratio = g.num_edges() as f64 / g.num_nodes() as f64;
        assert!(
            (ratio - Dataset::De.edge_ratio()).abs() < 0.02,
            "ratio {ratio}"
        );
    }

    #[test]
    fn generated_connected() {
        for ds in ALL_DATASETS {
            let g = ds.generate(0.01, 2);
            let r = dijkstra_sssp(&g, NodeId(0));
            assert!(
                r.dist.iter().all(|d| d.is_finite()),
                "{} must be connected",
                ds.name()
            );
        }
    }

    #[test]
    fn datasets_differ_under_same_seed() {
        let a = Dataset::De.generate(0.01, 5);
        let b = Dataset::Arg.generate(0.01, 5);
        assert_ne!(a.num_nodes(), b.num_nodes());
    }

    #[test]
    #[should_panic]
    fn zero_scale_rejected() {
        let _ = Dataset::De.generate(0.0, 1);
    }
}
