//! Synthetic spatial road-network generators.
//!
//! The paper evaluates on four real road networks (DE, ARG, IND, NA)
//! downloaded from `maproom.psu.edu/dcw`, a source that no longer
//! exists, so we substitute synthetic networks that
//! preserve the properties proof sizes depend on: node/edge counts,
//! sparsity (|E|/|V| ≈ 1.05), spatial locality, and the `[0..10,000]²`
//! coordinate extent.
//!
//! Beyond the paper's scale, [`highway_network`] (grid + express
//! hierarchy) and [`scale_free`] (preferential attachment) feed the
//! million-node `BENCH_scale.json` trajectory. Every generator takes
//! an explicit `u64` seed and is fully deterministic for it — byte
//! and bit identical across runs and machines — and streams
//! construction through [`GraphBuilder`](crate::builder::GraphBuilder)
//! without materializing intermediate edge vectors.

pub mod datasets;
pub mod geometric;
pub mod grid;
pub mod highway;
pub mod scalefree;

pub use datasets::{Dataset, ALL_DATASETS};
pub use geometric::random_geometric;
pub use grid::{grid_network, road_network};
pub use highway::highway_network;
pub use scalefree::scale_free;
