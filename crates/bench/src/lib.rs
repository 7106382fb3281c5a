//! Benchmark harness for the ICDE 2010 evaluation (Section VI).
//!
//! The `figures` binary regenerates every figure of the paper:
//!
//! | figure | experiment | harness entry |
//! |--------|------------|---------------|
//! | 8a/8b  | default-setting comparison (comm. overhead, item counts) | [`experiments::fig8`] |
//! | 8c     | default-setting construction time | [`experiments::fig8`] |
//! | 9a/9b  | datasets DE/ARG/IND/NA | [`experiments::fig9`] |
//! | 10     | graph-node orderings | [`experiments::fig10`] |
//! | 11a    | Merkle tree fanout | [`experiments::fig11a`] |
//! | 11b    | query range | [`experiments::fig11b`] |
//! | 12a/b  | LDM: number of landmarks | [`experiments::fig12`] |
//! | 13a/b  | HYP: number of cells | [`experiments::fig13`] |
//!
//! Run `cargo run --release -p spnet-bench --bin figures -- all` (see
//! `figures --help` for scales and output options).

pub mod churn;
pub mod config;
pub mod experiments;
pub mod gate;
pub mod json;
pub mod loadgen;
pub mod model;
pub mod queries;
pub mod report;
pub mod runner;
pub mod scale;
pub mod store;
pub mod throughput;

pub use churn::{run_churn, ChurnConfig, ChurnReport};
pub use config::HarnessConfig;
pub use loadgen::{run_loadgen, LoadgenConfig, ServiceReport};
pub use queries::{run_queries, QueriesConfig, QueriesReport};
pub use report::Table;
pub use runner::{run_method, MethodMeasurement};
pub use scale::{run_scale, ScaleConfig, ScaleReport};
pub use store::{run_store, StoreConfig, StoreReport};
pub use throughput::{run_throughput, ThroughputReport};
