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
//! `figures --help` for scales and output options). The one committed
//! artifact here is `BENCH_scale.json` ([`scale`]), held to its rules
//! by [`gate`]; the served path's measurement of record is the
//! repository's `BENCHMARK.json`.

pub mod config;
pub mod experiments;
pub mod gate;
pub mod json;
pub mod model;
pub mod report;
pub mod runner;
pub mod scale;

pub use config::HarnessConfig;
