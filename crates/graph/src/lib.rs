//! Spatial road-network substrate for authenticated shortest-path
//! verification.
//!
//! This crate provides every graph-side building block of the ICDE 2010
//! paper *Efficient Verification of Shortest Path Search via
//! Authenticated Hints* (Yiu, Lin, Mouratidis):
//!
//! * [`graph`] / [`builder`] — an undirected, weighted, spatial graph
//!   `G = (V, E, W)` in compressed sparse row form, with node
//!   coordinates normalized to the paper's `[0..10,000]²` extent.
//! * [`algo`] — Dijkstra (full / point-to-point / bounded-ball),
//!   Floyd–Warshall, and all-pairs-shortest-paths via repeated
//!   Dijkstra.
//! * [`landmark`] — landmark selection, distance vectors Ψ(v) (Eq. 2),
//!   the lower bound `distLB` (Eq. 3), `b`-bit quantization (Eq. 5,
//!   Lemma 3) and greedy distance-vector compression (Lemma 4).
//! * [`order`] — the five graph-node orderings of the Merkle tree
//!   experiment (Fig. 10): breadth-first, depth-first, Hilbert, kd-tree
//!   and random.
//! * [`partition`] — the HiTi-style grid partitioning with border-node
//!   classification used by the HYP method (Section V-B).
//! * [`gen`] — synthetic spatial road networks standing in for the
//!   paper's DE/ARG/IND/NA datasets (their download source no longer
//!   exists), plus a random-geometric generator used in tests.
//! * [`workload`] — query workload generation: `(vs, vt)` pairs whose
//!   shortest-path distance is as close as possible to a target query
//!   range (Section VI-A).
//! * [`io`] — plain-text persistence with bit-exact weight round-trips
//!   (digest-critical).
//!
//! # Example
//!
//! ```
//! use spnet_graph::gen::grid_network;
//! use spnet_graph::algo::dijkstra_path;
//! use spnet_graph::NodeId;
//!
//! let g = grid_network(8, 8, 1.10, 42);
//! let path = dijkstra_path(&g, NodeId(0), NodeId(63)).expect("connected");
//! assert!(path.distance > 0.0);
//! ```

pub mod algo;
pub mod builder;
pub mod error;
pub mod gen;
pub mod graph;
pub mod ids;
pub mod io;
pub mod landmark;
pub mod ofloat;
pub mod order;
pub mod partition;
pub mod path;
pub mod search;
pub mod workload;

pub use builder::GraphBuilder;
pub use error::GraphError;
pub use graph::Graph;
pub use ids::NodeId;
pub use ofloat::OrderedF64;
pub use path::Path;
pub use search::{FrontierKind, SearchView, SearchWorkspace};
