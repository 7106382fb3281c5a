//! Shortest-path algorithms.
//!
//! Everything the paper's framework requires:
//!
//! * [`dijkstra`] — single-source search in its full, point-to-point and
//!   bounded-ball variants (Section II-C "no pre-computation"; the
//!   bounded ball realizes Lemma 1's subgraph).
//! * [`floyd_warshall`](mod@floyd_warshall) — the O(|V|³) all-pairs algorithm the paper's
//!   FULL method prescribes (Section IV-B).
//! * [`apsp`] — all-pairs via repeated Dijkstra (same output, far
//!   cheaper on sparse road networks): the reference oracle of the
//!   landmark and property tests.
//!
//! LDM's A\* over landmark bounds (Lemma 2) runs client-side on the
//! authenticated subgraph, in `spnet_core::methods::ldm`.

pub mod apsp;
pub mod dijkstra;
pub mod floyd_warshall;

pub use apsp::apsp_dijkstra;
pub use dijkstra::{dijkstra_ball, dijkstra_path, dijkstra_sssp, SsspResult};
pub use floyd_warshall::floyd_warshall;
