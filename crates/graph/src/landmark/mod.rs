//! Landmark machinery for the LDM verification method (Section V-A).
//!
//! * [`select`] — landmark selection strategies (random and
//!   farthest-point, per Goldberg & Harrelson \[26\]).
//! * [`vectors`] — exact landmark distance vectors Ψ(v) (Eq. 2) and the
//!   lower bound `distLB` (Eq. 3, Theorem 1).
//! * [`repair`] — in-place repair of one exact row after an edge-weight
//!   change, bit-identical to recomputing it.
//! * [`quantize`] — `b`-bit quantization of landmark distances (Eq. 5)
//!   and the loosened lower bound (Eq. 6, Lemma 3).
//! * [`compress`] — reference-node compression of quantized vectors
//!   with threshold ξ (Lemma 4), in the paper's greedy form and a
//!   scalable Hilbert-sweep variant that an update can re-run over a
//!   window.

pub mod compress;
pub mod quantize;
pub mod repair;
pub mod select;
pub mod vectors;

pub use compress::{CompressedVectors, CompressionStrategy, NodePsi};
pub use quantize::QuantizedVectors;
pub use repair::repair_row;
pub use select::{select_landmarks, LandmarkStrategy};
pub use vectors::LandmarkVectors;
