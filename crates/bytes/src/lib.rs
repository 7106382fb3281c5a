//! Blocks and bytes: the leaf crate under every other `spnet` crate.
//!
//! Everything the workspace writes — a proof payload, a signed
//! pre-image, a snapshot page, header or table entry — is described by
//! one [`enc::Wire`] impl, and every array the owner's trees hold is a
//! [`blocks::Blocks`] array of snapshot-page-sized blocks. Both live
//! here, below the graph, crypto and store crates, so a record's impl
//! sits beside its type and no crate keeps a second byte layout:
//!
//! * [`enc`] — the [`enc::Wire`] trait, the bounded
//!   [`enc::Encoder`]/[`enc::Decoder`] pair, the `wire_struct!` and
//!   `wire_enum!` macros, and the impls for scalars and containers.
//! * [`blocks`] — copy-on-write block arrays, one [`blocks::PAGE_BYTES`]
//!   page to a block, each resident or not yet loaded.
//! * [`pager`] — the [`pager::Pager`] trait a backing store implements
//!   and the one routine that faults a page of `Wire` records in.
//! * [`cache`] — the bounded LRU of faulted pages.
//!
//! The crate has no dependencies.

pub mod blocks;
pub mod cache;
pub mod enc;
pub mod pager;
