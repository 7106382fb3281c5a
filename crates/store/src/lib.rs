//! Persistent snapshot store for the `spnet` workspace.
//!
//! The ICDE 2010 protocol assumes the provider holds every
//! authenticated structure in RAM, rebuilt and re-signed at startup.
//! This crate removes that assumption, merk/grovedb style:
//!
//! * [`snapshot`] — a single page-aligned snapshot file of typed
//!   sections (versioned header, per-section and per-page integrity
//!   digests, typed [`StoreError`]s for every corruption mode).
//! * [`node_store`] — the [`NodeStore`]: one open snapshot plus its
//!   fault and eviction counters. Its [`PagedReader`]s are the
//!   `spnet-bytes` pagers behind `MerkleTree::open_paged` and
//!   `MerkleBTree::open_paged`, so a proof touches only the pages on
//!   its path. The [`StoreBackend`] it was opened with picks what the
//!   loaders build: `Mem` verifies every section at open and builds
//!   dense structures (the default; no existing caller changes
//!   behavior), `File` builds paged ones.
//!
//! Integrity layering: the store checks *storage* integrity (digests
//! over bytes); the core crate re-verifies the owner's RSA-signed
//! roots against the loaded structures, so a tampered snapshot can
//! never serve verifying proofs even if its internal digests are
//! recomputed consistently.

pub mod error;
pub mod node_store;
pub mod snapshot;

pub use error::StoreError;
pub use node_store::{NodeStore, StoreBackend};
pub use snapshot::{
    Header, PagedReader, SectionEntry, SectionUpdate, Snapshot, SnapshotUpdater, SnapshotWriter,
    UpdateStats, SECTION_ALIGN, SNAPSHOT_MAGIC, SNAPSHOT_VERSION,
};
