//! Typed errors for snapshot persistence.
//!
//! Follows the `wire.rs` convention of the core crate: any malformed,
//! truncated, or tampered input maps to a descriptive variant — never a
//! panic, and never a silently "successful" load.

/// Errors raised while writing, opening, or reading a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(String),
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion(u8),
    /// The file ends before a structure it promises.
    Truncated,
    /// Stored bytes do not match their recorded digest.
    ChecksumMismatch(&'static str),
    /// Structurally inconsistent metadata (bad geometry, overlapping
    /// offsets, duplicate ids, …).
    Corrupt(String),
    /// A section id the caller requires is absent.
    MissingSection(u16),
    /// A section id was written twice.
    DuplicateSection(u16),
    /// The section exists but has the wrong kind for the request.
    WrongKind { id: u16, expected: &'static str },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::BadMagic => write!(f, "not a spnet snapshot (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            StoreError::Truncated => write!(f, "snapshot truncated"),
            StoreError::ChecksumMismatch(what) => {
                write!(f, "checksum mismatch in {what}")
            }
            StoreError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
            StoreError::MissingSection(id) => write!(f, "missing section {id:#06x}"),
            StoreError::DuplicateSection(id) => write!(f, "duplicate section {id:#06x}"),
            StoreError::WrongKind { id, expected } => {
                write!(f, "section {id:#06x} is not a {expected} section")
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// A header or table record that does not decode is corrupt metadata.
impl From<spnet_bytes::enc::DecodeError> for StoreError {
    fn from(e: spnet_bytes::enc::DecodeError) -> Self {
        StoreError::Corrupt(e.to_string())
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e.to_string())
    }
}
