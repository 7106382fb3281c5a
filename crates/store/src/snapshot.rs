//! The on-disk snapshot format: a single page-aligned file of typed
//! sections with a versioned header and per-section integrity digests.
//!
//! ```text
//! offset 0        Header
//! offset 4096·k   section payloads, each aligned to 4096
//! table_offset    section table: one SectionEntry per section
//! ```
//!
//! [`Header`] and [`SectionEntry`] are the two records that define the
//! layout; like every other snapshot record they are `Wire` structs
//! (`spnet_bytes::enc`), so their field lists are the byte layout.
//!
//! Two section kinds:
//!
//! * **blob** — an opaque byte string; the table entry's checksum is
//!   `sha256(payload)`, verified on every read.
//! * **paged** — a payload split into fixed-length pages, preceded by a
//!   per-page digest array. The table checksum covers only the digest
//!   array, so opening a snapshot verifies O(#sections) small arrays;
//!   each page is verified against its array digest when (and only
//!   when) it is faulted in — the merk-style lazy-resolution contract.
//!
//! The header is written last (seek back to offset 0 after the table),
//! so a crashed writer leaves a file that fails `Snapshot::open` with
//! [`StoreError::BadMagic`] rather than a torn-but-plausible snapshot.

use crate::error::StoreError;
use spnet_bytes::enc::{put_array, take_array, Wire};
use spnet_bytes::wire_struct;
use spnet_crypto::digest::{hash_bytes, Digest, DIGEST_LEN};
use std::fs::File;
use std::io::{Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// File magic, first 8 bytes of every snapshot.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SPNSTORE";

/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u8 = 1;

/// Fixed header length in bytes.
pub const HEADER_LEN: u64 = Header::MIN_LEN as u64;

/// Section payloads start on these boundaries.
pub const SECTION_ALIGN: u64 = 4096;

/// Hard cap on the section count (a snapshot holds tens of sections;
/// anything larger is corruption, not scale).
const MAX_SECTIONS: u32 = 1 << 16;

const KIND_BLOB: u8 = 0;
const KIND_PAGED: u8 = 1;

/// The file header at offset 0 (24 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    magic: [u8; 8],
    version: u8,
    reserved: [u8; 3],
    section_count: u32,
    table_offset: u64,
}

wire_struct!(Header {
    magic: [u8; 8],
    version: u8,
    reserved: [u8; 3],
    section_count: u32,
    table_offset: u64,
});

/// One section-table entry (64 bytes): where a section lies and the
/// checksum that verifies it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    id: u16,
    kind: u8,
    reserved: u8,
    page_len: u32,
    offset: u64,
    len: u64,
    data_len: u64,
    checksum: Digest,
}

wire_struct!(SectionEntry {
    id: u16,
    kind: u8,
    reserved: u8,
    page_len: u32,
    offset: u64,
    len: u64,
    data_len: u64,
    checksum: Digest,
});

impl SectionEntry {
    /// Length of a paged section's digest array (`data_len ≤ len` is
    /// checked at open).
    fn digests_len(&self) -> u64 {
        self.len - self.data_len
    }

    fn num_pages(&self) -> u64 {
        if self.page_len == 0 {
            0
        } else {
            self.data_len.div_ceil(self.page_len as u64)
        }
    }
}

/// One regenerated section captured by [`SnapshotWriter::collector`]:
/// the raw payload plus its kind and paging geometry, ready to diff
/// against an existing file through [`SnapshotUpdater::apply`].
#[derive(Debug, Clone)]
pub struct SectionUpdate {
    id: u16,
    kind: u8,
    page_len: u32,
    payload: Vec<u8>,
}

impl SectionUpdate {
    /// The section id.
    pub fn id(&self) -> u16 {
        self.id
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.payload.is_empty()
    }
}

/// Where a [`SnapshotWriter`] sends its sections.
#[derive(Debug)]
enum Sink {
    /// Streaming append to a snapshot file.
    File {
        file: File,
        pos: u64,
        entries: Vec<SectionEntry>,
    },
    /// In-memory capture for [`SnapshotUpdater`] diffing — same
    /// section code path, no file touched.
    Collect { sections: Vec<SectionUpdate> },
}

/// Streaming writer for a snapshot file.
///
/// Sections are appended in call order; [`SnapshotWriter::finish`]
/// appends the table and then stamps the header. The
/// [`SnapshotWriter::collector`] variant captures the same sections in
/// memory instead (for incremental in-place updates), so every
/// section-producing code path is written once and serves both full
/// saves and diffs.
#[derive(Debug)]
pub struct SnapshotWriter {
    sink: Sink,
}

impl SnapshotWriter {
    /// Creates (truncates) `path` and reserves the header.
    pub fn create(path: &Path) -> Result<Self, StoreError> {
        let mut file = File::create(path)?;
        file.write_all(&[0u8; HEADER_LEN as usize])?;
        Ok(SnapshotWriter {
            sink: Sink::File {
                file,
                pos: HEADER_LEN,
                entries: Vec::new(),
            },
        })
    }

    /// A writer that captures sections in memory instead of writing a
    /// file; drain with [`Self::into_sections`].
    pub fn collector() -> Self {
        SnapshotWriter {
            sink: Sink::Collect {
                sections: Vec::new(),
            },
        }
    }

    fn check_new_id(&self, id: u16) -> Result<(), StoreError> {
        let taken = match &self.sink {
            Sink::File { entries, .. } => entries.iter().any(|s| s.id == id),
            Sink::Collect { sections } => sections.iter().any(|s| s.id == id),
        };
        if taken {
            return Err(StoreError::DuplicateSection(id));
        }
        Ok(())
    }

    /// Appends an opaque blob section.
    pub fn blob(&mut self, id: u16, bytes: &[u8]) -> Result<(), StoreError> {
        self.check_new_id(id)?;
        match &mut self.sink {
            Sink::File { file, pos, entries } => {
                let offset = align_file(file, pos)?;
                file.write_all(bytes)?;
                let len = bytes.len() as u64;
                *pos += len;
                entries.push(SectionEntry {
                    id,
                    kind: KIND_BLOB,
                    reserved: 0,
                    page_len: 0,
                    offset,
                    len,
                    data_len: len,
                    checksum: hash_bytes(bytes),
                });
            }
            Sink::Collect { sections } => sections.push(SectionUpdate {
                id,
                kind: KIND_BLOB,
                page_len: 0,
                payload: bytes.to_vec(),
            }),
        }
        Ok(())
    }

    /// Appends a paged section: a digest array (one digest per
    /// `page_len`-byte page, last page may be short) followed by the
    /// payload.
    pub fn paged(&mut self, id: u16, bytes: &[u8], page_len: usize) -> Result<(), StoreError> {
        self.check_new_id(id)?;
        if page_len == 0 || page_len > u32::MAX as usize {
            return Err(StoreError::Corrupt(format!("bad page length {page_len}")));
        }
        match &mut self.sink {
            Sink::File { file, pos, entries } => {
                let digest_array = page_digests(bytes, page_len);
                let offset = align_file(file, pos)?;
                file.write_all(&digest_array)?;
                file.write_all(bytes)?;
                *pos += (digest_array.len() + bytes.len()) as u64;
                entries.push(SectionEntry {
                    id,
                    kind: KIND_PAGED,
                    reserved: 0,
                    page_len: page_len as u32,
                    offset,
                    len: (digest_array.len() + bytes.len()) as u64,
                    data_len: bytes.len() as u64,
                    checksum: hash_bytes(&digest_array),
                });
            }
            Sink::Collect { sections } => sections.push(SectionUpdate {
                id,
                kind: KIND_PAGED,
                page_len: page_len as u32,
                payload: bytes.to_vec(),
            }),
        }
        Ok(())
    }

    /// Appends the section table, stamps the header, and syncs. Returns
    /// the final file size in bytes. Errors on a collector writer.
    pub fn finish(self) -> Result<u64, StoreError> {
        let Sink::File {
            mut file,
            mut pos,
            entries,
        } = self.sink
        else {
            return Err(StoreError::Corrupt(
                "collector writes no file — drain it with into_sections".into(),
            ));
        };
        let table_offset = align_file(&mut file, &mut pos)?;
        let table = put_array(&entries);
        file.write_all(&table)?;
        let header = Header {
            magic: SNAPSHOT_MAGIC,
            version: SNAPSHOT_VERSION,
            reserved: [0; 3],
            section_count: entries.len() as u32,
            table_offset,
        };
        file.seek(SeekFrom::Start(0))?;
        file.write_all(&header.to_bytes())?;
        file.sync_all()?;
        Ok(pos + table.len() as u64)
    }

    /// Drains a collector writer's captured sections, in call order.
    /// Errors on a file-backed writer.
    pub fn into_sections(self) -> Result<Vec<SectionUpdate>, StoreError> {
        match self.sink {
            Sink::Collect { sections } => Ok(sections),
            Sink::File { .. } => Err(StoreError::Corrupt(
                "file writer has no captured sections — call finish".into(),
            )),
        }
    }
}

/// Pads `file` to the next [`SECTION_ALIGN`] boundary; returns the new
/// position.
fn align_file(file: &mut File, pos: &mut u64) -> Result<u64, StoreError> {
    let target = pos.div_ceil(SECTION_ALIGN) * SECTION_ALIGN;
    if target > *pos {
        let pad = vec![0u8; (target - *pos) as usize];
        file.write_all(&pad)?;
        *pos = target;
    }
    Ok(*pos)
}

/// The digest array of a paged payload (one digest per page).
fn page_digests(bytes: &[u8], page_len: usize) -> Vec<u8> {
    let mut digest_array = Vec::with_capacity(bytes.len().div_ceil(page_len.max(1)) * DIGEST_LEN);
    for page in bytes.chunks(page_len) {
        digest_array.extend_from_slice(hash_bytes(page).as_bytes());
    }
    digest_array
}

/// A verified lazy reader over one paged section.
///
/// The per-page digest array is resident (verified against the table
/// checksum at construction); [`PagedReader::load_page`] reads and
/// verifies exactly one page.
#[derive(Debug)]
pub struct PagedReader {
    file: Arc<File>,
    /// Offset of the page payload (past the digest array).
    base: u64,
    page_len: u32,
    data_len: u64,
    digests: Vec<Digest>,
    faults: Arc<AtomicU64>,
}

impl PagedReader {
    /// Number of pages in the section.
    pub fn num_pages(&self) -> usize {
        self.digests.len()
    }

    /// Total payload length in bytes.
    pub fn data_len(&self) -> u64 {
        self.data_len
    }

    /// Reads and verifies one page.
    pub fn load_page(&self, page: usize) -> Result<Vec<u8>, StoreError> {
        let Some(expected) = self.digests.get(page) else {
            return Err(StoreError::Corrupt(format!(
                "page {page} out of range ({} pages)",
                self.digests.len()
            )));
        };
        let start = page as u64 * self.page_len as u64;
        let this_len = (self.data_len - start).min(self.page_len as u64) as usize;
        let mut buf = vec![0u8; this_len];
        self.file
            .read_exact_at(&mut buf, self.base + start)
            .map_err(|e| StoreError::Io(e.to_string()))?;
        if hash_bytes(&buf) != *expected {
            return Err(StoreError::ChecksumMismatch("section page"));
        }
        self.faults.fetch_add(1, Ordering::Relaxed);
        Ok(buf)
    }

    /// Reads and verifies the whole payload.
    pub fn read_all(&self) -> Result<Vec<u8>, StoreError> {
        let mut out = Vec::with_capacity(self.data_len as usize);
        for p in 0..self.num_pages() {
            out.extend_from_slice(&self.load_page(p)?);
        }
        Ok(out)
    }
}

/// An opened snapshot: parsed header + section table, payloads read on
/// demand.
#[derive(Debug)]
pub struct Snapshot {
    file: Arc<File>,
    sections: Vec<SectionEntry>,
}

/// Parses and validates a snapshot's header and section table.
/// Returns the sections (table order) and the table offset.
fn parse_snapshot(file: &File) -> Result<(Vec<SectionEntry>, u64), StoreError> {
    let file_len = file.metadata()?.len();
    if file_len < HEADER_LEN {
        return Err(StoreError::Truncated);
    }
    let mut raw = [0u8; HEADER_LEN as usize];
    file.read_exact_at(&mut raw, 0)?;
    let header = Header::from_bytes(&raw)?;
    if header.magic != SNAPSHOT_MAGIC {
        return Err(StoreError::BadMagic);
    }
    if header.version != SNAPSHOT_VERSION {
        return Err(StoreError::UnsupportedVersion(header.version));
    }
    if header.section_count > MAX_SECTIONS {
        return Err(StoreError::Corrupt(format!(
            "absurd section count {}",
            header.section_count
        )));
    }
    let table_len = header.section_count as u64 * SectionEntry::MIN_LEN as u64;
    if header.table_offset < HEADER_LEN
        || header
            .table_offset
            .checked_add(table_len)
            .is_none_or(|end| end > file_len)
    {
        return Err(StoreError::Truncated);
    }
    let mut table = vec![0u8; table_len as usize];
    file.read_exact_at(&mut table, header.table_offset)?;
    let sections: Vec<SectionEntry> = take_array(&table)?;
    for (i, s) in sections.iter().enumerate() {
        let id = s.id;
        if sections[..i].iter().any(|e| e.id == id) {
            return Err(StoreError::DuplicateSection(id));
        }
        if s.offset < HEADER_LEN || s.offset.checked_add(s.len).is_none_or(|end| end > file_len) {
            return Err(StoreError::Truncated);
        }
        match s.kind {
            KIND_BLOB => {
                if s.page_len != 0 || s.data_len != s.len {
                    return Err(StoreError::Corrupt(format!(
                        "blob section {id:#06x} with paged geometry"
                    )));
                }
            }
            KIND_PAGED => {
                if s.page_len == 0 {
                    return Err(StoreError::Corrupt(format!(
                        "paged section {id:#06x} with zero page length"
                    )));
                }
                let total = (s.num_pages().checked_mul(DIGEST_LEN as u64))
                    .and_then(|digests| digests.checked_add(s.data_len));
                if s.data_len > s.len || total != Some(s.len) {
                    return Err(StoreError::Corrupt(format!(
                        "paged section {id:#06x} length mismatch"
                    )));
                }
            }
            k => {
                return Err(StoreError::Corrupt(format!(
                    "unknown section kind {k} for id {id:#06x}"
                )));
            }
        }
    }
    Ok((sections, header.table_offset))
}

impl Snapshot {
    /// Opens and validates the header and section table. Section
    /// payloads are not read (and not yet verified) here.
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let file = File::open(path)?;
        let (sections, _) = parse_snapshot(&file)?;
        Ok(Snapshot {
            file: Arc::new(file),
            sections,
        })
    }

    fn meta(&self, id: u16) -> Result<SectionEntry, StoreError> {
        self.sections
            .iter()
            .find(|s| s.id == id)
            .copied()
            .ok_or(StoreError::MissingSection(id))
    }

    /// Ids of all sections in the snapshot, in file order.
    pub fn section_ids(&self) -> Vec<u16> {
        self.sections.iter().map(|s| s.id).collect()
    }

    /// Whether a section exists.
    pub fn has(&self, id: u16) -> bool {
        self.sections.iter().any(|s| s.id == id)
    }

    /// Reads and verifies a blob section.
    pub fn blob(&self, id: u16) -> Result<Vec<u8>, StoreError> {
        let m = self.meta(id)?;
        if m.kind != KIND_BLOB {
            return Err(StoreError::WrongKind {
                id,
                expected: "blob",
            });
        }
        let mut buf = vec![0u8; m.len as usize];
        self.file.read_exact_at(&mut buf, m.offset)?;
        if hash_bytes(&buf) != m.checksum {
            return Err(StoreError::ChecksumMismatch("blob section"));
        }
        Ok(buf)
    }

    /// Opens a verified lazy reader over a paged section. `faults` is
    /// shared so a store can aggregate fault counts across readers.
    pub fn paged(&self, id: u16, faults: Arc<AtomicU64>) -> Result<PagedReader, StoreError> {
        let m = self.meta(id)?;
        if m.kind != KIND_PAGED {
            return Err(StoreError::WrongKind {
                id,
                expected: "paged",
            });
        }
        let mut digest_array = vec![0u8; m.digests_len() as usize];
        self.file.read_exact_at(&mut digest_array, m.offset)?;
        if hash_bytes(&digest_array) != m.checksum {
            return Err(StoreError::ChecksumMismatch("page digest array"));
        }
        let digests = take_array(&digest_array)?;
        Ok(PagedReader {
            file: Arc::clone(&self.file),
            base: m.offset + m.digests_len(),
            page_len: m.page_len,
            data_len: m.data_len,
            digests,
            faults,
        })
    }
}

// ---- in-place update ------------------------------------------------------

/// What an in-place snapshot update touched — the incremental-write
/// cost metric (compare `pages_rewritten` against `pages_total` for
/// the fraction of the file a small update actually dirties).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Sections the update covered (the whole section set).
    pub sections_total: usize,
    /// Sections with at least one byte rewritten.
    pub sections_rewritten: usize,
    /// Pages across all paged sections.
    pub pages_total: usize,
    /// Pages actually rewritten (dirty pages only).
    pub pages_rewritten: usize,
    /// Payload and digest bytes written, excluding the table rewrite.
    pub bytes_written: u64,
}

/// In-place incremental rewriter for an existing snapshot file.
///
/// [`SnapshotUpdater::apply`] diffs a regenerated section set (from
/// [`SnapshotWriter::collector`]) against the file: clean blobs are
/// recognized by checksum and skipped, paged sections are compared
/// page by page and only dirty pages hit the disk. Section *growth* is
/// absorbed by the 4 KiB alignment slack; a section that outgrows its
/// slack fails typed — callers fall back to a full rewrite.
///
/// Crash contract: `open` zeroes the header magic before any payload
/// write and [`SnapshotUpdater::finish`] restores it after the table
/// rewrite and sync, so a torn update leaves a file that fails
/// [`Snapshot::open`] with [`StoreError::BadMagic`] — never a
/// plausible-but-stale snapshot.
#[derive(Debug)]
pub struct SnapshotUpdater {
    file: File,
    sections: Vec<SectionEntry>,
    table_offset: u64,
    stats: UpdateStats,
}

impl SnapshotUpdater {
    /// Opens `path` read-write, validates the header and table, and
    /// arms the crash guard (header magic zeroed until `finish`).
    pub fn open(path: &Path) -> Result<Self, StoreError> {
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)?;
        let (sections, table_offset) = parse_snapshot(&file)?;
        file.write_all_at(&[0u8; 8], 0)?;
        file.sync_data()?;
        Ok(SnapshotUpdater {
            file,
            sections,
            table_offset,
            stats: UpdateStats::default(),
        })
    }

    /// Bytes available to section `idx` before the next section (or
    /// the table) begins.
    fn capacity(&self, idx: usize) -> u64 {
        let start = self.sections[idx].offset;
        self.sections
            .iter()
            .map(|s| s.offset)
            .filter(|&o| o > start)
            .chain(std::iter::once(self.table_offset))
            .min()
            .expect("table bounds every section")
            - start
    }

    /// Diffs `new` against the file and rewrites only what changed.
    ///
    /// The update must cover **exactly** the existing section set (an
    /// in-place update never adds, drops, or re-kinds sections — a
    /// changed set means the publish shape changed, which is a full
    /// rewrite). Any error leaves the crash guard armed, so an
    /// abandoned update reads as torn rather than half-applied.
    pub fn apply(&mut self, new: &[SectionUpdate]) -> Result<(), StoreError> {
        if new.len() != self.sections.len() {
            return Err(StoreError::Corrupt(format!(
                "section set changed: {} on disk, {} regenerated",
                self.sections.len(),
                new.len()
            )));
        }
        self.stats.sections_total = new.len();
        for s in new {
            let idx = self
                .sections
                .iter()
                .position(|e| e.id == s.id)
                .ok_or(StoreError::MissingSection(s.id))?;
            let m = self.sections[idx];
            if m.kind != s.kind {
                return Err(StoreError::WrongKind {
                    id: s.id,
                    expected: if m.kind == KIND_BLOB { "blob" } else { "paged" },
                });
            }
            match s.kind {
                KIND_BLOB => self.apply_blob(idx, s)?,
                _ => self.apply_paged(idx, s)?,
            }
        }
        Ok(())
    }

    fn apply_blob(&mut self, idx: usize, s: &SectionUpdate) -> Result<(), StoreError> {
        let m = self.sections[idx];
        let checksum = hash_bytes(&s.payload);
        if checksum == m.checksum && s.payload.len() as u64 == m.len {
            return Ok(());
        }
        if s.payload.len() as u64 > self.capacity(idx) {
            return Err(StoreError::Corrupt(format!(
                "blob section {:#06x} outgrew its slack ({} > {})",
                s.id,
                s.payload.len(),
                self.capacity(idx)
            )));
        }
        self.file.write_all_at(&s.payload, m.offset)?;
        let m = &mut self.sections[idx];
        m.len = s.payload.len() as u64;
        m.data_len = m.len;
        m.checksum = checksum;
        self.stats.sections_rewritten += 1;
        self.stats.bytes_written += m.len;
        Ok(())
    }

    fn apply_paged(&mut self, idx: usize, s: &SectionUpdate) -> Result<(), StoreError> {
        let m = self.sections[idx];
        let digest_array = page_digests(&s.payload, s.page_len as usize);
        let num_pages = s.payload.len().div_ceil(s.page_len.max(1) as usize);
        self.stats.pages_total += num_pages;
        if s.page_len != m.page_len || s.payload.len() as u64 != m.data_len {
            // Geometry changed: the digest array shifts the payload
            // base, so rewrite the whole section (if it still fits).
            let total = (digest_array.len() + s.payload.len()) as u64;
            if total > self.capacity(idx) {
                return Err(StoreError::Corrupt(format!(
                    "paged section {:#06x} outgrew its slack ({} > {})",
                    s.id,
                    total,
                    self.capacity(idx)
                )));
            }
            self.file.write_all_at(&digest_array, m.offset)?;
            self.file
                .write_all_at(&s.payload, m.offset + digest_array.len() as u64)?;
            let m = &mut self.sections[idx];
            m.page_len = s.page_len;
            m.len = total;
            m.data_len = s.payload.len() as u64;
            m.checksum = hash_bytes(&digest_array);
            self.stats.sections_rewritten += 1;
            self.stats.pages_rewritten += num_pages;
            self.stats.bytes_written += total;
            return Ok(());
        }
        // Same geometry: page-by-page diff against the stored digests.
        let mut old_digests = vec![0u8; m.digests_len() as usize];
        self.file.read_exact_at(&mut old_digests, m.offset)?;
        let base = m.offset + m.digests_len();
        let mut dirty = 0usize;
        for (p, page) in s.payload.chunks(s.page_len as usize).enumerate() {
            let range = p * DIGEST_LEN..(p + 1) * DIGEST_LEN;
            if digest_array[range.clone()] != old_digests[range] {
                self.file
                    .write_all_at(page, base + (p * s.page_len as usize) as u64)?;
                dirty += 1;
                self.stats.bytes_written += page.len() as u64;
            }
        }
        if dirty > 0 {
            self.file.write_all_at(&digest_array, m.offset)?;
            self.sections[idx].checksum = hash_bytes(&digest_array);
            self.stats.sections_rewritten += 1;
            self.stats.pages_rewritten += dirty;
            self.stats.bytes_written += digest_array.len() as u64;
        }
        Ok(())
    }

    /// Rewrites the section table, restores the header magic, and
    /// syncs. Returns what the update touched.
    pub fn finish(self) -> Result<UpdateStats, StoreError> {
        self.file
            .write_all_at(&put_array(&self.sections), self.table_offset)?;
        self.file.sync_data()?;
        self.file.write_all_at(&SNAPSHOT_MAGIC, 0)?;
        self.file.sync_all()?;
        Ok(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("spnet-store-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_sample(path: &Path) -> (Vec<u8>, Vec<u8>) {
        let blob: Vec<u8> = (0u16..400).flat_map(|i| i.to_le_bytes()).collect();
        let paged: Vec<u8> = (0u32..5000).flat_map(|i| i.to_le_bytes()).collect();
        let mut w = SnapshotWriter::create(path).unwrap();
        w.blob(1, &blob).unwrap();
        w.paged(2, &paged, 512).unwrap();
        w.finish().unwrap();
        (blob, paged)
    }

    #[test]
    fn round_trip_blob_and_paged() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("snapshot.spnet");
        let (blob, paged) = write_sample(&path);
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.section_ids(), vec![1, 2]);
        assert!(snap.has(1) && !snap.has(7));
        assert_eq!(snap.blob(1).unwrap(), blob);
        let faults = Arc::new(AtomicU64::new(0));
        let r = snap.paged(2, Arc::clone(&faults)).unwrap();
        assert_eq!(r.data_len(), paged.len() as u64);
        assert_eq!(r.num_pages(), paged.len().div_ceil(512));
        assert_eq!(r.read_all().unwrap(), paged);
        assert_eq!(faults.load(Ordering::Relaxed), r.num_pages() as u64);
        // Single-page fault: only bytes of that page.
        assert_eq!(r.load_page(3).unwrap(), paged[3 * 512..4 * 512].to_vec());
        // Short last page.
        let last = r.num_pages() - 1;
        assert_eq!(r.load_page(last).unwrap(), paged[last * 512..].to_vec());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wrong_kind_and_missing_section() {
        let dir = tmpdir("kinds");
        let path = dir.join("snapshot.spnet");
        write_sample(&path);
        let snap = Snapshot::open(&path).unwrap();
        assert!(matches!(
            snap.blob(2),
            Err(StoreError::WrongKind { id: 2, .. })
        ));
        let faults = Arc::new(AtomicU64::new(0));
        assert!(matches!(
            snap.paged(1, faults),
            Err(StoreError::WrongKind { id: 1, .. })
        ));
        assert!(matches!(snap.blob(9), Err(StoreError::MissingSection(9))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn duplicate_id_rejected_at_write() {
        let dir = tmpdir("dup");
        let path = dir.join("snapshot.spnet");
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.blob(1, b"a").unwrap();
        assert!(matches!(
            w.blob(1, b"b"),
            Err(StoreError::DuplicateSection(1))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_magic_and_version() {
        let dir = tmpdir("magic");
        let path = dir.join("snapshot.spnet");
        write_sample(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[0] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Snapshot::open(&path), Err(StoreError::BadMagic)));
        bytes[0] ^= 0xFF;
        bytes[8] = 99;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Snapshot::open(&path),
            Err(StoreError::UnsupportedVersion(99))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncation_detected() {
        let dir = tmpdir("trunc");
        let path = dir.join("snapshot.spnet");
        write_sample(&path);
        let bytes = std::fs::read(&path).unwrap();
        // Header survives but the table is gone.
        std::fs::write(&path, &bytes[..HEADER_LEN as usize]).unwrap();
        assert!(matches!(Snapshot::open(&path), Err(StoreError::Truncated)));
        // Even shorter than a header.
        std::fs::write(&path, &bytes[..10]).unwrap();
        assert!(matches!(Snapshot::open(&path), Err(StoreError::Truncated)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flips_detected_on_read() {
        let dir = tmpdir("flip");
        let path = dir.join("snapshot.spnet");
        write_sample(&path);
        let orig = std::fs::read(&path).unwrap();
        // Flip one bit in every byte position of the first section
        // region and assert reads never silently succeed with wrong
        // data. (Sampled stride keeps the test fast.)
        for pos in (SECTION_ALIGN as usize..orig.len()).step_by(971) {
            let mut bytes = orig.clone();
            bytes[pos] ^= 0x10;
            std::fs::write(&path, &bytes).unwrap();
            let blob: Vec<u8> = (0u16..400).flat_map(|i| i.to_le_bytes()).collect();
            match Snapshot::open(&path) {
                Err(_) => {}
                Ok(snap) => {
                    if let Ok(b) = snap.blob(1) {
                        assert_eq!(b, blob, "flip at {pos} corrupted blob undetected");
                    }
                    let faults = Arc::new(AtomicU64::new(0));
                    match snap.paged(2, faults) {
                        Err(_) => {}
                        Ok(r) => {
                            let paged: Vec<u8> =
                                (0u32..5000).flat_map(|i| i.to_le_bytes()).collect();
                            if let Ok(all) = r.read_all() {
                                assert_eq!(all, paged, "flip at {pos} undetected");
                            }
                        }
                    }
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A paged entry whose `num_pages · 32 + data_len` wraps to `len`:
    /// `page_len = 1` and `data_len = len · 33⁻¹ mod 2⁶⁴`. Unchecked,
    /// this overflowed at open (debug) or passed it and later sized a
    /// digest array of `len − data_len` wrapped (release).
    #[test]
    fn overflowing_paged_geometry_fails_typed() {
        let dir = tmpdir("overflow");
        let path = dir.join("snapshot.spnet");
        write_sample(&path);
        let mut bytes = std::fs::read(&path).unwrap();
        let header = Header::from_bytes(&bytes[..HEADER_LEN as usize]).unwrap();
        let at = header.table_offset as usize + SectionEntry::MIN_LEN;
        let mut entry = SectionEntry::from_bytes(&bytes[at..at + SectionEntry::MIN_LEN]).unwrap();
        assert_eq!(entry.kind, KIND_PAGED);
        let inv33 = (0..6).fold(1u64, |x, _| {
            x.wrapping_mul(2u64.wrapping_sub(33u64.wrapping_mul(x)))
        });
        assert_eq!(33u64.wrapping_mul(inv33), 1);
        entry.page_len = 1;
        entry.data_len = entry.len.wrapping_mul(inv33);
        assert_eq!(entry.data_len.wrapping_mul(33), entry.len);
        bytes[at..at + SectionEntry::MIN_LEN].copy_from_slice(&entry.to_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Snapshot::open(&path), Err(StoreError::Corrupt(_))));
        // A paged entry whose payload claims more than the section.
        entry.page_len = 512;
        entry.data_len = entry.len + 1;
        bytes[at..at + SectionEntry::MIN_LEN].copy_from_slice(&entry.to_bytes());
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(Snapshot::open(&path), Err(StoreError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sections_are_page_aligned() {
        let dir = tmpdir("align");
        let path = dir.join("snapshot.spnet");
        write_sample(&path);
        let snap = Snapshot::open(&path).unwrap();
        for s in &snap.sections {
            assert_eq!(s.offset % SECTION_ALIGN, 0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Collector-mode regeneration of the [`write_sample`] sections,
    /// with `paged` optionally perturbed.
    fn regenerate(blob: &[u8], paged: &[u8]) -> Vec<SectionUpdate> {
        let mut w = SnapshotWriter::collector();
        w.blob(1, blob).unwrap();
        w.paged(2, paged, 512).unwrap();
        w.into_sections().unwrap()
    }

    #[test]
    fn collector_captures_sections_without_a_file() {
        let sections = regenerate(b"abc", &[0u8; 1000]);
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].id(), 1);
        assert_eq!(sections[0].len(), 3);
        assert_eq!(sections[1].id(), 2);
        assert!(SnapshotWriter::collector().finish().is_err());
    }

    #[test]
    fn in_place_update_rewrites_only_dirty_pages() {
        let dir = tmpdir("inplace");
        let path = dir.join("snapshot.spnet");
        let (blob, mut paged) = write_sample(&path);
        // Dirty exactly one page of the paged section; the blob and
        // every other page must not be rewritten.
        paged[3 * 512] ^= 0xFF;
        let mut up = SnapshotUpdater::open(&path).unwrap();
        up.apply(&regenerate(&blob, &paged)).unwrap();
        let stats = up.finish().unwrap();
        assert_eq!(stats.sections_total, 2);
        assert_eq!(stats.sections_rewritten, 1);
        assert_eq!(stats.pages_total, paged.len().div_ceil(512));
        assert_eq!(stats.pages_rewritten, 1);
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.blob(1).unwrap(), blob);
        let r = snap.paged(2, Arc::new(AtomicU64::new(0))).unwrap();
        assert_eq!(r.read_all().unwrap(), paged);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_update_writes_nothing() {
        let dir = tmpdir("cleanup");
        let path = dir.join("snapshot.spnet");
        let (blob, paged) = write_sample(&path);
        let mut up = SnapshotUpdater::open(&path).unwrap();
        up.apply(&regenerate(&blob, &paged)).unwrap();
        let stats = up.finish().unwrap();
        assert_eq!(stats.sections_rewritten, 0);
        assert_eq!(stats.pages_rewritten, 0);
        assert_eq!(stats.bytes_written, 0);
        assert!(Snapshot::open(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn blob_growth_uses_slack_and_overflow_fails_typed() {
        let dir = tmpdir("slack");
        let path = dir.join("snapshot.spnet");
        let (mut blob, paged) = write_sample(&path);
        // Growing within the 4 KiB alignment slack succeeds in place.
        blob.extend_from_slice(b"tail");
        let mut up = SnapshotUpdater::open(&path).unwrap();
        up.apply(&regenerate(&blob, &paged)).unwrap();
        up.finish().unwrap();
        let snap = Snapshot::open(&path).unwrap();
        assert_eq!(snap.blob(1).unwrap(), blob);
        drop(snap);
        // Outgrowing the slack fails typed (caller falls back to a
        // full rewrite) and leaves the crash guard armed.
        let huge = vec![7u8; 2 * SECTION_ALIGN as usize];
        let mut up = SnapshotUpdater::open(&path).unwrap();
        assert!(matches!(
            up.apply(&regenerate(&huge, &paged)),
            Err(StoreError::Corrupt(_))
        ));
        drop(up);
        assert!(matches!(Snapshot::open(&path), Err(StoreError::BadMagic)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_update_reads_as_bad_magic_until_finished() {
        let dir = tmpdir("torn");
        let path = dir.join("snapshot.spnet");
        let (blob, paged) = write_sample(&path);
        let mut up = SnapshotUpdater::open(&path).unwrap();
        // Crash guard armed: a reader opening mid-update fails loudly.
        assert!(matches!(Snapshot::open(&path), Err(StoreError::BadMagic)));
        up.apply(&regenerate(&blob, &paged)).unwrap();
        up.finish().unwrap();
        assert!(Snapshot::open(&path).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn changed_section_set_is_refused() {
        let dir = tmpdir("setchange");
        let path = dir.join("snapshot.spnet");
        let (blob, _) = write_sample(&path);
        let mut w = SnapshotWriter::collector();
        w.blob(1, &blob).unwrap();
        let only_blob = w.into_sections().unwrap();
        let mut up = SnapshotUpdater::open(&path).unwrap();
        assert!(matches!(up.apply(&only_blob), Err(StoreError::Corrupt(_))));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_paged_section_round_trips() {
        let dir = tmpdir("emptypaged");
        let path = dir.join("snapshot.spnet");
        let mut w = SnapshotWriter::create(&path).unwrap();
        w.paged(3, &[], 128).unwrap();
        w.finish().unwrap();
        let snap = Snapshot::open(&path).unwrap();
        let r = snap.paged(3, Arc::new(AtomicU64::new(0))).unwrap();
        assert_eq!(r.num_pages(), 0);
        assert_eq!(r.read_all().unwrap(), Vec::<u8>::new());
        std::fs::remove_dir_all(&dir).ok();
    }
}
