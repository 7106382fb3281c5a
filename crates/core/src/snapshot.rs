//! Snapshot persistence: publish once, restart without re-signing.
//!
//! The ICDE 2010 protocol implicitly assumes the provider rebuilds —
//! and the owner re-signs — every authenticated structure at startup.
//! This module removes that assumption: [`save_package`] persists a
//! [`Published`] epoch into a single page-aligned snapshot file
//! (`spnet-store` format), and [`load_package`] reconstructs a
//! serving-ready [`ProviderPackage`] from it with **zero RSA signing
//! operations** — the owner's original signatures are decoded from
//! their persisted bytes and re-verified against the loaded
//! structures.
//!
//! Two load backends over one [`NodeStore`] (see [`StoreBackend`]):
//!
//! * `Mem` — the store verifies every section at open, including the
//!   tree levels the dense loaders never read; the dense in-memory
//!   trees are then rebuilt from their persisted leaves, so the result
//!   is bit-identical to a freshly built provider.
//! * `File` — Merkle levels and B-tree entry arrays stay on disk: each
//!   section's [`spnet_store::PagedReader`] is the pager of one tree
//!   level or entry array, and pages fault in on demand, so a proof
//!   touches only the pages on its path. Proof bytes are identical to
//!   the `Mem` backend.
//!
//! Trust layering: the store verifies *storage* integrity (per-section
//! and per-page digests). This module then (i) checks every loaded
//! tree structurally against its persisted [`SignedRoot`] and (ii)
//! RSA-verifies every signed root against the persisted owner public
//! key. A tampered snapshot therefore fails with a typed
//! [`SnapshotError`] at load — it can never serve verifying proofs.

use crate::ads::{AdsTag, NetworkAds, SignedRoot};
use crate::enc::{DecodeError, Decoder, Encoder, Wire};
use crate::methods::MethodParams;
use crate::owner::{ProviderPackage, Published};
use crate::tuple::ExtendedTuple;
use spnet_crypto::cache::PageCacheCfg;
use spnet_crypto::digest::{Digest, DIGEST_LEN};
use spnet_crypto::mbtree::{KeyedEntry, MbTreeError, MerkleBTree};
use spnet_crypto::merkle::{MerkleError, MerkleTree};
use spnet_crypto::pager::Pager;
use spnet_crypto::rsa::RsaPublicKey;
use spnet_graph::io::{graph_from_bytes, graph_to_bytes, IoError};
use spnet_graph::NodeId;
use spnet_store::{NodeStore, SnapshotWriter, StoreBackend, StoreError};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name of the snapshot inside its directory.
pub const SNAPSHOT_FILE: &str = "snapshot.spnet";

/// Bytes per page of a persisted Merkle level (128 digests) or B-tree
/// entry array (256 [`KeyedEntry`] records). A page is also the block
/// a tree holds, resident or not yet loaded
/// ([`spnet_crypto::blocks`]).
pub use spnet_crypto::blocks::PAGE_BYTES;
use spnet_crypto::blocks::PAGE_ENTRIES;

/// Residency bound (in pages) of each paged structure opened over a
/// lazy store: faulted pages beyond this are evicted LRU and simply
/// re-fault on the next touch. At 4 KiB pages this caps every paged
/// tree at ~2 MiB resident.
pub const PAGE_CACHE_PAGES: usize = 512;

/// The page-cache configuration for paged structures over `store`:
/// bounded at [`PAGE_CACHE_PAGES`], evictions aggregated into the
/// store's counter ([`NodeStore::evict_count`]).
fn store_cache_cfg(store: &NodeStore) -> PageCacheCfg {
    PageCacheCfg {
        capacity: PAGE_CACHE_PAGES,
        evictions: Some(store.eviction_counter()),
    }
}

// ---- section id map -------------------------------------------------------
// Shared by every method module; blobs unless noted. Tree sections are
// one paged section per Merkle level, leaf level first.

/// The graph, in the `spnet-graph` text format (bit-exact round trip).
pub const SEC_GRAPH: u16 = 0x0001;
/// The owner's RSA public key.
pub const SEC_PUBKEY: u16 = 0x0002;
/// The signed network root (canonical wire encoding).
pub const SEC_NET_SIGNED: u16 = 0x0003;
/// The leaf ordering `O`: leaf position → node id, packed `u32` LE.
pub const SEC_NET_ORDER: u16 = 0x0004;
/// The extended tuples, node-id order, canonical encoding.
pub const SEC_NET_TUPLES: u16 = 0x0005;
/// Network Merkle tree levels (paged): `SEC_NET_TREE + level`.
pub const SEC_NET_TREE: u16 = 0x0100;

/// FULL: the signed distance-tree root.
pub const SEC_FULL_SIGNED: u16 = 0x0010;
/// FULL: row roots, packed digests (paged).
pub const SEC_FULL_ROWROOTS: u16 = 0x0011;
/// FULL: fanout, build stats, matrix mode.
pub const SEC_FULL_CONFIG: u16 = 0x0012;
/// FULL (Floyd–Warshall mode only): the raw distance matrix, row-major
/// `f64` LE (paged). Persisted because FW and Dijkstra produce
/// different bit patterns, and row digests hash the exact bits.
pub const SEC_FULL_MATRIX: u16 = 0x0014;

/// LDM: λ, ξ, c, b and the (compressed) landmark vectors.
pub const SEC_LDM_VECTORS: u16 = 0x0020;
/// LDM: owner-side build seconds.
pub const SEC_LDM_BUILD: u16 = 0x0021;
/// LDM: compression strategy byte + the selected landmark node ids
/// (dynamic updates repair vectors for the original landmark set).
pub const SEC_LDM_LANDMARKS: u16 = 0x0022;

/// HYP: grid side, tree fanout, geometry, build seconds.
pub const SEC_HYP_CONFIG: u16 = 0x0030;
/// HYP: the signed hyper-edge root.
pub const SEC_HYP_HYPER_SIGNED: u16 = 0x0031;
/// HYP: the signed cell-directory root.
pub const SEC_HYP_DIR_SIGNED: u16 = 0x0032;
/// HYP: hyper-edge B-tree first-keys (packed `u64` LE).
pub const SEC_HYP_HYPER_KEYS: u16 = 0x0033;
/// HYP: cell-directory B-tree first-keys (packed `u64` LE).
pub const SEC_HYP_DIR_KEYS: u16 = 0x0034;
/// HYP: hyper-edge B-tree entries, packed 16-byte records (paged).
pub const SEC_HYP_HYPER_ENTRIES: u16 = 0x0035;
/// HYP: cell-directory B-tree entries, packed 16-byte records (paged).
pub const SEC_HYP_DIR_ENTRIES: u16 = 0x0036;
/// HYP: hyper-edge tree levels (paged): `SEC_HYP_HYPER_TREE + level`.
pub const SEC_HYP_HYPER_TREE: u16 = 0x0300;
/// HYP: cell-directory tree levels (paged): `SEC_HYP_DIR_TREE + level`.
pub const SEC_HYP_DIR_TREE: u16 = 0x0400;

/// POI set: the signed POI root (canonical wire encoding).
pub const SEC_POI_SIGNED: u16 = 0x0040;
/// POI set: B-tree first-keys (packed `u64` LE).
pub const SEC_POI_KEYS: u16 = 0x0041;
/// POI set: B-tree entries, packed 16-byte records (paged).
pub const SEC_POI_ENTRIES: u16 = 0x0042;
/// POI set: B-tree digest levels (paged): `SEC_POI_TREE + level`.
pub const SEC_POI_TREE: u16 = 0x0500;

/// File name of the POI-set snapshot inside a snapshot directory. POIs
/// live in their own file so the network snapshot format (and
/// [`save_package`]'s signature) stays unchanged — an owner can
/// publish or re-publish a POI set without re-writing the network.
pub const POI_FILE: &str = "poi.spnet";

/// Why a snapshot save or load failed. Loads fail typed — a corrupted
/// or tampered snapshot never panics and never serves.
#[derive(Debug)]
pub enum SnapshotError {
    /// Storage layer (header, table, section or page integrity).
    Store(StoreError),
    /// A persisted structure failed canonical decoding.
    Decode(DecodeError),
    /// Merkle tree reconstruction or paged open failed.
    Merkle(MerkleError),
    /// Merkle B-tree reconstruction or paged open failed.
    MbTree(MbTreeError),
    /// The persisted graph text failed to parse.
    Graph(IoError),
    /// Filesystem error outside the store itself.
    Io(std::io::Error),
    /// An owner signature failed against the persisted public key.
    BadSignature(&'static str),
    /// Loaded structures are inconsistent with each other or with
    /// their signed metadata.
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Store(e) => write!(f, "snapshot store: {e}"),
            SnapshotError::Decode(e) => write!(f, "snapshot decode: {e}"),
            SnapshotError::Merkle(e) => write!(f, "snapshot merkle: {e}"),
            SnapshotError::MbTree(e) => write!(f, "snapshot b-tree: {e}"),
            SnapshotError::Graph(e) => write!(f, "snapshot graph: {e}"),
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::BadSignature(what) => {
                write!(f, "snapshot signature check failed: {what}")
            }
            SnapshotError::Corrupt(what) => write!(f, "snapshot inconsistent: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<StoreError> for SnapshotError {
    fn from(e: StoreError) -> Self {
        SnapshotError::Store(e)
    }
}

impl From<DecodeError> for SnapshotError {
    fn from(e: DecodeError) -> Self {
        SnapshotError::Decode(e)
    }
}

impl From<MerkleError> for SnapshotError {
    fn from(e: MerkleError) -> Self {
        SnapshotError::Merkle(e)
    }
}

impl From<MbTreeError> for SnapshotError {
    fn from(e: MbTreeError) -> Self {
        SnapshotError::MbTree(e)
    }
}

impl From<IoError> for SnapshotError {
    fn from(e: IoError) -> Self {
        SnapshotError::Graph(e)
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

// ---- shared codec helpers -------------------------------------------------

/// Unpacks digests from their on-disk byte layout.
pub(crate) fn digests_from_bytes(bytes: &[u8]) -> Result<Vec<Digest>, SnapshotError> {
    if !bytes.len().is_multiple_of(DIGEST_LEN) {
        return Err(SnapshotError::Corrupt(
            "digest array length is not a multiple of the digest size",
        ));
    }
    Ok(bytes
        .chunks_exact(DIGEST_LEN)
        .map(|c| Digest(c.try_into().expect("chunk is digest-sized")))
        .collect())
}

/// Number of Merkle levels (leaves included) for `leaf_count` leaves.
fn tree_height(leaf_count: usize, fanout: usize) -> usize {
    let mut n = leaf_count.max(1);
    let mut h = 1;
    while n > 1 {
        n = n.div_ceil(fanout.max(2));
        h += 1;
    }
    h
}

/// Writes a Merkle tree as one paged section per level
/// (`base + level`, leaf level first). Unloaded blocks of a
/// snapshot-loaded tree are paged out from their pager's verified
/// bytes.
pub(crate) fn write_tree(
    w: &mut SnapshotWriter,
    base: u16,
    tree: &MerkleTree,
) -> Result<(), SnapshotError> {
    for (l, level) in tree.dense_levels().iter().enumerate() {
        w.paged(base + l as u16, &level.to_bytes()?, PAGE_BYTES)?;
    }
    Ok(())
}

/// Loads a tree written by [`write_tree`] **lazily**: pages fault in
/// through the store on demand (the root page loads now).
pub(crate) fn load_tree_paged(
    store: &NodeStore,
    base: u16,
    leaf_count: usize,
    fanout: usize,
) -> Result<MerkleTree, SnapshotError> {
    let pagers = (0..tree_height(leaf_count, fanout))
        .map(|l| Ok(Arc::new(store.paged(base + l as u16)?) as Arc<dyn Pager>))
        .collect::<Result<Vec<_>, StoreError>>()?;
    Ok(MerkleTree::open_paged(
        pagers,
        leaf_count,
        fanout,
        store_cache_cfg(store),
    )?)
}

/// Writes a Merkle B-tree: packed entry records (paged), the per-page
/// first keys (blob), and the digest tree levels.
pub(crate) fn write_btree(
    w: &mut SnapshotWriter,
    bt: &MerkleBTree,
    entries_id: u16,
    keys_id: u16,
    tree_base: u16,
) -> Result<(), SnapshotError> {
    w.paged(entries_id, &bt.dense_entries().to_bytes()?, PAGE_BYTES)?;
    let key_bytes: Vec<u8> = bt
        .first_keys()
        .iter()
        .flat_map(|k| k.to_le_bytes())
        .collect();
    w.blob(keys_id, &key_bytes)?;
    write_tree(w, tree_base, bt.tree())
}

/// Loads a B-tree written by [`write_btree`]. On a lazy store the
/// entry array and tree levels stay on disk (page faults on access);
/// on a resident store the B-tree is rebuilt from its entries.
pub(crate) fn load_btree(
    store: &NodeStore,
    len: usize,
    fanout: usize,
    entries_id: u16,
    keys_id: u16,
    tree_base: u16,
) -> Result<MerkleBTree, SnapshotError> {
    if store.is_lazy() {
        let tree = load_tree_paged(store, tree_base, len, fanout)?;
        let key_bytes = store.blob(keys_id)?;
        if key_bytes.len() % 8 != 0 || key_bytes.len() / 8 != len.div_ceil(PAGE_ENTRIES) {
            return Err(SnapshotError::Corrupt("first-keys array length mismatch"));
        }
        let first_keys: Vec<u64> = key_bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk is 8 bytes")))
            .collect();
        Ok(MerkleBTree::open_paged(
            Arc::new(store.paged(entries_id)?),
            first_keys,
            tree,
            store_cache_cfg(store),
        )?)
    } else {
        let bytes = store.paged_all(entries_id)?;
        if bytes.len() != len * 16 {
            return Err(SnapshotError::Corrupt("entry array length mismatch"));
        }
        let entries: Vec<KeyedEntry> = bytes
            .chunks_exact(16)
            .map(|c| KeyedEntry::decode(c.try_into().expect("chunk is 16 bytes")))
            .collect();
        Ok(MerkleBTree::build(entries, fanout)?)
    }
}

// ---- save -----------------------------------------------------------------

/// Persists a published epoch into `dir/`[`SNAPSHOT_FILE`].
///
/// Everything a provider needs to cold-start — graph, owner public
/// key, signed roots, tuples, Merkle levels, method hints — lands in
/// one snapshot file; returns its path. The owner signs **nothing**
/// here: the signatures made at publish time are persisted as bytes.
pub fn save_package(published: &Published, dir: &Path) -> Result<PathBuf, SnapshotError> {
    rewrite_snapshot(&published.package, &published.public_key, dir)?;
    Ok(dir.join(SNAPSHOT_FILE))
}

/// Writes the whole snapshot of `pkg` to a sibling temporary file,
/// syncs it and renames it over `dir/`[`SNAPSHOT_FILE`]. Packages still
/// paging from the old file keep reading it through the handles they
/// hold, and a crash mid-write leaves the old snapshot loadable.
pub(crate) fn rewrite_snapshot(
    pkg: &ProviderPackage,
    public_key: &RsaPublicKey,
    dir: &Path,
) -> Result<SnapshotRefresh, SnapshotError> {
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!("{SNAPSHOT_FILE}.tmp"));
    let mut w = SnapshotWriter::create(&tmp)?;
    write_sections(pkg, public_key, &mut w)?;
    w.finish()?;
    std::fs::rename(&tmp, dir.join(SNAPSHOT_FILE))?;
    std::fs::File::open(dir)?.sync_all()?;
    Ok(SnapshotRefresh::FullRewrite)
}

/// Emits every snapshot section of a package into `w` — the single
/// section-producing path behind both [`save_package`] (file writer)
/// and [`update_snapshot`] (collector writer for in-place diffing).
fn write_sections(
    pkg: &ProviderPackage,
    public_key: &RsaPublicKey,
    w: &mut SnapshotWriter,
) -> Result<(), SnapshotError> {
    let n = pkg.ads.leaf_count();
    w.blob(SEC_GRAPH, &graph_to_bytes(&pkg.graph))?;
    w.blob(SEC_PUBKEY, &public_key.to_bytes())?;
    w.blob(SEC_NET_SIGNED, &pkg.network_root.to_bytes())?;

    let order_bytes: Vec<u8> = pkg
        .ads
        .order()
        .iter()
        .flat_map(|v| v.0.to_le_bytes())
        .collect();
    w.blob(SEC_NET_ORDER, &order_bytes)?;

    let mut e = Encoder::new();
    e.put(&(n as u64));
    for v in 0..n as u32 {
        e.put(pkg.ads.tuple(NodeId(v)));
    }
    w.blob(SEC_NET_TUPLES, &e.into_bytes())?;

    write_tree(w, SEC_NET_TREE, pkg.ads.tree())?;
    pkg.hints.method().snapshot_hints(&pkg.hints, w)
}

/// How [`update_snapshot`] hit the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotRefresh {
    /// Only the dirty pages and sections were rewritten in place.
    InPlace(spnet_store::UpdateStats),
    /// The whole file was rewritten into a new file renamed over the
    /// old one — no snapshot existed yet, the incremental path could
    /// not apply (section set or geometry changed beyond the in-place
    /// slack), or the service pages lazily from the file.
    FullRewrite,
}

/// Refreshes `dir/`[`SNAPSHOT_FILE`] to match `pkg` after a dynamic
/// update, rewriting **only the dirty sections and pages** in place.
///
/// The package's sections are regenerated in memory and diffed against
/// the existing file ([`spnet_store::SnapshotUpdater`]): an
/// edge-weight update that dirtied a handful of tuples touches the
/// graph/tuple blobs and the few tree pages on the dirty leaves'
/// paths, not the O(n) snapshot. Any incremental failure (missing
/// file, changed section set, a section outgrowing its 4 KiB slack)
/// falls back to a whole rewrite into a temporary file renamed over
/// the old one, so the call always leaves a loadable snapshot and never
/// truncates a file a reader pages from. Mid-update crashes of the
/// in-place path are loud: the store zeroes the header magic until the
/// diff commits.
///
/// The in-place path rewrites pages under every reader of the file, so
/// it must not run while packages other than `pkg` page lazily from it
/// (a `File`-loaded package, or an older epoch of one, would fail its
/// page checksums). `pkg` itself may: the pages it has not loaded are
/// exactly the pages the diff leaves alone.
pub fn update_snapshot(
    pkg: &ProviderPackage,
    public_key: &RsaPublicKey,
    dir: &Path,
) -> Result<SnapshotRefresh, SnapshotError> {
    let mut w = SnapshotWriter::collector();
    write_sections(pkg, public_key, &mut w)?;
    let sections = w.into_sections()?;
    let path = dir.join(SNAPSHOT_FILE);
    let incremental = (|| {
        let mut up = spnet_store::SnapshotUpdater::open(&path)?;
        up.apply(&sections)?;
        up.finish()
    })();
    match incremental {
        Ok(stats) => Ok(SnapshotRefresh::InPlace(stats)),
        Err(_) => rewrite_snapshot(pkg, public_key, dir),
    }
}

// ---- load -----------------------------------------------------------------

/// A provider package reconstructed from a snapshot — plus the
/// persisted owner public key and the backing store (kept for fault
/// accounting). The package takes updates and can be saved again on
/// either backend; a `File`-loaded one keeps paging from the file it
/// was loaded from, so refresh that file only through
/// [`update_snapshot`]'s rules.
pub struct LoadedSnapshot {
    /// Serving-ready package, signature-verified against `public_key`.
    pub package: ProviderPackage,
    /// The owner public key persisted at save time.
    pub public_key: RsaPublicKey,
    /// The open store: its fault counter counts every verified page
    /// read (on `Mem` the pages verified at open, on `File` the pages
    /// proofs fault in) and its eviction counter the page-cache
    /// evictions of the `File` backend's paged structures.
    pub store: NodeStore,
}

/// Loads `dir/`[`SNAPSHOT_FILE`] into a serving-ready package.
///
/// Performs **zero RSA signing operations**. Every persisted signed
/// root is (i) structurally checked against the loaded structure it
/// authenticates and (ii) RSA-verified against the persisted owner
/// public key, so a snapshot that was tampered with — even one whose
/// storage digests were consistently recomputed — fails typed here.
pub fn load_package(dir: &Path, backend: StoreBackend) -> Result<LoadedSnapshot, SnapshotError> {
    let store = NodeStore::open(&dir.join(SNAPSHOT_FILE), backend)?;

    let graph = graph_from_bytes(&store.blob(SEC_GRAPH)?)?;
    let public_key = RsaPublicKey::from_bytes(&store.blob(SEC_PUBKEY)?)
        .ok_or(SnapshotError::Corrupt("undecodable owner public key"))?;
    let network_root = SignedRoot::from_bytes(&store.blob(SEC_NET_SIGNED)?)?;
    if network_root.meta.tag != AdsTag::Network {
        return Err(SnapshotError::Corrupt("network root carries a foreign tag"));
    }

    let order_bytes = store.blob(SEC_NET_ORDER)?;
    if order_bytes.len() % 4 != 0 {
        return Err(SnapshotError::Corrupt("ragged order array"));
    }
    let order: Vec<NodeId> = order_bytes
        .chunks_exact(4)
        .map(|c| NodeId(u32::from_le_bytes(c.try_into().expect("chunk is 4 bytes"))))
        .collect();

    let tuple_bytes = store.blob(SEC_NET_TUPLES)?;
    let mut d = Decoder::new(&tuple_bytes);
    let count = d.take::<u64>()? as usize;
    if count != graph.num_nodes() || count != order.len() {
        return Err(SnapshotError::Corrupt("tuple count mismatch"));
    }
    let mut tuples = Vec::with_capacity(count);
    for i in 0..count {
        let t: ExtendedTuple = d.take()?;
        if t.id != NodeId(i as u32) {
            return Err(SnapshotError::Corrupt("tuples out of node-id order"));
        }
        tuples.push(Arc::new(t));
    }
    d.finish()?;

    let fanout = network_root.meta.fanout as usize;
    if fanout < 2 {
        return Err(SnapshotError::Corrupt("network fanout below 2"));
    }
    let tree = if store.is_lazy() {
        load_tree_paged(&store, SEC_NET_TREE, count, fanout)?
    } else {
        // Rebuild from the authenticated tuples themselves: hashing
        // the ordered tuple digests reproduces the exact tree the
        // owner built (and cross-checks tuples against the root).
        let leaves: Vec<Digest> = order.iter().map(|v| tuples[v.index()].digest()).collect();
        MerkleTree::build(leaves, fanout)?
    };

    let ads = NetworkAds::from_parts(order, tuples, tree)
        .ok_or(SnapshotError::Corrupt("inconsistent network ADS parts"))?;
    if network_root.meta.leaf_count != ads.leaf_count() as u64 {
        return Err(SnapshotError::Corrupt("network leaf count mismatch"));
    }
    if network_root.root != ads.root() {
        return Err(SnapshotError::Corrupt(
            "network root does not match loaded tree",
        ));
    }
    if !network_root.verify(&public_key) {
        return Err(SnapshotError::BadSignature("network root"));
    }

    let params = MethodParams::from_bytes(&network_root.meta.params)?;
    let method = params.method();
    let hints = method.load_hints(&graph, &store)?;
    for root in hints.aux_roots() {
        if !root.verify(&public_key) {
            return Err(SnapshotError::BadSignature("auxiliary root"));
        }
    }

    Ok(LoadedSnapshot {
        package: ProviderPackage {
            graph,
            ads,
            network_root,
            hints,
        },
        public_key,
        store,
    })
}

// ---- POI set --------------------------------------------------------------

/// Persists a signed POI set into `dir/`[`POI_FILE`]: the signed root
/// plus its Merkle B-tree (entries, first keys, digest levels).
pub fn save_poi_set(
    dir: &Path,
    signed: &SignedRoot,
    tree: &MerkleBTree,
) -> Result<PathBuf, SnapshotError> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(POI_FILE);
    let mut w = SnapshotWriter::create(&path)?;
    w.blob(SEC_POI_SIGNED, &signed.to_bytes())?;
    write_btree(&mut w, tree, SEC_POI_ENTRIES, SEC_POI_KEYS, SEC_POI_TREE)?;
    w.finish()?;
    Ok(path)
}

/// A POI set reconstructed from `dir/`[`POI_FILE`].
///
/// The loaded tree is structurally checked against the persisted
/// signed root; RSA verification against the owner key is the
/// caller's job (the key lives in the network snapshot, not here).
pub struct LoadedPoiSet {
    /// The owner-signed POI root.
    pub signed: SignedRoot,
    /// The POI B-tree (paged on the `File` backend).
    pub tree: MerkleBTree,
    /// The open store and its counters (see [`LoadedSnapshot::store`]).
    pub store: NodeStore,
}

/// Loads a POI set written by [`save_poi_set`].
pub fn load_poi_set(dir: &Path, backend: StoreBackend) -> Result<LoadedPoiSet, SnapshotError> {
    let store = NodeStore::open(&dir.join(POI_FILE), backend)?;
    let signed = SignedRoot::from_bytes(&store.blob(SEC_POI_SIGNED)?)?;
    if signed.meta.tag != AdsTag::Poi {
        return Err(SnapshotError::Corrupt("POI root carries a foreign tag"));
    }
    let len = signed.meta.leaf_count as usize;
    let fanout = signed.meta.fanout as usize;
    if len == 0 || fanout < 2 {
        return Err(SnapshotError::Corrupt("bad POI tree geometry"));
    }
    let tree = load_btree(
        &store,
        len,
        fanout,
        SEC_POI_ENTRIES,
        SEC_POI_KEYS,
        SEC_POI_TREE,
    )?;
    if tree.root() != signed.root {
        return Err(SnapshotError::Corrupt(
            "POI root does not match loaded tree",
        ));
    }
    Ok(LoadedPoiSet {
        signed,
        tree,
        store,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_height_matches_level_chain() {
        assert_eq!(tree_height(1, 2), 1);
        assert_eq!(tree_height(2, 2), 2);
        assert_eq!(tree_height(300, 4), 6); // 300,75,19,5,2,1
        assert_eq!(tree_height(81, 3), 5); // 81,27,9,3,1
    }

    #[test]
    fn digest_bytes_round_trip() {
        let ds: Vec<Digest> = (0u8..5).map(|i| Digest([i; DIGEST_LEN])).collect();
        let bytes = spnet_crypto::blocks::Blocks::from(&ds[..])
            .to_bytes()
            .unwrap();
        assert_eq!(digests_from_bytes(&bytes).unwrap(), ds);
        assert!(digests_from_bytes(&bytes[..DIGEST_LEN + 1]).is_err());
    }
}
