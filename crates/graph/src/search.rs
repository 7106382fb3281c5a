//! Reusable, allocation-free Dijkstra machinery.
//!
//! Every search in the seed implementation allocated three `O(|V|)`
//! vectors plus a binary heap *per query*. At provider scale ("heavy
//! traffic from millions of users") that allocation traffic dominates
//! short queries. [`SearchWorkspace`] fixes it:
//!
//! * **Generation stamping** — `dist`/`parent`/`settled`/heap-position
//!   entries are valid only when their stamp equals the current
//!   generation, so starting a new query is O(1): bump the generation,
//!   nothing is cleared.
//! * **4-ary indexed heap** — children of slot `i` are `4i+1..4i+4`;
//!   the shallower tree does fewer cache-missing compares than a binary
//!   heap on road-network workloads, and the node→slot index enables
//!   decrease-key, so the heap holds at most one entry per node
//!   (the seed's lazy-deletion heap grows with relaxations, not nodes).
//!
//! Tie-breaking is byte-compatible with the seed implementation (pop
//! order is lexicographic on `(distance, node id)`), so distances,
//! parents and settle order are bit-identical — property-tested in
//! `tests/perf_equivalence.rs` against [`reference`]
//! (`crate::algo::dijkstra::reference`).
//!
//! Repeated searches on the same workspace perform **zero heap
//! allocations** once the arrays have grown to the graph size.
//!
//! # Frontier selection
//!
//! Two interchangeable frontier implementations back every search:
//!
//! * **Calibrated bucket (radix) queue** — Dijkstra keys are monotone,
//!   so the frontier can be an array of buckets of width Δ calibrated
//!   from the graph's pre-scanned edge-weight range (Δ = the minimum
//!   weight when the range fits, else a wider Δ capped at 65,536
//!   buckets, with an overflow bucket that re-bases the window when
//!   reached). No per-pop sifting, no node→slot index maintenance —
//!   at million-node scale this removes the random `heap_pos` writes
//!   that dominate the 4-ary heap's cost.
//! * **4-ary indexed heap** — kept as the fallback for degenerate
//!   weight ranges (no edges, zero or non-finite minimum weight) where
//!   a width cannot be calibrated.
//!
//! The kind is selected per graph ([`Graph::frontier_kind`]) and both
//! produce **bit-identical** distances, parents and settle order: the
//! bucket being drained is sorted lexicographically on `(key, node)`,
//! stale entries are skipped lazily (an entry is live iff its key
//! bit-equals the node's current tentative distance and the node is
//! unsettled), and the monotone bucket index guarantees the drained
//! bucket always holds the global minimum. Property-tested in
//! `tests/perf_equivalence.rs`.

use crate::algo::dijkstra::SsspResult;
use crate::error::GraphError;
use crate::graph::Graph;
use crate::ids::NodeId;
use crate::path::Path;
use std::cell::RefCell;

const NO_NODE: u32 = u32::MAX;
const NOT_IN_HEAP: u32 = u32::MAX;

/// Fewest fine buckets a bucket-queue search uses.
const MIN_BUCKETS: usize = 64;
/// Most fine buckets a bucket-queue search uses (~1.5 MiB of bucket
/// headers per workspace; wider weight ranges widen Δ instead).
const MAX_BUCKETS: usize = 65_536;

/// Frontier implementation backing a search (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontierKind {
    /// Comparison-based 4-ary indexed heap with decrease-key.
    Heap,
    /// Calibrated monotone bucket (radix) queue with lazy deletion.
    Bucket,
}

/// Per-graph frontier calibration, derived from the edge-weight range
/// pre-scanned at graph build time.
///
/// Correctness does not depend on Δ — any positive width preserves
/// bit-identity (the drained bucket is sorted) — so the calibration
/// only tunes how many keys share a bucket.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Calibration {
    pub(crate) kind: FrontierKind,
    /// Bucket width Δ (positive and finite in bucket mode).
    pub(crate) delta: f64,
    /// Number of fine buckets before the overflow bucket.
    pub(crate) buckets: usize,
}

impl Calibration {
    pub(crate) const HEAP: Calibration = Calibration {
        kind: FrontierKind::Heap,
        delta: 1.0,
        buckets: 0,
    };

    /// How many maximum-weight edge hops one window of fine buckets
    /// spans. Larger → fewer overflow re-bases (each re-base re-sows
    /// the whole frontier); smaller → finer buckets. Relaxations from
    /// the current minimum reach at most one `max_w` ahead, so ≥ 1
    /// keeps the overflow bucket off the hot path; 16 amortizes
    /// re-bases to a rounding error while still leaving buckets ~10³×
    /// finer than the frontier span.
    const WINDOW_FACTOR: f64 = 16.0;

    /// Calibration for a graph with the given pre-scanned weight
    /// range: the bucket queue when every weight is strictly positive
    /// and finite, the heap fallback otherwise (with zero-weight edges
    /// a bucket can hold unboundedly many mutually-improving entries,
    /// and with no edges there is nothing to calibrate from).
    // `!(min_w > 0.0)` must also catch NaN weights, which `min_w <= 0.0`
    // would let through to the bucket path.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub(crate) fn from_weights(
        min_w: f64,
        max_w: f64,
        num_edges: usize,
        num_nodes: usize,
    ) -> Calibration {
        if num_edges == 0 || !(min_w > 0.0) || !max_w.is_finite() {
            return Calibration::HEAP;
        }
        Calibration::bucket_for(max_w, num_nodes)
    }

    /// A bucket calibration whose fine window spans
    /// [`WINDOW_FACTOR`](Self::WINDOW_FACTOR) maximum edge weights.
    ///
    /// The bucket count scales with the graph (≈ 4 buckets per node,
    /// clamped to `[64, 65536]`) so the frontier — which on spatial
    /// graphs is far smaller than |V| — lands ~1 entry per occupied
    /// bucket and the per-bucket tie-break sort degenerates to a
    /// length check. Exactness never depends on Δ; only the
    /// sort/re-base balance does.
    pub(crate) fn bucket_for(max_w: f64, num_nodes: usize) -> Calibration {
        debug_assert!(max_w > 0.0 && max_w.is_finite());
        let buckets = num_nodes
            .saturating_mul(4)
            .next_power_of_two()
            .clamp(MIN_BUCKETS, MAX_BUCKETS);
        let delta = Self::WINDOW_FACTOR * max_w / (buckets - 2) as f64;
        Calibration {
            kind: FrontierKind::Bucket,
            delta,
            buckets,
        }
    }

    /// Calibration forcing `kind` on `g` — the bench/test hook behind
    /// [`SearchWorkspace::sssp_with_frontier`]. Forcing the bucket
    /// queue onto a degenerate weight range substitutes a safe width
    /// (results stay bit-identical; only speed suffers).
    pub(crate) fn forced(g: &Graph, kind: FrontierKind) -> Calibration {
        match kind {
            FrontierKind::Heap => Calibration::HEAP,
            FrontierKind::Bucket => {
                let max_w = match g.weight_range() {
                    Some((_, max_w)) if max_w > 0.0 => max_w,
                    _ => 1.0,
                };
                Calibration::bucket_for(max_w, g.num_nodes())
            }
        }
    }
}

/// One 4-ary heap slot: the key is stored inline so sift comparisons
/// stay cache-local (indirect `dist[]` reads per comparison cost more
/// than the duplicated 8 bytes).
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    key: f64,
    node: u32,
}

impl HeapEntry {
    /// Seed-compatible ordering: lexicographic on `(key, node id)`.
    #[inline]
    fn less(self, other: HeapEntry) -> bool {
        self.key < other.key || (self.key == other.key && self.node < other.node)
    }
}

/// Stamp mask of [`NodeState::meta`]; also the maximum generation.
const STAMP_MASK: u32 = 0x7FFF_FFFF;
/// Settled flag of [`NodeState::meta`].
const SETTLED_BIT: u32 = 0x8000_0000;

/// Per-node search state, kept in one 16-byte array-of-structs slot so
/// touching a node during relaxation costs a single cache-line access
/// (stamp, settled bit, distance and parent travel together; at
/// million-node scale the node array is the search's main random
/// memory traffic, so the packing is worth the bit twiddling).
#[derive(Debug, Clone, Copy)]
struct NodeState {
    dist: f64,
    /// Parent node id, `NO_NODE` for none.
    parent: u32,
    /// Settled flag (high bit) | generation stamp (low 31 bits); the
    /// entry is valid iff the stamp equals the workspace generation.
    meta: u32,
}

impl NodeState {
    const FRESH: NodeState = NodeState {
        dist: f64::INFINITY,
        parent: NO_NODE,
        meta: 0,
    };

    #[inline]
    fn stamp(self) -> u32 {
        self.meta & STAMP_MASK
    }

    #[inline]
    fn settled(self) -> bool {
        self.meta & SETTLED_BIT != 0
    }
}

const _: () = assert!(std::mem::size_of::<NodeState>() == 16);

/// Arena slot of the bucket queue's per-bucket chains: an entry plus
/// the arena index of the next entry in the same bucket (`NIL_LINK`
/// terminates). Entries live in one append-only arena, so pushes are
/// sequential writes; only the bucket-head update is a random access.
#[derive(Debug, Clone, Copy)]
struct ChainedEntry {
    key: f64,
    node: u32,
    next: u32,
}

const NIL_LINK: u32 = u32::MAX;

const _: () = assert!(std::mem::size_of::<ChainedEntry>() == 16);

/// Best-effort cache-line prefetch; no-op on non-x86_64 targets.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        std::arch::x86_64::_mm_prefetch(p as *const i8, std::arch::x86_64::_MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// Inline entry slots per fine bucket; the calibration targets ~1
/// entry per occupied bucket, so four absorb nearly all skew before
/// spilling to a chain.
const BUCKET_INLINE: usize = 4;
/// High bit of a bucket count: the bucket also has a spill chain.
const SPILL_FLAG: u8 = 0x80;
const SPILL_FLAG_INV: u8 = 0x7F;

/// Reusable state for Dijkstra-family searches.
///
/// Create once (per thread) and reuse across queries; see the module
/// docs for the invariants that make reuse O(1).
#[derive(Debug, Clone)]
pub struct SearchWorkspace {
    generation: u32,
    /// Per-node stamped state (see [`NodeState`]).
    nodes: Vec<NodeState>,
    /// 4-ary min-heap with inline keys (ties: smaller node id).
    heap: Vec<HeapEntry>,
    /// Node id → heap slot (`NOT_IN_HEAP` when absent; valid only for
    /// nodes stamped with the current generation).
    heap_pos: Vec<u32>,
    /// Frontier implementation of the search in progress.
    kind: FrontierKind,
    /// Bucket width Δ of the search in progress.
    delta: f64,
    /// Key at the lower edge of fine bucket 0 (NaN until first push).
    base: f64,
    /// Number of fine buckets the current search uses.
    num_buckets: usize,
    /// Lowest fine bucket that may still hold entries.
    cur: usize,
    /// Per-bucket entry count (low bits) | spill flag (high bit).
    counts: Vec<u8>,
    /// Flat inline storage: `BUCKET_INLINE` entry slots per bucket.
    /// The window of active buckets is a small sliding region of this
    /// array, so pushes and refills stay cache-resident — the reason
    /// this layout beats per-bucket vectors or pure chains.
    slots: Vec<HeapEntry>,
    /// Per-bucket spill chain heads (arena indices), valid only when
    /// the bucket's spill flag is set.
    spill_heads: Vec<u32>,
    /// Occupancy bitmap over buckets, so `begin` clears only occupied
    /// buckets and refills skip empty words.
    occupied: Vec<u64>,
    /// Append-only arena backing the spill and overflow chains;
    /// truncated (capacity kept) at `begin`.
    arena: Vec<ChainedEntry>,
    /// Chain head of entries beyond the fine-bucket window;
    /// redistributed (with a re-based window) once the fine buckets
    /// drain.
    overflow_head: u32,
    /// Remaining entries of the bucket being drained, kept sorted
    /// descending on `(key, node)` so popping the back yields the
    /// lexicographic minimum.
    drain: Vec<HeapEntry>,
    /// Whether `drain` is currently sorted (an insert into the bucket
    /// being drained appends and defers the re-sort to the next pop).
    drain_sorted: bool,
}

impl Default for SearchWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl SearchWorkspace {
    /// An empty workspace; arrays grow lazily to the graph size.
    pub fn new() -> Self {
        SearchWorkspace {
            generation: 0,
            nodes: Vec::new(),
            heap: Vec::new(),
            heap_pos: Vec::new(),
            kind: FrontierKind::Heap,
            delta: 1.0,
            base: f64::NAN,
            num_buckets: 0,
            cur: 0,
            counts: Vec::new(),
            slots: Vec::new(),
            spill_heads: Vec::new(),
            occupied: Vec::new(),
            arena: Vec::new(),
            overflow_head: NIL_LINK,
            drain: Vec::new(),
            drain_sorted: true,
        }
    }

    /// A workspace pre-sized for graphs with `n` nodes.
    pub fn with_capacity(n: usize) -> Self {
        let mut ws = Self::new();
        ws.grow(n);
        ws
    }

    fn grow(&mut self, n: usize) {
        if self.nodes.len() < n {
            self.nodes.resize(n, NodeState::FRESH);
            self.heap_pos.resize(n, NOT_IN_HEAP);
        }
    }

    /// Starts a new query: O(1) in heap mode, O(occupied buckets) in
    /// bucket mode (plus the generation-wrap reset).
    fn begin(&mut self, n: usize, cal: Calibration) {
        self.grow(n);
        self.heap.clear();
        self.kind = cal.kind;
        if cal.kind == FrontierKind::Bucket {
            self.delta = cal.delta;
            self.base = f64::NAN;
            self.num_buckets = cal.buckets;
            self.cur = 0;
            if self.counts.len() < cal.buckets {
                self.counts.resize(cal.buckets, 0);
                self.slots
                    .resize(cal.buckets * BUCKET_INLINE, HeapEntry { key: 0.0, node: 0 });
                self.spill_heads.resize(cal.buckets, NIL_LINK);
                self.occupied.resize(self.counts.len().div_ceil(64), 0);
            }
            // Clear residue from an early-terminated previous search;
            // only occupied buckets' counts are touched (bitmap
            // word-skip), entries die with the arena truncation.
            for w in 0..self.occupied.len() {
                let mut word = self.occupied[w];
                while word != 0 {
                    let b = w * 64 + word.trailing_zeros() as usize;
                    self.counts[b] = 0;
                    word &= word - 1;
                }
                self.occupied[w] = 0;
            }
            self.arena.clear();
            self.overflow_head = NIL_LINK;
        }
        // Every search reads `drain` (the lookahead in `run_with`), so
        // residue from an early-terminated bucket search must go even
        // when this search runs on the heap.
        self.drain.clear();
        self.drain_sorted = true;
        if self.generation == STAMP_MASK {
            // Once every 2³¹ queries: hard reset so stamp 0 is unused.
            self.nodes.iter_mut().for_each(|s| s.meta = 0);
            self.generation = 0;
        }
        self.generation += 1;
    }

    /// Makes node `v`'s entries valid for the current query.
    #[inline]
    fn touch(&mut self, v: usize) {
        if self.nodes[v].stamp() != self.generation {
            self.nodes[v] = NodeState {
                meta: self.generation,
                ..NodeState::FRESH
            };
            // Only the heap reads `heap_pos`; in bucket mode skipping
            // this write avoids a second random-access array in the
            // per-arc hot path (a heap search touching the node later
            // re-stamps and resets it then).
            if self.kind == FrontierKind::Heap {
                self.heap_pos[v] = NOT_IN_HEAP;
            }
        }
    }

    // --- 4-ary indexed heap ------------------------------------------------

    /// Moves `entry` up from slot `i` (hole-based: positions written
    /// once per displaced element, the entry settled at the end).
    fn sift_up(&mut self, mut i: usize, entry: HeapEntry) {
        while i > 0 {
            let p = (i - 1) / 4;
            let parent = self.heap[p];
            if entry.less(parent) {
                self.heap[i] = parent;
                self.heap_pos[parent.node as usize] = i as u32;
                i = p;
            } else {
                break;
            }
        }
        self.heap[i] = entry;
        self.heap_pos[entry.node as usize] = i as u32;
    }

    /// Moves `entry` down from slot `i`.
    fn sift_down(&mut self, mut i: usize, entry: HeapEntry) {
        loop {
            let first = 4 * i + 1;
            if first >= self.heap.len() {
                break;
            }
            let last = (first + 4).min(self.heap.len());
            let mut best = first;
            let mut best_entry = self.heap[first];
            for c in first + 1..last {
                let e = self.heap[c];
                if e.less(best_entry) {
                    best = c;
                    best_entry = e;
                }
            }
            if best_entry.less(entry) {
                self.heap[i] = best_entry;
                self.heap_pos[best_entry.node as usize] = i as u32;
                i = best;
            } else {
                break;
            }
        }
        self.heap[i] = entry;
        self.heap_pos[entry.node as usize] = i as u32;
    }

    /// Inserts `v` with `key`, or decreases its existing key.
    #[inline]
    fn heap_push_or_decrease(&mut self, v: u32, key: f64) {
        let entry = HeapEntry { key, node: v };
        let pos = self.heap_pos[v as usize];
        if pos == NOT_IN_HEAP {
            self.heap.push(entry);
            self.sift_up(self.heap.len() - 1, entry);
        } else {
            // Key only ever decreases during relaxation.
            self.sift_up(pos as usize, entry);
        }
    }

    fn heap_pop(&mut self) -> Option<HeapEntry> {
        let top = *self.heap.first()?;
        self.heap_pos[top.node as usize] = NOT_IN_HEAP;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.sift_down(0, last);
        }
        Some(top)
    }

    // --- calibrated bucket queue -------------------------------------------
    //
    // Lazy deletion instead of decrease-key: every improvement pushes
    // a fresh entry, and an entry is live iff its key bit-equals the
    // node's current tentative distance and the node is unsettled
    // (tentative distances strictly decrease, so exactly the newest
    // entry matches). Keys are monotone (≥ the last popped key), so
    // the bucket index never falls below the drain cursor and the
    // lowest occupied bucket always contains the global minimum.

    /// Queues `(v, key)` into its fine bucket's chain, the bucket
    /// currently being drained, or the overflow chain.
    #[inline]
    fn bucket_push(&mut self, v: u32, key: f64) {
        if self.base.is_nan() {
            // First push of the search anchors the window.
            self.base = key;
        }
        debug_assert!(key >= self.base, "monotone keys never precede the window");
        let idx = ((key - self.base) / self.delta) as usize; // floor: key ≥ base
        if idx >= self.num_buckets {
            let slot = self.arena.len() as u32;
            self.arena.push(ChainedEntry {
                key,
                node: v,
                next: self.overflow_head,
            });
            self.overflow_head = slot;
        } else if idx <= self.cur && !self.drain.is_empty() {
            // Lands in the bucket being drained: append and re-sort
            // lazily on the next pop.
            self.drain.push(HeapEntry { key, node: v });
            self.drain_sorted = false;
        } else {
            // SAFETY: the branch above establishes idx < num_buckets;
            // `begin` sizes counts/slots/occupied from num_buckets.
            debug_assert!(idx < self.counts.len());
            let c = unsafe { *self.counts.get_unchecked(idx) };
            let inline = (c & SPILL_FLAG_INV) as usize;
            if inline < BUCKET_INLINE {
                unsafe {
                    *self.slots.get_unchecked_mut(idx * BUCKET_INLINE + inline) =
                        HeapEntry { key, node: v };
                    *self.counts.get_unchecked_mut(idx) = c + 1;
                }
            } else {
                // Inline slots full: chain the entry in the arena.
                let prev = if c & SPILL_FLAG != 0 {
                    self.spill_heads[idx]
                } else {
                    NIL_LINK
                };
                let slot = self.arena.len() as u32;
                self.arena.push(ChainedEntry {
                    key,
                    node: v,
                    next: prev,
                });
                self.spill_heads[idx] = slot;
                self.counts[idx] = c | SPILL_FLAG;
            }
            unsafe { *self.occupied.get_unchecked_mut(idx / 64) |= 1 << (idx % 64) };
        }
    }

    /// Whether a queued entry still reflects `node`'s current state.
    #[inline]
    fn entry_live(&self, e: HeapEntry) -> bool {
        let s = self.nodes[e.node as usize];
        !s.settled() && s.dist.to_bits() == e.key.to_bits()
    }

    /// Ensures `drain` holds the contents of the lowest non-empty fine
    /// bucket, re-basing the window from the overflow chain when the
    /// fine window is exhausted. Returns false when the queue is empty.
    fn bucket_refill(&mut self) -> bool {
        loop {
            if !self.drain.is_empty() {
                return true;
            }
            let mut found = None;
            for w in self.cur / 64..self.occupied.len() {
                let word = self.occupied[w];
                if word != 0 {
                    found = Some(w * 64 + word.trailing_zeros() as usize);
                    break;
                }
            }
            if let Some(b) = found {
                self.cur = b;
                self.occupied[b / 64] &= !(1u64 << (b % 64));
                let c = std::mem::take(&mut self.counts[b]);
                if c == 1 {
                    // Singleton bucket — the dominant case at ~1 entry
                    // per occupied bucket: the drain (empty here) stays
                    // trivially sorted, skipping the sort entirely.
                    self.drain.push(self.slots[b * BUCKET_INLINE]);
                    self.drain_sorted = true;
                    return true;
                }
                let inline = (c & SPILL_FLAG_INV) as usize;
                self.drain
                    .extend_from_slice(&self.slots[b * BUCKET_INLINE..][..inline]);
                if c & SPILL_FLAG != 0 {
                    let mut link = std::mem::replace(&mut self.spill_heads[b], NIL_LINK);
                    while link != NIL_LINK {
                        let e = self.arena[link as usize];
                        self.drain.push(HeapEntry {
                            key: e.key,
                            node: e.node,
                        });
                        link = e.next;
                    }
                }
                self.drain_sorted = false;
            } else if self.overflow_head == NIL_LINK {
                return false;
            } else {
                // Re-base the window at the overflow minimum and
                // redistribute; the minimum maps to bucket 0, so every
                // redistribution makes progress even if most entries
                // land back in overflow.
                let mut min_key = f64::INFINITY;
                let mut link = self.overflow_head;
                while link != NIL_LINK {
                    let e = self.arena[link as usize];
                    min_key = min_key.min(e.key);
                    link = e.next;
                }
                self.base = min_key;
                self.cur = 0;
                let mut link = std::mem::replace(&mut self.overflow_head, NIL_LINK);
                while link != NIL_LINK {
                    let e = self.arena[link as usize];
                    self.bucket_push(e.node, e.key);
                    link = e.next;
                }
            }
        }
    }

    /// Sorts the drain stack descending on `(key, node)` so popping
    /// the back yields the seed-compatible lexicographic minimum.
    /// Keys are never NaN, so `total_cmp` agrees with numeric order.
    fn sort_drain(&mut self) {
        if let [a, b] = self.drain[..] {
            // Two entries: one compare-swap instead of a sort call.
            if (a.key, a.node) < (b.key, b.node) {
                self.drain.swap(0, 1);
            }
            self.drain_sorted = true;
            return;
        }
        self.drain
            .sort_unstable_by(|a, b| b.key.total_cmp(&a.key).then(b.node.cmp(&a.node)));
        // The next pops are now known: warm their node-state lines so
        // the liveness checks and settle writes don't stall. This
        // lookahead is structural to the bucket queue; a comparison
        // heap only learns its next minimum after the previous pop.
        for e in self.drain.iter().rev().take(8) {
            prefetch(&self.nodes[e.node as usize]);
        }
        self.drain_sorted = true;
    }

    fn bucket_pop(&mut self) -> Option<HeapEntry> {
        loop {
            if !self.bucket_refill() {
                return None;
            }
            if !self.drain_sorted {
                self.sort_drain();
            }
            let e = self.drain.pop().expect("refilled");
            if self.entry_live(e) {
                return Some(e);
            }
        }
    }

    // --- frontier dispatch -------------------------------------------------

    /// Queues `v` at `key` (or improves it) in the active frontier.
    #[inline]
    fn frontier_push(&mut self, v: u32, key: f64) {
        match self.kind {
            FrontierKind::Heap => self.heap_push_or_decrease(v, key),
            FrontierKind::Bucket => self.bucket_push(v, key),
        }
    }

    /// Pops the lexicographically smallest live `(key, node)` entry.
    #[inline]
    fn frontier_pop(&mut self) -> Option<HeapEntry> {
        match self.kind {
            FrontierKind::Heap => self.heap_pop(),
            FrontierKind::Bucket => self.bucket_pop(),
        }
    }

    // --- searches ----------------------------------------------------------

    fn run(&mut self, g: &Graph, source: NodeId, stop_at: Option<u32>, radius: f64) {
        self.run_with(g, source, stop_at, radius, g.calibration());
    }

    fn run_with(
        &mut self,
        g: &Graph,
        source: NodeId,
        stop_at: Option<u32>,
        radius: f64,
        cal: Calibration,
    ) {
        self.begin(g.num_nodes(), cal);
        let s = source.index();
        self.touch(s);
        self.nodes[s].dist = 0.0;
        self.frontier_push(source.0, 0.0);
        while let Some(HeapEntry { key: d, node: v }) = self.frontier_pop() {
            let vi = v as usize;
            if d > radius {
                // Every remaining key is ≥ d: nothing else is in the ball.
                break;
            }
            self.nodes[vi].meta |= SETTLED_BIT;
            if stop_at == Some(v) {
                break;
            }
            // The sorted drain already names the next few settles:
            // warm their node states and CSR rows while this node
            // relaxes, overlapping the pop chain's memory stalls. The
            // immediate successor's offsets were prefetched one
            // iteration ago, so reading them now is cheap and lets its
            // adjacency rows start loading too (a one-deep software
            // pipeline only the bucket frontier's lookahead allows).
            let lookahead = self.drain.len().saturating_sub(3);
            for e in &self.drain[lookahead..] {
                prefetch(&self.nodes[e.node as usize]);
                prefetch(&g.topo.offsets[e.node as usize]);
            }
            if let Some(e) = self.drain.last() {
                let nlo = g.topo.offsets[e.node as usize] as usize;
                prefetch(&g.topo.adj_targets[nlo]);
                prefetch(&g.adj_weights[nlo]);
            }
            let lo = g.topo.offsets[vi] as usize;
            let hi = g.topo.offsets[vi + 1] as usize;
            let targets = &g.topo.adj_targets[lo..hi];
            let weights = &g.adj_weights[lo..hi];
            // Issue the neighbors' node-state loads up front; the relax
            // pass below then hits warm lines instead of serializing one
            // random access per arc.
            for &t in targets {
                prefetch(&self.nodes[t as usize]);
            }
            for (&t, &w) in targets.iter().zip(weights) {
                let u = t as usize;
                self.touch(u);
                let state = self.nodes[u];
                if state.settled() {
                    continue;
                }
                let nd = d + w;
                if nd < state.dist {
                    self.nodes[u].dist = nd;
                    self.nodes[u].parent = v;
                    self.frontier_push(u as u32, nd);
                }
            }
        }
    }

    /// Runs `sources.len()` independent SSSPs over `g` in **one**
    /// frontier sweep and returns one full distance row per source,
    /// each bit-identical to `self.sssp(g, sources[i]).dist_vec()`.
    ///
    /// The sweep searches the product space `source-index * n + node`
    /// (sources never interact — the global `(key, product-id)` pop
    /// order projects to each source's own `(key, node)` order), so a
    /// batch of in-cell verifications costs one calibrated pass over
    /// the cell instead of one Dijkstra per endpoint.
    ///
    /// Panics if `sources.len() * n` overflows the `u32` id space —
    /// callers with unbounded fan-in should chunk their sources.
    pub fn multi_sssp_rows(&mut self, g: &Graph, sources: &[NodeId]) -> Vec<Vec<f64>> {
        let n = g.num_nodes();
        if sources.is_empty() {
            return Vec::new();
        }
        let states = sources
            .len()
            .checked_mul(n)
            .expect("multi-source product space overflow");
        assert!(
            states < u32::MAX as usize,
            "multi-source product space exceeds u32 ids ({} sources x {} nodes)",
            sources.len(),
            n
        );
        self.begin(states, g.calibration());
        for (si, &s) in sources.iter().enumerate() {
            let pid = si * n + s.index();
            self.touch(pid);
            self.nodes[pid].dist = 0.0;
            self.frontier_push(pid as u32, 0.0);
        }
        while let Some(HeapEntry { key: d, node: pv }) = self.frontier_pop() {
            let pvi = pv as usize;
            self.nodes[pvi].meta |= SETTLED_BIT;
            let v = pvi % n;
            let block = pvi - v;
            let lo = g.topo.offsets[v] as usize;
            let hi = g.topo.offsets[v + 1] as usize;
            let targets = &g.topo.adj_targets[lo..hi];
            let weights = &g.adj_weights[lo..hi];
            for &t in targets {
                prefetch(&self.nodes[block + t as usize]);
            }
            for (&t, &w) in targets.iter().zip(weights) {
                let pu = block + t as usize;
                self.touch(pu);
                let state = self.nodes[pu];
                if state.settled() {
                    continue;
                }
                let nd = d + w;
                if nd < state.dist {
                    self.nodes[pu].dist = nd;
                    self.nodes[pu].parent = pv;
                    self.frontier_push(pu as u32, nd);
                }
            }
        }
        (0..sources.len())
            .map(|si| {
                (0..n)
                    .map(|v| {
                        let s = self.nodes[si * n + v];
                        if s.stamp() == self.generation {
                            s.dist
                        } else {
                            f64::INFINITY
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Full single-source Dijkstra; the view borrows this workspace.
    pub fn sssp<'a>(&'a mut self, g: &Graph, source: NodeId) -> SearchView<'a> {
        self.run(g, source, None, f64::INFINITY);
        SearchView {
            ws: self,
            source,
            bounded: false,
            n: g.num_nodes(),
        }
    }

    /// Full SSSP forcing a specific frontier implementation instead of
    /// the graph's calibrated choice — the bench/test hook behind the
    /// bucket-vs-heap equivalence and speedup measurements. Results
    /// are bit-identical across kinds.
    pub fn sssp_with_frontier<'a>(
        &'a mut self,
        g: &Graph,
        source: NodeId,
        kind: FrontierKind,
    ) -> SearchView<'a> {
        self.run_with(g, source, None, f64::INFINITY, Calibration::forced(g, kind));
        SearchView {
            ws: self,
            source,
            bounded: false,
            n: g.num_nodes(),
        }
    }

    /// Bounded ball forcing a specific frontier implementation; see
    /// [`Self::sssp_with_frontier`].
    pub fn ball_with_frontier<'a>(
        &'a mut self,
        g: &Graph,
        source: NodeId,
        radius: f64,
        kind: FrontierKind,
    ) -> SearchView<'a> {
        self.run_with(g, source, None, radius, Calibration::forced(g, kind));
        SearchView {
            ws: self,
            source,
            bounded: true,
            n: g.num_nodes(),
        }
    }

    /// Bounded-ball Dijkstra: the view reports finite distances exactly
    /// for nodes with `dist(source, v) ≤ radius` (Lemma 1's subgraph).
    pub fn ball<'a>(&'a mut self, g: &Graph, source: NodeId, radius: f64) -> SearchView<'a> {
        self.run(g, source, None, radius);
        SearchView {
            ws: self,
            source,
            bounded: true,
            n: g.num_nodes(),
        }
    }

    /// Point-to-point Dijkstra with early termination at `target`.
    pub fn path(&mut self, g: &Graph, source: NodeId, target: NodeId) -> Result<Path, GraphError> {
        g.check_node(source)?;
        g.check_node(target)?;
        if source == target {
            return Ok(Path::trivial(source));
        }
        self.run(g, source, Some(target.0), f64::INFINITY);
        let view = SearchView {
            ws: self,
            source,
            bounded: false,
            n: g.num_nodes(),
        };
        view.path_to(target)
            .ok_or(GraphError::Unreachable { source, target })
    }

    /// Point-to-point distance only (no path materialization, no
    /// allocation at all).
    pub fn distance(
        &mut self,
        g: &Graph,
        source: NodeId,
        target: NodeId,
    ) -> Result<f64, GraphError> {
        g.check_node(source)?;
        g.check_node(target)?;
        if source == target {
            return Ok(0.0);
        }
        self.run(g, source, Some(target.0), f64::INFINITY);
        let t = target.index();
        if self.nodes[t].stamp() == self.generation && self.nodes[t].settled() {
            Ok(self.nodes[t].dist)
        } else {
            Err(GraphError::Unreachable { source, target })
        }
    }
}

/// Read-only results of the latest search, borrowing the workspace.
pub struct SearchView<'a> {
    ws: &'a SearchWorkspace,
    source: NodeId,
    bounded: bool,
    n: usize,
}

impl SearchView<'_> {
    /// The query's source node.
    pub fn source(&self) -> NodeId {
        self.source
    }

    /// Number of nodes in the searched graph.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    #[inline]
    fn stamped(&self, v: usize) -> bool {
        self.ws.nodes[v].stamp() == self.ws.generation
    }

    /// Whether `v` was settled (popped with a final distance).
    #[inline]
    pub fn settled(&self, v: NodeId) -> bool {
        let i = v.index();
        i < self.n && self.stamped(i) && self.ws.nodes[i].settled()
    }

    /// Distance to `v`; `INFINITY` when unreached (or outside the ball
    /// for bounded searches — matching the seed's ball semantics).
    #[inline]
    pub fn dist(&self, v: NodeId) -> f64 {
        let i = v.index();
        if i >= self.n || !self.stamped(i) || (self.bounded && !self.ws.nodes[i].settled()) {
            f64::INFINITY
        } else {
            self.ws.nodes[i].dist
        }
    }

    /// Parent of `v` in the shortest-path tree.
    #[inline]
    pub fn parent(&self, v: NodeId) -> Option<NodeId> {
        let i = v.index();
        if i >= self.n || !self.stamped(i) || (self.bounded && !self.ws.nodes[i].settled()) {
            return None;
        }
        match self.ws.nodes[i].parent {
            NO_NODE => None,
            p => Some(NodeId(p)),
        }
    }

    /// Reconstructs the shortest path to `target`, if reached.
    pub fn path_to(&self, target: NodeId) -> Option<Path> {
        if self.dist(target).is_infinite() {
            return None;
        }
        let mut nodes = vec![target];
        let mut cur = target;
        while let Some(p) = self.parent(cur) {
            nodes.push(p);
            cur = p;
        }
        nodes.reverse();
        debug_assert_eq!(nodes[0], self.source);
        Some(Path {
            nodes,
            distance: self.dist(target),
        })
    }

    /// Materializes the per-node distance vector (allocates).
    pub fn dist_vec(&self) -> Vec<f64> {
        (0..self.n as u32).map(|v| self.dist(NodeId(v))).collect()
    }

    /// Materializes a [`SsspResult`] for API compatibility (allocates).
    pub fn to_sssp_result(&self) -> SsspResult {
        SsspResult {
            source: self.source,
            dist: self.dist_vec(),
            parent: (0..self.n as u32).map(|v| self.parent(NodeId(v))).collect(),
        }
    }

    /// Iterates the settled nodes in ascending id order.
    pub fn settled_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.n as u32)
            .map(NodeId)
            .filter(move |&v| self.settled(v))
    }
}

thread_local! {
    static THREAD_WS: RefCell<SearchWorkspace> = RefCell::new(SearchWorkspace::new());
}

/// Runs `f` with this thread's shared [`SearchWorkspace`].
///
/// The classic `dijkstra_*` free functions route through here, so
/// repeated calls on one thread reuse a single workspace. Re-entrant
/// use (an `f` that itself searches) falls back to a fresh scratch
/// workspace instead of panicking.
pub fn with_thread_workspace<R>(f: impl FnOnce(&mut SearchWorkspace) -> R) -> R {
    THREAD_WS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => f(&mut ws),
        Err(_) => f(&mut SearchWorkspace::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo::dijkstra::reference;
    use crate::builder::GraphBuilder;
    use crate::gen::{grid_network, random_geometric};

    fn assert_matches_reference(g: &Graph, ws: &mut SearchWorkspace, source: NodeId) {
        let want = reference::sssp(g, source);
        let got = ws.sssp(g, source);
        for v in g.nodes() {
            assert_eq!(
                got.dist(v).to_bits(),
                want.dist[v.index()].to_bits(),
                "dist({source}, {v})"
            );
            assert_eq!(got.parent(v), want.parent[v.index()], "parent({v})");
        }
    }

    #[test]
    fn sssp_bit_identical_to_reference_across_reuses() {
        let g = grid_network(12, 12, 1.2, 77);
        let mut ws = SearchWorkspace::new();
        for s in [0u32, 1, 64, 143, 7, 0] {
            assert_matches_reference(&g, &mut ws, NodeId(s));
        }
    }

    #[test]
    fn reuse_across_different_graphs() {
        let g1 = grid_network(10, 10, 1.2, 5);
        let g2 = random_geometric(60, 3, 6);
        let g3 = grid_network(4, 4, 1.1, 7);
        let mut ws = SearchWorkspace::new();
        for _ in 0..3 {
            assert_matches_reference(&g1, &mut ws, NodeId(0));
            assert_matches_reference(&g2, &mut ws, NodeId(59));
            assert_matches_reference(&g3, &mut ws, NodeId(15));
        }
    }

    #[test]
    fn ball_matches_reference_semantics() {
        let g = grid_network(9, 9, 1.2, 8);
        let mut ws = SearchWorkspace::new();
        for radius in [0.0, 500.0, 2000.0, 1e9] {
            let want = reference::ball(&g, NodeId(0), radius);
            let got = ws.ball(&g, NodeId(0), radius);
            for v in g.nodes() {
                assert_eq!(
                    got.dist(v).to_bits(),
                    want.dist[v.index()].to_bits(),
                    "radius {radius}, node {v}"
                );
            }
        }
    }

    #[test]
    fn path_matches_reference() {
        let g = grid_network(10, 10, 1.2, 9);
        let mut ws = SearchWorkspace::new();
        for (s, t) in [(0u32, 99u32), (5, 50), (99, 0), (42, 42)] {
            let want = reference::path(&g, NodeId(s), NodeId(t)).unwrap();
            let got = ws.path(&g, NodeId(s), NodeId(t)).unwrap();
            assert_eq!(got.nodes, want.nodes, "({s},{t})");
            assert_eq!(got.distance.to_bits(), want.distance.to_bits());
            let d = ws.distance(&g, NodeId(s), NodeId(t)).unwrap();
            assert_eq!(d.to_bits(), want.distance.to_bits());
        }
    }

    #[test]
    fn unreachable_and_bad_nodes() {
        let mut b = GraphBuilder::new();
        let u = b.add_node(0.0, 0.0);
        let v = b.add_node(1.0, 1.0);
        let g = b.build();
        let mut ws = SearchWorkspace::new();
        assert!(matches!(
            ws.path(&g, u, v),
            Err(GraphError::Unreachable { .. })
        ));
        assert!(ws.path(&g, u, NodeId(99)).is_err());
        assert!(ws.distance(&g, u, v).is_err());
    }

    #[test]
    fn view_helpers_consistent() {
        let g = grid_network(6, 6, 1.2, 10);
        let mut ws = SearchWorkspace::new();
        let view = ws.sssp(&g, NodeId(0));
        assert_eq!(view.source(), NodeId(0));
        assert_eq!(view.num_nodes(), 36);
        assert_eq!(view.settled_nodes().count(), 36, "grid is connected");
        let r = view.to_sssp_result();
        for v in g.nodes() {
            assert_eq!(r.dist[v.index()].to_bits(), view.dist(v).to_bits());
        }
        let p = view.path_to(NodeId(35)).unwrap();
        assert_eq!(p.source(), NodeId(0));
        assert_eq!(p.target(), NodeId(35));
    }

    #[test]
    fn frontier_kind_selection() {
        // Positive weight range → bucket queue.
        let g = grid_network(6, 6, 1.2, 3);
        assert_eq!(g.frontier_kind(), FrontierKind::Bucket);
        // Zero-weight edge → heap fallback.
        let mut b = GraphBuilder::new();
        let u = b.add_node(0.0, 0.0);
        let v = b.add_node(1.0, 0.0);
        let w = b.add_node(2.0, 0.0);
        b.add_edge(u, v, 0.0).unwrap();
        b.add_edge(v, w, 1.0).unwrap();
        let g0 = b.build();
        assert_eq!(g0.frontier_kind(), FrontierKind::Heap);
        // No edges at all → heap fallback.
        let mut b = GraphBuilder::new();
        b.add_node(0.0, 0.0);
        assert_eq!(b.build().frontier_kind(), FrontierKind::Heap);
    }

    #[test]
    fn forced_frontiers_bit_identical() {
        let g = grid_network(11, 13, 1.2, 21);
        let mut a = SearchWorkspace::new();
        let mut b = SearchWorkspace::new();
        for s in [0u32, 70, 142] {
            let want = reference::sssp(&g, NodeId(s));
            for (ws, kind) in [(&mut a, FrontierKind::Heap), (&mut b, FrontierKind::Bucket)] {
                let got = ws.sssp_with_frontier(&g, NodeId(s), kind);
                for v in g.nodes() {
                    assert_eq!(got.dist(v).to_bits(), want.dist[v.index()].to_bits());
                    assert_eq!(got.parent(v), want.parent[v.index()]);
                }
            }
        }
        // Bounded balls agree across kinds too.
        for radius in [0.0, 900.0, 4000.0] {
            let want = reference::ball(&g, NodeId(5), radius);
            let got = b.ball_with_frontier(&g, NodeId(5), radius, FrontierKind::Bucket);
            for v in g.nodes() {
                assert_eq!(got.dist(v).to_bits(), want.dist[v.index()].to_bits());
            }
        }
    }

    #[test]
    fn forced_bucket_on_degenerate_weights_stays_exact() {
        // Zero-weight edges auto-select the heap, but forcing the
        // bucket queue must still be exact (drain-path correctness).
        let mut b = GraphBuilder::new();
        for i in 0..6 {
            b.add_node(i as f64, 0.0);
        }
        for (u, v, w) in [
            (0u32, 1u32, 0.0),
            (1, 2, 2.0),
            (0, 2, 2.0),
            (2, 3, 0.0),
            (3, 4, 1.0),
            (0, 5, 5.0),
            (4, 5, 0.0),
        ] {
            b.add_edge(NodeId(u), NodeId(v), w).unwrap();
        }
        let g = b.build();
        assert_eq!(g.frontier_kind(), FrontierKind::Heap);
        let want = reference::sssp(&g, NodeId(0));
        let mut ws = SearchWorkspace::new();
        let got = ws.sssp_with_frontier(&g, NodeId(0), FrontierKind::Bucket);
        for v in g.nodes() {
            assert_eq!(got.dist(v).to_bits(), want.dist[v.index()].to_bits());
            assert_eq!(got.parent(v), want.parent[v.index()]);
        }
    }

    #[test]
    fn bucket_overflow_rebase_exact() {
        // A huge weight ratio forces MAX_BUCKETS wide-Δ calibration;
        // a tiny forced window would exercise overflow, so instead
        // build a graph whose keys span many windows of 64 buckets by
        // forcing the bucket queue with a small weight floor.
        let mut b = GraphBuilder::new();
        for i in 0..40 {
            b.add_node(i as f64, 0.0);
        }
        // Chain with weights growing geometrically: span 1e-3..1e5.
        let mut w = 1e-3;
        for i in 0..39u32 {
            b.add_edge(NodeId(i), NodeId(i + 1), w).unwrap();
            w = (w * 1.7).min(1e5);
        }
        let g = b.build();
        assert_eq!(g.frontier_kind(), FrontierKind::Bucket);
        let want = reference::sssp(&g, NodeId(0));
        let mut ws = SearchWorkspace::new();
        let got = ws.sssp_with_frontier(&g, NodeId(0), FrontierKind::Bucket);
        for v in g.nodes() {
            assert_eq!(got.dist(v).to_bits(), want.dist[v.index()].to_bits());
        }
    }

    #[test]
    fn multi_source_rows_match_solo_runs() {
        let g = grid_network(9, 9, 1.2, 33);
        let sources = [NodeId(0), NodeId(40), NodeId(80), NodeId(40)];
        let mut ws = SearchWorkspace::new();
        let rows = ws.multi_sssp_rows(&g, &sources);
        assert_eq!(rows.len(), sources.len());
        let mut solo = SearchWorkspace::new();
        for (si, &s) in sources.iter().enumerate() {
            let want = solo.sssp(&g, s).dist_vec();
            assert_eq!(rows[si].len(), want.len());
            for v in 0..want.len() {
                assert_eq!(
                    rows[si][v].to_bits(),
                    want[v].to_bits(),
                    "source {s}, node {v}"
                );
            }
        }
        assert!(ws.multi_sssp_rows(&g, &[]).is_empty());
    }

    #[test]
    fn heap_search_after_early_stopped_bucket_search() {
        // An early-terminated bucket search leaves entries in the
        // drain; a following heap search on a smaller graph must not
        // read them (their node ids are out of its range).
        let big = grid_network(10, 10, 1.2, 12);
        assert_eq!(big.frontier_kind(), FrontierKind::Bucket);
        let mut b = GraphBuilder::new();
        for i in 0..3 {
            b.add_node(i as f64, 0.0);
        }
        b.add_edge(NodeId(0), NodeId(1), 2.0).unwrap();
        b.add_edge(NodeId(1), NodeId(2), 3.0).unwrap();
        let small = b.build();
        let mut ws = SearchWorkspace::new();
        ws.path(&big, NodeId(99), NodeId(88)).unwrap();
        let want = reference::sssp(&small, NodeId(0));
        let got = ws.sssp_with_frontier(&small, NodeId(0), FrontierKind::Heap);
        for v in small.nodes() {
            assert_eq!(got.dist(v).to_bits(), want.dist[v.index()].to_bits());
            assert_eq!(got.parent(v), want.parent[v.index()]);
        }
    }

    #[test]
    fn thread_workspace_reentrant_safe() {
        let g = grid_network(5, 5, 1.1, 11);
        let d = with_thread_workspace(|ws| {
            let outer = ws.distance(&g, NodeId(0), NodeId(24)).unwrap();
            // A nested call must not panic (falls back to scratch).
            let inner =
                with_thread_workspace(|ws2| ws2.distance(&g, NodeId(0), NodeId(24)).unwrap());
            assert_eq!(outer.to_bits(), inner.to_bits());
            outer
        });
        assert!(d.is_finite());
    }
}
