//! Traced-run probes of single primitives, each timed from outside
//! around the named public call, and the counting allocator behind the
//! client-memory figure.

use crate::inputs::Inputs;
use crate::phases::Deployment;
use crate::report::{median, Run};
use crate::spec;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spnet_core::wire;
use spnet_crypto::rsa::RsaKeyPair;
use spnet_crypto::sha256::sha256;
use spnet_graph::search::SearchWorkspace;
use spnet_graph::{Graph, NodeId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::Instant;

/// The system allocator, counting live and peak bytes while `COUNTING`
/// is set — only around the one measurement that needs it, so every
/// other allocation pays a single relaxed load.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters never affect the returned
// pointers.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            // Blocks allocated before counting began may be freed now;
            // saturate instead of wrapping below zero.
            let _ = LIVE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |live| {
                Some(live.saturating_sub(layout.size()))
            });
        }
        // SAFETY: `ptr` was returned by `System.alloc` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Peak bytes live at once during `f`, above what was live before it.
fn peak_alloc<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    (out, PEAK.load(Ordering::Relaxed))
}

/// Median seconds of `calls` runs of `f`.
fn time_calls(calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let secs: Vec<f64> = (0..calls)
        .map(|i| {
            let start = Instant::now();
            f(i);
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&secs)
}

pub fn keygen(run: &mut Run) -> RsaKeyPair {
    let start = Instant::now();
    let keypair = run.tracer.span("rsa.keygen", crate::trace::NONE, 0, || {
        RsaKeyPair::generate(&mut StdRng::seed_from_u64(spec::KEY_SEED), spec::RSA_BITS)
    });
    run.set("rsa.keygen_s", start.elapsed().as_secs_f64());
    keypair
}

/// RSA, SHA-256, Merkle and graph-search primitives on this workload's
/// key, tree and graph.
pub fn primitives(
    run: &mut Run,
    d: &Deployment,
    graph: &Graph,
    keypair: &RsaKeyPair,
    inputs: &Inputs,
    seed: u64,
) {
    let digest = sha256(b"spnet-benchmark fixed digest");
    run.set(
        "rsa.sign_ms",
        time_calls(5, |_| {
            black_box(keypair.sign(black_box(&digest)));
        }) * 1e3,
    );
    run.set(
        "rsa.verify_ms",
        time_calls(20, |_| {
            black_box(black_box(&d.root).verify(&d.public_key));
        }) * 1e3,
    );

    let buffer = vec![0xA5u8; 1 << 20];
    let secs = time_calls(16, |_| {
        black_box(sha256(black_box(&buffer)));
    });
    run.set("sha256.mb_per_s", 1.0 / secs);

    let tree = d.provider.package().ads.tree();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x61);
    let leaves: Vec<usize> = (0..64)
        .map(|_| rng.random_range(0..tree.leaf_count()))
        .collect();
    let mut proofs = Vec::with_capacity(leaves.len());
    let prove = time_calls(leaves.len(), |i| {
        proofs.push(
            tree.prove(BTreeSet::from([leaves[i]]))
                .expect("leaf in range"),
        );
    });
    let reconstruct = time_calls(leaves.len(), |i| {
        let leaf = tree.leaf(leaves[i]).expect("leaf in range");
        let root = proofs[i].reconstruct_root(&[(leaves[i], leaf)]);
        assert_eq!(
            root.ok(),
            Some(tree.root()),
            "Merkle path reconstructs the root"
        );
    });
    run.set("merkle.prove_us", prove * 1e6);
    run.set("merkle.reconstruct_us", reconstruct * 1e6);

    let sources: Vec<NodeId> = (0..16)
        .map(|_| NodeId(rng.random_range(0..graph.num_nodes() as u32)))
        .collect();
    let mut ws = SearchWorkspace::with_capacity(graph.num_nodes());
    let mut search = |radius: Option<f64>| {
        time_calls(sources.len(), |i| {
            let s = sources[i];
            let view = match radius {
                Some(r) => ws.ball(graph, s, r),
                None => ws.sssp(graph, s),
            };
            black_box(view.dist(s));
        })
    };
    run.set("graph.sssp_ms", search(None) * 1e3);
    run.set("graph.ball_short_us", search(Some(spec::SHORT_RANGE)) * 1e6);
    run.set("graph.ball_long_us", search(Some(spec::LONG_RANGE)) * 1e6);

    // Client memory: the largest peak over the head of the query list
    // (both range classes), answers decoded beforehand.
    let mut peak = 0usize;
    for &(s, t) in inputs.query.pairs.iter().take(32) {
        let Ok(answer) = d.provider.answer(s, t) else {
            continue;
        };
        let Ok(decoded) = wire::decode_answer(&wire::encode_answer(&answer)) else {
            continue;
        };
        let (verified, bytes) = peak_alloc(|| {
            d.client
                .verify_pinned(s, t, &decoded, &d.root, Some(d.session.pins()))
        });
        if verified.is_ok() {
            peak = peak.max(bytes);
        }
    }
    run.set("client.verify_peak_alloc_kb", peak as f64 / 1024.0);
}

/// `VmHWM` of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
