//! Churn experiment: sustained owner updates against a live service,
//! committed as `BENCH_churn.json`.
//!
//! One row per method (DIJ/FULL/LDM/HYP), each driving the full
//! dynamic-update path end to end:
//!
//! * **sessions survive** — a session opened before the first update
//!   keeps answering on its pinned epoch (bit-identical to its
//!   pre-update answer) while a freshly opened session binds the new
//!   root. This is the MVCC contract the service makes; the gate
//!   requires it of every method.
//! * **mixed loop** — N random edge re-weights through
//!   [`SpService::update_edge_weight`], each followed by a fresh
//!   session verifying a burst of queries against the new epoch. The
//!   loop's wall time yields `updates_per_sec` (sustained, *including*
//!   the interleaved verified serving) and `query_qps`.
//! * **re-sign discipline** — the owner key's own
//!   [`RsaKeyPair::signing_ops`] delta across the loop pins
//!   `signs_per_update` (the process-wide counter would also count
//!   whoever else signs meanwhile): incremental repair re-signs only
//!   the network root plus at most one auxiliary root, never O(|V|)
//!   signatures. The gate bounds it at
//!   [`crate::gate::CHURN_MAX_SIGNS_PER_UPDATE`].
//! * **dirty-set size** — a package-level probe over the same kind of
//!   update sequence reports the average number of extended tuples a
//!   single re-weight actually dirties (`avg_dirty_tuples`) — the
//!   quantity that makes incremental repair cheaper than republish.
//! * **snapshot refresh** — after the churn,
//!   [`SpService::refresh_shard_snapshot`] must take the in-place
//!   path, rewriting only dirty pages of the on-disk snapshot; the row
//!   records pages touched vs total and bytes written.
//!
//! Regenerate with:
//!
//! ```text
//! cargo run --release -p spnet-bench --bin figures -- churn
//! ```

use crate::json::Value;
use crate::report::{fmt_f, Table};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spnet_core::owner::{DataOwner, SetupConfig};
use spnet_core::snapshot::SnapshotRefresh;
use spnet_core::{Client, SpService, StoreBackend};
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::gen::grid_network;
use spnet_graph::NodeId;
use std::time::Instant;

/// Configuration of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Lattice side (`|V| = side²`).
    pub side: usize,
    /// Edge re-weights in the timed mixed loop.
    pub updates: usize,
    /// Verified queries served after each update (fresh session on the
    /// new epoch).
    pub queries_per_epoch: usize,
    /// Updates in the package-level dirty-set probe.
    pub probe_updates: usize,
    /// LDM landmark count.
    pub landmarks: usize,
    /// HYP cell count.
    pub cells: usize,
    /// Master seed.
    pub seed: u64,
}

impl ChurnConfig {
    /// The committed-artifact configuration: side 30 → 900 nodes (FULL
    /// repairs rows with per-row Dijkstra, so the artifact stays
    /// minutes, not hours).
    pub fn committed(seed: u64) -> Self {
        ChurnConfig {
            side: 30,
            updates: 40,
            queries_per_epoch: 8,
            probe_updates: 8,
            landmarks: 24,
            cells: 16,
            seed,
        }
    }

    /// The CI smoke configuration: one reduced size (`nodes` is
    /// rounded to the nearest square lattice).
    pub fn smoke(nodes: usize, seed: u64) -> Self {
        let side = ((nodes as f64).sqrt().round() as usize).max(4);
        ChurnConfig {
            side,
            updates: 8,
            queries_per_epoch: 4,
            probe_updates: 4,
            landmarks: 8,
            cells: 9,
            seed,
        }
    }
}

/// One method row of the churn experiment.
#[derive(Debug, Clone)]
pub struct ChurnRow {
    /// Method display name.
    pub method: String,
    /// Edge re-weights in the timed loop.
    pub updates: usize,
    /// Sustained updates per second, with verified serving interleaved.
    pub updates_per_sec: f64,
    /// Verified queries per second served inside the same loop.
    pub query_qps: f64,
    /// RSA signing operations per update (network root + at most one
    /// auxiliary root — never O(|V|)).
    pub signs_per_update: f64,
    /// Average extended tuples dirtied by one re-weight (package-level
    /// probe).
    pub avg_dirty_tuples: f64,
    /// Whether a pre-update session drained on its pinned epoch while
    /// a fresh session bound the new root.
    pub sessions_survive: bool,
    /// Whether the post-churn snapshot refresh took the in-place path.
    pub snapshot_in_place: bool,
    /// Pages in the snapshot's paged sections.
    pub snapshot_pages_total: u64,
    /// Pages the refresh actually rewrote.
    pub snapshot_pages_rewritten: u64,
    /// Bytes the refresh wrote (vs a full-file rewrite).
    pub snapshot_bytes_written: u64,
}

/// The full experiment output.
#[derive(Debug, Clone)]
pub struct ChurnReport {
    /// Master seed.
    pub seed: u64,
    /// |V| of the measured lattice.
    pub num_nodes: usize,
    /// |E| of the measured lattice.
    pub num_edges: usize,
    /// Machine-speed probe: textbook `reference::sssp` runs per second
    /// (same probe as the throughput report; the gate normalizes by
    /// it).
    pub ref_qps: f64,
    /// One row per method.
    pub rows: Vec<ChurnRow>,
}

/// Runs the experiment and returns the report (no I/O beyond a temp
/// snapshot directory per method).
pub fn run_churn(cfg: &ChurnConfig) -> ChurnReport {
    let ref_qps = crate::throughput::reference_probe_qps();
    eprintln!("[churn] reference probe: {ref_qps:.1} sssp/s");
    let g = grid_network(cfg.side, cfg.side, 1.15, cfg.seed);
    let n = g.num_nodes();
    eprintln!(
        "[churn] lattice {side}x{side} → |V|={n} |E|={}",
        g.num_edges(),
        side = cfg.side
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xC4A1);
    let keypair = RsaKeyPair::generate(&mut rng, SetupConfig::default().rsa_bits);
    let edges: Vec<(NodeId, NodeId, f64)> = g.edges().collect();
    // Probe pairs spread across the lattice for the per-epoch bursts.
    let step = (n / 16).max(1);
    let pairs: Vec<(NodeId, NodeId)> = (0..16)
        .map(|i| {
            (
                NodeId((i * step) as u32 % n as u32),
                NodeId((n - 1 - (i * step) % n) as u32),
            )
        })
        .collect();

    let mut rows = Vec::new();
    for method in crate::HarnessConfig::methods_at(cfg.landmarks, cfg.cells) {
        let setup = SetupConfig {
            seed: cfg.seed,
            ..SetupConfig::default()
        };
        let published = DataOwner::publish_with_key(&g, &method, &setup, &keypair);
        let client = Client::new(published.public_key.clone());

        // Package-level dirty-set probe on a clone (the service gets
        // its own copy through the snapshot below).
        let mut probe_pkg = published.package.clone();
        let mut probe_rng = StdRng::seed_from_u64(cfg.seed ^ 0xD1);
        let mut dirty_total = 0usize;
        for _ in 0..cfg.probe_updates {
            let (u, v, _) = edges[probe_rng.random_range(0..edges.len())];
            let w = probe_rng.random_range(0.05f64..8.0);
            let ds = spnet_core::update::update_edge_weight(&mut probe_pkg, &keypair, u, v, w)
                .expect("edge re-weight repairs in place");
            dirty_total += ds.tuples.len();
        }
        let avg_dirty_tuples = dirty_total as f64 / cfg.probe_updates.max(1) as f64;

        // Snapshot-backed service: the post-churn refresh below must
        // find a real file to patch in place.
        let dir = std::env::temp_dir().join(format!(
            "spnet-churn-bench-{}-{}",
            method.name(),
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        spnet_core::snapshot::save_package(&published, &dir).expect("snapshot save");
        let service = SpService::builder()
            .snapshot(&dir, StoreBackend::Mem)
            .expect("snapshot load")
            .threads(0)
            .build();

        // MVCC smoke: pinned session drains through the first update.
        let (qs, qt) = pairs[0];
        let pinned = service.open_session(client.clone()).expect("epoch 0");
        let before = pinned.query(qs, qt).expect("pre-update answer");
        let mut rng_u = StdRng::seed_from_u64(cfg.seed ^ 0xE2);
        let (u0, v0, _) = edges[rng_u.random_range(0..edges.len())];
        let w0 = rng_u.random_range(0.05f64..8.0);
        service
            .update_edge_weight(&keypair, u0, v0, w0)
            .expect("service routes the update");
        let pinned_ok = pinned
            .query(qs, qt)
            .map(|a| a.distance.to_bits() == before.distance.to_bits())
            .unwrap_or(false);
        let fresh_ok = service
            .open_session(client.clone())
            .map(|s| s.epoch() == 1)
            .unwrap_or(false);
        let sessions_survive = pinned_ok && fresh_ok;

        // Timed mixed loop: update, then serve a verified burst on the
        // new epoch. Sessions only verify (no signing), so the signing
        // delta is exactly the repairs' re-sign cost.
        let sign0 = keypair.signing_ops();
        let t0 = Instant::now();
        for i in 0..cfg.updates {
            let (u, v, _) = edges[rng_u.random_range(0..edges.len())];
            let w = rng_u.random_range(0.05f64..8.0);
            service
                .update_edge_weight(&keypair, u, v, w)
                .expect("service routes the update");
            let session = service.open_session(client.clone()).expect("new epoch");
            for q in 0..cfg.queries_per_epoch {
                let (s, t) = pairs[(i * cfg.queries_per_epoch + q) % pairs.len()];
                std::hint::black_box(session.query(s, t).expect("verified answer"));
            }
        }
        let elapsed = t0.elapsed().as_secs_f64().max(1e-9);
        let signs = keypair.signing_ops() - sign0;
        let updates_per_sec = cfg.updates as f64 / elapsed;
        let query_qps = (cfg.updates * cfg.queries_per_epoch) as f64 / elapsed;
        let signs_per_update = signs as f64 / cfg.updates.max(1) as f64;

        // Post-churn snapshot refresh: in place, dirty pages only.
        let refresh = service
            .refresh_shard_snapshot(0, &published.public_key)
            .expect("snapshot refresh");
        let (snapshot_in_place, stats) = match refresh {
            SnapshotRefresh::InPlace(stats) => (true, stats),
            SnapshotRefresh::FullRewrite => (false, Default::default()),
        };
        std::fs::remove_dir_all(&dir).ok();

        let row = ChurnRow {
            method: method.name().to_string(),
            updates: cfg.updates,
            updates_per_sec,
            query_qps,
            signs_per_update,
            avg_dirty_tuples,
            sessions_survive,
            snapshot_in_place,
            snapshot_pages_total: stats.pages_total as u64,
            snapshot_pages_rewritten: stats.pages_rewritten as u64,
            snapshot_bytes_written: stats.bytes_written,
        };
        eprintln!(
            "[churn] {}: {:.1} updates/s with {:.0} verified q/s interleaved, \
             {:.1} signs/update, {:.1} dirty tuples/update, sessions {}, \
             snapshot {} ({}/{} pages, {} B)",
            row.method,
            row.updates_per_sec,
            row.query_qps,
            row.signs_per_update,
            row.avg_dirty_tuples,
            if row.sessions_survive {
                "survive"
            } else {
                "DROPPED"
            },
            if row.snapshot_in_place {
                "in-place"
            } else {
                "FULL REWRITE"
            },
            row.snapshot_pages_rewritten,
            row.snapshot_pages_total,
            row.snapshot_bytes_written,
        );
        rows.push(row);
    }
    ChurnReport {
        seed: cfg.seed,
        num_nodes: n,
        num_edges: g.num_edges(),
        ref_qps,
        rows,
    }
}

impl ChurnReport {
    /// The printable table.
    pub fn tables(&self) -> Vec<(String, Table)> {
        let mut t = Table::new(
            "Churn — sustained updates against a live service: rates, re-sign cost, snapshot delta",
            &[
                "method",
                "updates/s",
                "query /s",
                "signs/upd",
                "dirty tuples",
                "sessions",
                "snapshot",
                "pages",
                "bytes",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.method.clone(),
                fmt_f(r.updates_per_sec),
                fmt_f(r.query_qps),
                format!("{:.1}", r.signs_per_update),
                format!("{:.1}", r.avg_dirty_tuples),
                if r.sessions_survive {
                    "survive"
                } else {
                    "DROP"
                }
                .into(),
                if r.snapshot_in_place {
                    "in-place"
                } else {
                    "rewrite"
                }
                .into(),
                format!("{}/{}", r.snapshot_pages_rewritten, r.snapshot_pages_total),
                format!("{}", r.snapshot_bytes_written),
            ]);
        }
        vec![("churn".into(), t)]
    }

    /// The report as a `spnet-churn/v1` record.
    pub fn record(&self) -> Value {
        let row = |r: &ChurnRow| {
            Value::obj([
                ("method", r.method.as_str().into()),
                ("updates", r.updates.into()),
                ("updates_per_sec", Value::measured(r.updates_per_sec)),
                ("query_qps", Value::measured(r.query_qps)),
                ("signs_per_update", Value::measured(r.signs_per_update)),
                ("avg_dirty_tuples", Value::measured(r.avg_dirty_tuples)),
                ("sessions_survive", r.sessions_survive.into()),
                ("snapshot_in_place", r.snapshot_in_place.into()),
                ("snapshot_pages_total", r.snapshot_pages_total.into()),
                (
                    "snapshot_pages_rewritten",
                    r.snapshot_pages_rewritten.into(),
                ),
                ("snapshot_bytes_written", r.snapshot_bytes_written.into()),
            ])
        };
        Value::obj([
            ("schema", "spnet-churn/v1".into()),
            ("seed", self.seed.into()),
            ("num_nodes", self.num_nodes.into()),
            ("num_edges", self.num_edges.into()),
            ("ref_qps", Value::measured(self.ref_qps)),
            ("rows", self.rows.iter().map(row).collect()),
        ])
    }
}

/// Experiment entry point used by the `figures` binary: prints the
/// table and writes `BENCH_churn.json` to the current directory.
pub fn churn(cfg: &crate::config::HarnessConfig) -> Vec<(String, Table)> {
    let report = run_churn(&ChurnConfig::committed(cfg.seed));
    crate::report::publish("churn", report.record(), report.tables())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_churn_run_is_sane() {
        let report = run_churn(&ChurnConfig::smoke(64, 42));
        assert_eq!(report.rows.len(), 4);
        assert_eq!(report.num_nodes, 64);
        assert!(report.ref_qps > 0.0);
        for r in &report.rows {
            assert!(r.updates_per_sec > 0.0, "{}", r.method);
            assert!(r.query_qps > 0.0, "{}", r.method);
            assert!(
                r.signs_per_update >= 1.0 && r.signs_per_update <= 2.0,
                "{}: {} signs/update",
                r.method,
                r.signs_per_update
            );
            assert!(r.sessions_survive, "{}", r.method);
            assert!(r.snapshot_in_place, "{}", r.method);
            assert!(
                r.snapshot_pages_rewritten <= r.snapshot_pages_total,
                "{}",
                r.method
            );
        }
        assert_eq!(
            crate::gate::structural_violations("churn", &report.record()),
            Vec::<String>::new()
        );
    }
}
