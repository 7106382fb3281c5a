//! Cold-start persistence experiment: rebuild-and-resign vs
//! snapshot-load, committed as `BENCH_store.json`.
//!
//! One row per network size (road-100k and road-1M). Each row
//! times the two ways a provider can come up:
//!
//! * **Rebuild-and-resign** — what a restart without a snapshot costs:
//!   reload the archived raw graph from disk (`load_graph`), recompute
//!   every extended tuple, rebuild the Merkle tree, and RSA sign the
//!   root. Requires the private key.
//! * **Snapshot-load** — `ProviderPackage::load_snapshot` from the
//!   owner's published `snapshot.spnet`, on both backends: the eager
//!   `Mem` store (rebuild digests, verify the pinned signed root) and
//!   the lazy `File` store (fault pages on demand). Requires only the
//!   file; the row records the RSA signing operations observed during
//!   the load window, which must be **zero**.
//!
//! The method is DIJ — the one method that exists at every size (FULL
//! is O(|V|²), and LDM/HYP hint sizes are a tuning choice; the network
//! ADS the snapshot persists is common to all four). Byte-equality of
//! cold answers against the freshly built provider is asserted inline
//! on every row. Regenerate with:
//!
//! ```text
//! cargo run --release -p spnet-bench --bin figures -- store
//! ```

use crate::json::Value;
use crate::report::{fmt_f, Table};
use crate::scale::size_label;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::methods::MethodConfig;
use spnet_core::owner::{DataOwner, ProviderPackage, SetupConfig};
use spnet_core::provider::ServiceProvider;
use spnet_core::wire::encode_answer;
use spnet_core::StoreBackend;
use spnet_graph::gen::road_network;
use spnet_graph::io::{load_graph, save_graph};
use spnet_graph::workload::make_workload;
use std::time::Instant;

/// Configuration of one store run.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Target node counts per row (rounded to the nearest square for
    /// the road lattice).
    pub sizes: Vec<usize>,
    /// Workload range for the inline byte-equality check.
    pub range: f64,
    /// Master seed.
    pub seed: u64,
}

impl StoreConfig {
    /// The committed-artifact configuration: 100k + 1M nodes.
    pub fn committed(seed: u64) -> Self {
        StoreConfig {
            sizes: vec![100_000, 1_000_000],
            range: 500.0,
            seed,
        }
    }

    /// The CI smoke configuration: one reduced size.
    pub fn smoke(nodes: usize, seed: u64) -> Self {
        StoreConfig {
            sizes: vec![nodes],
            range: 500.0,
            seed,
        }
    }
}

/// One size row: the rebuild path vs the two snapshot-load paths.
#[derive(Debug, Clone)]
pub struct StoreRow {
    /// Human label (`100k`, `1m`, ...).
    pub label: String,
    /// |V| of the road instance.
    pub nodes: usize,
    /// |E| of the road instance.
    pub edges: usize,
    /// Rebuild-and-resign wall seconds: reload the archived graph from
    /// disk + `DataOwner::publish`.
    pub build_sign_s: f64,
    /// `Published::save_snapshot` wall seconds.
    pub save_s: f64,
    /// `load_snapshot` seconds on the eager `Mem` backend.
    pub load_mem_s: f64,
    /// `load_snapshot` seconds on the lazy `File` backend.
    pub load_file_s: f64,
    /// On-disk `snapshot.spnet` size.
    pub snapshot_bytes: u64,
    /// RSA signing operations the publish performed.
    pub sign_ops_build: u64,
    /// RSA signing operations observed across both loads (must be 0).
    pub sign_ops_load: u64,
}

impl StoreRow {
    /// How much faster the lazy cold start is than rebuild-and-resign.
    pub fn file_speedup(&self) -> f64 {
        self.build_sign_s / self.load_file_s
    }
}

/// The full experiment output.
#[derive(Debug, Clone)]
pub struct StoreReport {
    /// Master seed the rows were measured under.
    pub seed: u64,
    /// One row per size.
    pub rows: Vec<StoreRow>,
}

/// Runs the experiment and returns the report (temp files only).
pub fn run_store(cfg: &StoreConfig) -> StoreReport {
    let mut rows = Vec::new();
    for &target in &cfg.sizes {
        let side = (target as f64).sqrt().round().max(2.0) as usize;
        let n = side * side;
        eprintln!("[store] row {} (lattice {side}x{side})", size_label(n));
        let g = road_network(side, side, 1.05, 1.0, cfg.seed);
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x570E);
        let setup = SetupConfig {
            seed: cfg.seed,
            ..SetupConfig::default()
        };

        let dir =
            std::env::temp_dir().join(format!("spnet-store-bench-{n}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let graph_path = dir.join("network.graph");
        save_graph(&g, &graph_path).expect("graph archive");

        // Both restart paths start from disk artifacts: the rebuild
        // reloads the archived graph before publishing.
        let ops_before_build = spnet_crypto::rsa::signing_ops();
        let start = Instant::now();
        let reloaded = load_graph(&graph_path).expect("graph reload");
        let published = DataOwner::publish(&reloaded, &MethodConfig::Dij, &setup, &mut rng);
        let build_sign_s = start.elapsed().as_secs_f64();
        let sign_ops_build = spnet_crypto::rsa::signing_ops() - ops_before_build;
        let start = Instant::now();
        let path = published.save_snapshot(&dir).expect("snapshot save");
        let save_s = start.elapsed().as_secs_f64();
        let snapshot_bytes = std::fs::metadata(&path).expect("snapshot metadata").len();

        let ops_before_load = spnet_crypto::rsa::signing_ops();
        let start = Instant::now();
        let mem = ProviderPackage::load_snapshot(&dir, StoreBackend::Mem).expect("mem load");
        let load_mem_s = start.elapsed().as_secs_f64();
        let start = Instant::now();
        let file = ProviderPackage::load_snapshot(&dir, StoreBackend::File).expect("file load");
        let load_file_s = start.elapsed().as_secs_f64();
        let sign_ops_load = spnet_crypto::rsa::signing_ops() - ops_before_load;

        // Cold providers must serve byte-identical verified answers.
        let (s, t) = make_workload(&g, cfg.range, 1, cfg.seed ^ 0x570F).pairs[0];
        let fresh = ServiceProvider::new(published.package);
        let want = encode_answer(&fresh.answer(s, t).expect("workload reachable"));
        for loaded in [mem, file] {
            let cold = ServiceProvider::new(loaded.package);
            let got = encode_answer(&cold.answer(s, t).expect("workload reachable"));
            assert_eq!(got, want, "cold answer must be byte-equal");
        }
        std::fs::remove_dir_all(&dir).ok();

        let row = StoreRow {
            label: size_label(n),
            nodes: n,
            edges: g.num_edges(),
            build_sign_s,
            save_s,
            load_mem_s,
            load_file_s,
            snapshot_bytes,
            sign_ops_build,
            sign_ops_load,
        };
        eprintln!(
            "[store]   build+sign {:.2}s ({} sign ops), save {:.2}s ({} bytes), \
             load mem {:.3}s / file {:.4}s ({} sign ops)",
            row.build_sign_s,
            row.sign_ops_build,
            row.save_s,
            row.snapshot_bytes,
            row.load_mem_s,
            row.load_file_s,
            row.sign_ops_load,
        );
        rows.push(row);
    }
    StoreReport {
        seed: cfg.seed,
        rows,
    }
}

impl StoreReport {
    /// The printable table.
    pub fn tables(&self) -> Vec<(String, Table)> {
        let mut t = Table::new(
            "Store — rebuild-and-resign vs snapshot cold start (DIJ, road family)",
            &[
                "size",
                "|V|",
                "build+sign s",
                "save s",
                "load mem s",
                "load file s",
                "snapshot MB",
                "sign ops build",
                "sign ops load",
                "file speedup",
            ],
        );
        for r in &self.rows {
            t.row(vec![
                r.label.clone(),
                format!("{}", r.nodes),
                fmt_f(r.build_sign_s),
                fmt_f(r.save_s),
                fmt_f(r.load_mem_s),
                fmt_f(r.load_file_s),
                format!("{:.1}", r.snapshot_bytes as f64 / 1e6),
                format!("{}", r.sign_ops_build),
                format!("{}", r.sign_ops_load),
                format!("{:.1}", r.file_speedup()),
            ]);
        }
        vec![("store_cold_start".into(), t)]
    }

    /// The report as a `spnet-store/v1` record.
    pub fn record(&self) -> Value {
        let row = |r: &StoreRow| {
            Value::obj([
                ("label", r.label.as_str().into()),
                ("nodes", r.nodes.into()),
                ("edges", r.edges.into()),
                ("build_sign_s", Value::measured(r.build_sign_s)),
                ("save_s", Value::measured(r.save_s)),
                ("load_mem_s", Value::measured(r.load_mem_s)),
                ("load_file_s", Value::measured(r.load_file_s)),
                ("snapshot_bytes", r.snapshot_bytes.into()),
                ("sign_ops_build", r.sign_ops_build.into()),
                ("sign_ops_load", r.sign_ops_load.into()),
            ])
        };
        Value::obj([
            ("schema", "spnet-store/v1".into()),
            ("seed", self.seed.into()),
            ("method", "DIJ".into()),
            ("rows", self.rows.iter().map(row).collect()),
        ])
    }
}

/// Experiment entry point used by the `figures` binary: prints the
/// table and writes `BENCH_store.json` to the current directory.
pub fn store(cfg: &crate::config::HarnessConfig) -> Vec<(String, Table)> {
    let report = run_store(&StoreConfig::committed(cfg.seed));
    crate::report::publish("store", report.record(), report.tables())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_store_run_is_sane() {
        let cfg = StoreConfig::smoke(2_500, 42);
        let report = run_store(&cfg);
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!(row.nodes, 2_500);
        assert!(row.build_sign_s > 0.0 && row.save_s > 0.0);
        assert!(row.load_mem_s > 0.0 && row.load_file_s > 0.0);
        assert!(row.snapshot_bytes > 0);
        assert!(row.sign_ops_build >= 1, "the owner must sign at publish");
        // sign_ops_load == 0 is pinned by tests/store_persist.rs under
        // a lock; here parallel unit tests may sign concurrently, so
        // only the structural fields are asserted.
        let broken = crate::gate::structural_violations("store", &report.record());
        assert!(
            broken.iter().all(|v| v.contains("sign_ops_load")),
            "{broken:?}"
        );
    }

    #[test]
    fn size_labels() {
        assert_eq!(size_label(99_856), "100k");
        assert_eq!(size_label(1_000_000), "1m");
        assert_eq!(size_label(2_500), "3k");
    }
}
