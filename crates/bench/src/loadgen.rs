//! Mixed-traffic load generator for the sharded `SpService`.
//!
//! Models the ROADMAP's target deployment: one service holding a shard
//! per method (DIJ/FULL/LDM/HYP over the same signed network), many
//! concurrent client sessions streaming query batches through the
//! work-stealing scheduler, verifying every chunk against their pinned
//! epoch roots.
//!
//! Two passes over the identical per-session workloads:
//!
//! 1. **single** — a scheduler-less service (`threads(0)`) serving
//!    every session back to back on one thread: the sequential
//!    baseline.
//! 2. **service** — a scheduler-backed service with one OS thread per
//!    session, all sessions streaming concurrently; the provider
//!    proves chunk *k+1* on the pool while each client verifies chunk
//!    *k* (double buffering).
//!
//! Both passes record every verified distance bit-for-bit; the report
//! carries `bit_identical` so the gate fails if concurrency ever
//! changes a single answer. Rates are end-to-end session throughput
//! (prove + wire frame + verify), and the report embeds the same
//! machine-speed `ref_qps` probe as the throughput harness so the CI
//! gate can normalize away runner speed.
//!
//! Results go to `BENCH_service.json` (schema `spnet-service/v1`),
//! gated by `throughput_gate --mode service`. Regenerate with:
//!
//! ```text
//! cargo run --release -p spnet-bench --bin figures -- service
//! ```

use crate::json::Value;
use crate::report::{fmt_f, Table};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use spnet_core::owner::{DataOwner, SetupConfig};
use spnet_core::{Client, SpService};
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::gen::grid_network;
use spnet_graph::{Graph, NodeId};
use std::time::Instant;

/// Load-generator shape: how many sessions, how much traffic each.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Grid side length (the network has `side²` nodes).
    pub side: u32,
    /// Concurrent client sessions (spread round-robin over the four
    /// methods).
    pub sessions: usize,
    /// Streamed queries per session.
    pub queries_per_session: usize,
    /// Queries per stream chunk.
    pub chunk_len: usize,
    /// Scheduler worker threads; 0 = one per available core.
    pub threads: usize,
    /// Master seed (graph, keys, workloads).
    pub seed: u64,
    /// RSA modulus bits (kept small: the load is serving, not keygen).
    pub rsa_bits: usize,
    /// HYP cell count for the grid (must tile `side²` nodes).
    pub cells: usize,
    /// LDM landmark count.
    pub landmarks: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            side: 16,
            sessions: 16,
            queries_per_session: 48,
            chunk_len: 8,
            threads: 0,
            seed: 42,
            rsa_bits: 512,
            cells: 16,
            landmarks: 12,
        }
    }
}

impl LoadgenConfig {
    /// The reduced shape the CI gate's live smoke runs.
    pub fn smoke(seed: u64) -> Self {
        LoadgenConfig {
            side: 12,
            sessions: 8,
            queries_per_session: 24,
            chunk_len: 6,
            cells: 16,
            landmarks: 8,
            seed,
            ..LoadgenConfig::default()
        }
    }
}

/// Per-method slice of the mixed traffic.
#[derive(Debug, Clone)]
pub struct MethodTraffic {
    /// Method display name.
    pub method: String,
    /// Sessions routed to this method's shard.
    pub sessions: usize,
    /// Total queries those sessions streamed.
    pub queries: usize,
    /// This method's share of the concurrent pass, as queries over the
    /// pass's wall time (the shares sum to `service_qps`).
    pub service_qps: f64,
}

/// The load-generator output (`BENCH_service.json`).
#[derive(Debug, Clone)]
pub struct ServiceReport {
    /// Machine-speed probe (textbook SSSP runs/s), for gate
    /// normalization — same probe as the throughput report.
    pub ref_qps: f64,
    /// Available cores on the measuring host. The ≥2× speedup bar only
    /// applies at ≥4 cores — a 1-core host cannot parallelize anything
    /// and honestly reports so.
    pub cores: usize,
    /// Scheduler worker threads in the concurrent pass.
    pub threads: usize,
    /// Concurrent sessions.
    pub sessions: usize,
    /// Streamed queries per session.
    pub queries_per_session: usize,
    /// Queries per stream chunk.
    pub chunk_len: usize,
    /// |V| of the shared network.
    pub num_nodes: usize,
    /// |E| of the shared network.
    pub num_edges: usize,
    /// Whether the `parallel` feature was compiled in.
    pub parallel: bool,
    /// Every verified distance of the concurrent pass was bit-identical
    /// to the sequential baseline.
    pub bit_identical: bool,
    /// Sequential baseline: queries/s with all sessions served back to
    /// back on one thread, no scheduler.
    pub single_qps: f64,
    /// Concurrent: queries/s with all sessions streaming at once
    /// through the shared scheduler.
    pub service_qps: f64,
    /// `service_qps / single_qps`.
    pub speedup: f64,
    /// Scheduler jobs executed during the concurrent pass.
    pub executed: u64,
    /// Scheduler jobs stolen across workers (work stealing engaged).
    pub stolen: u64,
    /// Per-method traffic breakdown.
    pub methods: Vec<MethodTraffic>,
}

fn mixed_service(g: &Graph, kp: &RsaKeyPair, cfg: &LoadgenConfig, threads: usize) -> SpService {
    let mut b = SpService::builder().threads(threads);
    for method in crate::HarnessConfig::methods_at(cfg.landmarks, cfg.cells) {
        let p = DataOwner::publish_with_key(g, &method, &SetupConfig::default(), kp);
        b = b.package(p.package);
    }
    b.build()
}

fn session_queries(cfg: &LoadgenConfig, session: usize) -> Vec<(NodeId, NodeId)> {
    let nodes = cfg.side * cfg.side;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x10AD ^ (session as u64) << 17);
    (0..cfg.queries_per_session)
        .map(|_| loop {
            let s = rng.random_range(0..nodes);
            let t = rng.random_range(0..nodes);
            if s != t {
                return (NodeId(s), NodeId(t));
            }
        })
        .collect()
}

/// Streams one session's whole workload, returning the verified
/// distance bits in query order.
fn drive_session(
    service: &SpService,
    client: &Client,
    cfg: &LoadgenConfig,
    session: usize,
) -> Vec<u64> {
    let code = (session % 4) as u8 + 1;
    let s = service
        .open_session_for(client.clone(), code)
        .expect("authentic epoch");
    let qs = session_queries(cfg, session);
    s.query_stream_chunked(&qs, cfg.chunk_len)
        .collect::<Result<Vec<_>, _>>()
        .expect("honest stream")
        .into_iter()
        .flatten()
        .map(|a| a.distance.to_bits())
        .collect()
}

/// Runs the experiment and returns the report (no I/O).
pub fn run_loadgen(cfg: &LoadgenConfig) -> ServiceReport {
    let ref_qps = crate::throughput::reference_probe_qps();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let threads = if cfg.threads == 0 { cores } else { cfg.threads };
    eprintln!(
        "[loadgen] probe {ref_qps:.1} sssp/s, {cores} core(s), {} scheduler thread(s)",
        threads
    );
    let g = grid_network(cfg.side as usize, cfg.side as usize, 1.2, cfg.seed);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5E55);
    let kp = RsaKeyPair::generate(&mut rng, cfg.rsa_bits);
    let client = Client::new(kp.public_key().clone());
    let total_queries = cfg.sessions * cfg.queries_per_session;

    // Pass 1: sequential baseline — same sessions, same workloads, one
    // thread, no scheduler.
    let single = mixed_service(&g, &kp, cfg, 0);
    let start = Instant::now();
    let baseline_bits: Vec<Vec<u64>> = (0..cfg.sessions)
        .map(|i| drive_session(&single, &client, cfg, i))
        .collect();
    let single_secs = start.elapsed().as_secs_f64();
    let single_qps = total_queries as f64 / single_secs;
    eprintln!("[loadgen] single-threaded: {single_qps:.1} q/s over {total_queries} queries");

    // Pass 2: concurrent — every session on its own thread, provider
    // work on the shared work-stealing pool.
    let service = mixed_service(&g, &kp, cfg, threads);
    let start = Instant::now();
    let concurrent_bits: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.sessions)
            .map(|i| {
                let service = &service;
                let client = &client;
                scope.spawn(move || drive_session(service, client, cfg, i))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let service_secs = start.elapsed().as_secs_f64();
    let service_qps = total_queries as f64 / service_secs;
    let (executed, stolen) = service.scheduler_stats().unwrap_or((0, 0));
    let bit_identical = baseline_bits == concurrent_bits;
    eprintln!(
        "[loadgen] concurrent: {service_qps:.1} q/s ({:.2}x), pool executed {executed} / stole {stolen}, bit_identical {bit_identical}",
        service_qps / single_qps
    );

    let method_names = ["DIJ", "FULL", "LDM", "HYP"];
    let methods = method_names
        .iter()
        .enumerate()
        .map(|(m, name)| {
            let sessions = (0..cfg.sessions).filter(|i| i % 4 == m).count();
            let queries = sessions * cfg.queries_per_session;
            MethodTraffic {
                method: name.to_string(),
                sessions,
                queries,
                service_qps: queries as f64 / service_secs,
            }
        })
        .collect();

    ServiceReport {
        ref_qps,
        cores,
        threads,
        sessions: cfg.sessions,
        queries_per_session: cfg.queries_per_session,
        chunk_len: cfg.chunk_len,
        num_nodes: g.num_nodes(),
        num_edges: g.num_edges(),
        parallel: spnet_core::PARALLEL_ENABLED,
        bit_identical,
        single_qps,
        service_qps,
        speedup: service_qps / single_qps,
        executed,
        stolen,
        methods,
    }
}

impl ServiceReport {
    /// Renders the report as a printable table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            "Service load — mixed-method concurrent sessions",
            &["traffic", "sessions", "queries", "service q/s"],
        );
        for m in &self.methods {
            t.row(vec![
                m.method.clone(),
                format!("{}", m.sessions),
                format!("{}", m.queries),
                fmt_f(m.service_qps),
            ]);
        }
        t.row(vec![
            "TOTAL".into(),
            format!("{}", self.sessions),
            format!("{}", self.sessions * self.queries_per_session),
            fmt_f(self.service_qps),
        ]);
        t.row(vec![
            "single-threaded".into(),
            format!("{}", self.sessions),
            format!("{}", self.sessions * self.queries_per_session),
            fmt_f(self.single_qps),
        ]);
        t
    }

    /// The report as a `spnet-service/v1` record.
    pub fn record(&self) -> Value {
        let traffic = |m: &MethodTraffic| {
            Value::obj([
                ("method", m.method.as_str().into()),
                ("sessions", m.sessions.into()),
                ("queries", m.queries.into()),
                ("service_qps", Value::measured(m.service_qps)),
            ])
        };
        Value::obj([
            ("schema", "spnet-service/v1".into()),
            ("ref_qps", Value::measured(self.ref_qps)),
            ("cores", self.cores.into()),
            ("threads", self.threads.into()),
            ("sessions", self.sessions.into()),
            ("queries_per_session", self.queries_per_session.into()),
            ("chunk_len", self.chunk_len.into()),
            ("num_nodes", self.num_nodes.into()),
            ("num_edges", self.num_edges.into()),
            ("parallel", self.parallel.into()),
            ("bit_identical", self.bit_identical.into()),
            ("single_qps", Value::measured(self.single_qps)),
            ("service_qps", Value::measured(self.service_qps)),
            ("speedup", Value::measured(self.speedup)),
            ("executed", self.executed.into()),
            ("stolen", self.stolen.into()),
            ("methods", self.methods.iter().map(traffic).collect()),
        ])
    }
}

/// Experiment entry point used by the `figures` binary: prints the
/// table and writes `BENCH_service.json` to the current directory.
pub fn service(cfg: &crate::config::HarnessConfig) -> Vec<(String, Table)> {
    let report = run_loadgen(&LoadgenConfig {
        seed: cfg.seed,
        ..LoadgenConfig::default()
    });
    crate::report::publish(
        "service",
        report.record(),
        vec![("service".into(), report.table())],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_loadgen_run_is_sane() {
        let cfg = LoadgenConfig {
            side: 6,
            sessions: 4,
            queries_per_session: 6,
            chunk_len: 3,
            threads: 2,
            rsa_bits: 256,
            cells: 9,
            landmarks: 6,
            seed: 7,
        };
        let report = run_loadgen(&cfg);
        assert!(report.bit_identical, "concurrency must not change answers");
        assert!(report.single_qps > 0.0 && report.service_qps > 0.0);
        assert!(report.executed > 0, "streams must use the scheduler");
        assert_eq!(report.methods.len(), 4);
        assert_eq!(
            report.methods.iter().map(|m| m.queries).sum::<usize>(),
            cfg.sessions * cfg.queries_per_session
        );
        assert_eq!(
            crate::gate::structural_violations("service", &report.record()),
            Vec::<String>::new()
        );
    }
}
