//! What a run accumulates and how it is printed: the metric tables
//! (the same names, units and order as `BENCHMARK.json`), operation
//! counts, order statistics, the host fingerprint and the result file.

use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics, printed by an untraced run.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("stream_qps", "queries/s"),
    ("proof_bytes_per_query", "bytes"),
    ("stream_bytes_per_query", "bytes"),
    ("update_p50_ms", "ms"),
    ("cold_start_ms", "ms"),
    ("snapshot_bytes", "bytes"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run.
pub const PER_LAYER: [(&str, &str); 63] = [
    // Demoted from the end-to-end table: too few seconds of a run can
    // go to each for their spread to stay inside a bound on this host.
    ("oneshot_p50_ms", "ms"),
    ("range_p50_ms", "ms"),
    ("knn_p50_ms", "ms"),
    ("churn_read_qps", "queries/s"),
    ("rsa.keygen_s", "s"),
    ("rsa.sign_ms", "ms"),
    ("rsa.verify_ms", "ms"),
    ("sha256.mb_per_s", "MB/s"),
    ("merkle.prove_us", "us"),
    ("merkle.reconstruct_us", "us"),
    ("graph.sssp_ms", "ms"),
    ("graph.ball_short_us", "us"),
    ("graph.ball_long_us", "us"),
    ("owner.publish_s", "s"),
    ("owner.construction_s", "s"),
    ("owner.sign_ops", "count"),
    ("store.save_s", "s"),
    ("store.load_file_ms", "ms"),
    ("store.load_mem_ms", "ms"),
    ("store.faults_per_query", "count"),
    ("store.evictions_per_query", "count"),
    ("store.refresh_ms", "ms"),
    ("store.refresh_pages_written", "count"),
    ("store.refresh_pages_total", "count"),
    ("store.refresh_in_place", "0/1"),
    ("provider.answer_p50_ms", "ms"),
    ("provider.answer_p99_ms", "ms"),
    ("provider.share", "fraction"),
    ("provider.share_long", "fraction"),
    ("provider.batch_ms_per_query", "ms"),
    ("wire.encode_p50_us", "us"),
    ("wire.decode_p50_us", "us"),
    ("wire.share", "fraction"),
    ("wire.batch_encode_us_per_query", "us"),
    ("wire.batch_decode_us_per_query", "us"),
    ("client.verify_pinned_p50_ms", "ms"),
    ("client.verify_pinned_p99_ms", "ms"),
    ("client.verify_unpinned_p50_ms", "ms"),
    ("client.share", "fraction"),
    ("client.share_long", "fraction"),
    ("client.batch_ms_per_query", "ms"),
    ("client.verify_peak_alloc_kb", "KB"),
    ("proof.s_bytes_per_query", "bytes"),
    ("proof.t_bytes_per_query", "bytes"),
    ("proof.s_items_per_query", "count"),
    ("proof.t_items_per_query", "count"),
    ("service.open_session_ms", "ms"),
    ("service.chunk_p50_ms", "ms"),
    ("service.inline_stream_qps", "queries/s"),
    ("service.prefetch_gain", "ratio"),
    ("service.sched_executed", "count"),
    ("service.sched_stolen", "count"),
    ("update.p90_ms", "ms"),
    ("update.sign_ops_per_update", "count"),
    ("update.reader_reopens", "count"),
    ("queries.range_answer_ms", "ms"),
    ("queries.range_verify_ms", "ms"),
    ("queries.range_bytes", "bytes"),
    ("queries.range_members", "count"),
    ("queries.knn_answer_ms", "ms"),
    ("queries.knn_verify_ms", "ms"),
    ("queries.knn_bytes", "bytes"),
    ("trace.overhead_pct", "%"),
];

/// Metrics that depend only on the inputs, so two runs with one seed
/// must agree on them to the last bit (`--repeat 2` asserts it).
pub const EXACT: [&str; 10] = [
    "proof_bytes_per_query",
    "stream_bytes_per_query",
    "snapshot_bytes",
    "proof.s_bytes_per_query",
    "proof.t_bytes_per_query",
    "proof.s_items_per_query",
    "proof.t_items_per_query",
    "store.faults_per_query",
    "owner.sign_ops",
    "queries.range_members",
];

/// Linear-interpolated percentile of `values` (`q` in 0..=1); NaN when
/// empty, which the final completeness check reports.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// The state of one workload run.
pub struct Run {
    pub tracer: Tracer,
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    info: BTreeMap<&'static str, f64>,
}

impl Run {
    pub fn new(traced: bool) -> Self {
        Run {
            tracer: Tracer::new(traced),
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            info: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// A figure for the result file that is not a declared metric.
    pub fn info(&mut self, name: &'static str, value: f64) {
        self.info.insert(name, value);
    }

    /// Counts one attempted operation; a failed one is logged, counted
    /// and yields `None`.
    pub fn op<T>(&mut self, what: &str, result: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(what, &e);
                None
            }
        }
    }

    /// Counts the operation as failed unless `ok` (an oracle mismatch).
    pub fn check(&mut self, what: &str, ok: bool) -> bool {
        if !ok {
            self.fail(what, "result differs from the Dijkstra oracle");
        }
        ok
    }

    fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        if self.failed <= 20 {
            eprintln!("[spnet-benchmark] FAILED {what}: {why}");
        }
    }
}

/// The metrics this kind of run must print, in table order; a missing
/// or non-finite one is an error.
pub fn declared(run: &Run, traced: bool) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    table
        .iter()
        .map(|&(name, unit)| match run.get(name) {
            Some(v) if v.is_finite() => Ok((name, v, unit)),
            Some(v) => Err(format!("metric {name} is {v}")),
            None => Err(format!("metric {name} was not measured")),
        })
        .collect()
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_object(metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The one-line result the driver parses.
pub fn result_line(run: &Run, correct: bool, metrics: &[(&str, f64, &str)]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.attempted,
        run.failed,
        metrics_object(metrics)
    )
}

/// Where the numbers were taken, so results from different hosts are
/// never compared raw.
pub struct Host {
    pub nproc: usize,
    pub git_rev: String,
    /// Textbook `dijkstra::reference::sssp` runs per second on a fixed
    /// 60×60 grid.
    pub probe_sssp_per_s: f64,
}

impl Host {
    pub fn probe() -> Self {
        use spnet_graph::algo::dijkstra::reference;
        use spnet_graph::NodeId;
        let g = spnet_graph::gen::grid_network(60, 60, 1.15, 1);
        let start = std::time::Instant::now();
        let mut runs = 0u32;
        while start.elapsed().as_secs_f64() < 0.1 {
            std::hint::black_box(reference::sssp(&g, NodeId(runs % 3600)));
            runs += 1;
        }
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            git_rev: git_rev().unwrap_or_else(|| "unknown".into()),
            probe_sssp_per_s: runs as f64 / start.elapsed().as_secs_f64(),
        }
    }
}

/// This package's directory, where results and run directories go:
/// the one `cargo run` names at run time, else the one compiled in.
pub fn package_dir() -> std::path::PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|| env!("CARGO_MANIFEST_DIR").into())
        .into()
}

/// HEAD of the repository holding the benchmark, read from `.git`
/// (there is none in an exported checkout).
fn git_rev() -> Option<String> {
    let git = package_dir().join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => Some(
            std::fs::read_to_string(git.join(r))
                .ok()?
                .trim()
                .to_string(),
        ),
        None => Some(head.to_string()),
    }
}

/// The result file: fingerprint, settings, every figure the run took
/// (declared or not) and the operation counts.
pub fn result_file(
    run: &Run,
    host: &Host,
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    correct: bool,
) -> String {
    let unit_of = |name: &str| {
        END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| u)
    };
    let all: Vec<(&str, f64, &str)> = run
        .metrics
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(&n, &v)| (n, v, unit_of(n)))
        .collect();
    let info: Vec<String> = run
        .info
        .iter()
        .map(|(n, v)| format!("{}: {v}", json_string(n)))
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"traced\": {traced},\n  \
         \"host\": {{\"nproc\": {}, \"git_rev\": {}, \"probe_sssp_per_s\": {}, \"parallel_enabled\": {}}},\n  \
         \"settings\": {{\"rsa_bits\": {}, \"key_seed\": {}, \"graph_seed\": {}, \"short_range\": {}, \"long_range\": {}, \"chunk_len\": {}, \
         \"threads\": {{\"read_phases\": \"1 session + 1 scheduler worker\", \"churn\": \"1 writer + 1 reader, no scheduler\"}}}},\n  \
         \"correct\": {correct},\n  \"attempted\": {},\n  \"failed\": {},\n  \"error_rate\": {},\n  \
         \"info\": {{{}}},\n  \"metrics\": {}\n}}\n",
        json_string(workload),
        host.nproc,
        json_string(&host.git_rev),
        host.probe_sssp_per_s,
        spnet_core::PARALLEL_ENABLED,
        crate::spec::RSA_BITS,
        crate::spec::KEY_SEED,
        crate::spec::GRAPH_SEED,
        crate::spec::SHORT_RANGE,
        crate::spec::LONG_RANGE,
        crate::spec::CHUNK_LEN,
        run.attempted,
        run.failed,
        run.failed as f64 / run.attempted.max(1) as f64,
        info.join(", "),
        metrics_object(&all),
    )
}
