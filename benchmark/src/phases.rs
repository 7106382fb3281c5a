//! The phases of a workload run, in the order `main` calls them. Each
//! drives the system through its public API the way a deployment
//! would, times whole operations with one `Instant` pair, records a
//! span around every call into a layer when the tracer is on, and
//! compares every verified result with the plain-Dijkstra oracle
//! outside the timed region.

use crate::inputs::{close, oracle_distance, Inputs, Pair, PairList};
use crate::report::{median, percentile, Run};
use crate::spec::{self, Spec};
use crate::trace::{Tracer, NONE};
use spnet_core::ads::SignedRoot;
use spnet_core::owner::{DataOwner, ProviderPackage, SetupConfig};
use spnet_core::proof::{Answer, ProofStats};
use spnet_core::provider::ServiceProvider;
use spnet_core::service::{Session, SessionError};
use spnet_core::snapshot::SnapshotRefresh;
use spnet_core::wire;
use spnet_core::{Client, SpService, StoreBackend};
use spnet_crypto::rsa::{signing_ops, RsaKeyPair, RsaPublicKey};
use spnet_graph::gen::road_network;
use spnet_graph::order::NodeOrdering;
use spnet_graph::search::SearchWorkspace;
use spnet_graph::{Graph, NodeId};
use spnet_queries::wire::{decode_knn_answer, encode_knn_answer};
use spnet_queries::{knn, PoiSet};
use spnet_store::NodeStore;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Upper limit on sweeps of the read phases, whatever `--seconds` says.
const MAX_SWEEPS: usize = 5;

/// The read phases of a run: a warm-up round, then whole sweeps until
/// the next one would overrun `budget` seconds (at least one). A
/// traced run makes one sweep with spans on, the flipped query pass
/// and the direct layer calls instead.
pub fn reads(run: &mut Run, d: &Deployment, graph: &Graph, inputs: &Inputs, budget: f64) {
    let mut reads = Reads::new(d, graph, inputs, run.tracer.on);
    let start = Instant::now();
    reads.warm_up(run);
    let mark = run.tracer.mark();
    let mut sweeps = 0;
    loop {
        let sweep_start = Instant::now();
        let pass = if sweeps == 0 {
            Pass::First
        } else {
            Pass::Later
        };
        for q in 0..4 {
            reads.round(run, q, pass);
        }
        sweeps += 1;
        let next_ends = start.elapsed() + sweep_start.elapsed();
        if run.tracer.on || sweeps >= MAX_SWEEPS || next_ends.as_secs_f64() > budget {
            break;
        }
    }
    run.info("read_sweeps", sweeps as f64);
    if run.tracer.on {
        reads.query_flipped(run);
    }
    reads.finish(run, mark);
    if run.tracer.on {
        stream_layers(run, d, inputs);
    }
}

fn ms(secs: f64) -> f64 {
    secs * 1e3
}

/// A removed-on-drop directory for the snapshots of one run.
pub struct RunDir(pub PathBuf);

impl RunDir {
    pub fn create(workload: &str) -> std::io::Result<Self> {
        let dir = crate::report::package_dir()
            .join(".run")
            .join(format!("{workload}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything `setup` leaves behind for the read phases.
pub struct Deployment {
    pub dir: PathBuf,
    pub store: NodeStore,
    /// The harness's handle on the provider role, for the phases that
    /// carry an answer over bytes themselves.
    pub provider: ServiceProvider,
    pub service: SpService,
    pub session: Session,
    pub root: SignedRoot,
    pub pois: PoiSet,
    pub public_key: RsaPublicKey,
    pub client: Client,
}

/// Owner publishes, the snapshot goes to disk, the provider cold-loads
/// it on the `File` backend and a client opens a session: the time
/// before the first query can be served. Returns the deployment and
/// the seconds it took.
pub fn setup(
    run: &mut Run,
    spec: &Spec,
    keypair: &RsaKeyPair,
    pois: &[(NodeId, f64)],
    dir: &Path,
) -> (Deployment, f64) {
    let tr = &mut run.tracer;
    let start = Instant::now();
    let op = tr.begin("op.setup", NONE, 0);
    let graph = road_network(spec.side, spec.side, 1.05, 1.0, spec::GRAPH_SEED);
    let cfg = SetupConfig {
        ordering: NodeOrdering::Hilbert,
        fanout: 2,
        seed: spec::GRAPH_SEED,
        rsa_bits: spec::RSA_BITS,
    };
    let signs = signing_ops();
    let published = tr.span("owner.publish", op, 0, || {
        DataOwner::publish_with_key(&graph, &(spec.method)(), &cfg, keypair)
    });
    let sign_ops = signing_ops() - signs;
    let pois = tr.span("queries.poi_publish", op, 0, || {
        PoiSet::publish(keypair, pois).expect("distinct POIs")
    });
    std::fs::create_dir_all(dir).expect("snapshot directory");
    tr.span("store.save", op, 0, || {
        published.save_snapshot(dir).expect("snapshot save")
    });
    let public_key = published.public_key.clone();
    let construction_s = published.construction_seconds;
    drop(published);
    let loaded = tr.span("store.load_file", op, 0, || {
        ProviderPackage::load_snapshot(dir, StoreBackend::File).expect("snapshot load")
    });
    let provider = ServiceProvider::new(loaded.package);
    let service = SpService::builder()
        .provider(provider.clone())
        .threads(1)
        .build();
    let client = Client::new(public_key.clone());
    let session = tr.span("service.open_session", op, 0, || {
        service
            .open_session(client.clone())
            .expect("authentic epoch")
    });
    tr.end(op);
    let secs = start.elapsed().as_secs_f64();

    run.set("owner.construction_s", construction_s);
    run.set("owner.sign_ops", sign_ops as f64);
    let root = provider.package().network_root.clone();
    (
        Deployment {
            dir: dir.to_path_buf(),
            store: loaded.store,
            provider,
            service,
            session,
            root,
            pois,
            public_key,
            client,
        },
        secs,
    )
}

/// Latency samples per operation of a list, one per sweep.
struct Samples(Vec<Vec<f64>>);

impl Samples {
    fn new(ops: usize) -> Self {
        Samples(vec![Vec::new(); ops])
    }

    fn push(&mut self, op: usize, secs: f64) {
        self.0[op].push(secs);
    }

    /// Each measured operation's median over the sweeps.
    fn per_op(&self) -> Vec<f64> {
        self.0
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(s))
            .collect()
    }
}

/// Quarter `q` of a list of `n` operations: groups of `group` dealt
/// round-robin, so each quarter keeps the list's mix of classes.
fn quarter(n: usize, group: usize, q: usize) -> impl Iterator<Item = usize> {
    (0..n).filter(move |i| (i / group) % 4 == q)
}

/// The lists of samples a round adds to.
#[derive(Clone, Copy)]
enum Slot {
    Query,
    /// Traced run only: the query samples taken with spans on.
    QueryTraced,
    Oneshot,
    /// Seconds per quarter of the stream list.
    Stream,
    Range,
    Knn,
    Cold,
}

/// What a round does with its measurements.
#[derive(Clone, Copy, PartialEq)]
enum Pass {
    /// Untimed warm-up; results are still checked.
    Warm,
    /// First sweep: latencies, and the counts that must repeat exactly.
    First,
    /// Later sweeps: latencies only.
    Later,
}

/// The read phases — `query`, `oneshot`, `stream`, `range`, `knn`,
/// `cold` — run as rounds. A round does a quarter of every phase's
/// list; four rounds are a sweep over all of them. On the sandbox all
/// work runs 1.3× slower for 5–15 s at a time, so a phase measured in
/// one block reports the luck of that block; dealt across the run,
/// every phase's samples see the same mix of fast and slow moments.
struct Reads<'a> {
    d: &'a Deployment,
    graph: &'a Graph,
    inputs: &'a Inputs,
    ws: SearchWorkspace,
    /// Whether the rounds include the phases whose metrics are
    /// per-layer only (`oneshot`, `range`, `knn`): a traced run.
    secondary: bool,
    /// Measured latencies, one list per [`Slot`].
    samples: [Samples; 7],
    proof_bytes: usize,
    proof_stats: ProofStats,
    faults: u64,
    evictions: u64,
    range_bytes: usize,
    range_members: usize,
    knn_bytes: usize,
}

impl<'a> Reads<'a> {
    fn new(d: &'a Deployment, graph: &'a Graph, inputs: &'a Inputs, secondary: bool) -> Self {
        let queries = inputs.query.pairs.len();
        Reads {
            d,
            graph,
            inputs,
            ws: SearchWorkspace::with_capacity(graph.num_nodes()),
            secondary,
            // In `Slot` order.
            samples: [
                Samples::new(queries),
                Samples::new(queries),
                Samples::new(spec::ONESHOT_PAIRS),
                Samples::new(4),
                Samples::new(inputs.range_sources.len()),
                Samples::new(inputs.knn_sources.len()),
                Samples::new(1),
            ],
            proof_bytes: 0,
            proof_stats: ProofStats::default(),
            faults: 0,
            evictions: 0,
            range_bytes: 0,
            range_members: 0,
            knn_bytes: 0,
        }
    }

    /// The frames of the whole stream list (their exact size is a
    /// metric), then one untimed round.
    fn warm_up(&mut self, run: &mut Run) {
        let list = &self.inputs.stream;
        let frames: usize = self
            .d
            .provider
            .answer_stream(&list.pairs, spec::CHUNK_LEN)
            .map(|f| f.map_or(0, |f| f.len()))
            .sum();
        run.set(
            "stream_bytes_per_query",
            frames as f64 / list.pairs.len() as f64,
        );
        let traced = run.tracer.on;
        run.tracer.on = false;
        self.round(run, 0, Pass::Warm);
        run.tracer.on = traced;
    }

    /// Quarter `q` of every read phase.
    fn round(&mut self, run: &mut Run, q: usize, pass: Pass) {
        self.query_quarter(run, q, pass, 0);
        self.stream_quarter(run, q, pass);
        self.cold_starts(run, pass);
        if self.secondary {
            self.oneshot_quarter(run, q, pass);
            self.range_quarter(run, q, pass);
            self.knn_quarter(run, q, pass);
        }
    }

    fn per_op(&self, slot: Slot) -> Vec<f64> {
        self.samples[slot as usize].per_op()
    }

    /// Traced run: the query list once more with the traced and
    /// untraced halves swapped.
    fn query_flipped(&mut self, run: &mut Run) {
        for q in 0..4 {
            self.query_quarter(run, q, Pass::Later, 1);
        }
    }

    /// One verified single-pair round trip over bytes: the seconds it
    /// took, the verified distance and the encoded length. The
    /// provider's answer is handed back so that its statistics are
    /// read outside the timed region.
    fn round_trip(
        &self,
        tr: &mut Tracer,
        op_name: &'static str,
        pinned: bool,
        id: u32,
        (s, t): Pair,
    ) -> Result<(f64, f64, usize, Answer), String> {
        let d = self.d;
        let start = Instant::now();
        let op = tr.begin(op_name, NONE, id);
        let answer = tr
            .span("provider.answer", op, id, || d.provider.answer(s, t))
            .map_err(|e| e.to_string())?;
        let bytes = tr.span("wire.encode", op, id, || wire::encode_answer(&answer));
        let decoded = tr
            .span("wire.decode", op, id, || wire::decode_answer(&bytes))
            .map_err(|e| e.to_string())?;
        let verified = if pinned {
            tr.span("client.verify_pinned", op, id, || {
                d.client
                    .verify_pinned(s, t, &decoded, &d.root, Some(d.session.pins()))
            })
        } else {
            tr.span("client.verify_unpinned", op, id, || {
                d.client.verify(s, t, &decoded)
            })
        }
        .map_err(|e| e.to_string())?;
        tr.end(op);
        let secs = start.elapsed().as_secs_f64();
        Ok((secs, verified.distance, bytes.len(), answer))
    }

    /// `query`: the in-session round trip, one pair at a time. A
    /// traced run records spans for the groups of 16 pairs of parity
    /// `traced_parity`: one parity in the rounds, the other in
    /// `query_flipped`, so that the traced and the untraced samples
    /// both cover the whole list and are interleaved in time.
    fn query_quarter(&mut self, run: &mut Run, q: usize, pass: Pass, traced_parity: usize) {
        let list = &self.inputs.query;
        let traced = run.tracer.on;
        let (faults, evictions) = (self.d.store.fault_count(), self.d.store.evict_count());
        for i in quarter(list.pairs.len(), 4, q) {
            let spans = traced && (i / 16) % 2 == traced_parity;
            run.tracer.on = spans;
            let r = self.round_trip(&mut run.tracer, "op.query", true, i as u32, list.pairs[i]);
            let Some((secs, dist, len, answer)) = run.op("op.query", r) else {
                continue;
            };
            if run.check("op.query", close(dist, list.dist[i])) && pass != Pass::Warm {
                let slot = if spans {
                    Slot::QueryTraced
                } else {
                    Slot::Query
                };
                self.samples[slot as usize].push(i, secs);
            }
            if pass == Pass::First {
                self.proof_bytes += len;
                self.proof_stats.add(&answer.stats());
            }
        }
        run.tracer.on = traced;
        if pass == Pass::First {
            self.faults += self.d.store.fault_count() - faults;
            self.evictions += self.d.store.evict_count() - evictions;
        }
    }

    /// `oneshot`: the paper's session-less protocol — every answer
    /// pays one RSA verification per signed root it carries.
    fn oneshot_quarter(&mut self, run: &mut Run, q: usize, pass: Pass) {
        let list = &self.inputs.query;
        for i in quarter(spec::ONESHOT_PAIRS.min(list.pairs.len()), 4, q) {
            let r = self.round_trip(
                &mut run.tracer,
                "op.oneshot",
                false,
                i as u32,
                list.pairs[i],
            );
            if let Some((secs, dist, _, _)) = run.op("op.oneshot", r) {
                if run.check("op.oneshot", close(dist, list.dist[i])) && pass != Pass::Warm {
                    self.samples[Slot::Oneshot as usize].push(i, secs);
                }
            }
        }
    }

    /// `stream`: pooled chunks through the session, the scheduler
    /// proving chunk k+1 while the client verifies chunk k.
    fn stream_quarter(&mut self, run: &mut Run, q: usize, pass: Pass) {
        let n = self.inputs.stream.pairs.len();
        let range = q * n / 4..(q + 1) * n / 4;
        let secs = stream_pass(run, &self.d.session, &self.inputs.stream, range);
        if pass != Pass::Warm {
            self.samples[Slot::Stream as usize].push(q, secs);
        }
    }

    /// `range`: every node within the short radius of a source,
    /// certified complete.
    fn range_quarter(&mut self, run: &mut Run, q: usize, pass: Pass) {
        let radius = spec::SHORT_RANGE;
        let session = &self.d.session;
        for i in quarter(self.inputs.range_sources.len(), 1, q) {
            let s = self.inputs.range_sources[i];
            let id = i as u32;
            let tr = &mut run.tracer;
            let start = Instant::now();
            let op = tr.begin("op.range", NONE, id);
            let r = (|| -> Result<(Vec<(NodeId, f64)>, usize), String> {
                let answer = tr
                    .span("queries.range_answer", op, id, || {
                        session.answer_range(s, radius)
                    })
                    .map_err(|e| e.to_string())?;
                let bytes = tr.span("wire.range_encode", op, id, || {
                    wire::encode_range_answer(&answer)
                });
                let decoded = tr
                    .span("wire.range_decode", op, id, || {
                        wire::decode_range_answer(&bytes)
                    })
                    .map_err(|e| e.to_string())?;
                let verified = tr
                    .span("queries.range_verify", op, id, || {
                        session.verify_range(s, radius, &decoded)
                    })
                    .map_err(|e| e.to_string())?;
                Ok((verified, bytes.len()))
            })();
            tr.end(op);
            let secs = start.elapsed().as_secs_f64();
            let Some((verified, len)) = run.op("op.range", r) else {
                continue;
            };
            let ok = range_matches(&mut self.ws, self.graph, s, radius, &verified);
            if run.check("op.range", ok) && pass != Pass::Warm {
                self.samples[Slot::Range as usize].push(i, secs);
            }
            if pass == Pass::First {
                self.range_bytes += len;
                self.range_members += verified.len();
            }
        }
    }

    /// `knn`: the k nearest of the owner-signed POIs, certified
    /// against omission.
    fn knn_quarter(&mut self, run: &mut Run, q: usize, pass: Pass) {
        let (session, pois) = (&self.d.session, &self.d.pois);
        for i in quarter(self.inputs.knn_sources.len(), 1, q) {
            let s = self.inputs.knn_sources[i];
            let id = i as u32;
            let tr = &mut run.tracer;
            let start = Instant::now();
            let op = tr.begin("op.knn", NONE, id);
            let r = (|| -> Result<(Vec<knn::Neighbor>, usize), String> {
                let answer = tr
                    .span("queries.knn_answer", op, id, || {
                        knn::answer_knn(session, pois, s, spec::KNN_K)
                    })
                    .map_err(|e| e.to_string())?;
                let bytes = tr.span("wire.knn_encode", op, id, || encode_knn_answer(&answer));
                let decoded = tr
                    .span("wire.knn_decode", op, id, || decode_knn_answer(&bytes))
                    .map_err(|e| e.to_string())?;
                let ranked = tr
                    .span("queries.knn_verify", op, id, || {
                        knn::verify_knn(session, s, spec::KNN_K, &decoded)
                    })
                    .map_err(|e| e.to_string())?;
                Ok((ranked, bytes.len()))
            })();
            tr.end(op);
            let secs = start.elapsed().as_secs_f64();
            let Some((ranked, len)) = run.op("op.knn", r) else {
                continue;
            };
            let view = self.ws.sssp(self.graph, s);
            let mut truth: Vec<(f64, u32)> = self
                .inputs
                .pois
                .iter()
                .map(|&(v, _)| (view.dist(v), v.0))
                .collect();
            truth.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let ok = ranked.len() == spec::KNN_K as usize
                && ranked
                    .iter()
                    .zip(&truth)
                    .all(|(n, &(x, v))| n.node.0 == v && close(n.distance, x));
            if run.check("op.knn", ok) && pass != Pass::Warm {
                self.samples[Slot::Knn as usize].push(i, secs);
            }
            if pass == Pass::First {
                self.knn_bytes += len;
            }
        }
    }

    /// `cold`: restart from the snapshot on disk to the first verified
    /// answer — as many restarts as fit `COLD_SECONDS_PER_ROUND`, at
    /// least one, so the cheap restarts of the small workloads get
    /// enough samples for a steady median.
    fn cold_starts(&mut self, run: &mut Run, pass: Pass) {
        let pair = self.inputs.query.pairs[0];
        let round_start = Instant::now();
        loop {
            let start = Instant::now();
            let r = restart(&mut run.tracer, &self.d.dir, &self.d.public_key, pair);
            let secs = start.elapsed().as_secs_f64();
            if let Some(dist) = run.op("op.cold", r) {
                if run.check("op.cold", close(dist, self.inputs.query.dist[0]))
                    && pass != Pass::Warm
                {
                    self.samples[Slot::Cold as usize].push(0, secs);
                }
            }
            if round_start.elapsed().as_secs_f64() + secs > spec::COLD_SECONDS_PER_ROUND {
                break;
            }
        }
    }

    /// Turns the samples into metrics.
    fn finish(self, run: &mut Run, mark: usize) {
        let inputs = self.inputs;
        let n = inputs.query.pairs.len() as f64;
        let query = self.per_op(Slot::Query);
        run.set("query_p50_ms", ms(percentile(&query, 0.50)));
        run.set("query_p99_ms", ms(percentile(&query, 0.99)));
        let stream_secs: f64 = self.per_op(Slot::Stream).iter().sum();
        run.set("stream_qps", inputs.stream.pairs.len() as f64 / stream_secs);
        run.set("cold_start_ms", ms(median(&self.per_op(Slot::Cold))));

        run.set("proof_bytes_per_query", self.proof_bytes as f64 / n);
        run.set(
            "proof.s_bytes_per_query",
            self.proof_stats.s_bytes as f64 / n,
        );
        run.set(
            "proof.t_bytes_per_query",
            self.proof_stats.t_bytes as f64 / n,
        );
        run.set(
            "proof.s_items_per_query",
            self.proof_stats.s_items as f64 / n,
        );
        run.set(
            "proof.t_items_per_query",
            self.proof_stats.t_items as f64 / n,
        );
        run.set("store.faults_per_query", self.faults as f64 / n);
        run.set("store.evictions_per_query", self.evictions as f64 / n);
        if self.secondary {
            run.set("oneshot_p50_ms", ms(median(&self.per_op(Slot::Oneshot))));
            run.set("range_p50_ms", ms(median(&self.per_op(Slot::Range))));
            run.set("knn_p50_ms", ms(median(&self.per_op(Slot::Knn))));
            let ranges = inputs.range_sources.len() as f64;
            run.set("queries.range_bytes", self.range_bytes as f64 / ranges);
            run.set("queries.range_members", self.range_members as f64 / ranges);
            run.set(
                "queries.knn_bytes",
                self.knn_bytes as f64 / inputs.knn_sources.len() as f64,
            );
        }
        let roots = 1 + self.d.provider.package().hints.aux_roots().len();
        run.info("signed_roots_per_answer", roots as f64);

        if !run.tracer.on {
            return;
        }
        let traced = self.per_op(Slot::QueryTraced);
        run.set(
            "trace.overhead_pct",
            (percentile(&traced, 0.50) / percentile(&query, 0.50) - 1.0) * 100.0,
        );
        layer_shares(run, mark, &inputs.query.long);
        let layer_p50s = [
            ("client.verify_unpinned_p50_ms", "client.verify_unpinned"),
            ("service.chunk_p50_ms", "service.chunk"),
            ("queries.range_answer_ms", "queries.range_answer"),
            ("queries.range_verify_ms", "queries.range_verify"),
            ("queries.knn_answer_ms", "queries.knn_answer"),
            ("queries.knn_verify_ms", "queries.knn_verify"),
        ];
        for (metric, span) in layer_p50s {
            let secs = Tracer::durations(run.tracer.since(mark), span);
            run.set(metric, ms(percentile(&secs, 0.50)));
        }
        let (executed, stolen) = self.d.service.scheduler_stats().unwrap_or((0, 0));
        run.set("service.sched_executed", executed as f64);
        run.set("service.sched_stolen", stolen as f64);
    }
}

/// Snapshot on disk → `File`-backend load → service → session → first
/// verified answer; returns its distance.
fn restart(
    tr: &mut Tracer,
    dir: &Path,
    public_key: &RsaPublicKey,
    (s, t): Pair,
) -> Result<f64, String> {
    let op = tr.begin("op.cold", NONE, 0);
    let loaded = tr
        .span("store.load_file", op, 0, || {
            ProviderPackage::load_snapshot(dir, StoreBackend::File)
        })
        .map_err(|e| e.to_string())?;
    let service = SpService::builder()
        .package(loaded.package)
        .threads(1)
        .build();
    let session = tr
        .span("service.open_session", op, 0, || {
            service.open_session(Client::new(public_key.clone()))
        })
        .map_err(|e| e.to_string())?;
    let answer = tr
        .span("service.first_query", op, 0, || session.query(s, t))
        .map_err(|e| e.to_string())?;
    tr.end(op);
    Ok(answer.distance)
}

/// Streams `list[range]` through `session`; returns the seconds it
/// took. Distances are checked after the clock stops.
fn stream_pass(
    run: &mut Run,
    session: &Session,
    list: &PairList,
    range: std::ops::Range<usize>,
) -> f64 {
    let pairs = &list.pairs[range.clone()];
    let mut got = Vec::with_capacity(pairs.len());
    let mut error = None;
    let start = Instant::now();
    let op = run.tracer.begin("op.stream", NONE, range.start as u32);
    let mut stream = session.query_stream_chunked(pairs, spec::CHUNK_LEN);
    let mut chunk = 0u32;
    loop {
        let next = run
            .tracer
            .span("service.chunk", op, chunk, || stream.next());
        chunk += 1;
        match next {
            Some(Ok(answers)) => got.extend(answers.into_iter().map(|a| a.distance)),
            Some(Err(e)) => {
                error = Some(e.to_string());
                break;
            }
            None => break,
        }
    }
    run.tracer.end(op);
    let secs = start.elapsed().as_secs_f64();
    for (k, i) in range.enumerate() {
        let r = match got.get(k) {
            Some(&dist) => Ok(dist),
            None => Err(error.clone().unwrap_or_else(|| "stream ended early".into())),
        };
        if let Some(dist) = run.op("op.stream", r) {
            run.check("op.stream", close(dist, list.dist[i]));
        }
    }
    secs
}

/// Per-layer numbers of the traced `query` operations: each layer's
/// call latencies, and its self time as a share of the round trip over
/// the whole list and over the long-range class.
fn layer_shares(run: &mut Run, mark: usize, long: &[bool]) {
    let spans = run.tracer.since(mark);
    let secs = |name: &str| Tracer::durations(spans, name);
    let answer = secs("provider.answer");
    let encode = secs("wire.encode");
    let decode = secs("wire.decode");
    let verify = secs("client.verify_pinned");
    // A layer's share is its self time (span minus children) over the
    // operations' durations. Today the layer spans are leaves — spans
    // inside spnet-* are a later change — so an operation's own self
    // time is the harness's glue between the calls.
    let own = run.tracer.self_times(mark);
    let mut total = [0.0f64; 2];
    let mut layer = [[0.0f64; 2]; 3];
    let mut in_query = false;
    for (s, own) in spans.iter().zip(own) {
        if s.parent == NONE {
            in_query = s.name == "op.query";
        }
        if !in_query {
            continue;
        }
        let (slot, secs) = match s.name {
            "op.query" => (None, s.secs()),
            "provider.answer" => (Some(0), own),
            "wire.encode" | "wire.decode" => (Some(1), own),
            "client.verify_pinned" => (Some(2), own),
            _ => continue,
        };
        let classes = if long[s.op_id as usize] { 2 } else { 1 };
        for class in 0..classes {
            match slot {
                None => total[class] += secs,
                Some(l) => layer[l][class] += secs,
            }
        }
    }
    run.set("provider.answer_p50_ms", ms(percentile(&answer, 0.50)));
    run.set("provider.answer_p99_ms", ms(percentile(&answer, 0.99)));
    run.set("wire.encode_p50_us", percentile(&encode, 0.50) * 1e6);
    run.set("wire.decode_p50_us", percentile(&decode, 0.50) * 1e6);
    run.set("client.verify_pinned_p50_ms", ms(percentile(&verify, 0.50)));
    run.set("client.verify_pinned_p99_ms", ms(percentile(&verify, 0.99)));
    run.set("provider.share", layer[0][0] / total[0]);
    run.set("provider.share_long", layer[0][1] / total[1]);
    run.set("wire.share", layer[1][0] / total[0]);
    run.set("client.share", layer[2][0] / total[0]);
    run.set("client.share_long", layer[2][1] / total[1]);
}

/// Traced run only: the stream list on a service without a scheduler,
/// and the two halves of a chunk and its codec called directly.
fn stream_layers(run: &mut Run, d: &Deployment, inputs: &Inputs) {
    let list = &inputs.stream;
    let n = list.pairs.len();
    let scheduled_qps = run.get("stream_qps").unwrap_or(f64::NAN);

    let inline = SpService::builder()
        .provider(d.provider.clone())
        .threads(0)
        .build();
    let session = inline
        .open_session(d.client.clone())
        .expect("authentic epoch");
    run.tracer.on = false;
    stream_pass(run, &session, list, 0..n / 4);
    let inline_qps = n as f64 / stream_pass(run, &session, list, 0..n);
    run.tracer.on = true;
    run.set("service.inline_stream_qps", inline_qps);
    run.set("service.prefetch_gain", scheduled_qps / inline_qps);

    let mark = run.tracer.mark();
    for (c, chunk) in list.pairs.chunks(spec::CHUNK_LEN).enumerate() {
        let id = c as u32;
        let tr = &mut run.tracer;
        let op = tr.begin("op.batch", NONE, id);
        let r = (|| -> Result<Vec<f64>, String> {
            let batch = tr
                .span("provider.batch", op, id, || d.session.answer_batch(chunk))
                .map_err(|e| e.to_string())?;
            let bytes = tr.span("wire.batch_encode", op, id, || {
                wire::encode_batch_answer(&batch)
            });
            let decoded = tr
                .span("wire.batch_decode", op, id, || {
                    wire::decode_batch_answer(&bytes)
                })
                .map_err(|e| e.to_string())?;
            tr.span("client.batch", op, id, || {
                d.session.verify_batch(chunk, &decoded)
            })
            .map_err(|e| e.to_string())
        })();
        tr.end(op);
        if let Some(dists) = run.op("op.batch", r) {
            let base = c * spec::CHUNK_LEN;
            let ok = dists
                .iter()
                .enumerate()
                .all(|(i, &x)| close(x, list.dist[base + i]));
            run.check("op.batch", ok);
        }
    }
    let spans = run.tracer.since(mark);
    let per_query = |name: &str| Tracer::durations(spans, name).iter().sum::<f64>() / n as f64;
    let (pb, we, wd, cb) = (
        per_query("provider.batch"),
        per_query("wire.batch_encode"),
        per_query("wire.batch_decode"),
        per_query("client.batch"),
    );
    run.set("provider.batch_ms_per_query", ms(pb));
    run.set("wire.batch_encode_us_per_query", we * 1e6);
    run.set("wire.batch_decode_us_per_query", wd * 1e6);
    run.set("client.batch_ms_per_query", ms(cb));
}

/// The verified member set equals the oracle ball, leaving nodes
/// within rounding of the boundary to either side.
fn range_matches(
    ws: &mut SearchWorkspace,
    g: &Graph,
    s: NodeId,
    radius: f64,
    verified: &[(NodeId, f64)],
) -> bool {
    let slack = radius * 1e-6;
    let ball = ws.ball(g, s, radius + slack);
    let inside = ball
        .settled_nodes()
        .filter(|&v| ball.dist(v) <= radius - slack)
        .count();
    let certain = verified
        .iter()
        .filter(|&&(_, x)| x <= radius - slack)
        .count();
    inside == certain
        && verified
            .iter()
            .all(|&(v, x)| ball.settled(v) && close(x, ball.dist(v)))
}

/// One tampered answer must be rejected by the client.
pub fn canary(run: &mut Run, d: &Deployment, graph: &Graph, inputs: &Inputs) {
    let (s, t) = inputs.query.pairs[0];
    let rejected = d.provider.answer(s, t).ok().and_then(|honest| {
        let evil = spnet_core::tamper::apply(
            spnet_core::tamper::Attack::UnderstatedDistance,
            graph,
            &honest,
        )?;
        let decoded = wire::decode_answer(&wire::encode_answer(&evil)).ok()?;
        Some(
            d.client
                .verify_pinned(s, t, &decoded, &d.root, Some(d.session.pins()))
                .is_err(),
        )
    });
    run.attempted += 1;
    run.check("canary", rejected == Some(true));
    run.info("tamper_canary_rejected", f64::from(rejected == Some(true)));
}

/// `churn`: owner re-weights land through the service while a reader
/// keeps opening sessions and streaming verified queries. Leaves the
/// snapshot in `dir` refreshed and returns the updated oracle graph.
pub fn churn(
    run: &mut Run,
    dir: &Path,
    graph: &Graph,
    inputs: &Inputs,
    keypair: &RsaKeyPair,
    public_key: &RsaPublicKey,
) -> Graph {
    let service = run
        .tracer
        .span("store.load_mem", NONE, 0, || {
            SpService::builder().snapshot(dir, StoreBackend::Mem)
        })
        .expect("snapshot load")
        .threads(0)
        .build();
    let short: Vec<usize> = (0..inputs.query.pairs.len())
        .filter(|&i| !inputs.query.long[i])
        .collect();
    let bursts: Vec<&[usize]> = short.chunks_exact(spec::CHURN_BURST).collect();
    assert!(!bursts.is_empty(), "query list too short for a churn burst");
    let client = Client::new(public_key.clone());

    let signs = signing_ops();
    let done = AtomicBool::new(false);
    // (epoch, query index, verified distance) of every read.
    let mut reads: Vec<(u64, usize, f64)> = Vec::new();
    let mut read_errors: Vec<String> = Vec::new();
    let mut reopens = 0u64;
    let mut read_secs = 0.0;
    let mut update_secs: Vec<Result<f64, String>> = Vec::new();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let mut out = Vec::with_capacity(inputs.updates.len());
            for &(u, v, w) in &inputs.updates {
                // Owner think time. Without it the writer retakes the
                // shard lock before a woken reader is scheduled, and
                // the reader's share is decided by that race.
                std::thread::sleep(spec::UPDATE_GAP);
                let start = Instant::now();
                let r = service.update_edge_weight(keypair, u, v, w);
                out.push(
                    r.map(|_| start.elapsed().as_secs_f64())
                        .map_err(|e| e.to_string()),
                );
            }
            done.store(true, Ordering::SeqCst);
            out
        });
        let reader = scope.spawn(|| {
            let mut reads = Vec::new();
            let mut errors = Vec::new();
            let mut reopens = 0u64;
            let start = Instant::now();
            let mut burst = 0usize;
            loop {
                if done.load(Ordering::SeqCst) && burst > 0 {
                    break;
                }
                let idx = bursts[burst % bursts.len()];
                burst += 1;
                let pairs: Vec<Pair> = idx.iter().map(|&i| inputs.query.pairs[i]).collect();
                let session = match service.open_session(client.clone()) {
                    Ok(s) => s,
                    Err(e) => {
                        errors.push(e.to_string());
                        continue;
                    }
                };
                let mut at = 0usize;
                for chunk in session.query_stream_chunked(&pairs, spec::CHUNK_LEN) {
                    match chunk {
                        Ok(answers) => {
                            for a in answers {
                                reads.push((session.epoch(), idx[at], a.distance));
                                at += 1;
                            }
                        }
                        Err(SessionError::EpochInvalidated { .. }) => {
                            reopens += 1;
                            break;
                        }
                        Err(e) => {
                            errors.push(e.to_string());
                            break;
                        }
                    }
                }
            }
            (reads, errors, reopens, start.elapsed().as_secs_f64())
        });
        update_secs = writer.join().expect("writer thread");
        (reads, read_errors, reopens, read_secs) = reader.join().expect("reader thread");
    });
    let sign_ops = signing_ops() - signs;

    let mut update_ms = Vec::new();
    for r in update_secs {
        if let Some(secs) = run.op("op.update", r) {
            update_ms.push(ms(secs));
        }
    }
    for e in read_errors {
        run.op::<()>("op.churn_read", Err(e));
    }
    // Replay the updates on the oracle graph, checking each read
    // against the graph of the epoch its session was bound to.
    let mut oracle = graph.clone();
    let mut truth: HashMap<(u64, usize), f64> = HashMap::new();
    reads.sort_by_key(|r| r.0);
    let mut applied = 0u64;
    for &(epoch, i, dist) in &reads {
        while applied < epoch {
            let (u, v, w) = inputs.updates[applied as usize];
            oracle.set_edge_weight(u, v, w).expect("edge exists");
            applied += 1;
        }
        let want = *truth
            .entry((epoch, i))
            .or_insert_with(|| oracle_distance(&oracle, inputs.query.pairs[i]));
        run.attempted += 1;
        run.check("op.churn_read", close(dist, want));
    }
    for &(u, v, w) in &inputs.updates[applied as usize..] {
        oracle.set_edge_weight(u, v, w).expect("edge exists");
    }

    run.set("update_p50_ms", percentile(&update_ms, 0.50));
    run.set("update.p90_ms", percentile(&update_ms, 0.90));
    run.set("churn_read_qps", reads.len() as f64 / read_secs);
    run.set(
        "update.sign_ops_per_update",
        sign_ops as f64 / inputs.updates.len() as f64,
    );
    run.set("update.reader_reopens", reopens as f64);

    let start = Instant::now();
    let refresh = run.tracer.span("store.refresh", NONE, 0, || {
        service.refresh_shard_snapshot(0, public_key)
    });
    let secs = start.elapsed().as_secs_f64();
    if let Some(refresh) = run.op("op.refresh", refresh.map_err(|e| e.to_string())) {
        let (in_place, stats) = match refresh {
            SnapshotRefresh::InPlace(stats) => (1.0, stats),
            SnapshotRefresh::FullRewrite => (0.0, Default::default()),
        };
        run.set("store.refresh_ms", ms(secs));
        run.set("store.refresh_pages_written", stats.pages_rewritten as f64);
        run.set("store.refresh_pages_total", stats.pages_total as f64);
        run.set("store.refresh_in_place", in_place);
    }
    oracle
}

/// After the refresh, a restart must serve the updated network.
pub fn restart_after_refresh(
    run: &mut Run,
    dir: &Path,
    oracle: &Graph,
    inputs: &Inputs,
    public_key: &RsaPublicKey,
) {
    let pair = inputs.query.pairs[0];
    let traced = run.tracer.on;
    run.tracer.on = false;
    let r = restart(&mut run.tracer, dir, public_key, pair);
    run.tracer.on = traced;
    if let Some(dist) = run.op("op.restart", r) {
        run.check("op.restart", close(dist, oracle_distance(oracle, pair)));
    }
}
