//! `SpService` — the front door: epoch-bound client sessions over one
//! served provider package.
//!
//! The raw role APIs ([`ServiceProvider`], [`Client`]) wire one query
//! at a time and re-verify the owner's signature on every answer; they
//! also accept any correctly-signed root, so a client can silently
//! keep verifying against a *stale* epoch after the owner published an
//! update. This facade fixes both, and adds the concurrent serving
//! layer:
//!
//! * [`SpService::open_session`] authenticates the published epoch
//!   **once** — signed network root, method params, and the method's
//!   auxiliary signed roots (FULL's distance tree, HYP's hyper-edge
//!   and cell-directory trees) — and returns a [`Session`] bound to
//!   it. Every subsequent answer is checked against those exact pinned
//!   roots (byte equality, no per-answer RSA).
//! * [`SpService::update_edge_weight`] applies an owner edge update and
//!   publishes the repaired package as a new epoch in the service's
//!   MVCC ring. Sessions pinned to a retained epoch keep draining on
//!   their original root ([`SpServiceBuilder::retain_epochs`] sets the
//!   horizon); only a session whose epoch was evicted observes an
//!   explicit [`SessionError::EpochInvalidated`] — never a
//!   silently-accepted stale root — and simply reopens.
//! * [`Session::query_stream`] serves large query lists as pooled
//!   chunks through the versioned stream wire format, yielding
//!   verified answers incrementally (see [`crate::stream`]). When the
//!   service has a [`Scheduler`] (the default: a fixed pool of provider
//!   threads taking chunk jobs from one queue in submission order),
//!   chunks are **double buffered**: the provider proves chunk *k+1* on
//!   a pool worker while the client verifies chunk *k*.
//!
//! One service serves one package, as in the paper's model: one owner
//! signs one network and one provider serves it. Serve another network
//! or method with another `SpService`. Every method is served through
//! its [`AuthMethod`](crate::methods::AuthMethod) trait object — the
//! facade itself is method-agnostic.
//!
//! ```
//! use spnet_core::prelude::*;
//! use spnet_graph::{gen::grid_network, NodeId};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let graph = grid_network(6, 6, 1.1, 7);
//! let mut rng = StdRng::seed_from_u64(7);
//! let published = DataOwner::publish(&graph, &MethodConfig::Dij, &SetupConfig::default(), &mut rng);
//!
//! let service = SpService::new(published.package);
//! let session = service
//!     .open_session(Client::new(published.public_key))
//!     .expect("authentic epoch");
//! let answer = session.query(NodeId(0), NodeId(35)).expect("verified");
//! assert!(answer.distance > 0.0);
//! ```

use crate::ads::SignedRoot;
use crate::batch::BatchAnswer;
use crate::client::Client;
use crate::enc::Wire;
use crate::error::{ProviderError, VerifyError};
use crate::methods::{MethodParams, PinnedAux};
use crate::par::Scheduler;
use crate::provider::ServiceProvider;
use crate::snapshot::{self, SnapshotError, SnapshotRefresh};
use crate::stream::{chunk_frame, Framer, StreamError, StreamVerifier, DEFAULT_CHUNK_LEN};
use crate::update::{self, UpdateError};
use spnet_crypto::rsa::RsaKeyPair;
use spnet_graph::{NodeId, Path};
use spnet_store::StoreBackend;
use std::collections::VecDeque;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::{mpsc, Arc, OnceLock, RwLock, RwLockReadGuard};

/// Why a session operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionError {
    /// The epoch this session bound at open was evicted from the
    /// service's retention ring (enough owner updates re-signed the
    /// root to push it past the [`SpServiceBuilder::retain_epochs`]
    /// horizon). Reopen to continue on the current epoch.
    EpochInvalidated {
        /// The epoch the session was opened against.
        opened: u64,
        /// The service's current epoch.
        current: u64,
    },
    /// The published epoch failed authentication at open (bad owner
    /// signature — on the network root or an auxiliary root — or
    /// undecodable method params).
    OpenRejected(VerifyError),
    /// The provider could not answer (unknown node, unreachable pair).
    Provider(ProviderError),
    /// A provider answer failed verification.
    Verify(VerifyError),
    /// A streamed chunk failed framing or verification.
    Stream(StreamError),
    /// A scheduled prefetch worker disappeared without delivering its
    /// chunk (worker panic) — never seen in honest operation, since a
    /// submitted job always runs before the pool shuts down.
    Scheduler(&'static str),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::EpochInvalidated { opened, current } => write!(
                f,
                "session epoch {opened} invalidated by owner update (current epoch {current}); reopen the session"
            ),
            SessionError::OpenRejected(e) => write!(f, "epoch authentication failed: {e}"),
            SessionError::Provider(e) => write!(f, "provider error: {e}"),
            SessionError::Verify(e) => write!(f, "verification failed: {e}"),
            SessionError::Stream(e) => write!(f, "{e}"),
            SessionError::Scheduler(m) => write!(f, "scheduler failure: {m}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ProviderError> for SessionError {
    fn from(e: ProviderError) -> Self {
        SessionError::Provider(e)
    }
}

impl From<VerifyError> for SessionError {
    fn from(e: VerifyError) -> Self {
        SessionError::Verify(e)
    }
}

impl From<StreamError> for SessionError {
    fn from(e: StreamError) -> Self {
        SessionError::Stream(e)
    }
}

/// Default number of epochs the service retains for draining sessions
/// (see [`SpServiceBuilder::retain_epochs`]). Epochs share every block
/// of the package that no update between them wrote, so each retained
/// epoch beyond the first costs only its unshared blocks: the tree,
/// tuple and entry blocks and the landmark rows its update copied, plus
/// the arrays every update copies whole (the graph's edge weights,
/// LDM's per-node ψ representations, FULL's row roots).
pub const DEFAULT_RETAIN_EPOCHS: usize = 4;

/// One retained epoch: the counter value and the provider state that
/// serves it.
struct EpochEntry {
    epoch: u64,
    provider: ServiceProvider,
}

/// The service's MVCC epoch ring: up to `retain` provider snapshots,
/// oldest first, the back being the serving epoch. Open sessions drain
/// on their pinned entry while new sessions bind the back; an owner
/// update pushes a new entry and evicts whatever falls past the
/// retention horizon.
struct ServiceState {
    epochs: VecDeque<EpochEntry>,
    retain: usize,
}

impl ServiceState {
    fn new(provider: ServiceProvider, retain: usize) -> Self {
        let retain = retain.max(1);
        let mut epochs = VecDeque::with_capacity(retain);
        epochs.push_back(EpochEntry { epoch: 0, provider });
        ServiceState { epochs, retain }
    }

    /// The serving (latest) epoch entry.
    fn latest(&self) -> &EpochEntry {
        self.epochs.back().expect("epoch ring is never empty")
    }

    fn current_epoch(&self) -> u64 {
        self.latest().epoch
    }

    /// The provider still pinned at `epoch`, or the invalidation error
    /// when that entry was evicted.
    fn resolve(&self, epoch: u64) -> Result<&ServiceProvider, SessionError> {
        self.epochs
            .iter()
            .find(|e| e.epoch == epoch)
            .map(|e| &e.provider)
            .ok_or(SessionError::EpochInvalidated {
                opened: epoch,
                current: self.current_epoch(),
            })
    }

    /// Publishes `provider` as the next epoch and evicts the entries
    /// past the retention horizon. Returns the new epoch and the
    /// evicted entries, for the caller to drop once it has released
    /// the lock: freeing an epoch's unshared blocks is work no reader
    /// should wait for.
    fn push(&mut self, provider: ServiceProvider) -> (u64, Vec<EpochEntry>) {
        let epoch = self.current_epoch() + 1;
        self.epochs.push_back(EpochEntry { epoch, provider });
        let evict = self.epochs.len().saturating_sub(self.retain);
        (epoch, self.epochs.drain(..evict).collect())
    }
}

struct ServiceInner {
    state: Arc<RwLock<ServiceState>>,
    /// The snapshot directory the package was loaded from and the
    /// backend it was loaded with, when it was registered through
    /// [`SpServiceBuilder::snapshot`] — where and how
    /// [`SpService::refresh_shard_snapshot`] writes.
    snapshot: Option<(PathBuf, StoreBackend)>,
    /// Worker count for the scheduler; 0 disables it (sessions prove
    /// stream chunks inline).
    threads: usize,
    /// Created lazily on the first session open that wants it, so
    /// services that never stream spawn no threads.
    scheduler: OnceLock<Arc<Scheduler>>,
}

/// Builds an [`SpService`] serving one provider package.
///
/// ```
/// use spnet_core::prelude::*;
/// use spnet_graph::{gen::grid_network, NodeId};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let g = grid_network(6, 6, 1.1, 11);
/// let mut rng = StdRng::seed_from_u64(11);
/// let full = DataOwner::publish(&g, &MethodConfig::Full { use_floyd_warshall: false },
///                               &SetupConfig::default(), &mut rng);
///
/// let service = SpService::builder()
///     .package(full.package)
///     .threads(2)
///     .build();
/// let session = service.open_session(Client::new(full.public_key)).unwrap();
/// assert_eq!(session.method_name(), "FULL");
/// let streamed: usize = session
///     .query_stream(&[(NodeId(0), NodeId(35)), (NodeId(35), NodeId(0))])
///     .map(|chunk| chunk.unwrap().len())
///     .sum();
/// assert_eq!(streamed, 2);
/// ```
#[derive(Default)]
pub struct SpServiceBuilder {
    provider: Option<ServiceProvider>,
    snapshot: Option<(PathBuf, StoreBackend)>,
    threads: Option<usize>,
    retain: Option<usize>,
}

impl SpServiceBuilder {
    /// An empty builder ([`SpService::builder`] is the usual entry).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the package to serve.
    ///
    /// # Panics
    ///
    /// If a package was already registered.
    pub fn package(self, package: crate::owner::ProviderPackage) -> Self {
        self.provider(ServiceProvider::new(package))
    }

    /// Registers an already-wrapped provider to serve.
    ///
    /// # Panics
    ///
    /// If a package was already registered.
    pub fn provider(mut self, provider: ServiceProvider) -> Self {
        assert!(
            self.provider.is_none(),
            "SpServiceBuilder: one service serves one package; build another SpService for a second one"
        );
        self.provider = Some(provider);
        self
    }

    /// Registers the package **cold-started from a snapshot directory**
    /// written by [`crate::owner::Published::save_snapshot`]. Loading
    /// performs zero RSA signing; every persisted signed root is
    /// re-verified against the persisted owner key. The service
    /// remembers the directory and the backend, so
    /// [`SpService::refresh_shard_snapshot`] can write updates back to
    /// it.
    ///
    /// # Panics
    ///
    /// If a package was already registered.
    pub fn snapshot(
        mut self,
        dir: &std::path::Path,
        backend: StoreBackend,
    ) -> Result<Self, SnapshotError> {
        let loaded = snapshot::load_package(dir, backend)?;
        self = self.package(loaded.package);
        self.snapshot = Some((dir.to_path_buf(), backend));
        Ok(self)
    }

    /// Worker-thread count of the scheduler. `0` disables it: sessions
    /// prove stream chunks inline on the calling thread. Default: one
    /// worker per available core.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = Some(n);
        self
    }

    /// Number of epochs the service retains for open sessions (MVCC).
    /// An owner update publishes a new epoch while up to `k − 1` prior
    /// epochs stay pinned, so sessions opened against them drain to
    /// completion on their original signed root instead of failing.
    /// Only a session whose epoch was evicted past the horizon
    /// observes [`SessionError::EpochInvalidated`]. Clamped to at
    /// least 1 — `retain_epochs(1)` restores invalidate-on-every-
    /// update semantics. Default: [`DEFAULT_RETAIN_EPOCHS`].
    pub fn retain_epochs(mut self, k: usize) -> Self {
        self.retain = Some(k);
        self
    }

    /// Finishes the build.
    ///
    /// # Panics
    ///
    /// If no package was registered.
    pub fn build(self) -> SpService {
        let provider = self
            .provider
            .expect("SpServiceBuilder: register a package before build()");
        let threads = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        });
        let retain = self.retain.unwrap_or(DEFAULT_RETAIN_EPOCHS);
        SpService {
            inner: Arc::new(ServiceInner {
                state: Arc::new(RwLock::new(ServiceState::new(provider, retain))),
                snapshot: self.snapshot,
                threads,
                scheduler: OnceLock::new(),
            }),
        }
    }
}

/// The serving facade: one provider package, its epoch ring, a
/// scheduler, and session handout. Cheap to clone and share across
/// serving threads.
#[derive(Clone)]
pub struct SpService {
    inner: Arc<ServiceInner>,
}

impl SpService {
    /// Wraps an owner-published package for serving.
    ///
    /// Equivalent to `SpService::builder().package(package).build()` —
    /// reach for [`Self::builder`] to cold-start from a snapshot, set
    /// the retention horizon, or control the scheduler.
    pub fn new(package: crate::owner::ProviderPackage) -> Self {
        Self::builder().package(package).build()
    }

    /// Starts a [`SpServiceBuilder`].
    pub fn builder() -> SpServiceBuilder {
        SpServiceBuilder::new()
    }

    /// The current epoch (starts at 0, +1 per owner update).
    pub fn epoch(&self) -> u64 {
        self.read().current_epoch()
    }

    /// The served method's display name.
    pub fn method_name(&self) -> &'static str {
        self.read()
            .latest()
            .provider
            .package()
            .hints
            .method()
            .name()
    }

    /// Job counters of the scheduler, if it has started: jobs started,
    /// and a second field that is always 0 (the single-queue pool never
    /// moves a job between workers; the field is kept for reports that
    /// read it).
    pub fn scheduler_stats(&self) -> Option<(u64, u64)> {
        self.inner.scheduler.get().map(|s| (s.executed(), 0))
    }

    /// Opens a session: authenticates the signed network root and
    /// method params **once**, RSA-verifies and pins the method's
    /// auxiliary signed roots, and binds the session to the current
    /// epoch.
    pub fn open_session(&self, client: Client) -> Result<Session, SessionError> {
        let st = self.read();
        let entry = st.latest();
        let root = entry.provider.package().network_root.clone();
        if !root.verify(client.public_key()) {
            return Err(SessionError::OpenRejected(VerifyError::BadSignature));
        }
        let params = MethodParams::from_bytes(&root.meta.params).map_err(|_| {
            SessionError::OpenRejected(VerifyError::MetaMismatch("undecodable method params"))
        })?;
        // Pin the auxiliary roots now (one RSA verification each, for
        // the whole session) so per-chunk verification replaces their
        // repeated signature checks with byte equality.
        let mut aux: Vec<SignedRoot> = Vec::new();
        for r in entry.provider.package().hints.aux_roots() {
            if !r.verify(client.public_key()) {
                return Err(SessionError::OpenRejected(VerifyError::BadSignature));
            }
            aux.push(r.clone());
        }
        Ok(Session {
            state: Arc::clone(&self.inner.state),
            scheduler: self.scheduler(),
            client,
            epoch: entry.epoch,
            root,
            params,
            pins: PinnedAux::new(aux),
        })
    }

    /// Owner-side: applies an edge-weight update with the owner's
    /// retained keypair.
    ///
    /// Under the service's write lock, repairs a **clone** of the
    /// serving package ([`crate::update::update_edge_weight`]) and
    /// publishes it as a new epoch in the MVCC ring: sessions pinned to
    /// retained epochs keep draining on their original signed root; a
    /// session whose epoch falls past the
    /// [`SpServiceBuilder::retain_epochs`] horizon observes
    /// [`SessionError::EpochInvalidated`]; new sessions bind the fresh
    /// epoch. The clone shares every block of the serving package, so
    /// the epoch costs only the blocks the repair writes; the evicted
    /// epoch is freed after the lock is released. A failed repair
    /// publishes nothing. Returns the new epoch.
    pub fn update_edge_weight(
        &self,
        keypair: &RsaKeyPair,
        u: NodeId,
        v: NodeId,
        new_weight: f64,
    ) -> Result<u64, UpdateError> {
        let mut st = self.inner.state.write().expect("service lock poisoned");
        let mut provider = st.latest().provider.clone();
        update::update_edge_weight(&mut provider.package, keypair, u, v, new_weight)?;
        let (epoch, evicted) = st.push(provider);
        drop(st);
        drop(evicted);
        Ok(epoch)
    }

    /// Owner-side: persists the **latest** epoch back into the snapshot
    /// the service was loaded from — after an
    /// [`Self::update_edge_weight`], a restart picks up the updated
    /// network without any republish. Only a service registered through
    /// [`SpServiceBuilder::snapshot`] can refresh; errors are typed
    /// otherwise. `shard` must be 0, the one package the service serves.
    ///
    /// A `Mem`-loaded service pages nothing from the file, so
    /// [`snapshot::update_snapshot`] rewrites only the dirty pages in
    /// place. The epochs of a `File`-loaded one page from the file, and
    /// an in-place rewrite would change pages under the retained ones;
    /// so the whole snapshot goes to a temporary file renamed over the
    /// old one (`FullRewrite`), and every epoch keeps paging from the
    /// old file it holds open.
    pub fn refresh_shard_snapshot(
        &self,
        shard: usize,
        public_key: &spnet_crypto::rsa::RsaPublicKey,
    ) -> Result<SnapshotRefresh, SnapshotError> {
        if shard != 0 {
            return Err(SnapshotError::Corrupt("no such shard"));
        }
        let (dir, backend) = self
            .inner
            .snapshot
            .as_ref()
            .ok_or(SnapshotError::Corrupt("service is not snapshot-backed"))?;
        let st = self.read();
        let package = st.latest().provider.package();
        match backend {
            StoreBackend::Mem => snapshot::update_snapshot(package, public_key, dir),
            StoreBackend::File => snapshot::rewrite_snapshot(package, public_key, dir),
        }
    }

    fn scheduler(&self) -> Option<Arc<Scheduler>> {
        if self.inner.threads == 0 {
            return None;
        }
        Some(Arc::clone(self.inner.scheduler.get_or_init(|| {
            Arc::new(Scheduler::new(self.inner.threads))
        })))
    }

    fn read(&self) -> RwLockReadGuard<'_, ServiceState> {
        self.inner.state.read().expect("service lock poisoned")
    }
}

/// A verified session answer.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionAnswer {
    /// The provider's reported shortest path (endpoint- and
    /// edge-authenticated).
    pub path: Path,
    /// The proven optimal distance.
    pub distance: f64,
}

/// A client session bound to one published epoch.
///
/// Obtained from [`SpService::open_session`]. Holds the epoch's RSA-verified signed root plus the method's pinned
/// auxiliary roots; every query's answer must carry exactly those
/// roots. An owner update publishes a *new* epoch while this session's
/// stays pinned in the service's MVCC ring, so in-flight queries and
/// streams drain against their original root; only when enough
/// updates evict the pinned epoch do queries fail with
/// [`SessionError::EpochInvalidated`] — reopen to bind the current
/// epoch.
pub struct Session {
    state: Arc<RwLock<ServiceState>>,
    scheduler: Option<Arc<Scheduler>>,
    client: Client,
    epoch: u64,
    root: SignedRoot,
    params: MethodParams,
    pins: PinnedAux,
}

impl Session {
    /// The epoch this session is bound to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The serving method's display name (from the authenticated
    /// params, not provider claims).
    pub fn method_name(&self) -> &'static str {
        self.params.method().name()
    }

    /// The authenticated method parameters this session verified at
    /// open.
    pub fn params(&self) -> &MethodParams {
        &self.params
    }

    /// The auxiliary signed roots pinned (RSA-verified once) at open:
    /// one for FULL, two for HYP, none for DIJ/LDM.
    pub fn pins(&self) -> &PinnedAux {
        &self.pins
    }

    /// Read-locks the service state and checks this session's epoch is
    /// still retained; call sites resolve the pinned provider out of
    /// the returned guard.
    fn guard(&self) -> Result<RwLockReadGuard<'_, ServiceState>, SessionError> {
        let st = self.state.read().expect("service lock poisoned");
        st.resolve(self.epoch)?;
        Ok(st)
    }

    /// Answers and verifies one query against the pinned epoch root.
    pub fn query(&self, vs: NodeId, vt: NodeId) -> Result<SessionAnswer, SessionError> {
        let answer = {
            let st = self.state.read().expect("service lock poisoned");
            st.resolve(self.epoch)?.answer(vs, vt)?
        };
        let v = self
            .client
            .verify_pinned(vs, vt, &answer, &self.root, Some(&self.pins))?;
        Ok(SessionAnswer {
            path: answer.path,
            distance: v.distance,
        })
    }

    /// Provider half of a batched query: proves `queries` against the
    /// session's epoch (one pooled proof — shared tuples, one Merkle
    /// cover, aux once per batch). Fails with
    /// [`SessionError::EpochInvalidated`] only once the epoch has been
    /// evicted from the service's retention ring.
    ///
    /// Split from [`Self::verify_batch`] so benches and tests can
    /// measure, serialize, or tamper with the proof between the two
    /// halves; [`Self::query_batch`] composes them.
    pub fn answer_batch(&self, queries: &[(NodeId, NodeId)]) -> Result<BatchAnswer, SessionError> {
        let st = self.guard()?;
        Ok(st.resolve(self.epoch)?.answer_batch_impl(queries)?)
    }

    /// Client half of a batched query: verifies a batch against the
    /// session's pinned roots, returning the proven optimum per query.
    pub fn verify_batch(
        &self,
        queries: &[(NodeId, NodeId)],
        batch: &BatchAnswer,
    ) -> Result<Vec<f64>, SessionError> {
        Ok(self
            .client
            .verify_batch_impl(queries, batch, Some(&self.root), Some(&self.pins))?)
    }

    /// Answers and verifies a batch with one pooled proof.
    pub fn query_batch(
        &self,
        queries: &[(NodeId, NodeId)],
    ) -> Result<Vec<SessionAnswer>, SessionError> {
        let batch = self.answer_batch(queries)?;
        let distances = self.verify_batch(queries, &batch)?;
        Ok(batch
            .queries
            .into_iter()
            .zip(distances)
            .map(|(q, distance)| SessionAnswer {
                path: q.path,
                distance,
            })
            .collect())
    }

    /// The owner public key this session's client trusts — what
    /// higher-level verified operators (e.g. `spnet-queries`' POI
    /// directory) authenticate additional owner-signed roots against.
    pub fn owner_key(&self) -> &spnet_crypto::rsa::RsaPublicKey {
        self.client.public_key()
    }

    /// Provider half of a verified range query: the claimed member
    /// set with its completeness certificate, proven against the
    /// session's epoch.
    pub fn answer_range(
        &self,
        source: NodeId,
        radius: f64,
    ) -> Result<crate::queries::RangeAnswer, SessionError> {
        let st = self.guard()?;
        Ok(st.resolve(self.epoch)?.answer_range(source, radius)?)
    }

    /// Client half of a verified range query, against the session's
    /// pinned roots.
    pub fn verify_range(
        &self,
        source: NodeId,
        radius: f64,
        answer: &crate::queries::RangeAnswer,
    ) -> Result<Vec<(NodeId, f64)>, SessionError> {
        Ok(self
            .client
            .verify_range_pinned(source, radius, answer, &self.root, Some(&self.pins))?)
    }

    /// Answers and verifies a range query — every node within
    /// `radius` of `source`, certified **complete**: omitting any
    /// in-range node (or shrinking the radius) fails verification
    /// with a typed [`crate::error::VerifyError`].
    pub fn query_range(
        &self,
        source: NodeId,
        radius: f64,
    ) -> Result<Vec<(NodeId, f64)>, SessionError> {
        let answer = self.answer_range(source, radius)?;
        self.verify_range(source, radius, &answer)
    }

    /// Serves `queries` as a verified stream with the default chunk
    /// size: an iterator yielding each pooled chunk's verified answers
    /// as the provider produces it.
    pub fn query_stream<'s>(&'s self, queries: &'s [(NodeId, NodeId)]) -> SessionStream<'s> {
        self.query_stream_chunked(queries, DEFAULT_CHUNK_LEN)
    }

    /// [`Self::query_stream`] with an explicit chunk size (clamped to
    /// at least 1).
    ///
    /// With the service scheduler on (the default), chunks are double
    /// buffered: chunk *k+1* is proven on a pool worker while this
    /// thread verifies chunk *k*. The proofs are bit-identical to
    /// inline serving — `answer_batch` is deterministic and each chunk
    /// is proven under the same epoch guard.
    ///
    /// An owner update mid-stream does **not** interrupt the stream:
    /// the session's epoch stays pinned in the service's MVCC ring, so
    /// remaining chunks keep proving against the original root. Only
    /// when the pinned epoch is evicted (more updates than the
    /// retention horizon) does the next emitted chunk surface
    /// [`SessionError::EpochInvalidated`] — prefetched chunks proven
    /// before the eviction are discarded, never served. Every chunk
    /// round-trips through the versioned stream
    /// wire frames and the full batched verification, so the bytes
    /// path of a networked deployment is exercised end to end.
    pub fn query_stream_chunked<'s>(
        &'s self,
        queries: &'s [(NodeId, NodeId)],
        chunk_len: usize,
    ) -> SessionStream<'s> {
        SessionStream {
            framer: Framer::new(queries.len(), chunk_len, self.params.code()),
            chunks: ChunkSource {
                session: self,
                queries,
                pending: None,
            },
            verifier: StreamVerifier::with_session_pins(
                &self.client,
                queries,
                &self.root,
                &self.pins,
            ),
        }
    }
}

/// A lazy, incrementally verified query stream over a session (see
/// [`Session::query_stream`]). Each `next()` ships and verifies one
/// pooled chunk, yielding its [`SessionAnswer`]s; with a scheduler the
/// following chunk is already being proven on a pool worker.
pub struct SessionStream<'s> {
    framer: Framer,
    chunks: ChunkSource<'s>,
    verifier: StreamVerifier<'s>,
}

/// How a session stream produces each chunk frame: proven inline, or
/// prefetched on the service scheduler; either way checked against the
/// session's epoch when it is emitted.
struct ChunkSource<'s> {
    session: &'s Session,
    queries: &'s [(NodeId, NodeId)],
    /// The in-flight prefetch of the next chunk, if the session has a
    /// scheduler.
    pending: Option<mpsc::Receiver<Result<Vec<u8>, SessionError>>>,
}

impl ChunkSource<'_> {
    /// The frame of `chunk`. With a scheduler, receives its prefetch
    /// (or proves it on the pool now) and immediately schedules
    /// `following`, so a worker proves that while this chunk is
    /// verified.
    fn produce(
        &mut self,
        chunk: Range<usize>,
        following: Option<Range<usize>>,
    ) -> Result<Vec<u8>, SessionError> {
        let frame = match &self.session.scheduler {
            None => self.prove_inline(chunk),
            Some(sched) => {
                let rx = match self.pending.take() {
                    Some(rx) => rx,
                    None => self.schedule(sched, chunk),
                };
                let received = rx
                    .recv()
                    .unwrap_or(Err(SessionError::Scheduler("prefetch worker lost")));
                self.pending = following.map(|next| self.schedule(sched, next));
                received
            }
        }?;
        // Emission-time epoch check: an eviction after the prefetch
        // proved this chunk discards it here, so an invalidated stream
        // never emits another chunk.
        self.session.guard().map(|_| frame)
    }

    /// Submits the proving of `chunk` to the scheduler; the returned
    /// channel delivers the encoded chunk frame. The job resolves the
    /// session's pinned epoch **under the service read lock** before
    /// proving, so every chunk is proven against exactly the epoch the
    /// session opened on (or fails if it was evicted).
    fn schedule(
        &self,
        sched: &Scheduler,
        chunk: Range<usize>,
    ) -> mpsc::Receiver<Result<Vec<u8>, SessionError>> {
        let (tx, rx) = mpsc::channel();
        let state = Arc::clone(&self.session.state);
        let epoch = self.session.epoch;
        let start = chunk.start;
        let queries: Vec<(NodeId, NodeId)> = self.queries[chunk].to_vec();
        sched.spawn(move || {
            // The read guard is a temporary of this statement: released
            // before the result is sent.
            let result = state
                .read()
                .expect("service lock poisoned")
                .resolve(epoch)
                .and_then(|provider| Ok(chunk_frame(provider, start, &queries)?));
            // The consumer may have bailed (stream dropped or errored);
            // a dead receiver is fine.
            let _ = tx.send(result);
        });
        rx
    }

    /// Proves `chunk` on the calling thread (no scheduler), holding the
    /// epoch guard across the proving so the chunk is consistent with
    /// the epoch.
    fn prove_inline(&self, chunk: Range<usize>) -> Result<Vec<u8>, SessionError> {
        let st = self.session.guard()?;
        let provider = st.resolve(self.session.epoch)?;
        Ok(chunk_frame(provider, chunk.start, &self.queries[chunk])?)
    }
}

impl Iterator for SessionStream<'_> {
    /// One verified chunk of answers per step.
    type Item = Result<Vec<SessionAnswer>, SessionError>;

    fn next(&mut self) -> Option<Self::Item> {
        // Header and end frames release no answers and chunks are never
        // empty: ship frames until one releases answers or the framer
        // has ended.
        loop {
            let chunks = &mut self.chunks;
            let frame = match self
                .framer
                .next_frame(|chunk, following| chunks.produce(chunk, following))?
            {
                Ok(frame) => frame,
                Err(e) => return Some(Err(e)),
            };
            match self.verifier.feed(&frame) {
                Ok(items) if items.is_empty() => continue,
                Ok(items) => {
                    return Some(Ok(items
                        .into_iter()
                        .map(|it| SessionAnswer {
                            path: it.path,
                            distance: it.distance,
                        })
                        .collect()))
                }
                Err(e) => {
                    self.framer.stop();
                    return Some(Err(e.into()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{LdmConfig, MethodConfig};
    use crate::owner::{DataOwner, SetupConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spnet_graph::algo::dijkstra_path;
    use spnet_graph::gen::grid_network;
    use spnet_graph::Graph;

    fn deploy(method: MethodConfig) -> (Graph, SpService, Client, RsaKeyPair) {
        let g = grid_network(9, 9, 1.15, 2200);
        let mut rng = StdRng::seed_from_u64(2201);
        let kp = RsaKeyPair::generate(&mut rng, 256);
        let p = DataOwner::publish_with_key(&g, &method, &SetupConfig::default(), &kp);
        let client = Client::new(p.public_key);
        (g, SpService::new(p.package), client, kp)
    }

    /// [`deploy`] with an explicit MVCC retention horizon (builder
    /// path, inline scheduler).
    fn deploy_retain(
        method: MethodConfig,
        retain: usize,
    ) -> (Graph, SpService, Client, RsaKeyPair) {
        let g = grid_network(9, 9, 1.15, 2200);
        let mut rng = StdRng::seed_from_u64(2201);
        let kp = RsaKeyPair::generate(&mut rng, 256);
        let p = DataOwner::publish_with_key(&g, &method, &SetupConfig::default(), &kp);
        let client = Client::new(p.public_key);
        let service = SpService::builder()
            .package(p.package)
            .threads(0)
            .retain_epochs(retain)
            .build();
        (g, service, client, kp)
    }

    /// The graph with one edge re-weighted — the post-update truth.
    fn reweighted(g: &Graph, u: NodeId, v: NodeId, w: f64) -> Graph {
        let mut g2 = g.clone();
        g2.set_edge_weight(u, v, w).expect("edge exists");
        g2
    }

    fn all_methods() -> Vec<MethodConfig> {
        vec![
            MethodConfig::Dij,
            MethodConfig::Full {
                use_floyd_warshall: false,
            },
            MethodConfig::Ldm(LdmConfig {
                landmarks: 6,
                ..LdmConfig::default()
            }),
            MethodConfig::Hyp { cells: 9 },
        ]
    }

    const QUERIES: [(u32, u32); 5] = [(0, 80), (4, 76), (40, 41), (80, 0), (9, 71)];

    fn as_nodes(qs: &[(u32, u32)]) -> Vec<(NodeId, NodeId)> {
        qs.iter().map(|&(s, t)| (NodeId(s), NodeId(t))).collect()
    }

    #[test]
    fn sessions_serve_all_methods_through_one_facade() {
        for method in all_methods() {
            let (g, service, client, _) = deploy(method.clone());
            assert_eq!(service.method_name(), method.name());
            let session = service.open_session(client).unwrap();
            assert_eq!(session.method_name(), method.name());
            for &(s, t) in &QUERIES {
                let (s, t) = (NodeId(s), NodeId(t));
                let a = session.query(s, t).unwrap();
                let truth = dijkstra_path(&g, s, t).unwrap().distance;
                assert!(
                    (a.distance - truth).abs() <= 1e-6 * truth.max(1.0),
                    "{}: ({s},{t})",
                    method.name()
                );
                assert_eq!(a.path.source(), s);
                assert_eq!(a.path.target(), t);
            }
            // Batch and stream agree with single queries.
            let qs = as_nodes(&QUERIES);
            let batch = session.query_batch(&qs).unwrap();
            let streamed: Vec<SessionAnswer> = session
                .query_stream_chunked(&qs, 2)
                .collect::<Result<Vec<_>, _>>()
                .unwrap()
                .into_iter()
                .flatten()
                .collect();
            assert_eq!(batch.len(), qs.len());
            assert_eq!(streamed.len(), qs.len());
            for ((b, s_), &(vs, vt)) in batch.iter().zip(&streamed).zip(&qs) {
                let single = session.query(vs, vt).unwrap();
                assert_eq!(
                    b.distance.to_bits(),
                    single.distance.to_bits(),
                    "{}: batch ≡ sequential",
                    method.name()
                );
                assert_eq!(
                    s_.distance.to_bits(),
                    single.distance.to_bits(),
                    "{}: stream ≡ sequential",
                    method.name()
                );
            }
        }
    }

    #[test]
    fn sessions_pin_the_methods_aux_roots() {
        for (method, expected) in [
            (MethodConfig::Dij, 0usize),
            (
                MethodConfig::Full {
                    use_floyd_warshall: false,
                },
                1,
            ),
            (
                MethodConfig::Ldm(LdmConfig {
                    landmarks: 6,
                    ..LdmConfig::default()
                }),
                0,
            ),
            (MethodConfig::Hyp { cells: 9 }, 2),
        ] {
            let (_, service, client, _) = deploy(method.clone());
            let session = service.open_session(client).unwrap();
            assert_eq!(
                session.pins().len(),
                expected,
                "{}: pinned aux roots",
                method.name()
            );
        }
    }

    #[test]
    fn scheduled_streams_match_inline_serving() {
        // The double-buffered (scheduler) stream must produce answers
        // bit-identical to inline proving.
        let g = grid_network(9, 9, 1.15, 2230);
        let mut rng = StdRng::seed_from_u64(2231);
        let kp = RsaKeyPair::generate(&mut rng, 256);
        let client = Client::new(kp.public_key().clone());
        let collect = |service: &SpService| -> Vec<u64> {
            let session = service.open_session(client.clone()).unwrap();
            session
                .query_stream_chunked(&as_nodes(&QUERIES), 2)
                .collect::<Result<Vec<_>, _>>()
                .unwrap()
                .into_iter()
                .flatten()
                .map(|a| a.distance.to_bits())
                .collect()
        };
        let publish =
            || DataOwner::publish_with_key(&g, &MethodConfig::Dij, &SetupConfig::default(), &kp);
        let inline = SpService::builder()
            .package(publish().package)
            .threads(0)
            .build();
        let pooled = SpService::builder()
            .package(publish().package)
            .threads(2)
            .build();
        assert_eq!(collect(&inline), collect(&pooled));
        let (executed, _) = pooled.scheduler_stats().expect("scheduler ran");
        assert!(executed >= 3, "each chunk proven on the pool");
        assert!(
            inline.scheduler_stats().is_none(),
            "threads(0) stays inline"
        );
    }

    #[test]
    fn wrong_owner_key_rejected_at_open() {
        let (_, service, _, _) = deploy(MethodConfig::Dij);
        let mut rng = StdRng::seed_from_u64(2202);
        let other = RsaKeyPair::generate(&mut rng, 256);
        let err = service
            .open_session(Client::new(other.public_key().clone()))
            .err()
            .unwrap();
        assert_eq!(err, SessionError::OpenRejected(VerifyError::BadSignature));
    }

    #[test]
    fn pinned_epochs_drain_open_sessions_through_updates() {
        // Default retention: an owner update must NOT interrupt open
        // sessions — they drain on their pinned epoch's root while new
        // sessions bind the fresh epoch and the new truth.
        let (g, service, client, kp) = deploy(MethodConfig::Dij);
        let old_truth = dijkstra_path(&g, NodeId(0), NodeId(80)).unwrap().distance;
        let session = service.open_session(client.clone()).unwrap();
        let qs = as_nodes(&QUERIES);
        let mut stream = session.query_stream_chunked(&qs, 2);
        let first = stream.next().unwrap().unwrap();
        assert_eq!(first.len(), 2);
        // Re-weight the first edge of the 0→80 shortest path so the
        // old and new truths actually differ.
        let path = dijkstra_path(&g, NodeId(0), NodeId(80)).unwrap();
        let (u, v) = (path.nodes[0], path.nodes[1]);
        assert_eq!(service.epoch(), 0);
        assert_eq!(service.update_edge_weight(&kp, u, v, 500.0).unwrap(), 1);
        assert_eq!(service.epoch(), 1);
        // The pinned session keeps answering — old epoch, old truth.
        let a = session.query(NodeId(0), NodeId(80)).unwrap();
        assert_eq!(a.distance.to_bits(), old_truth.to_bits());
        // The pre-update stream completes on the pinned epoch.
        let rest: Vec<SessionAnswer> = stream
            .collect::<Result<Vec<_>, _>>()
            .expect("stream drains on its pinned epoch")
            .into_iter()
            .flatten()
            .collect();
        assert_eq!(first.len() + rest.len(), qs.len());
        // A fresh session binds the new epoch and serves the new truth.
        let new_truth = dijkstra_path(&reweighted(&g, u, v, 500.0), NodeId(0), NodeId(80))
            .unwrap()
            .distance;
        assert!((new_truth - old_truth).abs() > 1e-9);
        let fresh = service.open_session(client).unwrap();
        assert_eq!(fresh.epoch(), 1);
        let b = fresh.query(NodeId(0), NodeId(80)).unwrap();
        assert_eq!(b.distance.to_bits(), new_truth.to_bits());
    }

    #[test]
    fn evicted_epoch_invalidates_open_sessions() {
        // retain_epochs(1) restores the strict pre-MVCC semantics: one
        // update evicts epoch 0 and stale sessions fail loudly.
        let (g, service, client, kp) = deploy_retain(MethodConfig::Dij, 1);
        let session = service.open_session(client.clone()).unwrap();
        session.query(NodeId(0), NodeId(80)).unwrap();
        let (u, v, w) = g.edges().next().unwrap();
        assert_eq!(service.epoch(), 0);
        assert_eq!(service.update_edge_weight(&kp, u, v, w * 2.0).unwrap(), 1);
        assert_eq!(service.epoch(), 1);
        assert_eq!(
            session.query(NodeId(0), NodeId(80)),
            Err(SessionError::EpochInvalidated {
                opened: 0,
                current: 1
            })
        );
        assert!(matches!(
            session.query_batch(&as_nodes(&QUERIES)),
            Err(SessionError::EpochInvalidated { .. })
        ));
        // A reopened session serves the updated network.
        let fresh = service.open_session(client).unwrap();
        assert_eq!(fresh.epoch(), 1);
        let a = fresh.query(NodeId(0), NodeId(80)).unwrap();
        let st = service.read();
        let truth = dijkstra_path(&st.latest().provider.package().graph, NodeId(0), NodeId(80))
            .unwrap()
            .distance;
        assert!((a.distance - truth).abs() <= 1e-6 * truth.max(1.0));
    }

    #[test]
    fn retention_horizon_evicts_oldest_epochs() {
        let (g, service, client, kp) = deploy_retain(MethodConfig::Dij, 2);
        let s0 = service.open_session(client.clone()).unwrap();
        let (u, v, w) = g.edges().next().unwrap();
        service.update_edge_weight(&kp, u, v, w * 2.0).unwrap();
        let s1 = service.open_session(client).unwrap();
        assert_eq!(s1.epoch(), 1);
        // Epochs {0, 1} retained: both sessions still serve.
        s0.query(NodeId(0), NodeId(80)).unwrap();
        s1.query(NodeId(0), NodeId(80)).unwrap();
        service.update_edge_weight(&kp, u, v, w * 3.0).unwrap();
        // Epochs {1, 2}: s0's epoch fell off the ring, s1 survives.
        assert_eq!(
            s0.query(NodeId(0), NodeId(80)),
            Err(SessionError::EpochInvalidated {
                opened: 0,
                current: 2
            })
        );
        s1.query(NodeId(0), NodeId(80)).unwrap();
    }

    #[test]
    fn evicted_epoch_mid_stream_surfaces_as_invalidation() {
        let (g, service, client, kp) = deploy_retain(MethodConfig::Dij, 1);
        let session = service.open_session(client).unwrap();
        let qs = as_nodes(&QUERIES);
        let mut stream = session.query_stream_chunked(&qs, 2);
        // First chunk verifies fine.
        let first = stream.next().unwrap().unwrap();
        assert_eq!(first.len(), 2);
        // Owner updates between chunks; retain 1 evicts the epoch.
        let (u, v, w) = g.edges().next().unwrap();
        service.update_edge_weight(&kp, u, v, w * 3.0).unwrap();
        // The next chunk is refused — never silently stale, even if the
        // scheduler already proved it before the eviction.
        assert!(matches!(
            stream.next().unwrap(),
            Err(SessionError::EpochInvalidated { .. })
        ));
        assert!(stream.next().is_none(), "stream ends after the error");
    }

    #[test]
    fn hint_methods_update_through_the_service() {
        // HYP carries the heaviest hint state; the service-level update
        // must repair it in place and serve the new truth.
        let (g, service, client, kp) = deploy(MethodConfig::Hyp { cells: 9 });
        let path = dijkstra_path(&g, NodeId(0), NodeId(80)).unwrap();
        let (u, v) = (path.nodes[0], path.nodes[1]);
        assert_eq!(service.update_edge_weight(&kp, u, v, 500.0).unwrap(), 1);
        assert_eq!(service.epoch(), 1);
        let truth = dijkstra_path(&reweighted(&g, u, v, 500.0), NodeId(0), NodeId(80))
            .unwrap()
            .distance;
        let session = service.open_session(client).unwrap();
        assert_eq!(session.epoch(), 1);
        let a = session.query(NodeId(0), NodeId(80)).unwrap();
        assert!((a.distance - truth).abs() <= 1e-6 * truth.max(1.0));
    }

    #[test]
    fn service_clones_share_state() {
        let (g, service, client, kp) = deploy_retain(MethodConfig::Dij, 1);
        let clone = service.clone();
        let session = clone.open_session(client).unwrap();
        let (u, v, w) = g.edges().next().unwrap();
        service.update_edge_weight(&kp, u, v, w * 2.0).unwrap();
        assert_eq!(clone.epoch(), 1);
        assert!(matches!(
            session.query(NodeId(0), NodeId(80)),
            Err(SessionError::EpochInvalidated { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "one service serves one package")]
    fn second_package_registration_panics() {
        let g = grid_network(4, 4, 1.1, 2260);
        let mut rng = StdRng::seed_from_u64(2261);
        let kp = RsaKeyPair::generate(&mut rng, 256);
        let publish =
            || DataOwner::publish_with_key(&g, &MethodConfig::Dij, &SetupConfig::default(), &kp);
        let _ = SpService::builder()
            .package(publish().package)
            .package(publish().package);
    }
}
