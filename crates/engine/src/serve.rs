//! The concurrent serving scheduler: many client threads, one shared
//! [`Engine`], deterministic merged results.
//!
//! [`Server`] is the thread-safe request frontend the ROADMAP's
//! "heavy traffic" north star asks for: it owns a shared engine, an
//! admission queue, and a worker pool. Client threads submit typed
//! requests from anywhere and get back a [`Ticket`] they can block on;
//! workers drain the queue, **coalesce compatible GEMMs into dynamic
//! batches** (riding [`Engine::submit_batch`]'s warm-cache fan-out so one
//! busy period amortizes the LUT builds), and fulfill the tickets.
//!
//! ## Continuous batching
//!
//! Decoder sessions ([`Server::submit_session`]) are served **one step
//! per dispatch**: a worker advances the session's next step (prefill,
//! or one decode token over the step's exact KV context), then pushes
//! the session to the *back* of the admission queue and picks up
//! whatever is in front — so a freshly submitted prefill or GEMM is
//! admitted between a long session's decode waves instead of waiting for
//! the whole generation to finish. Step re-enqueues bypass the admission
//! cap and the drain gate (an admitted session always runs to
//! completion; the worker that pushes a continuation re-checks the queue
//! before exiting, so no step is stranded at shutdown). See
//! [`crate::sessions`] for the step state machine and its determinism
//! argument.
//!
//! ## The determinism contract
//!
//! Thread scheduling decides *when* a request runs and *which* requests
//! share a batch — but never what any request computes. Every quantity in
//! a [`ServeSummary`] is interleaving-invariant by construction:
//!
//! * per-request values, checksums, simulated statistics, and energy are
//!   functions of the request alone (the engine below is deterministic at
//!   any worker count, batched or not);
//! * the merged [`Stats`] aggregate is associative **and commutative**, so
//!   any completion order merges to the same integer femtoseconds;
//! * the summary checksum folds the per-request checksums in *sorted*
//!   order, and the latency percentiles are computed over the sorted
//!   multiset of per-request simulated latencies.
//!
//! Hence the invariant the workspace tests pin: for a fixed seeded request
//! log, any interleaving of concurrent clients produces a summary
//! bit-identical to [`replay_serial`] of the same log. Host-dependent
//! observables (dispatch counts, realized batch sizes) live on
//! [`ServeReport`], *outside* the deterministic summary.
//!
//! ## Quickstart
//!
//! ```
//! use engine::serve::{drive_client, replay_serial, ArrivalMode, ServeConfig, Server};
//! use engine::traffic::{client_log, full_log, Mix, TrafficConfig};
//! use engine::Engine;
//! use std::sync::Arc;
//!
//! let engine = Arc::new(Engine::builder().threads(1).banks(2).build());
//! let traffic = TrafficConfig {
//!     clients: 2,
//!     requests_per_client: 2,
//!     mix: Mix::Gemm,
//!     seed: 7,
//!     decode_tokens: 4,
//! };
//! let server = Server::start(engine.clone(), &ServeConfig::default());
//! std::thread::scope(|scope| {
//!     for client in 0..traffic.clients {
//!         let server = &server;
//!         let log = client_log(&traffic, client);
//!         scope.spawn(move || drive_client(server, log, ArrivalMode::Closed));
//!     }
//! });
//! let report = server.join();
//! assert_eq!(report.summary, replay_serial(&engine, &full_log(&traffic)));
//! assert_eq!(report.summary.requests, 4);
//! ```

use crate::request::{GemmRequest, InferenceRequest, PlanPin};
use crate::response::{GemmResponse, InferenceResponse};
use crate::sessions::{SessionJob, SessionRequest, SessionResponse, StepOutcome};
// The crate-wide poison-recovering lock: serving state is kept valid at
// every panic point (completed responses are recorded atomically, queue
// entries are whole jobs), so a worker that panicked while holding a lock
// must not wedge every other client.
use crate::cachelife::lru::MemoStats;
use crate::{BatchGemmRequest, CacheStats, Engine, EngineError, Rejection};
use localut::Method;
use pim_sim::Stats;
use runtime::lock_recover as lock;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use crate::traffic::TrafficRequest;

/// Backoff hint carried by [`Rejection::QueueFull`] rejections from this
/// scheduler, in milliseconds.
pub const RETRY_AFTER_MS: u64 = 25;

/// Configures a [`Server`]'s worker pool, batching policy, and admission
/// limits.
///
/// Constructed through the validating [`ServeConfig::builder`] (mirroring
/// [`crate::EngineBuilder`]) — invalid knob combinations are typed
/// [`EngineError::InvalidRequest`]s at build time, never silent clamps:
///
/// ```
/// use engine::serve::ServeConfig;
///
/// let config = ServeConfig::builder()
///     .workers(4)
///     .max_batch(8)
///     .queue_cap(64)
///     .quota(1_000)
///     .build()
///     .expect("valid");
/// assert_eq!(config.workers(), 4);
/// assert!(ServeConfig::builder().workers(0).build().is_err());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    workers: usize,
    max_batch: usize,
    queue_cap: Option<usize>,
    quota: Option<u64>,
}

impl ServeConfig {
    /// A builder seeded with the default configuration.
    #[must_use]
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder {
            config: ServeConfig::default(),
        }
    }

    /// Scheduler worker threads draining the admission queue. Each worker
    /// serves one dispatch at a time; the engine's own pool parallelism
    /// applies inside a dispatch.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Upper bound on how many compatible GEMM requests one dispatch may
    /// coalesce into a dynamic batch (1 disables coalescing).
    #[must_use]
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Admission-queue capacity. `None` (the default) leaves admission
    /// unbounded; `Some(cap)` makes submission beyond `cap` queued jobs
    /// resolve immediately to [`Rejection::QueueFull`] — explicit
    /// backpressure instead of unbounded buffering.
    #[must_use]
    pub fn queue_cap(&self) -> Option<usize> {
        self.queue_cap
    }

    /// Per-client request quota. The scheduler itself has no client
    /// identity, so this knob is enforced by connection-owning front-ends
    /// (the `netserve` crate's TCP server applies it per connection).
    #[must_use]
    pub fn quota(&self) -> Option<u64> {
        self.quota
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 8,
            queue_cap: None,
            quota: None,
        }
    }
}

/// Validating builder for [`ServeConfig`]; see [`ServeConfig::builder`].
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Sets the scheduler worker count (must be ≥ 1).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Sets the dynamic-batch coalescing bound (must be ≥ 1; 1 disables
    /// coalescing).
    #[must_use]
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch;
        self
    }

    /// Bounds the admission queue (must be ≥ 1 when set).
    #[must_use]
    pub fn queue_cap(mut self, queue_cap: usize) -> Self {
        self.config.queue_cap = Some(queue_cap);
        self
    }

    /// Sets the per-client request quota (must be ≥ 1 when set).
    #[must_use]
    pub fn quota(mut self, quota: u64) -> Self {
        self.config.quota = Some(quota);
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidRequest`] when `workers` or `max_batch` is 0,
    /// or a set `queue_cap`/`quota` is 0.
    pub fn build(self) -> Result<ServeConfig, EngineError> {
        let c = &self.config;
        if c.workers == 0 {
            return Err(EngineError::InvalidRequest(
                "ServeConfig workers must be at least 1".to_owned(),
            ));
        }
        if c.max_batch == 0 {
            return Err(EngineError::InvalidRequest(
                "ServeConfig max_batch must be at least 1 (1 disables coalescing)".to_owned(),
            ));
        }
        if c.queue_cap == Some(0) {
            return Err(EngineError::InvalidRequest(
                "ServeConfig queue_cap must be at least 1 when bounded".to_owned(),
            ));
        }
        if c.quota == Some(0) {
            return Err(EngineError::InvalidRequest(
                "ServeConfig quota must be at least 1 when set".to_owned(),
            ));
        }
        Ok(self.config)
    }
}

/// How a client paces its submissions (affects queueing and batching
/// opportunities on the host — never any deterministic output).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalMode {
    /// Fire-and-forget: submit the whole log, then wait on every ticket.
    Open,
    /// One in flight: wait for each response before the next submission.
    Closed,
}

impl std::str::FromStr for ArrivalMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "open" => Ok(ArrivalMode::Open),
            "closed" => Ok(ArrivalMode::Closed),
            other => Err(format!("unknown arrival mode '{other}' (open|closed)")),
        }
    }
}

enum TicketState<T> {
    Pending,
    Done(Result<T, EngineError>),
    Taken,
}

struct TicketCell<T> {
    slot: Mutex<TicketState<T>>,
    ready: Condvar,
}

impl<T> TicketCell<T> {
    fn new() -> Self {
        TicketCell {
            slot: Mutex::new(TicketState::Pending),
            ready: Condvar::new(),
        }
    }

    fn fulfill(&self, result: Result<T, EngineError>) {
        *lock(&self.slot) = TicketState::Done(result);
        self.ready.notify_all();
    }
}

/// A claim on one in-flight request: block on [`Ticket::wait`] for the
/// typed response, or poll with [`Ticket::is_ready`].
pub struct Ticket<T> {
    cell: Arc<TicketCell<T>>,
}

impl<T> std::fmt::Debug for Ticket<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ticket")
            .field("ready", &self.is_ready())
            .finish()
    }
}

impl<T> Ticket<T> {
    /// Whether the response has been produced (a subsequent
    /// [`Ticket::wait`] will not block).
    #[must_use]
    pub fn is_ready(&self) -> bool {
        matches!(*lock(&self.cell.slot), TicketState::Done(_))
    }

    /// Blocks until the request completes and returns its result.
    ///
    /// # Errors
    ///
    /// The request's own [`EngineError`]; [`EngineError::Rejected`] when
    /// admission declined the request (server draining, bounded queue
    /// full); [`EngineError::Serve`] when the serving worker panicked
    /// mid-request.
    pub fn wait(self) -> Result<T, EngineError> {
        let mut slot = lock(&self.cell.slot);
        loop {
            if matches!(*slot, TicketState::Done(_)) {
                let TicketState::Done(result) = std::mem::replace(&mut *slot, TicketState::Taken)
                else {
                    unreachable!("checked Done above");
                };
                return result;
            }
            slot = self
                .cell
                .ready
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The coalescing key: two GEMM requests may share a dynamic batch only
/// when they agree on the *effective* method, bank count, and plan pin
/// (after engine defaults) — the configurations under which a batched
/// execution is the warm-cache twin of back-to-back solo submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct CompatKey {
    method: Method,
    banks: u32,
    pin: Option<PlanPin>,
}

impl CompatKey {
    fn of(engine: &Engine, request: &GemmRequest) -> CompatKey {
        CompatKey {
            method: request.method.unwrap_or(engine.default_method()),
            banks: request.banks.unwrap_or(engine.default_banks()),
            pin: request.pin,
        }
    }
}

enum Job {
    Gemm(Box<GemmRequest>, Arc<TicketCell<GemmResponse>>),
    Infer(Box<InferenceRequest>, Arc<TicketCell<InferenceResponse>>),
    Session(Box<SessionJob>, Arc<TicketCell<SessionResponse>>),
}

struct Queue {
    jobs: VecDeque<Job>,
    open: bool,
}

/// Per-request accounting shared by the concurrent server, the serial
/// replay, and remote clients reconstructing a summary from wire
/// responses — the *same* code computes every side of the determinism
/// invariant.
#[derive(Debug, Default, Clone)]
pub struct ServeRecorder {
    stats: Stats,
    energy_pj: u128,
    gemm_requests: u64,
    infer_requests: u64,
    session_requests: u64,
    decode_steps: u64,
    failed_requests: u64,
    latencies: Vec<u128>,
    ttfts: Vec<u128>,
    decode_latencies: Vec<u128>,
    checksums: Vec<u64>,
}

impl ServeRecorder {
    /// A fresh recorder (the identity: `summary()` of it is all-zero).
    #[must_use]
    pub fn new() -> ServeRecorder {
        ServeRecorder::default()
    }

    /// Records one GEMM verdict.
    pub fn record_gemm(&mut self, result: &Result<GemmResponse, EngineError>) {
        match result {
            Ok(response) => self.record_gemm_parts(
                &response.stats,
                response.energy_pj,
                gemm_latency_femtos(response),
                response.checksum,
            ),
            Err(_) => self.record_failure(),
        }
    }

    /// Records a successful GEMM from its deterministic parts — what a
    /// remote client extracts from a wire response. In-process recording
    /// routes through this same method, so the two sides cannot drift.
    pub fn record_gemm_parts(
        &mut self,
        stats: &Stats,
        energy_pj: u128,
        latency_femtos: u128,
        checksum: u64,
    ) {
        self.stats.merge(stats);
        self.energy_pj += energy_pj;
        self.gemm_requests += 1;
        self.latencies.push(latency_femtos);
        self.checksums.push(checksum);
    }

    /// Records one inference verdict.
    pub fn record_infer(&mut self, result: &Result<InferenceResponse, EngineError>) {
        match result {
            Ok(response) => self.record_infer_parts(&response.stats, response.energy_pj),
            Err(_) => self.record_failure(),
        }
    }

    /// Records a successful inference from its deterministic parts (the
    /// latency is the request's own merged simulated time, derived here
    /// so every recording path agrees).
    pub fn record_infer_parts(&mut self, stats: &Stats, energy_pj: u128) {
        self.stats.merge(stats);
        self.energy_pj += energy_pj;
        self.infer_requests += 1;
        self.latencies.push(stats.total_femtos());
    }

    /// Records one session verdict.
    pub fn record_session(&mut self, result: &Result<SessionResponse, EngineError>) {
        match result {
            Ok(response) => self.record_session_parts(
                &response.stats,
                response.energy_pj,
                response.ttft_femtos,
                &response.decode_step_femtos,
            ),
            Err(_) => self.record_failure(),
        }
    }

    /// Records a completed session from its deterministic parts — what a
    /// remote client extracts from a wire response. The session's
    /// end-to-end latency (its merged simulated femtoseconds) joins the
    /// request latency multiset; TTFT and each decode step's
    /// femtoseconds additionally feed the per-phase digests.
    pub fn record_session_parts(
        &mut self,
        stats: &Stats,
        energy_pj: u128,
        ttft_femtos: u128,
        decode_step_femtos: &[u128],
    ) {
        self.stats.merge(stats);
        self.energy_pj += energy_pj;
        self.session_requests += 1;
        self.decode_steps += decode_step_femtos.len() as u64;
        self.latencies.push(stats.total_femtos());
        self.ttfts.push(ttft_femtos);
        self.decode_latencies.extend_from_slice(decode_step_femtos);
    }

    /// Records a failed request of any kind.
    pub fn record_failure(&mut self) {
        self.failed_requests += 1;
    }

    /// The deterministic summary of everything recorded so far.
    #[must_use]
    pub fn summary(&self) -> ServeSummary {
        let mut checksums = self.checksums.clone();
        checksums.sort_unstable();
        ServeSummary {
            requests: self.gemm_requests + self.infer_requests + self.session_requests,
            gemm_requests: self.gemm_requests,
            infer_requests: self.infer_requests,
            session_requests: self.session_requests,
            decode_steps: self.decode_steps,
            failed_requests: self.failed_requests,
            stats: self.stats.clone(),
            energy_pj: self.energy_pj,
            latency: LatencyDigest::from_unsorted(self.latencies.clone()),
            ttft: LatencyDigest::from_unsorted(self.ttfts.clone()),
            decode: LatencyDigest::from_unsorted(self.decode_latencies.clone()),
            checksum: runtime::fnv1a_64(checksums.iter().flat_map(|c| c.to_le_bytes())),
        }
    }
}

/// A GEMM request's simulated latency: the critical path across its bank
/// shards in integer femtoseconds (banks execute concurrently on the
/// modeled hardware, so the slowest shard bounds the response time).
#[must_use]
pub fn gemm_latency_femtos(response: &GemmResponse) -> u128 {
    response
        .per_bank
        .iter()
        .map(|bank| Stats::from_profile(&bank.profile).total_femtos())
        .max()
        .unwrap_or(0)
}

/// Nearest-rank percentile over an ascending-sorted slice (integer
/// femtoseconds; 0 for an empty slice).
fn percentile(sorted: &[u128], q: u128) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u128 * q).div_ceil(100).max(1) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Percentiles of the per-request simulated latencies, in integer
/// femtoseconds. Computed over the sorted multiset, so the digest is
/// identical for every completion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LatencyDigest {
    /// Median (nearest-rank p50).
    pub p50: u128,
    /// 95th percentile (nearest-rank).
    pub p95: u128,
    /// 99th percentile (nearest-rank).
    pub p99: u128,
    /// Slowest request.
    pub max: u128,
    /// Sum over all requests (the denominator of mean latency).
    pub total: u128,
}

impl LatencyDigest {
    /// Digests an (unordered) collection of per-request latencies.
    #[must_use]
    pub fn from_unsorted(mut latencies: Vec<u128>) -> LatencyDigest {
        latencies.sort_unstable();
        LatencyDigest {
            p50: percentile(&latencies, 50),
            p95: percentile(&latencies, 95),
            p99: percentile(&latencies, 99),
            max: latencies.last().copied().unwrap_or(0),
            total: latencies.iter().sum(),
        }
    }
}

/// The deterministic outcome of a serving run: bit-identical for every
/// client interleaving, worker count, arrival mode, and batching policy
/// over the same request log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeSummary {
    /// Successful requests served (GEMM + inference + sessions).
    pub requests: u64,
    /// Successful GEMM requests.
    pub gemm_requests: u64,
    /// Successful inference requests.
    pub infer_requests: u64,
    /// Completed decoder sessions ([`Server::submit_session`]).
    pub session_requests: u64,
    /// Decode steps executed across every completed session.
    pub decode_steps: u64,
    /// Requests that returned an error (also interleaving-invariant:
    /// feasibility is a function of the request).
    pub failed_requests: u64,
    /// Associative + commutative merge of every successful response's
    /// statistics.
    pub stats: Stats,
    /// Total modeled energy, picojoules.
    pub energy_pj: u128,
    /// Latency percentiles over per-request simulated femtoseconds
    /// (sessions contribute their end-to-end latency).
    pub latency: LatencyDigest,
    /// Time-to-first-token percentiles over completed sessions' prefill
    /// steps, integer femtoseconds (all-zero when no sessions ran).
    pub ttft: LatencyDigest,
    /// Per-decode-step latency percentiles over every decode step of
    /// every completed session (all-zero when no sessions ran).
    pub decode: LatencyDigest,
    /// Order-invariant fingerprint: FNV-1a fold of the per-request GEMM
    /// values checksums in sorted order.
    pub checksum: u64,
}

impl ServeSummary {
    /// Simulated throughput: requests per *simulated* second of merged
    /// bank/host work — machine-independent, unlike wall-clock rates.
    #[must_use]
    pub fn throughput_rps(&self) -> f64 {
        let seconds = self.stats.total_seconds();
        if seconds > 0.0 {
            self.requests as f64 / seconds
        } else {
            0.0
        }
    }
}

/// A finished serving run: the deterministic [`ServeSummary`] plus
/// host-dependent scheduling observables (how batching actually played
/// out), which legitimately vary run to run and are therefore kept
/// outside the summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// The interleaving-invariant outcome.
    pub summary: ServeSummary,
    /// Service dispatches executed (a coalesced batch counts once).
    pub dispatches: u64,
    /// Requests that shared a dispatch with at least one other request.
    pub coalesced_requests: u64,
    /// Largest dynamic batch any dispatch coalesced.
    pub largest_batch: u64,
    /// LUT cache lifecycle counters at the moment the report was taken.
    /// Host-side only: eviction and warm restore move these without
    /// touching any simulated number in [`ServeSummary`].
    pub lut_cache: CacheStats,
    /// Planner-memo counters at the moment the report was taken.
    pub plan_memo: MemoStats,
}

#[derive(Debug, Default)]
struct Metrics {
    recorder: ServeRecorder,
    dispatches: u64,
    coalesced_requests: u64,
    largest_batch: u64,
}

struct Shared {
    engine: Arc<Engine>,
    queue: Mutex<Queue>,
    admit: Condvar,
    metrics: Mutex<Metrics>,
    max_batch: usize,
    queue_cap: Option<usize>,
}

impl Shared {
    /// Records a session's verdict and resolves its ticket.
    fn finish_session(
        &self,
        cell: &TicketCell<SessionResponse>,
        result: Result<SessionResponse, EngineError>,
    ) {
        lock(&self.metrics).recorder.record_session(&result);
        cell.fulfill(result);
    }

    fn report(&self) -> ServeReport {
        let metrics = lock(&self.metrics);
        ServeReport {
            summary: metrics.recorder.summary(),
            dispatches: metrics.dispatches,
            coalesced_requests: metrics.coalesced_requests,
            largest_batch: metrics.largest_batch,
            lut_cache: self.engine.lut_cache_stats(),
            plan_memo: self.engine.plan_memo_stats(),
        }
    }
}

/// The concurrent serving frontend: a shared [`Engine`], an admission
/// queue, and a worker pool. See the [module docs](crate::serve) for the
/// determinism contract.
#[derive(Debug)]
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shared")
            .field("max_batch", &self.max_batch)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Starts a server over `engine` with `config.workers()` scheduler
    /// threads. The configuration arrives pre-validated (only
    /// [`ServeConfig::builder`] and `Default` can construct one), so
    /// there are no silent clamps here.
    #[must_use]
    pub fn start(engine: Arc<Engine>, config: &ServeConfig) -> Server {
        let shared = Arc::new(Shared {
            engine,
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                open: true,
            }),
            admit: Condvar::new(),
            metrics: Mutex::new(Metrics::default()),
            max_batch: config.max_batch(),
            queue_cap: config.queue_cap(),
        });
        let workers = (0..config.workers())
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serving worker")
            })
            .collect();
        Server { shared, workers }
    }

    /// The engine this server schedules onto.
    #[must_use]
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// The scheduler worker count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues one GEMM request; the ticket resolves when a worker has
    /// served it (solo or inside a coalesced batch — bitwise the same).
    /// After [`Server::join`] the ticket resolves immediately to
    /// [`Rejection::Draining`]; when a bounded queue is at capacity it
    /// resolves immediately to [`Rejection::QueueFull`].
    pub fn submit_gemm(&self, request: GemmRequest) -> Ticket<GemmResponse> {
        let cell = Arc::new(TicketCell::new());
        self.enqueue(Job::Gemm(Box::new(request), cell.clone()), &cell);
        Ticket { cell }
    }

    /// Enqueues one inference request (never coalesced: inference requests
    /// are already internally batched workload groups).
    pub fn submit_infer(&self, request: InferenceRequest) -> Ticket<InferenceResponse> {
        let cell = Arc::new(TicketCell::new());
        self.enqueue(Job::Infer(Box::new(request), cell.clone()), &cell);
        Ticket { cell }
    }

    /// Enqueues one decoder session, served with continuous batching: a
    /// worker advances one step per dispatch and re-enqueues the session
    /// at the back of the queue, so other requests interleave between
    /// its decode waves. The ticket resolves once the final step
    /// completes (or the first failing step's error). Admission control
    /// (drain gate, queue cap) applies to the initial submission only —
    /// an admitted session always runs to completion. A session longer
    /// than [`crate::sessions::MAX_SESSION_STEPS`] resolves immediately to
    /// [`EngineError::InvalidRequest`] and counts as a failed request.
    pub fn submit_session(&self, request: SessionRequest) -> Ticket<SessionResponse> {
        let cell = Arc::new(TicketCell::new());
        match SessionJob::new(&self.shared.engine, &request) {
            Ok(job) => self.enqueue(Job::Session(Box::new(job), cell.clone()), &cell),
            // An over-long session is a failed request, as it is for
            // `replay_serial` — resolved here, before it costs anything.
            Err(error) => self.shared.finish_session(&cell, Err(error)),
        }
        Ticket { cell }
    }

    fn enqueue<T>(&self, job: Job, cell: &TicketCell<T>) {
        let mut queue = lock(&self.shared.queue);
        if !queue.open {
            drop(queue);
            cell.fulfill(Err(EngineError::Rejected(Rejection::Draining)));
            return;
        }
        // Bounded admission: a full queue rejects immediately with a
        // typed, retry-after-hinted verdict — the ticket never blocks and
        // the queue never grows past its cap.
        if let Some(cap) = self.shared.queue_cap {
            if queue.jobs.len() >= cap {
                drop(queue);
                cell.fulfill(Err(EngineError::Rejected(Rejection::QueueFull {
                    capacity: cap,
                    retry_after_ms: RETRY_AFTER_MS,
                })));
                return;
            }
        }
        queue.jobs.push_back(job);
        drop(queue);
        self.shared.admit.notify_one();
    }

    /// A point-in-time deterministic summary of everything served so far.
    #[must_use]
    pub fn summary(&self) -> ServeSummary {
        lock(&self.shared.metrics).recorder.summary()
    }

    /// A point-in-time [`ServeReport`]: the deterministic summary plus
    /// host-side scheduling and cache lifecycle observables so far.
    #[must_use]
    pub fn report(&self) -> ServeReport {
        self.shared.report()
    }

    /// Closes admission, drains the queue, joins the workers, and returns
    /// the final report. Requests already queued are still served;
    /// requests submitted afterwards are rejected.
    #[must_use]
    pub fn join(self) -> ServeReport {
        let shared = self.shared.clone();
        drop(self); // Drop closes the queue and joins the workers.
        shared.report()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        lock(&self.shared.queue).open = false;
        self.shared.admit.notify_all();
        for handle in self.workers.drain(..) {
            // A worker that panicked outside the catch_unwind window has
            // nothing left to deliver; the remaining workers still drain
            // the queue, so don't propagate.
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(batch) = next_batch(shared) {
        execute_batch(shared, batch);
    }
}

/// Pops the next dispatch: the queue head, plus — when the head is a GEMM
/// — every queued GEMM with the same [`CompatKey`], up to `max_batch`.
/// Returns `None` once the queue is drained and closed.
fn next_batch(shared: &Shared) -> Option<Vec<Job>> {
    let mut queue = lock(&shared.queue);
    loop {
        if let Some(head) = queue.jobs.pop_front() {
            let mut batch = vec![head];
            if let Job::Gemm(request, _) = &batch[0] {
                let key = CompatKey::of(&shared.engine, request);
                let mut index = 0;
                while index < queue.jobs.len() && batch.len() < shared.max_batch {
                    let compatible = matches!(
                        &queue.jobs[index],
                        Job::Gemm(other, _) if CompatKey::of(&shared.engine, other) == key
                    );
                    if compatible {
                        batch.push(queue.jobs.remove(index).expect("index in bounds"));
                    } else {
                        index += 1;
                    }
                }
            }
            return Some(batch);
        }
        if !queue.open {
            return None;
        }
        queue = shared
            .admit
            .wait(queue)
            .unwrap_or_else(PoisonError::into_inner);
    }
}

/// Runs an engine call, converting a panic into an [`EngineError::Serve`]
/// so the ticket always resolves and the worker survives.
fn guarded<T>(call: impl FnOnce() -> Result<T, EngineError>) -> Result<T, EngineError> {
    catch_unwind(AssertUnwindSafe(call)).unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".to_owned());
        Err(EngineError::Serve(format!(
            "serving worker panicked: {msg}"
        )))
    })
}

fn execute_batch(shared: &Shared, batch: Vec<Job>) {
    let size = batch.len() as u64;
    {
        let mut metrics = lock(&shared.metrics);
        metrics.dispatches += 1;
        if size > 1 {
            metrics.coalesced_requests += size;
        }
        metrics.largest_batch = metrics.largest_batch.max(size);
    }

    let mut gemms: Vec<(Box<GemmRequest>, Arc<TicketCell<GemmResponse>>)> = Vec::new();
    for job in batch {
        match job {
            Job::Infer(request, cell) => {
                let result = guarded(|| shared.engine.infer(&request));
                lock(&shared.metrics).recorder.record_infer(&result);
                cell.fulfill(result);
            }
            Job::Session(mut session, cell) => {
                // One step per dispatch — the continuous-batching pivot.
                // The push happens on this worker before it returns to
                // `next_batch`, so even at shutdown the continuation is
                // in the queue before any drained-and-closed check this
                // worker makes: no step is ever stranded.
                let result = match guarded(|| session.advance(&shared.engine)) {
                    Ok(StepOutcome::Continue) => {
                        let mut queue = lock(&shared.queue);
                        queue.jobs.push_back(Job::Session(session, cell));
                        drop(queue);
                        shared.admit.notify_one();
                        continue;
                    }
                    Ok(StepOutcome::Done(response)) => Ok(*response),
                    Err(error) => Err(error),
                };
                shared.finish_session(&cell, result);
            }
            Job::Gemm(request, cell) => gemms.push((request, cell)),
        }
    }
    match gemms.len() {
        0 => {}
        1 => {
            let (request, cell) = gemms.pop().expect("one gemm");
            let result = guarded(|| shared.engine.submit(&request));
            lock(&shared.metrics).recorder.record_gemm(&result);
            cell.fulfill(result);
        }
        _ => {
            // Move the requests into the batch (no operand clones on the
            // hot path); the failure fallback below reads them back out of
            // `batch.requests` by reference.
            let (requests, cells): (Vec<GemmRequest>, Vec<Arc<TicketCell<GemmResponse>>>) = gemms
                .into_iter()
                .map(|(request, cell)| (*request, cell))
                .unzip();
            let batch = BatchGemmRequest::new(requests);
            match guarded(|| shared.engine.submit_batch(&batch)) {
                Ok(response) if response.responses.len() == cells.len() => {
                    for (result, cell) in response.responses.into_iter().zip(cells) {
                        let result = Ok(result);
                        lock(&shared.metrics).recorder.record_gemm(&result);
                        cell.fulfill(result);
                    }
                }
                // The batch fails as a unit on the first bad member; fall
                // back to solo submissions so each ticket carries its own
                // verdict — and the good requests still succeed, bitwise
                // identical to the batched path. A *short* success
                // (impossible today: submit_batch answers every request or
                // errors as a unit) degrades the same way, so no ticket can
                // ever be left unresolved by a zip truncation.
                _ => {
                    for (request, cell) in batch.requests.iter().zip(cells) {
                        let result = guarded(|| shared.engine.submit(request));
                        lock(&shared.metrics).recorder.record_gemm(&result);
                        cell.fulfill(result);
                    }
                }
            }
        }
    }
}

/// Submits one client's request log against a server, pacing by `mode`,
/// and returns how many of its requests failed. This is the client half
/// every consumer (the `loadgen` binary, the bench `serve` scenario, the
/// concurrency tests) shares.
pub fn drive_client(server: &Server, log: Vec<TrafficRequest>, mode: ArrivalMode) -> usize {
    match mode {
        ArrivalMode::Closed => log
            .into_iter()
            .map(|request| match request {
                TrafficRequest::Gemm(r) => server.submit_gemm(r).wait().is_err(),
                TrafficRequest::Infer(r) => server.submit_infer(r).wait().is_err(),
                TrafficRequest::Session(r) => server.submit_session(r).wait().is_err(),
            })
            .filter(|failed| *failed)
            .count(),
        ArrivalMode::Open => {
            enum AnyTicket {
                Gemm(Ticket<GemmResponse>),
                Infer(Ticket<InferenceResponse>),
                Session(Ticket<SessionResponse>),
            }
            let tickets: Vec<AnyTicket> = log
                .into_iter()
                .map(|request| match request {
                    TrafficRequest::Gemm(r) => AnyTicket::Gemm(server.submit_gemm(r)),
                    TrafficRequest::Infer(r) => AnyTicket::Infer(server.submit_infer(r)),
                    TrafficRequest::Session(r) => AnyTicket::Session(server.submit_session(r)),
                })
                .collect();
            tickets
                .into_iter()
                .map(|ticket| match ticket {
                    AnyTicket::Gemm(t) => t.wait().is_err(),
                    AnyTicket::Infer(t) => t.wait().is_err(),
                    AnyTicket::Session(t) => t.wait().is_err(),
                })
                .filter(|failed| *failed)
                .count()
        }
    }
}

/// Serves a request log serially — one request at a time, in log order,
/// straight on the engine — and produces the same [`ServeSummary`] a
/// concurrent [`Server`] run over the same log produces. This is the
/// reference side of the determinism invariant.
#[must_use]
pub fn replay_serial(engine: &Engine, log: &[TrafficRequest]) -> ServeSummary {
    let mut recorder = ServeRecorder::new();
    for request in log {
        match request {
            TrafficRequest::Gemm(r) => recorder.record_gemm(&engine.submit(r)),
            TrafficRequest::Infer(r) => recorder.record_infer(&engine.infer(r)),
            TrafficRequest::Session(r) => recorder.record_session(&engine.infer_session(r)),
        }
    }
    recorder.summary()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{client_log, full_log, Mix, TrafficConfig};
    use quant::{NumericFormat, QMatrix};

    fn small_gemm(seed: u64) -> GemmRequest {
        GemmRequest::new(
            QMatrix::pseudo_random(8, 12, NumericFormat::Int(2), seed),
            QMatrix::pseudo_random(12, 4, NumericFormat::Int(3), seed + 50),
        )
        .with_banks(2)
    }

    fn mixed_traffic() -> TrafficConfig {
        TrafficConfig {
            clients: 2,
            requests_per_client: 3,
            mix: Mix::Mixed,
            seed: 11,
            decode_tokens: 4,
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let digest = LatencyDigest::from_unsorted(vec![40, 10, 20, 30]);
        assert_eq!(digest.p50, 20);
        assert_eq!(digest.p95, 40);
        assert_eq!(digest.p99, 40);
        assert_eq!(digest.max, 40);
        assert_eq!(digest.total, 100);
        assert_eq!(
            LatencyDigest::from_unsorted(vec![]),
            LatencyDigest::default()
        );
        let single = LatencyDigest::from_unsorted(vec![7]);
        assert_eq!((single.p50, single.p99, single.max), (7, 7, 7));
    }

    #[test]
    fn single_worker_server_matches_serial_replay() {
        let traffic = mixed_traffic();
        let engine = Arc::new(Engine::builder().threads(1).banks(2).build());
        let serial = replay_serial(&engine, &full_log(&traffic));
        let server = Server::start(
            engine.clone(),
            &ServeConfig::builder()
                .workers(1)
                .max_batch(4)
                .build()
                .expect("valid"),
        );
        for client in 0..traffic.clients {
            assert_eq!(
                drive_client(&server, client_log(&traffic, client), ArrivalMode::Closed),
                0
            );
        }
        let report = server.join();
        assert_eq!(report.summary, serial);
        assert!(report.dispatches >= 1);
        assert!(report.summary.latency.p50 > 0);
        assert!(report.summary.throughput_rps() > 0.0);
    }

    #[test]
    fn open_loop_coalesces_compatible_requests() {
        let engine = Arc::new(Engine::builder().threads(1).banks(2).build());
        // One worker + open-loop submission before any dispatch can finish
        // guarantees a coalescing opportunity once the worker wakes.
        let server = Server::start(
            engine,
            &ServeConfig::builder()
                .workers(1)
                .max_batch(8)
                .build()
                .expect("valid"),
        );
        let tickets: Vec<_> = (0..6).map(|i| server.submit_gemm(small_gemm(i))).collect();
        let solo: Vec<_> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        let report = server.join();
        assert_eq!(report.summary.gemm_requests, 6);
        // Responses are bitwise what solo submissions produce (checksums
        // folded in sorted order).
        let mut sums: Vec<u64> = solo.iter().map(|r| r.checksum).collect();
        sums.sort_unstable();
        assert_eq!(
            report.summary.checksum,
            runtime::fnv1a_64(sums.iter().flat_map(|c| c.to_le_bytes()))
        );
        assert!(report.dispatches <= 6);
        assert!(report.largest_batch >= 1);
    }

    #[test]
    fn failed_requests_resolve_their_tickets_and_are_counted() {
        let engine = Arc::new(Engine::upmem());
        let server = Server::start(engine, &ServeConfig::default());
        let bad = GemmRequest::new(
            QMatrix::pseudo_random(4, 4, NumericFormat::Int(16), 1),
            QMatrix::pseudo_random(4, 2, NumericFormat::Int(16), 2),
        );
        let err = server.submit_gemm(bad).wait().unwrap_err();
        assert!(matches!(err, EngineError::Gemm(_)));
        let ok = server.submit_gemm(small_gemm(9)).wait();
        assert!(ok.is_ok());
        let report = server.join();
        assert_eq!(report.summary.failed_requests, 1);
        assert_eq!(report.summary.gemm_requests, 1);
    }

    #[test]
    fn mixed_batch_failure_falls_back_to_solo_verdicts() {
        let engine = Arc::new(Engine::builder().threads(1).banks(2).build());
        let server = Server::start(
            engine,
            &ServeConfig::builder()
                .workers(1)
                .max_batch(8)
                .build()
                .expect("valid"),
        );
        // Same compat key (engine-default method/banks, no pin) so the bad
        // request coalesces with the good ones and fails the batch.
        let bad = GemmRequest::new(
            QMatrix::pseudo_random(4, 4, NumericFormat::Int(16), 1),
            QMatrix::pseudo_random(4, 2, NumericFormat::Int(16), 2),
        );
        let good_a = small_gemm(1).with_banks(4);
        let good_b = small_gemm(2).with_banks(4);
        let bad = bad.with_banks(4);
        let t1 = server.submit_gemm(good_a);
        let t2 = server.submit_gemm(bad);
        let t3 = server.submit_gemm(good_b);
        assert!(t1.wait().is_ok());
        assert!(t2.wait().is_err());
        assert!(t3.wait().is_ok());
        let report = server.join();
        assert_eq!(report.summary.gemm_requests, 2);
        assert_eq!(report.summary.failed_requests, 1);
    }

    #[test]
    fn submissions_after_join_are_rejected_not_wedged() {
        let engine = Arc::new(Engine::upmem());
        let server = Server::start(engine.clone(), &ServeConfig::default());
        let _ = server.join();
        let server = Server::start(
            engine,
            &ServeConfig::builder()
                .workers(1)
                .max_batch(1)
                .build()
                .expect("valid"),
        );
        // Simulate a post-shutdown submission by closing the queue first.
        lock(&server.shared.queue).open = false;
        let ticket = server.submit_gemm(small_gemm(3));
        assert!(ticket.is_ready());
        assert!(matches!(
            ticket.wait(),
            Err(EngineError::Rejected(Rejection::Draining))
        ));
    }

    #[test]
    fn oversized_session_fails_at_submission_and_the_server_keeps_serving() {
        use dnn::{ModelConfig, Workload};
        let engine = Arc::new(Engine::builder().threads(1).banks(2).build());
        let huge = SessionRequest::new(Workload::with_decode(ModelConfig::opt_125m(), 1, u32::MAX));
        let server = Server::start(engine.clone(), &ServeConfig::default());
        let ticket = server.submit_session(huge.clone());
        // Resolved by the submitting thread: no worker ever saw it.
        assert!(ticket.is_ready());
        assert!(matches!(ticket.wait(), Err(EngineError::InvalidRequest(_))));
        assert!(server.submit_gemm(small_gemm(4)).wait().is_ok());
        let report = server.join();
        assert_eq!(report.summary.failed_requests, 1);
        assert_eq!(report.summary.gemm_requests, 1);
        assert_eq!(report.dispatches, 1);
        // The serial reference fails the same request the same way.
        let log = [
            TrafficRequest::Session(huge),
            TrafficRequest::Gemm(small_gemm(4)),
        ];
        assert_eq!(report.summary, replay_serial(&engine, &log));
    }

    #[test]
    fn a_gemm_is_admitted_between_a_sessions_decode_waves() {
        use dnn::{ModelConfig, Workload};
        let engine = Arc::new(Engine::builder().threads(1).banks(2).build());
        // No workers: this thread is the scheduler, so the dispatch order
        // is constructed rather than raced for.
        let idle = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        let server = Server::start(engine, &idle);
        let session = server.submit_session(SessionRequest::new(Workload::with_decode(
            ModelConfig::opt_125m(),
            1,
            256,
        )));
        let gemm = server.submit_gemm(small_gemm(6));
        // Dispatch 1 runs the prefill and re-enqueues the session *behind*
        // the GEMM; dispatch 2 is therefore the GEMM, 255 steps early.
        for _ in 0..2 {
            let batch = next_batch(&server.shared).expect("two jobs are queued");
            execute_batch(&server.shared, batch);
        }
        assert!(gemm.is_ready());
        assert!(!session.is_ready());
        assert_eq!(server.report().dispatches, 2);
    }

    #[test]
    fn builder_validates_every_knob() {
        assert!(ServeConfig::builder().build().is_ok());
        for bad in [
            ServeConfig::builder().workers(0),
            ServeConfig::builder().max_batch(0),
            ServeConfig::builder().queue_cap(0),
            ServeConfig::builder().quota(0),
        ] {
            assert!(matches!(bad.build(), Err(EngineError::InvalidRequest(_))));
        }
        let config = ServeConfig::builder()
            .workers(3)
            .max_batch(2)
            .queue_cap(16)
            .quota(9)
            .build()
            .unwrap();
        assert_eq!(
            (
                config.workers(),
                config.max_batch(),
                config.queue_cap(),
                config.quota()
            ),
            (3, 2, Some(16), Some(9))
        );
        // The default is itself a valid configuration with no limits.
        assert_eq!(ServeConfig::default().queue_cap(), None);
        assert_eq!(ServeConfig::default().quota(), None);
    }

    #[test]
    fn bounded_queue_rejects_with_typed_backpressure() {
        let engine = Arc::new(Engine::builder().threads(1).banks(2).build());
        let server = Server::start(
            engine,
            &ServeConfig::builder()
                .workers(1)
                .max_batch(1)
                .queue_cap(1)
                .build()
                .expect("valid"),
        );
        // Hold the single worker on a slow request, then overfill the
        // 1-deep queue: beyond-capacity tickets must resolve *immediately*
        // (no hang, no unbounded buffering) to a QueueFull rejection
        // carrying the capacity and a retry hint.
        let slow = GemmRequest::new(
            QMatrix::pseudo_random(256, 96, NumericFormat::Bipolar, 1),
            QMatrix::pseudo_random(96, 64, NumericFormat::Int(3), 2),
        )
        .with_banks(2);
        let head = server.submit_gemm(slow);
        let burst: Vec<_> = (0..32).map(|i| server.submit_gemm(small_gemm(i))).collect();
        let mut rejected = 0;
        let mut served = 0;
        for ticket in burst {
            match ticket.wait() {
                Err(EngineError::Rejected(Rejection::QueueFull {
                    capacity,
                    retry_after_ms,
                })) => {
                    assert_eq!(capacity, 1);
                    assert_eq!(retry_after_ms, RETRY_AFTER_MS);
                    rejected += 1;
                }
                Ok(_) => served += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(head.wait().is_ok());
        // With a 1-deep queue and a busy worker, the 32-deep burst cannot
        // be admitted wholesale; rejections are the backpressure signal.
        assert!(rejected > 0, "no backpressure on an overfilled queue");
        let report = server.join();
        assert_eq!(report.summary.gemm_requests, served + 1);
        // Rejected submissions never executed and are not failures.
        assert_eq!(report.summary.failed_requests, 0);
    }

    #[test]
    fn arrival_mode_parses() {
        assert_eq!("open".parse::<ArrivalMode>().unwrap(), ArrivalMode::Open);
        assert_eq!(
            "closed".parse::<ArrivalMode>().unwrap(),
            ArrivalMode::Closed
        );
        assert!("burst".parse::<ArrivalMode>().is_err());
    }
}
