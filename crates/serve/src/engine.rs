//! The micro-batching inference engine, with a supervision layer.
//!
//! Requests enter a bounded MPSC queue ([`Engine::submit`] rejects with
//! [`ServeError::QueueFull`] once `queue_depth` jobs are waiting — explicit
//! backpressure, never unbounded growth). A pool of worker threads drains the
//! queue, and batching is **work-conserving**: a free worker blocks only
//! while the queue is empty, then takes whatever is queued at that moment, up
//! to `max_batch`, and runs it. There is no batching window and no timer. A
//! batch is exactly what accumulated while the workers were busy, so batches
//! grow with load by themselves and a lone request on an idle engine is
//! served as a batch of one, at once. Which requests share a batch cannot
//! change an answer (below: every row of the batched head is bitwise the
//! single-sequence result), so the policy is free to follow arrival timing.
//! With several workers the first to wake may take the whole backlog and the
//! others find the queue empty again; a backlog deeper than `max_batch` is
//! what spreads across workers.
//!
//! The engine holds **one** [`BaClassifier`], built from the
//! [`ModelArtifact`] at construction (which is also what validates the
//! artifact) and read by every worker through an `Arc`: inference only reads
//! the weights, so any worker may serve any request and none can disturb
//! another.
//!
//! For a fixed model a label is a pure function of the address's history,
//! so the shared LRU holds **answers**: `(address id, history length,
//! generation)` → label. Histories are append-only, so id + length identify
//! one, and [`Engine::invalidate_address`] bumps the generation when an
//! upstream changes a history at the same length. A hit is answered in the
//! worker's one pass over the batch and runs no model. A miss is embedded
//! (graph construction + GFN), and the batch's *distinct* miss sequences go
//! through the LSTM+MLP head as one ragged-batch forward pass
//! ([`BaClassifier::classify_embeddings_batch`], byte-identical per sequence
//! to `predict`). Only labels are cached, never an empty history or a head
//! error. `model_time_us_total` / `queue_wait_us_total` split latency into
//! head time and queue wait.
//!
//! # Fault tolerance
//!
//! Every request submitted to the engine receives **exactly one terminal
//! outcome** — `Ok` (possibly degraded) or one of the [`ServeError`]s —
//! even under worker panics, poisoned locks, and injected faults:
//!
//! * **Supervision** — each worker's batch loop runs under `catch_unwind`.
//!   A panic mid-batch completes the batch's unanswered tickets as
//!   [`ServeError::WorkerFailed`], then the worker restarts with a fresh
//!   batch scratch (the model is read-only and needs no rebuild) after an
//!   exponential backoff (from `RESTART_BACKOFF`) with deterministic
//!   jitter. A worker that exhausts `MAX_WORKER_RESTARTS` retires; when the
//!   *last* worker retires, queued jobs are failed explicitly and the
//!   circuit breaker is forced open so new work degrades instead of hanging.
//! * **Poisoned locks are recovered**, not propagated: every queue/cache
//!   lock acquisition goes through [`recover`], because the queue and cache
//!   are plain data that remain valid after any panic in a worker.
//! * **Deadlines** — [`Engine::submit`] stamps `default_deadline` on each
//!   job from admission through batch execution; expired jobs complete as
//!   [`ServeError::DeadlineExceeded`] and count in `metrics.timed_out`.
//! * **Degradation** — a [`CircuitBreaker`] trips after `BREAKER_THRESHOLD`
//!   consecutive worker failures or queue-full rejections; while open, and
//!   once every worker has retired, the engine answers for itself through
//!   [`degrade`]: from the [`Fallback`] classifier (responses tagged
//!   `degraded: true`), or with an error when none is installed. The
//!   breaker half-opens after `BREAKER_COOLDOWN` to probe the real path.
//! * **Fault injection** — workers consult [`EngineHooks::fault_plan`]
//!   before every batch; the production default is [`NoFaults`]. The chaos
//!   harness exercises all of the above through this hook — the same code
//!   paths, no `cfg(test)` shadows.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::mpsc::{self, Receiver, SyncSender};
use std::sync::{Arc, Condvar, LockResult, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use baclassifier::{ArtifactError, BaClassifier, ModelArtifact, PredictError};
use btcsim::{AddressRecord, Label};

use crate::breaker::{Admission, BreakerState, CircuitBreaker};
use crate::cache::LruCache;
use crate::fallback::{degrade, Fallback};
use crate::fault::{splitmix64, FaultAction, FaultPlan, NoFaults};
use crate::metrics::{Metrics, MetricsSnapshot};

/// Tuning knobs for the serving engine.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads, all reading one model. `0` leaves the queue
    /// permanently un-drained: only tests build such an engine, to exercise
    /// backpressure (`--workers 0` is refused on the command line).
    pub workers: usize,
    /// Most queued requests a worker takes into one batch.
    pub max_batch: usize,
    /// Bound on queued (admitted, not yet processed) requests.
    pub queue_depth: usize,
    /// Labels held by the shared answer LRU; `0` disables caching. The
    /// cache grows as it fills, so a huge capacity reserves nothing.
    pub cache_capacity: usize,
    /// Deadline applied to every `submit`; `None` means requests never
    /// expire.
    pub default_deadline: Option<Duration>,
}

/// Consecutive failures (worker panics, queue-full rejections) that trip
/// the circuit breaker.
const BREAKER_THRESHOLD: u32 = 8;
/// How long a tripped breaker stays open before half-opening a probe.
const BREAKER_COOLDOWN: Duration = Duration::from_millis(500);
/// Restarts a worker is allowed after caught panics before it retires.
const MAX_WORKER_RESTARTS: u32 = 4;
/// Base of the exponential restart backoff (doubled per consecutive
/// restart, plus deterministic jitter).
const RESTART_BACKOFF: Duration = Duration::from_millis(10);

impl Default for EngineConfig {
    fn default() -> Self {
        let cores = thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self {
            workers: cores.min(4),
            max_batch: 16,
            queue_depth: 256,
            cache_capacity: 1024,
            default_deadline: None,
        }
    }
}

impl EngineConfig {
    /// Derive the per-shard config for one of `shards` engines sharing this
    /// config's resource budget: workers, queue depth, and cache capacity
    /// are divided (never below 1 once non-zero — a shard with zero queue
    /// slots could accept nothing), while per-request policy (batching,
    /// deadlines) is inherited unchanged. The explicit `workers == 0` and
    /// `cache_capacity == 0` test semantics survive sharding: zero divides
    /// to zero.
    pub fn for_shard(&self, shards: usize) -> EngineConfig {
        let shards = shards.max(1);
        let split = |v: usize| if v == 0 { 0 } else { (v / shards).max(1) };
        EngineConfig {
            workers: split(self.workers),
            queue_depth: split(self.queue_depth),
            cache_capacity: split(self.cache_capacity),
            ..self.clone()
        }
    }
}

/// The engine's pluggable seams: fault injection and degraded-mode
/// fallback. Production uses the defaults ([`NoFaults`], no fallback); the
/// chaos harness and the daemon install their own.
#[derive(Clone)]
pub struct EngineHooks {
    /// Consulted by every worker before each batch (see [`FaultPlan`]).
    pub fault_plan: Arc<dyn FaultPlan>,
    /// Degraded-mode classifier used while the breaker is open or after all
    /// workers retired. `None` means such requests fail instead.
    pub fallback: Option<Arc<Fallback>>,
}

impl Default for EngineHooks {
    fn default() -> Self {
        Self {
            fault_plan: Arc::new(NoFaults),
            fallback: None,
        }
    }
}

/// Why a request was not served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue is at `queue_depth`; retry later (backpressure).
    QueueFull,
    /// The engine is shutting down and no longer admits or serves work.
    ShuttingDown,
    /// The model itself refused the input (e.g. empty history).
    Predict(PredictError),
    /// The serving worker panicked (or retired) before answering; the
    /// request was completed explicitly by the supervisor, not dropped.
    WorkerFailed,
    /// The request's deadline passed before a worker could serve it.
    DeadlineExceeded,
    /// The circuit breaker is open and no fallback classifier is installed.
    BreakerOpen,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull => write!(f, "request queue is full"),
            ServeError::ShuttingDown => write!(f, "engine is shutting down"),
            ServeError::Predict(e) => write!(f, "prediction failed: {e}"),
            ServeError::WorkerFailed => write!(f, "serving worker failed"),
            ServeError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            ServeError::BreakerOpen => write!(f, "circuit breaker is open"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<PredictError> for ServeError {
    fn from(e: PredictError) -> Self {
        ServeError::Predict(e)
    }
}

/// A served classification.
#[derive(Clone, Debug)]
pub struct Response {
    pub label: Label,
    /// Whether the label came from work already done: the answer LRU, or an
    /// identical request earlier in the same batch.
    pub cache_hit: bool,
    /// Answered by the degraded fallback classifier, not the model.
    pub degraded: bool,
    /// Queue-to-reply time as observed by the worker.
    pub latency: Duration,
}

/// Handle to one in-flight request; redeem with [`Ticket::wait`].
pub struct Ticket {
    rx: Receiver<Result<Response, ServeError>>,
}

impl Ticket {
    /// Block until the engine replies.
    pub fn wait(self) -> Result<Response, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::WorkerFailed))
    }

    /// [`Ticket::wait`] for at most `timeout`. `Err` hands the ticket back,
    /// still good to wait on, when no reply has arrived yet.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Result<Response, ServeError>, Ticket> {
        match self.rx.recv_timeout(timeout) {
            Ok(reply) => Ok(reply),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(self),
            Err(mpsc::RecvTimeoutError::Disconnected) => Ok(Err(ServeError::WorkerFailed)),
        }
    }

    /// A ticket that is already resolved: the `Ticket` surface for an
    /// answer that never entered a queue (a lane answering for itself from
    /// its fallback).
    pub fn settled(result: Result<Response, ServeError>) -> Ticket {
        let (tx, rx) = mpsc::sync_channel(1);
        let _ = tx.send(result);
        Ticket { rx }
    }

    /// A ticket settled later by whoever holds the sender — the remote
    /// lane's shape: a network reader thread resolves the ticket when the
    /// shard worker's reply frame arrives (or the connection dies). The
    /// channel holds one slot; the first send wins and the ticket's
    /// `wait` observes exactly one terminal outcome, same as an engine
    /// ticket.
    pub fn pending() -> (SyncSender<Result<Response, ServeError>>, Ticket) {
        let (tx, rx) = mpsc::sync_channel(1);
        (tx, Ticket { rx })
    }
}

/// Recover a possibly-poisoned lock result. The queue and cache are plain
/// data structures that stay structurally valid across a panic in any
/// worker, so poisoning carries no information here — propagating it would
/// turn one caught panic into a process-wide cascade.
fn recover<T>(r: LockResult<T>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

/// `(address id, history length, generation)`. Histories are append-only,
/// so `(id, len)` uniquely identifies a history *as long as the
/// upstream source only appends*; the generation tag covers every other
/// case. [`Engine::invalidate_address`] bumps an address's generation, which
/// re-keys all of its future lookups — entries under older generations can
/// never be reached again and age out of the LRU.
type CacheKey = (u64, u64, u64);

struct Job {
    record: AddressRecord,
    reply: SyncSender<Result<Response, ServeError>>,
    enqueued: Instant,
    deadline: Option<Instant>,
}

/// How a key already seen in the current batch is answered.
#[derive(Clone, Copy)]
enum Answer {
    /// The label is known (it came from the LRU).
    Label(Label),
    /// Row `r` of this batch's head call will hold the label.
    Row(usize),
    /// The history is empty; there is nothing to classify.
    Empty,
}

/// What a worker needs per batch, owned by the worker and emptied after
/// every batch so that a batch of one pays for no allocation of its own.
#[derive(Default)]
struct BatchScratch {
    /// Jobs live in `Option` slots so the unwind path can tell the answered
    /// from the unanswered: `process_batch` takes a job out of its slot
    /// only at the moment it replies.
    slots: Vec<Option<Job>>,
    /// `keys[i]` is the cache key of `slots[i]`.
    keys: Vec<CacheKey>,
    /// The answer of every key seen so far in this batch (intra-batch dedup).
    this_batch: HashMap<CacheKey, Answer>,
}

#[derive(Default)]
struct QueueState {
    jobs: VecDeque<Job>,
    shutdown: bool,
    /// Set (under this lock) when the last live worker retires, so a submit
    /// racing the retirement drain can never enqueue a job nobody will pop.
    no_workers: bool,
}

struct Shared {
    queue: Mutex<QueueState>,
    cond: Condvar,
    cache: Mutex<LruCache<CacheKey, Label>>,
    /// Per-address cache generation; absent means generation 0. Bumped by
    /// [`Engine::invalidate_address`] to supersede cached labels.
    generations: Mutex<HashMap<u64, u64>>,
    metrics: Metrics,
    breaker: CircuitBreaker,
    hooks: EngineHooks,
    live_workers: AtomicUsize,
}

impl Shared {
    fn breaker_failure(&self) {
        if self.breaker.record_failure() {
            self.metrics.breaker_trips.fetch_add(1, Relaxed);
        }
    }

    /// Append the cache key of every job in `slots` to `keys`, reading the
    /// generations under one lock: a single instant is a valid
    /// linearisation of per-job reads, and an invalidation that returned
    /// before a request was submitted is still always seen by it.
    fn cache_keys(&self, slots: &[Option<Job>], keys: &mut Vec<CacheKey>) {
        let generations = recover(self.generations.lock());
        keys.extend(slots.iter().map(|slot| {
            let record = &slot.as_ref().expect("unprocessed slot holds a job").record;
            let generation = generations.get(&record.address.0).copied().unwrap_or(0);
            (record.address.0, record.txs.len() as u64, generation)
        }));
    }
}

/// The batched, cached serving engine. Dropping it shuts down gracefully:
/// admitted work is finished, then workers exit.
pub struct Engine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    queue_depth: usize,
    default_deadline: Option<Duration>,
}

impl Engine {
    /// Validate the artifact (by building the classifier every worker will
    /// read) and spawn the worker pool with default hooks (no fault
    /// injection, no fallback).
    pub fn new(artifact: Arc<ModelArtifact>, config: EngineConfig) -> Result<Self, ArtifactError> {
        Self::with_hooks(artifact, config, EngineHooks::default())
    }

    /// [`Engine::new`] with explicit [`EngineHooks`] — the entry point used
    /// by the daemon (fallback) and the chaos harness (fault plan).
    pub fn with_hooks(
        artifact: Arc<ModelArtifact>,
        config: EngineConfig,
        hooks: EngineHooks,
    ) -> Result<Self, ArtifactError> {
        // Surface shape/config mismatches here, not inside a worker thread.
        let clf = Arc::new(BaClassifier::from_artifact(&artifact)?);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState::default()),
            cond: Condvar::new(),
            cache: Mutex::new(LruCache::new(config.cache_capacity)),
            generations: Mutex::new(HashMap::new()),
            metrics: Metrics::default(),
            breaker: CircuitBreaker::new(BREAKER_THRESHOLD, BREAKER_COOLDOWN),
            hooks,
            live_workers: AtomicUsize::new(config.workers),
        });
        let workers = (0..config.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let clf = Arc::clone(&clf);
                let max_batch = config.max_batch;
                thread::Builder::new()
                    .name(format!("baserve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, &clf, max_batch, i))
                    .expect("spawn serving worker")
            })
            .collect();
        Ok(Self {
            shared,
            workers,
            queue_depth: config.queue_depth,
            default_deadline: config.default_deadline,
        })
    }

    /// Enqueue one classification request under the engine's
    /// `default_deadline`, measured from admission and enforced by the
    /// worker that picks the job up: expired jobs complete as
    /// [`ServeError::DeadlineExceeded`]. Fails fast with
    /// [`ServeError::QueueFull`] instead of queueing unboundedly; answers
    /// from the fallback while the breaker is open or no worker is left.
    pub fn submit(&self, record: AddressRecord) -> Result<Ticket, ServeError> {
        let now = Instant::now();
        self.shared.metrics.submitted.fetch_add(1, Relaxed);
        if self.shared.breaker.admit() == Admission::Shed {
            return self.degrade(&record, ServeError::BreakerOpen);
        }
        let mut q = recover(self.shared.queue.lock());
        if q.shutdown {
            self.shared.metrics.rejected.fetch_add(1, Relaxed);
            return Err(ServeError::ShuttingDown);
        }
        if q.no_workers {
            drop(q);
            // The probe (if this was one) cannot resolve without workers;
            // report it failed so the breaker re-opens cleanly.
            self.shared.breaker_failure();
            return self.degrade(&record, ServeError::WorkerFailed);
        }
        if q.jobs.len() >= self.queue_depth {
            self.shared.metrics.rejected.fetch_add(1, Relaxed);
            self.shared.breaker_failure();
            return Err(ServeError::QueueFull);
        }
        let (tx, rx) = mpsc::sync_channel(1);
        q.jobs.push_back(Job {
            record,
            reply: tx,
            enqueued: now,
            deadline: self.default_deadline.map(|d| now + d),
        });
        drop(q);
        self.shared.cond.notify_all();
        Ok(Ticket { rx })
    }

    /// Answer for a model path that cannot serve: see [`degrade`].
    fn degrade(&self, record: &AddressRecord, err: ServeError) -> Result<Ticket, ServeError> {
        let fallback = self.shared.hooks.fallback.as_deref();
        degrade(fallback, record, err, &self.shared.metrics)
    }

    /// Submit and wait — the one-call convenience path.
    pub fn classify(&self, record: AddressRecord) -> Result<Response, ServeError> {
        self.submit(record)?.wait()
    }

    /// Supersede every cached label for `address` by bumping its cache
    /// generation. Returns the new generation.
    ///
    /// The `(id, history_len)` key already guarantees that a *grown* history
    /// can never hit an entry cached for a shorter one. This API closes the
    /// remaining hole — a history that changed at the same length (a
    /// corrected record, a re-orged source). Only a caller holding the
    /// engine can reach it: no lane, backend or wire message carries it.
    pub fn invalidate_address(&self, address: btcsim::Address) -> u64 {
        let generation = {
            let mut gens = recover(self.shared.generations.lock());
            let g = gens.entry(address.0).or_insert(0);
            *g += 1;
            *g
        };
        self.shared.metrics.invalidations.fetch_add(1, Relaxed);
        generation
    }

    /// Requests admitted but not yet picked up by a worker — the live
    /// value behind the `queue_depth` gauge and the router's per-shard
    /// admission view.
    pub fn queue_len(&self) -> usize {
        recover(self.shared.queue.lock()).jobs.len()
    }

    /// Point-in-time copy of the service counters and histograms.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.shared.metrics.snapshot();
        snap.queue_depth = self.queue_len() as u64;
        snap
    }

    /// Current circuit-breaker state.
    pub fn breaker_state(&self) -> BreakerState {
        self.shared.breaker.state()
    }

    /// Workers still running (not retired, not shut down).
    pub fn live_workers(&self) -> usize {
        self.shared.live_workers.load(Relaxed)
    }

    /// Finish admitted work, stop the workers, and fail anything that could
    /// not be served (no workers configured, or all workers retired).
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        {
            let mut q = recover(self.shared.queue.lock());
            q.shutdown = true;
        }
        self.shared.cond.notify_all();
        for h in self.workers.drain(..) {
            h.join().ok();
        }
        // Live workers only exit with an empty queue, so this loop finds
        // jobs only when there were no workers to drain it.
        let mut q = recover(self.shared.queue.lock());
        while let Some(job) = q.jobs.pop_front() {
            self.shared.metrics.rejected.fetch_add(1, Relaxed);
            let _ = job.reply.send(Err(ServeError::ShuttingDown));
        }
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Block until the queue is non-empty, then move what is queued right now —
/// at most `max_batch` jobs — into `slots`. `false` means shutdown was
/// requested and the queue is drained.
fn collect_batch(shared: &Shared, max_batch: usize, slots: &mut Vec<Option<Job>>) -> bool {
    let mut q = recover(shared.queue.lock());
    while q.jobs.is_empty() {
        if q.shutdown {
            return false;
        }
        q = recover(shared.cond.wait(q));
    }
    let take = q.jobs.len().min(max_batch.max(1));
    slots.extend(q.jobs.drain(..take).map(Some));
    true
}

/// Retire a worker that exhausted its restart budget. If it was the last
/// live worker, fail all queued jobs explicitly and force the breaker open
/// so new submissions degrade instead of queueing forever.
fn retire(shared: &Shared) {
    shared.metrics.workers_retired.fetch_add(1, Relaxed);
    if shared.live_workers.fetch_sub(1, Relaxed) == 1 {
        if shared.breaker.force_open() {
            shared.metrics.breaker_trips.fetch_add(1, Relaxed);
        }
        let mut q = recover(shared.queue.lock());
        q.no_workers = true;
        while let Some(job) = q.jobs.pop_front() {
            shared.metrics.failed.fetch_add(1, Relaxed);
            let _ = job.reply.send(Err(ServeError::WorkerFailed));
        }
    }
}

/// Sleep `RESTART_BACKOFF × 2^(restarts-1)` plus deterministic jitter,
/// waking early on shutdown. Returns `false` when shutdown was requested.
fn backoff_sleep(shared: &Shared, worker: usize, restarts: u32) -> bool {
    let backoff = RESTART_BACKOFF.saturating_mul(1u32 << (restarts.saturating_sub(1)).min(5));
    let mut seed = ((worker as u64) << 32) ^ u64::from(restarts);
    let jitter_us = splitmix64(&mut seed) % (backoff.as_micros() as u64 / 2 + 1);
    let deadline = Instant::now() + backoff + Duration::from_micros(jitter_us);
    let mut q = recover(shared.queue.lock());
    loop {
        if q.shutdown {
            return false;
        }
        let now = Instant::now();
        if now >= deadline {
            return true;
        }
        let (guard, _) = recover(shared.cond.wait_timeout(q, deadline - now));
        q = guard;
    }
}

/// Account one batch panic and decide the worker's fate. Trip accounting
/// comes first, so a caller that sees a `WorkerFailed` reply observes the
/// breaker already aware of the failure; then every job still in
/// `unanswered` is failed explicitly. Returns `true` when the worker should
/// restart (after the backoff), `false` when it retired or shutdown was
/// requested.
fn batch_panicked(
    shared: &Shared,
    worker: usize,
    restarts: &mut u32,
    unanswered: &mut [Option<Job>],
) -> bool {
    shared.metrics.worker_panics.fetch_add(1, Relaxed);
    shared.breaker_failure();
    for job in unanswered.iter_mut().filter_map(Option::take) {
        shared.metrics.failed.fetch_add(1, Relaxed);
        let _ = job.reply.send(Err(ServeError::WorkerFailed));
    }
    *restarts += 1;
    if *restarts > MAX_WORKER_RESTARTS {
        retire(shared);
        return false;
    }
    shared.metrics.worker_restarts.fetch_add(1, Relaxed);
    if !backoff_sleep(shared, worker, *restarts) {
        shared.live_workers.fetch_sub(1, Relaxed);
        return false;
    }
    true
}

/// One worker thread: serve batches under `catch_unwind`, restart on panic
/// (bounded, backed-off), retire when the restart budget is spent. A restart
/// replaces the batch scratch, which may hold half a batch after an unwind;
/// the classifier is shared and read-only, so there is nothing of it to
/// rebuild.
fn worker_loop(shared: &Shared, clf: &BaClassifier, max_batch: usize, worker: usize) {
    let mut restarts: u32 = 0;
    // Per-worker batch counter, monotonic across restarts, so fault plans
    // can address "worker W, batch K" deterministically.
    let mut batch_seq: u64 = 0;
    let mut scratch = BatchScratch::default();
    loop {
        if !collect_batch(shared, max_batch, &mut scratch.slots) {
            // Graceful shutdown; queued work is already drained.
            shared.live_workers.fetch_sub(1, Relaxed);
            return;
        }
        batch_seq += 1;
        let fault = shared.hooks.fault_plan.before_batch(worker, batch_seq);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            process_batch(shared, clf, &mut scratch, fault)
        }));
        match outcome {
            // Per-job successes already fed the breaker inside
            // `process_batch`; here only the restart streak resets.
            Ok(()) => restarts = 0,
            Err(_) => {
                if !batch_panicked(shared, worker, &mut restarts, &mut scratch.slots) {
                    return;
                }
                scratch = BatchScratch::default();
            }
        }
    }
}

fn process_batch(
    shared: &Shared,
    clf: &BaClassifier,
    scratch: &mut BatchScratch,
    fault: Option<FaultAction>,
) {
    let BatchScratch {
        slots,
        keys,
        this_batch,
    } = scratch;
    let metrics = &shared.metrics;
    metrics.record_batch_size(slots.len());
    match fault {
        // Injected slowness: the whole batch stalls, so deadline-carrying
        // jobs in it must resolve as DeadlineExceeded below.
        Some(FaultAction::Delay(d)) => thread::sleep(d),
        // Injected crash, deliberately while holding the shared cache lock
        // so the poisoned-lock recovery path is exercised, not just the
        // ticket completion path.
        Some(FaultAction::Panic) => {
            let _cache = recover(shared.cache.lock());
            panic!("injected fault: worker panic");
        }
        None => {}
    }
    let started = Instant::now();
    // Pass 1: resolve deadlines, answer every job whose label is known
    // (intra-batch dedup or the shared LRU) or whose history is empty, and
    // embed each distinct miss as the next row of the head call. `waiting`
    // holds `(slot, row, cache_hit)` of every job answered by a head row.
    let (mut seqs, mut waiting) = (Vec::new(), Vec::new());
    shared.cache_keys(slots, keys);
    for (i, slot) in slots.iter_mut().enumerate() {
        let job = slot.as_ref().expect("unprocessed slot holds a job");
        if job.deadline.is_some_and(|d| Instant::now() >= d) {
            metrics.timed_out.fetch_add(1, Relaxed);
            send(slot, Err(ServeError::DeadlineExceeded));
            continue;
        }
        let dedup = this_batch.get(&keys[i]).copied();
        let answer = match dedup {
            Some(answer) => {
                metrics.batch_dedup_hits.fetch_add(1, Relaxed);
                answer
            }
            None => {
                // Its own statement: the guard drops before any embedding.
                let cached = recover(shared.cache.lock()).get(&keys[i]).copied();
                let answer = match cached {
                    Some(label) => {
                        metrics.cache_hits.fetch_add(1, Relaxed);
                        Answer::Label(label)
                    }
                    None => {
                        metrics.cache_misses.fetch_add(1, Relaxed);
                        let seq = clf.embed_record(&job.record);
                        if seq.is_empty() {
                            Answer::Empty
                        } else {
                            seqs.push(seq);
                            Answer::Row(seqs.len() - 1)
                        }
                    }
                };
                this_batch.insert(keys[i], answer);
                answer
            }
        };
        match answer {
            Answer::Label(label) => reply_label(shared, slot, label, true, started),
            Answer::Row(row) => waiting.push((i, row, dedup.is_some())),
            Answer::Empty => reply_refused(shared, slot, PredictError::EmptyHistory),
        }
    }
    // Pass 2: the distinct misses go through the head as one ragged-batch
    // forward pass, whose every row is bitwise the per-sequence result, so no
    // answer depends on which requests shared the batch. Their labels are
    // cached under one lock, and every job waiting on a row is answered.
    if !seqs.is_empty() {
        let model_started = Instant::now();
        let classified = clf.classify_embeddings_batch(&seqs, 1);
        let model_us = model_started.elapsed().as_micros() as u64;
        metrics.model_time_us_total.fetch_add(model_us, Relaxed);
        let rows = seqs.len() as u64;
        metrics.embed_batch_rows_total.fetch_add(rows, Relaxed);
        match classified {
            Ok(labels) => {
                // Each row's one miss (the job that is no dedup hit) has its key.
                let mut cache = recover(shared.cache.lock());
                for &(slot, row, _) in waiting.iter().filter(|w| !w.2) {
                    cache.insert(keys[slot], labels[row].0);
                }
                drop(cache);
                for &(slot, row, hit) in waiting.iter() {
                    reply_label(shared, &mut slots[slot], labels[row].0, hit, started);
                }
            }
            Err(e) => {
                for &(slot, ..) in waiting.iter() {
                    reply_refused(shared, &mut slots[slot], e);
                }
            }
        }
    }
    // Every job has been answered and has left its slot.
    slots.clear();
    keys.clear();
    this_batch.clear();
}

/// Answer the job in `slot` with `label`: the one success path, for hits
/// and misses alike. Its queue wait ends at `started`, when its batch began.
fn reply_label(shared: &Shared, slot: &mut Option<Job>, label: Label, hit: bool, started: Instant) {
    let job = slot.as_ref().expect("unanswered slot holds a job");
    let latency = job.enqueued.elapsed();
    let waited_us = started.saturating_duration_since(job.enqueued).as_micros() as u64;
    let metrics = &shared.metrics;
    metrics.completed.fetch_add(1, Relaxed);
    metrics.record_latency_us(latency.as_micros() as u64);
    metrics.queue_wait_us_total.fetch_add(waited_us, Relaxed);
    // Close/reset the breaker before the reply is observable, so a caller
    // that sees a served probe also sees the breaker closed.
    shared.breaker.record_success();
    let response = Response {
        label,
        cache_hit: hit,
        degraded: false,
        latency,
    };
    send(slot, Ok(response));
}

/// Fail the job in `slot` because the model refused its input.
fn reply_refused(shared: &Shared, slot: &mut Option<Job>, e: PredictError) {
    shared.metrics.failed.fetch_add(1, Relaxed);
    send(slot, Err(ServeError::Predict(e)));
}

/// Reply to the job in `slot`, which it leaves only now. A dropped Ticket is
/// not an engine error, so a failed send is ignored.
fn send(slot: &mut Option<Job>, result: Result<Response, ServeError>) {
    let job = slot.take().expect("unanswered slot holds a job");
    let _ = job.reply.send(result);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::ScriptedFaultPlan;
    use baclassifier::BacConfig;
    use btcsim::{Dataset, SimConfig, Simulator};

    fn test_records(n: usize) -> Vec<AddressRecord> {
        let sim = Simulator::run_to_completion(SimConfig::tiny(9));
        let ds = Dataset::from_simulator(&sim, 3);
        assert!(ds.len() >= n, "tiny sim yielded only {} records", ds.len());
        ds.records.into_iter().take(n).collect()
    }

    /// Every request must reach exactly one terminal outcome.
    fn assert_accounted(snap: &MetricsSnapshot) {
        assert_eq!(
            snap.terminal_total(),
            snap.submitted,
            "dropped or double-counted requests: {snap:?}"
        );
    }

    #[test]
    fn engine_matches_direct_model() {
        let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
        let direct = BaClassifier::from_artifact(&artifact).unwrap();
        let engine = Engine::new(
            Arc::clone(&artifact),
            EngineConfig {
                workers: 2,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        for record in test_records(12) {
            let expect = direct.predict(&record).unwrap();
            let got = engine.classify(record).unwrap();
            assert_eq!(got.label, expect);
            assert!(!got.degraded);
        }
        let snap = engine.metrics();
        assert_eq!(snap.completed, 12);
        assert_eq!(snap.failed, 0);
        // Every served row went through the batched head path, and the
        // latency split accounted real model time for it.
        assert_eq!(snap.embed_batch_rows_total, 12);
        assert!(snap.model_time_us_total > 0);
        assert_accounted(&snap);
    }

    #[test]
    fn queue_full_is_rejected_not_queued() {
        let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
        // Zero workers: nothing drains, so the bound is exact.
        let engine = Engine::new(
            artifact,
            EngineConfig {
                workers: 0,
                queue_depth: 3,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let records = test_records(4);
        let mut tickets = Vec::new();
        for r in records.iter().take(3).cloned() {
            tickets.push(engine.submit(r).unwrap());
        }
        assert_eq!(
            engine.submit(records[3].clone()).map(|_| ()),
            Err(ServeError::QueueFull)
        );
        let snap = engine.metrics();
        assert_eq!(snap.submitted, 4);
        assert_eq!(snap.rejected, 1);
        // Shutdown fails the admitted-but-unserved jobs cleanly.
        engine.shutdown();
        for t in tickets {
            assert_eq!(t.wait().map(|_| ()), Err(ServeError::ShuttingDown));
        }
    }

    /// One worker whose first batch stalls for `stall`, so a test can queue
    /// a known backlog behind it: the batching policy stated without a clock.
    fn engine_with_stalled_first_batch(max_batch: usize, stall: Duration) -> Engine {
        let plan = ScriptedFaultPlan::new(vec![crate::fault::FaultSpec {
            worker: 0,
            batch: 1,
            action: FaultAction::Delay(stall),
        }]);
        Engine::with_hooks(
            Arc::new(ModelArtifact::untrained(BacConfig::fast())),
            EngineConfig {
                workers: 1,
                max_batch,
                ..EngineConfig::default()
            },
            EngineHooks {
                fault_plan: Arc::new(plan),
                fallback: None,
            },
        )
        .unwrap()
    }

    /// Submit `first`, wait until the worker has taken it (and is stalled
    /// in batch 1), submit `rest` behind it, and wait for every reply;
    /// returns the replies to `rest`, in order.
    fn backlog_behind_first(
        engine: &Engine,
        first: &AddressRecord,
        rest: &[AddressRecord],
    ) -> Vec<Result<Response, ServeError>> {
        let head = engine.submit(first.clone()).unwrap();
        while engine.queue_len() != 0 {
            thread::yield_now();
        }
        let tickets: Vec<Ticket> = rest
            .iter()
            .map(|r| engine.submit(r.clone()).unwrap())
            .collect();
        head.wait().unwrap();
        tickets.into_iter().map(Ticket::wait).collect()
    }

    /// [`backlog_behind_first`] where every reply must be `Ok`.
    fn serve_backlog_behind_first(engine: &Engine, first: &AddressRecord, rest: &[AddressRecord]) {
        for reply in backlog_behind_first(engine, first, rest) {
            reply.unwrap();
        }
    }

    /// What queued while the only worker was busy is one batch: the worker
    /// neither lingers for more nor serves the backlog one by one.
    #[test]
    fn backlog_behind_a_busy_worker_forms_one_batch() {
        let engine = engine_with_stalled_first_batch(16, Duration::from_millis(100));
        let records = test_records(9);
        serve_backlog_behind_first(&engine, &records[0], &records[1..]);
        let snap = engine.metrics();
        assert_eq!(snap.completed, 9);
        assert_eq!(snap.batches, 2, "the backlog of 8 must be one batch");
        assert_eq!(snap.batch_sizes.quantile(1.0), 8);
        assert_accounted(&snap);
    }

    /// A backlog deeper than `max_batch` is cut at `max_batch`.
    #[test]
    fn batches_exceed_one_under_burst() {
        let engine = engine_with_stalled_first_batch(8, Duration::from_millis(50));
        let records = test_records(12);
        let burst: Vec<AddressRecord> = records.iter().cycle().skip(1).take(23).cloned().collect();
        serve_backlog_behind_first(&engine, &records[0], &burst);
        let snap = engine.metrics();
        assert_eq!(snap.completed, 24);
        // 1, then the 23 queued behind it as 8 + 8 + 7.
        assert_eq!(snap.batches, 4);
        assert_eq!(snap.batch_sizes.quantile(1.0), 8);
        assert_accounted(&snap);
    }

    /// An idle engine answers a lone request as a batch of one, at once. The
    /// fastest of 20 is steady on any host; a batching window of any length
    /// would be a floor under all of them.
    #[test]
    fn a_lone_warm_request_is_not_held() {
        let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
        let engine = Engine::new(artifact, EngineConfig::default()).unwrap();
        let record = test_records(1).remove(0);
        assert!(!engine.classify(record.clone()).unwrap().cache_hit);
        let cold = engine.metrics();
        let fastest = (0..20)
            .map(|_| {
                let sent = Instant::now();
                let resp = engine.classify(record.clone()).unwrap();
                assert!(resp.cache_hit);
                sent.elapsed()
            })
            .min()
            .expect("20 requests");
        let snap = engine.metrics();
        assert_eq!(snap.batches - cold.batches, 20);
        assert!(
            fastest < Duration::from_millis(1),
            "fastest warm request took {fastest:?}"
        );
        assert_accounted(&snap);
    }

    /// Four workers racing for one burst: whichever worker takes whichever
    /// share, every request is answered once, with the model's label.
    #[test]
    fn burst_over_four_workers_is_accounted_and_identical() {
        let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
        let direct = BaClassifier::from_artifact(&artifact).unwrap();
        let engine = Engine::new(
            artifact,
            EngineConfig {
                workers: 4,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let records = test_records(16);
        let expect: Vec<Label> = records.iter().map(|r| direct.predict(r).unwrap()).collect();
        for r in &records {
            engine.classify(r.clone()).unwrap();
        }
        let tickets: Vec<Ticket> = (0..64)
            .map(|i| engine.submit(records[i % 16].clone()).unwrap())
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t.wait().unwrap();
            assert!(resp.cache_hit);
            assert_eq!(resp.label, expect[i % 16], "request {i}");
        }
        let snap = engine.metrics();
        assert_eq!(snap.submitted, 80);
        assert_eq!(snap.completed, 80);
        assert_accounted(&snap);
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
        let engine = Engine::new(artifact, EngineConfig::default()).unwrap();
        let record = test_records(1).remove(0);
        let cold = engine.classify(record.clone()).unwrap();
        assert!(!cold.cache_hit);
        let warm = engine.classify(record.clone()).unwrap();
        assert!(warm.cache_hit);
        assert_eq!(cold.label, warm.label);
        let snap = engine.metrics();
        assert_eq!(snap.cache_misses, 1);
        assert!(snap.cache_hits >= 1);
        assert!(snap.cache_hit_rate() > 0.0);
    }

    /// A warm engine answers a burst of hits from the answer cache: the
    /// head runs no row for them, and every label is `predict`'s.
    #[test]
    fn warm_hits_run_no_head_row() {
        let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
        let direct = BaClassifier::from_artifact(&artifact).unwrap();
        let engine = Engine::new(artifact, EngineConfig::default()).unwrap();
        let records = test_records(12);
        for r in &records {
            assert!(!engine.classify(r.clone()).unwrap().cache_hit);
        }
        let warm = engine.metrics();
        assert_eq!(warm.embed_batch_rows_total, 12);
        let tickets: Vec<Ticket> = (0..64)
            .map(|i| engine.submit(records[i % 12].clone()).unwrap())
            .collect();
        for (i, t) in tickets.into_iter().enumerate() {
            let resp = t.wait().unwrap();
            assert!(resp.cache_hit, "request {i}");
            assert_eq!(resp.label, direct.predict(&records[i % 12]).unwrap());
        }
        let snap = engine.metrics();
        assert_eq!(snap.embed_batch_rows_total, 12, "a hit ran the head");
        assert_eq!(snap.model_time_us_total, warm.model_time_us_total);
        assert_eq!(snap.cache_misses, 12);
        assert_eq!(snap.cache_hits + snap.batch_dedup_hits, 64);
        assert_accounted(&snap);
    }

    /// k copies of one uncached record in one batch are one miss, one head
    /// row and k − 1 dedup hits; every copy gets `predict`'s label.
    #[test]
    fn duplicate_misses_in_a_batch_share_one_head_row() {
        const K: usize = 6;
        let engine = engine_with_stalled_first_batch(16, Duration::from_millis(100));
        let direct =
            BaClassifier::from_artifact(&ModelArtifact::untrained(BacConfig::fast())).unwrap();
        let records = test_records(5);
        let mut rest = vec![records[1].clone(); K];
        rest.extend(records[2..].iter().cloned());
        let replies = backlog_behind_first(&engine, &records[0], &rest);
        for (r, reply) in rest.iter().zip(&replies) {
            assert_eq!(reply.as_ref().unwrap().label, direct.predict(r).unwrap());
        }
        let copies_hit = replies[..K]
            .iter()
            .filter(|r| r.as_ref().unwrap().cache_hit)
            .count();
        assert_eq!(copies_hit, K - 1, "exactly one copy is the miss");
        let snap = engine.metrics();
        assert_eq!(snap.batches, 2, "the backlog must be one batch");
        // records[0], then one row for the copies and one per other record.
        assert_eq!(snap.embed_batch_rows_total, 1 + 1 + 3);
        assert_eq!(snap.cache_misses, 1 + 1 + 3);
        assert_eq!(snap.batch_dedup_hits, K as u64 - 1);
        assert_eq!(snap.cache_hits, 0);
        assert_accounted(&snap);
    }

    /// An empty history is refused and never cached: asked twice in a row
    /// it misses twice, and a duplicate inside one batch fails the same way.
    #[test]
    fn empty_history_is_never_cached() {
        let empty_history = ServeError::Predict(PredictError::EmptyHistory);
        let records = test_records(2);
        let mut empty = records[1].clone();
        empty.txs.clear();
        let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
        let engine = Engine::new(artifact, EngineConfig::default()).unwrap();
        for _ in 0..2 {
            assert_eq!(
                engine.classify(empty.clone()).map(|_| ()),
                Err(empty_history)
            );
        }
        let snap = engine.metrics();
        assert_eq!((snap.cache_misses, snap.cache_hits), (2, 0));
        assert_eq!((snap.failed, snap.embed_batch_rows_total), (2, 0));

        let engine = engine_with_stalled_first_batch(16, Duration::from_millis(100));
        let replies = backlog_behind_first(&engine, &records[0], &[empty.clone(), empty]);
        for reply in replies {
            assert_eq!(reply.map(|_| ()), Err(empty_history));
        }
        let snap = engine.metrics();
        assert_eq!(snap.batches, 2);
        assert_eq!((snap.cache_misses, snap.batch_dedup_hits), (2, 1));
        assert_eq!(snap.embed_batch_rows_total, 1);
        assert_accounted(&snap);
    }

    /// A capacity no memory could hold is a bound, not a reservation: the
    /// engine starts and serves.
    #[test]
    fn unbounded_cache_capacity_serves() {
        let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
        let direct = BaClassifier::from_artifact(&artifact).unwrap();
        let engine = Engine::new(
            artifact,
            EngineConfig {
                cache_capacity: usize::MAX,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let record = test_records(1).remove(0);
        let cold = engine.classify(record.clone()).unwrap();
        let warm = engine.classify(record.clone()).unwrap();
        assert_eq!((cold.cache_hit, warm.cache_hit), (false, true));
        assert_eq!(warm.label, direct.predict(&record).unwrap());
        assert_accounted(&engine.metrics());
    }

    /// Requests and `predict`'s answer to each.
    type AnswerPool = (Vec<AddressRecord>, Vec<Result<Label, PredictError>>);

    /// Six records and one empty history, with `predict`'s answer for each;
    /// built once for every case of the proptest below.
    fn answer_pool() -> &'static AnswerPool {
        static POOL: std::sync::OnceLock<AnswerPool> = std::sync::OnceLock::new();
        POOL.get_or_init(|| {
            let mut records = test_records(6);
            let mut empty = records[0].clone();
            empty.txs.clear();
            records.push(empty);
            let direct =
                BaClassifier::from_artifact(&ModelArtifact::untrained(BacConfig::fast())).unwrap();
            let answers = records.iter().map(|r| direct.predict(r)).collect();
            (records, answers)
        })
    }

    // Any stream of repeated requests, over any worker count, batch cap and
    // cache small enough to evict, gets `predict`'s answer for every request
    // (the empty history its `EmptyHistory`), and every request reaches
    // exactly one terminal outcome.
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]
        #[test]
        fn any_stream_gets_the_answers_of_predict(
            stream in proptest::collection::vec(0usize..7, 1..40),
            workers in 1usize..=4,
            max_batch in 1usize..=16,
            cache_capacity in 0usize..=8,
        ) {
            let (records, answers) = answer_pool();
            let engine = Engine::new(
                Arc::new(ModelArtifact::untrained(BacConfig::fast())),
                EngineConfig {
                    workers,
                    max_batch,
                    cache_capacity,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            let tickets: Vec<Ticket> = stream
                .iter()
                .map(|&i| engine.submit(records[i].clone()).unwrap())
                .collect();
            for (&i, t) in stream.iter().zip(tickets) {
                let got = t.wait().map(|r| r.label);
                proptest::prop_assert_eq!(got, answers[i].map_err(ServeError::Predict));
            }
            let snap = engine.metrics();
            proptest::prop_assert_eq!(snap.submitted, stream.len() as u64);
            proptest::prop_assert_eq!(snap.terminal_total(), snap.submitted);
        }
    }

    /// Satellite: a grown history can never be served a stale cached
    /// answer. The `(id, len, gen)` key guards growth structurally —
    /// the longer record misses and is re-embedded, matching the direct
    /// model on the new history exactly.
    #[test]
    fn grown_history_never_serves_stale_embedding() {
        use btcsim::{Amount, TxView, Txid};
        let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
        let direct = BaClassifier::from_artifact(&artifact).unwrap();
        let engine = Engine::new(Arc::clone(&artifact), EngineConfig::default()).unwrap();

        let mut record = test_records(1).remove(0);
        let cold = engine.classify(record.clone()).unwrap();
        assert!(!cold.cache_hit);
        assert!(engine.classify(record.clone()).unwrap().cache_hit);

        // The history grows: the next query must not reuse the cached
        // label of the shorter history.
        let last_ts = record.txs.last().map_or(0, |t| t.timestamp);
        record.txs.push(TxView {
            txid: Txid(u64::MAX),
            timestamp: last_ts + 600,
            inputs: vec![(record.address, Amount::from_btc(1.0))],
            outputs: vec![(btcsim::Address(u64::MAX), Amount::from_btc(0.99))],
        });
        let grown = engine.classify(record.clone()).unwrap();
        assert!(!grown.cache_hit, "grown history must re-embed, not hit");
        assert_eq!(grown.label, direct.predict(&record).unwrap());
        // And the grown history is itself cached under its new length.
        assert!(engine.classify(record).unwrap().cache_hit);
    }

    /// Satellite: `invalidate_address` supersedes cached labels even
    /// when the history length does not change (the case the implicit
    /// `(id, len)` key cannot catch).
    #[test]
    fn invalidate_address_supersedes_cached_embeddings() {
        let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
        let engine = Engine::new(artifact, EngineConfig::default()).unwrap();
        let record = test_records(1).remove(0);

        assert!(!engine.classify(record.clone()).unwrap().cache_hit);
        assert!(engine.classify(record.clone()).unwrap().cache_hit);

        assert_eq!(engine.invalidate_address(record.address), 1);
        let after = engine.classify(record.clone()).unwrap();
        assert!(
            !after.cache_hit,
            "post-invalidation query must not see superseded entries"
        );
        // The re-embedded entry is cached under the new generation…
        assert!(engine.classify(record.clone()).unwrap().cache_hit);
        // …and further bumps keep superseding it.
        assert_eq!(engine.invalidate_address(record.address), 2);
        assert!(!engine.classify(record.clone()).unwrap().cache_hit);
        let snap = engine.metrics();
        assert_eq!(snap.invalidations, 2);
        assert_accounted(&snap);
    }

    #[test]
    fn invalidation_is_per_address() {
        let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
        let engine = Engine::new(artifact, EngineConfig::default()).unwrap();
        let records = test_records(2);
        for r in &records {
            engine.classify(r.clone()).unwrap();
        }
        engine.invalidate_address(records[0].address);
        // Address 1 keeps its cached label; address 0 lost its own.
        assert!(engine.classify(records[1].clone()).unwrap().cache_hit);
        assert!(!engine.classify(records[0].clone()).unwrap().cache_hit);
    }

    #[test]
    fn zero_cache_capacity_still_serves() {
        let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
        let engine = Engine::new(
            artifact,
            EngineConfig {
                cache_capacity: 0,
                ..EngineConfig::default()
            },
        )
        .unwrap();
        let record = test_records(1).remove(0);
        engine.classify(record.clone()).unwrap();
        let warm = engine.classify(record).unwrap();
        assert!(!warm.cache_hit);
        assert_eq!(engine.metrics().cache_hits, 0);
    }

    #[test]
    fn mismatched_artifact_is_rejected_at_startup() {
        let mut bad = ModelArtifact::untrained(BacConfig::fast());
        bad.weights.pop();
        assert!(Engine::new(Arc::new(bad), EngineConfig::default()).is_err());
    }

    #[test]
    fn drop_is_a_graceful_shutdown() {
        let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
        let engine = Engine::new(artifact, EngineConfig::default()).unwrap();
        let tickets: Vec<Ticket> = test_records(6)
            .into_iter()
            .map(|r| engine.submit(r).unwrap())
            .collect();
        drop(engine);
        // Admitted work was finished before the workers exited.
        for t in tickets {
            t.wait().unwrap();
        }
    }

    /// Satellite: a worker panicking mid-batch (holding the cache lock, so
    /// the mutex is genuinely poisoned) must complete the batch's tickets
    /// as WorkerFailed, respawn, and keep serving with consistent metrics.
    #[test]
    fn worker_panic_is_supervised_and_recovered() {
        let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
        let plan = Arc::new(ScriptedFaultPlan::panics(0, &[1]));
        let engine = Engine::with_hooks(
            artifact,
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
            EngineHooks {
                fault_plan: Arc::clone(&plan) as Arc<dyn FaultPlan>,
                fallback: None,
            },
        )
        .unwrap();
        let records = test_records(4);
        // Batch 1 panics: its jobs come back WorkerFailed, never hang.
        assert_eq!(
            engine.classify(records[0].clone()).map(|_| ()),
            Err(ServeError::WorkerFailed)
        );
        assert_eq!(plan.injected(), 1);
        // The worker respawned (poisoned cache lock recovered): later
        // requests are served normally.
        for r in records.iter().skip(1).cloned() {
            let resp = engine.classify(r).expect("post-panic requests succeed");
            assert!(!resp.degraded);
        }
        let snap = engine.metrics();
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(snap.worker_restarts, 1);
        assert_eq!(snap.workers_retired, 0);
        assert_eq!(snap.failed, 1);
        assert_eq!(snap.completed, 3);
        assert_accounted(&snap);
        assert_eq!(engine.live_workers(), 1);
    }

    #[test]
    fn expired_deadlines_complete_as_timed_out() {
        // Every one of the first four batches stalls well past the deadline,
        // and four submissions can span at most four batches.
        let plan = Arc::new(ScriptedFaultPlan::new(
            (1..=4)
                .map(|batch| crate::fault::FaultSpec {
                    worker: 0,
                    batch,
                    action: FaultAction::Delay(Duration::from_millis(30)),
                })
                .collect(),
        ));
        let engine = Engine::with_hooks(
            Arc::new(ModelArtifact::untrained(BacConfig::fast())),
            EngineConfig {
                workers: 1,
                default_deadline: Some(Duration::from_millis(5)),
                ..EngineConfig::default()
            },
            EngineHooks {
                fault_plan: plan,
                fallback: None,
            },
        )
        .unwrap();
        let tickets: Vec<Ticket> = test_records(4)
            .into_iter()
            .map(|r| engine.submit(r).unwrap())
            .collect();
        for t in tickets {
            assert_eq!(t.wait().map(|_| ()), Err(ServeError::DeadlineExceeded));
        }
        let snap = engine.metrics();
        assert_eq!(snap.timed_out, 4);
        assert_eq!(snap.completed, 0);
        assert_accounted(&snap);
    }

    /// `BREAKER_THRESHOLD` queue-full rejections behind a stalled
    /// batch trip the breaker; while it is open, requests shed to the
    /// fallback (byte-identical to calling it directly), and the stalled
    /// job's success closes it again. The stall is shorter than the
    /// cooldown, so no half-open probe is involved.
    #[test]
    fn breaker_degrades_then_recovers() {
        let records = test_records(6);
        let fb = Arc::new(Fallback::fit(&records));
        let plan = ScriptedFaultPlan::new(vec![crate::fault::FaultSpec {
            worker: 0,
            batch: 1,
            action: FaultAction::Delay(Duration::from_millis(400)),
        }]);
        let engine = Engine::with_hooks(
            Arc::new(ModelArtifact::untrained(BacConfig::fast())),
            EngineConfig {
                workers: 1,
                queue_depth: 1,
                ..EngineConfig::default()
            },
            EngineHooks {
                fault_plan: Arc::new(plan),
                fallback: Some(Arc::clone(&fb)),
            },
        )
        .unwrap();
        // The worker stalls in batch 1; one more job fills the queue, and
        // each rejection behind it is a breaker failure.
        let stalled = engine.submit(records[0].clone()).unwrap();
        while engine.queue_len() != 0 {
            thread::yield_now();
        }
        let queued = engine.submit(records[1].clone()).unwrap();
        for _ in 0..BREAKER_THRESHOLD {
            assert_eq!(
                engine.submit(records[2].clone()).map(|_| ()),
                Err(ServeError::QueueFull)
            );
        }
        assert_eq!(engine.breaker_state(), BreakerState::Open);
        // While open, requests shed to the fallback, byte-for-byte.
        for r in records.iter().take(4) {
            let resp = engine.classify(r.clone()).unwrap();
            assert!(resp.degraded);
            assert!(!resp.cache_hit);
            assert_eq!(resp.label, fb.classify(r), "degraded answer ≠ fallback");
        }
        // The stalled job is served by the model, and its success closes
        // the breaker.
        assert!(!stalled.wait().unwrap().degraded);
        assert_eq!(engine.breaker_state(), BreakerState::Closed);
        assert!(!queued.wait().unwrap().degraded);
        assert!(!engine.classify(records[3].clone()).unwrap().degraded);
        let snap = engine.metrics();
        assert_eq!(snap.breaker_trips, 1);
        assert_eq!(snap.rejected, u64::from(BREAKER_THRESHOLD));
        assert_eq!(snap.degraded, 4);
        assert_accounted(&snap);
    }

    /// When the last worker retires, queued jobs fail explicitly and new
    /// submissions degrade — nothing ever hangs.
    #[test]
    fn retired_pool_degrades_instead_of_hanging() {
        let records = test_records(4);
        let fb = Arc::new(Fallback::fit(&records));
        // Every restart panics again until the restart budget is spent.
        let batches: Vec<u64> = (1..=u64::from(MAX_WORKER_RESTARTS) + 1).collect();
        let plan = Arc::new(ScriptedFaultPlan::panics(0, &batches));
        let engine = Engine::with_hooks(
            Arc::new(ModelArtifact::untrained(BacConfig::fast())),
            EngineConfig {
                workers: 1,
                ..EngineConfig::default()
            },
            EngineHooks {
                fault_plan: plan,
                fallback: Some(Arc::clone(&fb)),
            },
        )
        .unwrap();
        for _ in &batches {
            assert_eq!(
                engine.classify(records[0].clone()).map(|_| ()),
                Err(ServeError::WorkerFailed)
            );
        }
        // The WorkerFailed reply races the supervisor's retirement
        // bookkeeping by design (tickets complete first); wait for it.
        for _ in 0..500 {
            if engine.live_workers() == 0 {
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        // The pool is gone; everything else is answered degraded, matching
        // the fallback exactly.
        for r in &records {
            let resp = engine.classify(r.clone()).unwrap();
            assert!(resp.degraded);
            assert_eq!(resp.label, fb.classify(r));
        }
        let snap = engine.metrics();
        assert_eq!(snap.workers_retired, 1);
        assert_eq!(engine.live_workers(), 0);
        assert_eq!(snap.degraded, records.len() as u64);
        assert_accounted(&snap);
    }
}
