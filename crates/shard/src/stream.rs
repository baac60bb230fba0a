//! The streaming-side shard fan-out: one chain, N shared-nothing
//! followers, supervised.
//!
//! A follower is mutable, shard-local state (histories, graphs, embedding
//! caches, labels), so each shard runs on its own thread with its own
//! [`Follower`] built from the shared [`ModelArtifact`] — shared-nothing by
//! design, not because a model cannot cross threads (it can:
//! `BaClassifier` is `Send + Sync`). Every block is broadcast to
//! every shard over a bounded channel (backpressure, never unbounded
//! buffering); each follower's [`FollowerConfig::shard`] filter makes it
//! apply only the addresses it owns, so the union of the shards' state is
//! exactly the unsharded follower's state, byte for byte. Finishing the
//! fleet hands back each shard's [`Follower`] itself, in shard order:
//! nothing is copied out of it.
//!
//! Each shard checkpoints to its **own** BSTREAM snapshot (the base path
//! suffixed `.{i}of{n}`), stamped with its [`ShardAssignment`], so shards
//! restart and catch up independently: restoring shard 2 of 4 touches
//! nothing owned by the other three.
//!
//! ## Who owns what
//!
//! A [`Follower`] is state: histories, graphs, embeddings, labels, and how
//! to write and read one snapshot of them. Everything that touches the
//! disk on a schedule, or decides when to stop, lives once, here in the
//! **driver**, for every shard count (`--shards 1` is the unsharded
//! follower): the write-ahead [`BlockJournal`] (append and fsync before
//! broadcast, and the one scan that hands each starting worker its
//! recovery tail), the snapshot cadence
//! ([`FollowerConfig::snapshot_every`]) and the compaction that follows
//! each snapshot, the `journal_*` counters and lag, supervision, and the
//! one loop ([`ShardedFollower::follow`]) that owns SIGINT, the stall
//! timeout and the final flush.
//!
//! A journal append or fsync that fails stops ingestion *before* the block
//! reaches any follower ([`ShardStreamError::Journal`]); the shards still
//! finish, so what was journaled is also snapshotted. A compaction that
//! fails is counted in `journal_errors`, reported, and never fatal.
//!
//! ## Supervision
//!
//! The journal is what makes worker supervision lossless — a shard thread
//! that panics (its command queue drops with it) or wedges (its queue is
//! full *and* its heartbeat is older than `WEDGE_TIMEOUT`, 2 s) is fenced
//! off and respawned via [`Follower::recover`], the one way any worker
//! starts: newest valid per-shard snapshot generation, plus replay of the
//! journal tail the driver scanned for it (once for the whole fleet at
//! startup, once per respawn after an fsync). Blocks that were sitting in
//! the dead worker's queue (up to the queue depth) are in the journal, so
//! the replacement catches up to the exact same state and redelivered
//! blocks are skipped by height — blocks lost: zero. Respawns are bounded
//! by `MAX_RESTARTS` (5) consecutive deaths per shard, with exponential
//! backoff; a worker that applies one block the journal did not replay to
//! it resets its shard's count. Past the bound the fleet reports [`ShardStreamError`] instead of
//! flapping forever. Each worker owns its heartbeat stamp, and the driver
//! counts each respawn once, in its [`StreamMetrics`] `respawns` counter.
//!
//! Fault injection reuses the serve engine's [`FaultPlan`] machinery
//! ([`ShardedFollower::with_hooks`]): before applying a **new** block at
//! height `h`, shard `i` consults `before_batch(i, h + 1)`. Replayed or
//! redelivered blocks never consult the plan, so a scripted fault fires
//! exactly once even though the faulting block is delivered again after
//! the respawn.

use baclassifier::{ModelArtifact, ShardAssignment, ShardMap};
use baserve::{FaultAction, FaultPlan, NoFaults};
use bstream::{
    scan_journal, BlockFeed, BlockJournal, FeedError, FeedStalled, Follower, FollowerConfig,
    StreamMetrics,
};
use btcsim::Block;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Why a sharded follower could not be built or driven.
#[derive(Debug)]
pub enum ShardStreamError {
    /// A shard worker failed to build, restore, or recover its follower.
    Worker { shard: u32, reason: String },
    /// A shard worker is gone for good: it died (or wedged) more than
    /// `MAX_RESTARTS` times, or died with no journal to recover from.
    WorkerGone(u32),
    /// The driver's write-ahead journal failed; continuing would break the
    /// crash-safety contract.
    Journal(String),
}

impl std::fmt::Display for ShardStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardStreamError::Worker { shard, reason } => {
                write!(f, "shard {shard}: {reason}")
            }
            ShardStreamError::WorkerGone(shard) => write!(f, "shard {shard} worker gone"),
            ShardStreamError::Journal(reason) => write!(f, "driver journal: {reason}"),
        }
    }
}

impl std::error::Error for ShardStreamError {}

/// The per-shard snapshot path: `base` suffixed with `.{index}of{count}`,
/// so `snap.bstream` shards to `snap.bstream.0of4` … `snap.bstream.3of4`.
/// Shared by writer and restorer so a rebalance tool can enumerate a
/// layout's files from the base path alone.
pub fn shard_snapshot_path(base: &Path, index: u32, count: u32) -> PathBuf {
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".{index}of{count}"));
    PathBuf::from(name)
}

/// Why [`ShardedFollower::follow`] stopped taking blocks.
#[derive(Debug)]
pub enum FeedEnd {
    /// The producer finished and every block was broadcast.
    Drained,
    /// SIGINT (`baserve::shutdown`): a clean checkpoint, not a crash.
    Interrupted,
    /// The producer went silent for the stall timeout with the feed open.
    Stalled(FeedStalled),
    /// The producer thread panicked (its message): the feed closed without
    /// reaching the end of the chain.
    ProducerDied(String),
    /// The journal or a shard failed; ingestion stopped before the failing
    /// block reached any follower.
    Failed(ShardStreamError),
}

impl FeedEnd {
    /// The daemon's exit code: 0 drained or interrupted, 1 journal, worker
    /// or producer error, 3 stalled (2 is a bad invocation).
    pub fn exit_code(&self) -> i32 {
        match self {
            FeedEnd::Drained | FeedEnd::Interrupted => 0,
            FeedEnd::Failed(_) | FeedEnd::ProducerDied(_) => 1,
            FeedEnd::Stalled(_) => 3,
        }
    }
}

/// What [`ShardedFollower::follow`] hands back after its final flush.
pub struct Followed {
    pub end: FeedEnd,
    /// Every shard's follower, in shard order.
    pub followers: Vec<Follower>,
    /// Every shard's metrics merged with the driver's journal counters and
    /// lag — the blob the daemon prints.
    pub metrics: StreamMetrics,
}

/// A shard whose queue is full *and* whose heartbeat is older than this
/// is declared wedged: fenced off and replaced.
const WEDGE_TIMEOUT: Duration = Duration::from_secs(2);

/// Base backoff before a respawn; doubles per consecutive restart of the
/// same shard (capped at 64×).
const RESTART_BACKOFF: Duration = Duration::from_millis(10);

/// Per-shard budget of consecutive respawns; exceeding it surfaces
/// [`ShardStreamError::WorkerGone`].
const MAX_RESTARTS: u32 = 5;

enum Cmd {
    /// Apply one block (the follower's reclassification cadence included).
    Step(Arc<Block>),
    /// Run a reclassification pass now; reply with how many reclassified.
    Reclassify(Sender<usize>),
    /// Checkpoint to the shard's snapshot path; reply with the outcome.
    Snapshot(Sender<Result<(), String>>),
    /// Final reclassification (+ snapshot if configured), then hand the
    /// follower back and exit.
    Finish(Sender<Follower>),
}

struct ShardWorker {
    tx: SyncSender<Cmd>,
    handle: JoinHandle<()>,
    /// Set by the driver when this worker is abandoned as wedged; the
    /// worker checks it between commands (and after injected delays) and
    /// exits without touching disk once it trips.
    fence: Arc<AtomicBool>,
    heartbeat: Arc<Heartbeat>,
}

/// A worker's liveness stamp: microseconds from its spawn to its last
/// heartbeat. The worker stamps it after each command; the wedge check in
/// `deliver` reads it.
struct Heartbeat {
    spawned: Instant,
    last_us: AtomicU64,
    /// Set once the worker applies a block the journal did not replay to
    /// it: its shard's next death is no longer consecutive.
    progressed: AtomicBool,
}

impl Heartbeat {
    fn beat(&self) {
        let us = self.spawned.elapsed().as_micros() as u64;
        self.last_us.store(us, Ordering::Release);
    }

    /// Time since the last heartbeat.
    fn silence(&self) -> Duration {
        let last = Duration::from_micros(self.last_us.load(Ordering::Acquire));
        self.spawned.elapsed().saturating_sub(last)
    }
}

/// N shared-nothing followers over one block feed, supervised. See the
/// module docs.
pub struct ShardedFollower {
    artifact: Arc<ModelArtifact>,
    /// The template config; per-worker copies get `shard`/`snapshot_path`
    /// rewritten. The driver reads its journal and snapshot-cadence fields.
    template: FollowerConfig,
    map: ShardMap,
    workers: Vec<ShardWorker>,
    plan: Arc<dyn FaultPlan>,
    /// The driver-owned write-ahead journal: blocks are appended here
    /// before broadcast, which is what makes respawn lossless.
    journal: Option<BlockJournal>,
    /// First height not yet journaled — replayed blocks below it are not
    /// appended twice.
    next_journal_height: u64,
    /// First height no shard has been sent yet: where a feed should start,
    /// and the only blocks the snapshot cadence counts.
    next_height: u64,
    /// The driver's own counters (`journal_*`, `respawns`) and lag samples.
    metrics: StreamMetrics,
    /// Per-shard consecutive restarts, bounded by `MAX_RESTARTS`.
    restarts: Vec<u32>,
}

/// How many blocks each shard's command queue may buffer before `step`
/// backpressures the caller.
const CMD_QUEUE_DEPTH: usize = 16;

impl ShardedFollower {
    /// Spawn one follower thread per shard of a `count`-shard layout, each
    /// recovered from its newest valid snapshot generation (quarantining
    /// corrupt ones) plus the shared journal tail: the fleet resumes
    /// byte-identical to where a crashed run got to, and on an empty
    /// directory starts fresh at height 0.
    ///
    /// `cfg` is the template config: each worker gets a copy with
    /// `shard` set to its assignment and `snapshot_path` (when present)
    /// rewritten to its [`shard_snapshot_path`]. When `cfg.journal_path`
    /// is set the driver journals every block before broadcasting it and
    /// dead or wedged workers are respawned from snapshot + journal.
    pub fn recover(
        artifact: Arc<ModelArtifact>,
        cfg: FollowerConfig,
        count: u32,
    ) -> Result<Self, ShardStreamError> {
        Self::with_hooks(artifact, cfg, count, Arc::new(NoFaults))
    }

    /// [`ShardedFollower::recover`] with a fault plan. For the streaming
    /// fleet the plan's "worker" is the shard index and its "batch" is
    /// `height + 1` (1-based, like the engine's batch numbering), consulted
    /// only for blocks the shard has not yet applied.
    pub fn with_hooks(
        artifact: Arc<ModelArtifact>,
        cfg: FollowerConfig,
        count: u32,
        plan: Arc<dyn FaultPlan>,
    ) -> Result<Self, ShardStreamError> {
        let map = ShardMap::new(count);

        // The driver opens (and heals) the journal, and the blocks that scan
        // decoded are every worker's recovery tail, freed once all of them
        // have recovered.
        let (journal, tail) = match &cfg.journal_path {
            Some(path) => {
                let (journal, scan) = BlockJournal::open_or_create(path)
                    .map_err(|e| ShardStreamError::Journal(e.to_string()))?;
                if let Some(torn) = &scan.torn {
                    eprintln!(
                        "bashard: journal {}: torn tail cut at byte {}: {}",
                        path.display(),
                        torn.offset,
                        torn.reason
                    );
                }
                (Some(journal), scan.blocks)
            }
            None => (None, Vec::new()),
        };
        let next_journal_height = tail.last().map_or(0, |b| b.height + 1);
        let tail: Arc<[Block]> = tail.into();

        let mut workers = Vec::with_capacity(count as usize);
        let mut ready: Vec<Receiver<Result<u64, String>>> = Vec::with_capacity(count as usize);
        for assignment in map.assignments() {
            let (worker, init_rx) = spawn_worker(
                Arc::clone(&artifact),
                &cfg,
                assignment,
                Arc::clone(&plan),
                Arc::clone(&tail),
            );
            workers.push(worker);
            ready.push(init_rx);
        }
        // Surface build/restore failures synchronously, before any block is
        // dispatched: a layout that cannot fully start must not run at all.
        let mut next_height = u64::MAX;
        for (index, rx) in ready.into_iter().enumerate() {
            next_height = next_height.min(await_start(rx, index as u32)?);
        }
        Ok(Self {
            artifact,
            template: cfg,
            map,
            workers,
            plan,
            journal,
            next_journal_height,
            next_height,
            metrics: StreamMetrics::default(),
            restarts: vec![0; count as usize],
        })
    }

    /// The driver's own counters so far: journal traffic and `respawns`.
    /// [`ShardedFollower::follow`] hands them back merged with every
    /// shard's.
    pub fn metrics(&self) -> &StreamMetrics {
        &self.metrics
    }

    /// The first height no shard has been sent yet (the slowest shard's
    /// resume height right after a restore or recovery): open the feed here.
    pub fn next_height(&self) -> u64 {
        self.next_height
    }

    /// Broadcast one block to every shard, journaling it first — a failed
    /// append or fsync returns [`ShardStreamError::Journal`] before any
    /// shard sees the block. Bounded queues backpressure the caller when
    /// any shard falls `CMD_QUEUE_DEPTH` blocks behind; dead or wedged
    /// shards are respawned in-line. Every `snapshot_every` new blocks the
    /// fleet checkpoints and the journal is compacted.
    pub fn step(&mut self, block: Block) -> Result<(), ShardStreamError> {
        let height = block.height;
        if let Some(journal) = self.journal.as_mut() {
            if height >= self.next_journal_height {
                let (bytes, synced) = journal.append(&block).map_err(|e| {
                    ShardStreamError::Journal(format!("append of block {height} failed: {e}"))
                })?;
                self.metrics.journal_frames += 1;
                self.metrics.journal_bytes += bytes;
                self.metrics.journal_fsyncs += u64::from(synced);
                self.next_journal_height = height + 1;
            }
        }
        let block = Arc::new(block);
        for i in 0..self.workers.len() {
            let b = Arc::clone(&block);
            self.deliver(i, &move || Cmd::Step(Arc::clone(&b)))?;
        }
        // An overlapping prefix replayed into a restored fleet is skipped by
        // every shard; it must not trigger snapshots either.
        if height < self.next_height {
            return Ok(());
        }
        self.next_height = height + 1;
        let every = self.template.snapshot_every;
        let due = every > 0 && self.next_height.is_multiple_of(every);
        if due && self.template.snapshot_path.is_some() {
            // A periodic snapshot that cannot be written is not fatal: the
            // journal still holds everything since the last one that was.
            if let Some((shard, reason)) = self.checkpoint()? {
                eprintln!("bashard: shard {shard}: periodic snapshot failed: {reason}");
            }
        }
        Ok(())
    }

    /// The one follower loop: drains `feed` until one of the [`FeedEnd`]s,
    /// then — on every one of those paths — finishes the fleet as
    /// [`ShardedFollower::finish`] does. Prints a progress line every
    /// `progress_every` blocks (0 = never). `Err` only when that final
    /// flush itself fails.
    ///
    /// The watermark records a block as processed once every shard has
    /// accepted it into its bounded queue — at most `CMD_QUEUE_DEPTH`
    /// blocks ahead of the slowest shard's actual progress.
    pub fn follow(
        mut self,
        feed: &BlockFeed,
        stall_timeout: Duration,
        progress_every: u64,
    ) -> Result<Followed, ShardStreamError> {
        // Wait in short slices so SIGINT is honoured promptly.
        let poll = stall_timeout.clamp(Duration::from_millis(1), Duration::from_millis(250));
        let end = loop {
            if baserve::shutdown::shutdown_requested() {
                break FeedEnd::Interrupted;
            }
            match feed.recv_stalled(poll) {
                Ok(Some(block)) => {
                    let height = block.height;
                    if let Err(e) = self.step(block) {
                        break FeedEnd::Failed(e);
                    }
                    feed.watermark().record_processed(height);
                    let lag = feed.watermark().lag();
                    self.metrics.record_lag(lag);
                    if progress_every > 0 && (height + 1).is_multiple_of(progress_every) {
                        eprintln!(
                            "bashard: height {height:>6}  lag {lag:>3}  respawns {}",
                            self.metrics.respawns
                        );
                    }
                }
                Ok(None) => break FeedEnd::Drained,
                Err(FeedError::ProducerDied(why)) => break FeedEnd::ProducerDied(why),
                Err(FeedError::Stalled(stall)) if stall.stalled_for >= stall_timeout => {
                    break FeedEnd::Stalled(stall)
                }
                Err(FeedError::Stalled(_)) => {}
            }
        };
        let followers = self.finish_shards()?;
        let mut metrics = self.metrics;
        for follower in &followers {
            metrics.merge(follower.metrics());
        }
        Ok(Followed {
            end,
            followers,
            metrics,
        })
    }

    /// Run a reclassification pass on every shard; returns the total number
    /// of addresses reclassified. Shards reclassify concurrently — the
    /// command is dispatched to all before any reply is awaited. A shard
    /// that dies mid-pass is respawned and the pass retried on it once.
    pub fn reclassify_dirty(&mut self) -> Result<usize, ShardStreamError> {
        let replies = self.broadcast(Cmd::Reclassify)?;
        let mut total = 0;
        for (i, rx) in replies.into_iter().enumerate() {
            total += self.collect_or_retry(i, rx, Cmd::Reclassify)?;
        }
        Ok(total)
    }

    /// Checkpoint every shard to its own snapshot file, then compact the
    /// shared journal below the oldest height any shard's retained
    /// generations could still need. All shards snapshot concurrently; the
    /// first failure is returned.
    pub fn snapshot(&mut self) -> Result<(), ShardStreamError> {
        match self.checkpoint()? {
            None => Ok(()),
            Some((shard, reason)) => Err(ShardStreamError::Worker { shard, reason }),
        }
    }

    /// [`ShardedFollower::snapshot`], telling a snapshot that could not be
    /// written (`Some`: the first such shard and why; the journal is left
    /// uncompacted) from a fleet that could not be reached (`Err`).
    fn checkpoint(&mut self) -> Result<Option<(u32, String)>, ShardStreamError> {
        let replies = self.broadcast(Cmd::Snapshot)?;
        let mut failed = None;
        for (i, rx) in replies.into_iter().enumerate() {
            if let Err(reason) = self.collect_or_retry(i, rx, Cmd::Snapshot)? {
                failed.get_or_insert((i as u32, reason));
            }
        }
        if failed.is_none() {
            self.compact_journal();
        }
        Ok(failed)
    }

    /// Finish every shard: final reclassification (and snapshot, when
    /// configured), then take back each shard's [`Follower`], flush and
    /// compact the journal and join the threads. Followers come back in
    /// shard order. A shard that dies while finishing is respawned from
    /// snapshot + journal and finished again — the follower it hands back
    /// covers every journaled block.
    pub fn finish(mut self) -> Result<Vec<Follower>, ShardStreamError> {
        self.finish_shards()
    }

    fn finish_shards(&mut self) -> Result<Vec<Follower>, ShardStreamError> {
        let replies = self.broadcast(Cmd::Finish)?;
        let mut followers = Vec::with_capacity(replies.len());
        for (i, rx) in replies.into_iter().enumerate() {
            followers.push(self.collect_or_retry(i, rx, Cmd::Finish)?);
        }
        for worker in self.workers.drain(..) {
            drop(worker.tx);
            worker.handle.join().ok();
        }
        if let Some(journal) = self.journal.as_mut() {
            journal
                .sync()
                .map_err(|e| ShardStreamError::Journal(format!("final sync failed: {e}")))?;
            self.metrics.journal_fsyncs += 1;
        }
        self.compact_journal();
        Ok(followers)
    }

    /// Dispatch a reply-carrying command to every live shard (respawning
    /// dead ones), returning the reply receivers in shard order.
    fn broadcast<T>(
        &mut self,
        make: impl Fn(Sender<T>) -> Cmd,
    ) -> Result<Vec<Receiver<T>>, ShardStreamError> {
        let make = &make;
        let mut replies = Vec::with_capacity(self.workers.len());
        for i in 0..self.workers.len() {
            let (tx, rx) = mpsc::channel();
            self.deliver(i, &move || make(tx.clone()))?;
            replies.push(rx);
        }
        Ok(replies)
    }

    /// Await shard `i`'s reply; if the worker died while processing the
    /// command, respawn it (state recovered from snapshot + journal) and
    /// retry the command once.
    fn collect_or_retry<T>(
        &mut self,
        i: usize,
        rx: Receiver<T>,
        make: impl Fn(Sender<T>) -> Cmd,
    ) -> Result<T, ShardStreamError> {
        if let Ok(value) = rx.recv() {
            return Ok(value);
        }
        let (tx, retry_rx) = mpsc::channel();
        self.deliver(i, &move || make(tx.clone()))?;
        retry_rx
            .recv()
            .map_err(|_| ShardStreamError::WorkerGone(i as u32))
    }

    /// Push one command into shard `i`'s queue, supervising as we go:
    /// a disconnected queue means the worker died (respawn); a full queue
    /// with a stale heartbeat means it wedged (fence, abandon, respawn);
    /// a full queue with a fresh heartbeat is ordinary backpressure.
    fn deliver(&mut self, i: usize, make: &dyn Fn() -> Cmd) -> Result<(), ShardStreamError> {
        loop {
            match self.workers[i].tx.try_send(make()) {
                Ok(()) => return Ok(()),
                Err(TrySendError::Disconnected(_)) => {
                    self.respawn(i, "worker thread died")?;
                }
                Err(TrySendError::Full(_)) => {
                    if self.workers[i].heartbeat.silence() > WEDGE_TIMEOUT {
                        self.abandon(i);
                        self.respawn(i, "worker wedged: queue full and heartbeat stale")?;
                    } else {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
        }
    }

    /// Fence off a wedged worker so it exits (without touching disk) the
    /// next time it wakes, even if the respawn that follows fails.
    fn abandon(&mut self, i: usize) {
        self.workers[i].fence.store(true, Ordering::Release);
    }

    /// Replace shard `i`'s worker with one recovered from its snapshot
    /// generations plus the journal tail. Requires a journal (otherwise
    /// queued blocks would be lost and heights would gap); bounded by
    /// `MAX_RESTARTS` consecutive deaths with exponential backoff.
    fn respawn(&mut self, i: usize, reason: &str) -> Result<(), ShardStreamError> {
        let shard = i as u32;
        let (Some(journal), Some(path)) = (self.journal.as_mut(), &self.template.journal_path)
        else {
            return Err(ShardStreamError::Worker {
                shard,
                reason: format!("{reason}; no journal configured, cannot respawn losslessly"),
            });
        };
        if self.workers[i].heartbeat.progressed.load(Ordering::Acquire) {
            self.restarts[i] = 0;
        }
        self.restarts[i] += 1;
        if self.restarts[i] > MAX_RESTARTS {
            return Err(ShardStreamError::WorkerGone(shard));
        }
        self.metrics.respawns += 1;
        // Everything broadcast so far is made durable, then read back once
        // as the replacement's recovery tail.
        journal
            .sync()
            .map_err(|e| ShardStreamError::Journal(e.to_string()))?;
        self.metrics.journal_fsyncs += 1;
        let tail: Arc<[Block]> = scan_journal(path)
            .map_err(|e| ShardStreamError::Journal(e.to_string()))?
            .blocks
            .into();
        std::thread::sleep(RESTART_BACKOFF * (1u32 << (self.restarts[i] - 1).min(6)));
        eprintln!(
            "bashard: shard {shard} {reason}; respawning (restart {})",
            self.restarts[i]
        );
        let assignment = ShardAssignment {
            index: shard,
            count: self.map.count(),
        };
        let (worker, init_rx) = spawn_worker(
            Arc::clone(&self.artifact),
            &self.template,
            assignment,
            Arc::clone(&self.plan),
            tail,
        );
        await_start(init_rx, shard)?;
        // The old worker's thread is detached: a dead one has already
        // exited, and a wedged one exits at its fence when it wakes.
        let old = std::mem::replace(&mut self.workers[i], worker);
        old.fence.store(true, Ordering::Release);
        Ok(())
    }

    /// Drop journal frames every shard has durably snapshotted: the floor
    /// is the minimum over all shards of [`bstream::oldest_retained_height`],
    /// because a shard falling back to its oldest generation replays from
    /// there. Skipped entirely if any shard has no such height. A
    /// compaction that fails is counted and reported, never fatal: the
    /// journal only stays longer.
    fn compact_journal(&mut self) {
        let (Some(base), Some(journal)) = (&self.template.snapshot_path, self.journal.as_mut())
        else {
            return;
        };
        let count = self.map.count();
        let Some(floor) = (0..count).try_fold(u64::MAX, |floor, index| {
            let height = bstream::oldest_retained_height(&shard_snapshot_path(base, index, count))?;
            Some(floor.min(height))
        }) else {
            return;
        };
        if let Err(e) = journal.compact_below(floor) {
            self.metrics.journal_errors += 1;
            eprintln!("bashard: journal compaction below height {floor} failed: {e}");
        }
    }
}

/// A spawned worker's build outcome: the height its follower resumes at.
fn await_start(rx: Receiver<Result<u64, String>>, shard: u32) -> Result<u64, ShardStreamError> {
    match rx.recv() {
        Ok(Ok(height)) => Ok(height),
        Ok(Err(reason)) => Err(ShardStreamError::Worker { shard, reason }),
        Err(_) => Err(ShardStreamError::WorkerGone(shard)),
    }
}

/// Spawn one shard worker thread. The follower is recovered *on* the worker
/// thread from its snapshot generations and the journal `tail` the driver
/// scanned (a restore replays every stored history, so N shards restore in
/// parallel), and the build outcome — the height it resumes at — is
/// reported over the returned init channel. A panic (organic or injected)
/// unwinds the thread and drops the command queue, which the driver
/// observes as `Disconnected` and answers with a respawn.
fn spawn_worker(
    artifact: Arc<ModelArtifact>,
    template: &FollowerConfig,
    assignment: ShardAssignment,
    plan: Arc<dyn FaultPlan>,
    tail: Arc<[Block]>,
) -> (ShardWorker, Receiver<Result<u64, String>>) {
    let ShardAssignment { index, count } = assignment;
    let mut shard_cfg = template.clone();
    shard_cfg.shard = Some(assignment);
    shard_cfg.snapshot_path = template
        .snapshot_path
        .as_ref()
        .map(|base| shard_snapshot_path(base, index, count));
    // Each worker runs its own batched reclassification stage; slice the
    // template's thread budget across the fleet (same resource-slicing
    // idea as EngineConfig::for_shard) so N shards ticking at once don't
    // oversubscribe N × cores. Identity is unaffected — the batched stage
    // is byte-identical at any thread count.
    let reclass_total = baclassifier::config::resolve_threads(template.reclass_threads);
    shard_cfg.reclass_threads = (reclass_total / count.max(1) as usize).max(1);

    let (tx, rx) = mpsc::sync_channel::<Cmd>(CMD_QUEUE_DEPTH);
    let (init_tx, init_rx) = mpsc::channel();
    let fence = Arc::new(AtomicBool::new(false));
    let thread_fence = Arc::clone(&fence);
    let heartbeat = Arc::new(Heartbeat {
        spawned: Instant::now(),
        last_us: AtomicU64::new(0),
        progressed: AtomicBool::new(false),
    });
    let thread_heartbeat = Arc::clone(&heartbeat);
    let handle = std::thread::Builder::new()
        .name(format!("bashard-{index}of{count}"))
        .spawn(move || {
            let recovered = Follower::recover(&artifact, shard_cfg, &tail);
            // The closure would otherwise hold its share of the tail for the
            // worker's whole life.
            drop(tail);
            let follower = match recovered {
                Ok(follower) => follower,
                Err(e) => {
                    init_tx.send(Err(e.to_string())).ok();
                    return;
                }
            };
            thread_heartbeat.beat();
            init_tx.send(Ok(follower.next_height())).ok();
            worker_loop(
                follower,
                &rx,
                index,
                &thread_fence,
                &thread_heartbeat,
                plan.as_ref(),
            );
        })
        .expect("spawn shard worker");
    let worker = ShardWorker {
        tx,
        handle,
        fence,
        heartbeat,
    };
    (worker, init_rx)
}

fn worker_loop(
    mut follower: Follower,
    rx: &Receiver<Cmd>,
    index: u32,
    fence: &AtomicBool,
    heartbeat: &Heartbeat,
    plan: &dyn FaultPlan,
) {
    for cmd in rx.iter() {
        if fence.load(Ordering::Acquire) {
            // Abandoned as wedged: a replacement already owns our snapshot
            // files. Exit without touching disk.
            return;
        }
        match cmd {
            Cmd::Step(block) => {
                // Consult the fault plan only for blocks this follower has
                // not yet applied: a respawned worker that recovered the
                // faulting block from the journal must not re-fire the
                // same scripted fault when the block is redelivered.
                let new = block.height >= follower.next_height();
                if new {
                    if let Some(action) = plan.before_batch(index as usize, block.height + 1) {
                        match action {
                            FaultAction::Panic => {
                                panic!("injected fault: shard {index} at height {}", block.height)
                            }
                            FaultAction::Delay(delay) => {
                                std::thread::sleep(delay);
                                if fence.load(Ordering::Acquire) {
                                    return;
                                }
                            }
                        }
                    }
                }
                follower.step(&block);
                heartbeat.progressed.fetch_or(new, Ordering::Release);
                heartbeat.beat();
            }
            Cmd::Reclassify(reply) => {
                let n = follower.reclassify_dirty();
                heartbeat.beat();
                reply.send(n).ok();
            }
            Cmd::Snapshot(reply) => {
                let result = match follower.config().snapshot_path.clone() {
                    Some(path) => follower.snapshot_to(&path).map_err(|e| e.to_string()),
                    None => Err("no snapshot path configured".to_string()),
                };
                heartbeat.beat();
                reply.send(result).ok();
            }
            Cmd::Finish(reply) => {
                follower.reclassify_dirty();
                if let Some(path) = follower.config().snapshot_path.clone() {
                    if let Err(e) = follower.snapshot_to(&path) {
                        eprintln!("bashard: final snapshot to {} failed: {e}", path.display());
                    }
                }
                reply.send(follower).ok();
                return;
            }
        }
    }
}
