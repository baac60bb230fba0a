//! The remote shard lane: a `ShardLane` whose engine lives in another
//! process, reached over one multiplexed BANET connection.
//!
//! One [`RemoteShard`] serves one shard worker address. Requests are
//! tagged with `req_id`s and settle out of order on the wire, so a single
//! connection carries the whole in-flight window (bounded by
//! `max_in_flight` — the per-shard admission budget; excess submits fail
//! fast with `QueueFull`, exactly like a full engine queue, so one slow
//! worker cannot stall the fleet).
//!
//! Failure handling is the point of this module, and one thread does all
//! of it: each lane's thread owns its connection for the lane's whole
//! life. It dials, reads replies, pings, sweeps deadlines, declares a
//! silent connection stale and tears it down. Submitters share only the
//! write half, the pending table and the next request id with it, so no
//! other thread can ever touch a connection.
//!
//! * **The lane answers for itself.** `submit` never dials. While the
//!   connection is down it answers at once from the fallback given to
//!   [`RemoteShard::connect`] (tagged `degraded`, counted in the lane's own
//!   `degraded`), or with `WorkerFailed` without one — as an engine whose
//!   workers all retired does.
//! * **Bounded-backoff reconnect.** A lane without a connection redials
//!   after `BACKOFF`, doubling per failed dial up to `BACKOFF_MAX`.
//! * **Client-side deadlines.** Every pending request carries a deadline;
//!   the lane thread sweeps expired entries every `READ_TICK` and settles
//!   them `DeadlineExceeded`, so a wedged worker never hangs a caller.
//! * **Liveness is the lane's own.** The `connections_open` gauge is 1
//!   while connected. A `Pong` only refreshes the lane's last-heard stamp.
//! * **Counted once.** A reply the worker served degraded counts only in
//!   `degraded`, as the engine counts it, so `terminal_total == submitted`
//!   holds across the wire.
//!
//! The handshake validates layout: the server's `Hello` must carry our
//! `SHARD_HASH_VERSION`, and when `expect` names a shard assignment the
//! peer must be the worker serving exactly that `index`/`count` — a
//! frontend misconfigured onto the wrong worker refuses to pair up rather
//! than silently misroute addresses.

use crate::frame::{
    handshake, write_message, FrameError, FrameReader, Hello, Message, ReplyOutcome, Role,
};
use baclassifier::{PredictError, ShardAssignment, SHARD_HASH_VERSION};
use baserve::fallback::degrade;
use baserve::metrics::{Metrics, MetricsSnapshot};
use baserve::{Fallback, Response, ServeError, ShardLane, Ticket};
use btcsim::{AddressRecord, Label};
use std::collections::HashMap;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Dial timeout; also the handshake's deadline.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Per-request deadline, enforced on this side of the wire.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// Lane read tick (also the deadline-sweep cadence).
const READ_TICK: Duration = Duration::from_millis(25);
/// A connection with no frames heard for this long is declared dead.
const STALE_AFTER: Duration = Duration::from_secs(2);
/// Socket write timeout.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// First reconnect backoff; doubles per failed dial up to `BACKOFF_MAX`.
const BACKOFF: Duration = Duration::from_millis(50);
const BACKOFF_MAX: Duration = Duration::from_secs(2);
/// How often a connected lane pings its worker.
const PING_INTERVAL: Duration = Duration::from_millis(100);

/// Knobs for a [`RemoteShard`].
#[derive(Clone)]
pub struct RemoteShardConfig {
    /// Per-shard admission budget: in-flight requests beyond this fail
    /// fast with `QueueFull`.
    pub max_in_flight: usize,
    /// When set, the peer must be the worker for exactly this assignment.
    pub expect: Option<ShardAssignment>,
}

impl Default for RemoteShardConfig {
    fn default() -> Self {
        RemoteShardConfig {
            max_in_flight: 64,
            expect: None,
        }
    }
}

struct PendingEntry {
    reply: mpsc::SyncSender<Result<Response, ServeError>>,
    deadline: Instant,
}

/// What submitters share with the lane thread. A frame is written and its
/// pending entry inserted under one lock, and settling a reply takes that
/// lock, so a reply can never beat its entry into the table.
struct Shared {
    /// Write half of the live connection; `None` while disconnected.
    write: Option<TcpStream>,
    pending: HashMap<u64, PendingEntry>,
    next_req_id: u64,
}

/// A connection to one remote shard worker, presenting the same
/// [`ShardLane`] surface as an in-process engine.
pub struct RemoteShard {
    max_in_flight: usize,
    /// Answers while the lane is disconnected; `None` fails instead.
    fallback: Option<Arc<Fallback>>,
    metrics: Arc<Metrics>,
    shared: Arc<Mutex<Shared>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

/// Everything the lane thread owns: the read half of a fresh connection
/// and the redial timers.
struct Lane {
    addr: String,
    expect: Option<ShardAssignment>,
    metrics: Arc<Metrics>,
    shared: Arc<Mutex<Shared>>,
    stop: Arc<AtomicBool>,
    reader: Option<FrameReader<TcpStream>>,
    backoff: Duration,
    next_dial: Instant,
    ever_connected: bool,
}

fn lock(m: &Mutex<Shared>) -> MutexGuard<'_, Shared> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Translate a wire outcome back to the engine result surface. A
/// `Reject` (unknown address, ownership violation) maps to `WorkerFailed`
/// at this boundary: to the router it is indistinguishable from a lane
/// that cannot serve the request.
fn result_of(outcome: ReplyOutcome) -> Result<Response, ServeError> {
    match outcome {
        ReplyOutcome::Ok {
            label_index,
            cache_hit,
            degraded,
            latency_us,
        } => match Label::from_index(label_index as usize) {
            Some(label) => Ok(Response {
                label,
                cache_hit,
                degraded,
                latency: Duration::from_micros(latency_us),
            }),
            None => Err(ServeError::WorkerFailed),
        },
        ReplyOutcome::QueueFull => Err(ServeError::QueueFull),
        ReplyOutcome::ShuttingDown => Err(ServeError::ShuttingDown),
        ReplyOutcome::NotFitted => Err(ServeError::Predict(PredictError::NotFitted)),
        ReplyOutcome::EmptyHistory => Err(ServeError::Predict(PredictError::EmptyHistory)),
        ReplyOutcome::WorkerFailed => Err(ServeError::WorkerFailed),
        ReplyOutcome::DeadlineExceeded => Err(ServeError::DeadlineExceeded),
        ReplyOutcome::BreakerOpen => Err(ServeError::BreakerOpen),
        ReplyOutcome::Reject(_) => Err(ServeError::WorkerFailed),
    }
}

impl RemoteShard {
    /// Create a lane for the worker at `addr` and dial it once eagerly, so
    /// the lane is connected on return when the worker is up. Never fails:
    /// if the worker is down the lane starts disconnected and its thread
    /// keeps redialling under backoff, and `fallback` answers meanwhile.
    /// Use [`RemoteShard::wait_connected`] when startup must block on the
    /// fleet being up.
    pub fn connect(
        addr: &str,
        config: RemoteShardConfig,
        fallback: Option<Arc<Fallback>>,
    ) -> RemoteShard {
        let metrics = Arc::new(Metrics::default());
        let shared = Arc::new(Mutex::new(Shared {
            write: None,
            pending: HashMap::new(),
            next_req_id: 0,
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let mut lane = Lane {
            addr: addr.to_string(),
            expect: config.expect,
            metrics: Arc::clone(&metrics),
            shared: Arc::clone(&shared),
            stop: Arc::clone(&stop),
            reader: None,
            backoff: BACKOFF,
            next_dial: Instant::now(),
            ever_connected: false,
        };
        lane.dial();
        RemoteShard {
            max_in_flight: config.max_in_flight,
            fallback,
            metrics,
            shared,
            stop,
            thread: Some(std::thread::spawn(move || lane.run())),
        }
    }

    /// This lane's counters: the `Arc` its thread writes. Its
    /// `connections_open` gauge reads 1 exactly while connected.
    pub fn counters(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Whether the lane currently holds a live connection.
    pub fn is_connected(&self) -> bool {
        self.metrics.connections_open.load(Relaxed) > 0
    }

    /// Block (polling) until connected or `timeout` elapses.
    pub fn wait_connected(&self, timeout: Duration) -> bool {
        let start = Instant::now();
        while start.elapsed() < timeout {
            if self.is_connected() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.is_connected()
    }

    /// Stop the lane: close the connection, settle all pending requests
    /// `WorkerFailed`, join the lane thread.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.stop.store(true, Relaxed);
        // Wake the lane thread's blocked read; it tears the connection
        // down and settles what is pending on its way out.
        if let Some(write) = &lock(&self.shared).write {
            let _ = write.shutdown(Shutdown::Both);
        }
        if let Some(h) = self.thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for RemoteShard {
    fn drop(&mut self) {
        if !self.stop.load(Relaxed) {
            self.shutdown_in_place();
        }
    }
}

impl Lane {
    /// The lane thread: serve the connection while there is one, redial
    /// when the backoff allows, until the lane stops.
    fn run(mut self) {
        while !self.stop.load(Relaxed) {
            match self.reader.take() {
                Some(reader) => self.serve(reader),
                None => {
                    let wait = self.next_dial.saturating_duration_since(Instant::now());
                    if wait.is_zero() {
                        self.dial();
                    } else {
                        std::thread::sleep(wait.min(READ_TICK));
                    }
                }
            }
        }
    }

    /// Dial once. On success publish the write half and keep the read
    /// half; on failure double the backoff.
    fn dial(&mut self) {
        let Ok((write, reader)) = dial(&self.addr, self.expect, &self.stop) else {
            self.next_dial = Instant::now() + self.backoff;
            self.backoff = (self.backoff * 2).min(BACKOFF_MAX);
            return;
        };
        let mut shared = lock(&self.shared);
        // Checked under the lock `shutdown` takes, so a lane stopped
        // mid-dial publishes nothing it would not shut.
        if self.stop.load(Relaxed) {
            return;
        }
        shared.write = Some(write);
        self.reader = Some(reader);
        self.backoff = BACKOFF;
        if self.ever_connected {
            self.metrics.reconnects_total.fetch_add(1, Relaxed);
        }
        self.ever_connected = true;
        self.metrics.connections_open.store(1, Relaxed);
    }

    /// Own one live connection until it fails, goes stale or the lane
    /// stops; then tear it down.
    fn serve(&mut self, mut reader: FrameReader<TcpStream>) {
        let mut last_heard = Instant::now();
        let mut last_ping = last_heard;
        let mut last_sweep = last_heard;
        let mut nonce = 0u64;
        while !self.stop.load(Relaxed) {
            match reader.read_message() {
                Ok(Some(Message::Reply { req_id, outcome })) => {
                    last_heard = Instant::now();
                    if let Some(entry) = lock(&self.shared).pending.remove(&req_id) {
                        settle(entry, result_of(outcome), &self.metrics);
                    }
                }
                // The stamp is all a pong is for.
                Ok(Some(Message::Pong { .. })) => last_heard = Instant::now(),
                Err(e) if e.is_timeout() => {}
                // End of stream, a broken one, or a frame a server never
                // sends (a protocol violation).
                _ => break,
            }
            let now = Instant::now();
            if now - last_heard > STALE_AFTER {
                // Half-open connection: the peer stopped talking but TCP
                // never noticed.
                break;
            }
            if now - last_sweep >= READ_TICK {
                last_sweep = now;
                expire_deadlines(&mut lock(&self.shared).pending, &self.metrics);
            }
            if now - last_ping >= PING_INTERVAL {
                last_ping = now;
                nonce += 1;
                let ping = Message::Ping { nonce };
                let sent = lock(&self.shared)
                    .write
                    .as_ref()
                    .is_some_and(|mut w| write_message(&mut w, &ping).is_ok());
                if !sent {
                    break;
                }
            }
        }
        self.disconnect();
    }

    /// Drop the connection and settle every pending request `WorkerFailed`.
    /// The next dial waits out the current backoff; only failed dials
    /// double it.
    fn disconnect(&mut self) {
        let mut shared = lock(&self.shared);
        shared.write = None;
        self.metrics.connections_open.store(0, Relaxed);
        for (_, entry) in shared.pending.drain() {
            settle(entry, Err(ServeError::WorkerFailed), &self.metrics);
        }
        self.next_dial = Instant::now() + self.backoff;
    }
}

/// Dial, run the handshake, validate the peer's layout. Returns the write
/// half and a frame reader already past the handshake (any frames the
/// server pipelined behind its hello stay buffered in it).
fn dial(
    addr: &str,
    expect: Option<ShardAssignment>,
    stop: &AtomicBool,
) -> Result<(TcpStream, FrameReader<TcpStream>), FrameError> {
    let sockaddr = addr.to_socket_addrs()?.next().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "resolves to no address")
    })?;
    let stream = TcpStream::connect_timeout(&sockaddr, CONNECT_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    stream.set_read_timeout(Some(READ_TICK))?;

    let (shard_index, shard_count) = match &expect {
        Some(a) => (a.index, a.count),
        None => (0, 1),
    };
    let ours = Hello {
        role: Role::Frontend,
        shard_index,
        shard_count,
        hash_version: SHARD_HASH_VERSION,
    };
    let mut reader = FrameReader::new(stream.try_clone()?);
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let hello = handshake(&mut &stream, &mut reader, ours, deadline, || {
        stop.load(Relaxed)
    })?;
    if let Some(expect) = &expect {
        if hello.role != Role::Worker
            || hello.shard_index != expect.index
            || hello.shard_count != expect.count
        {
            return Err(FrameError::Malformed("peer is not the expected worker"));
        }
    }
    Ok((stream, reader))
}

/// Settle one pending entry with its result, updating client metrics. A
/// degraded answer counts in `degraded` alone, as the engine counts it.
fn settle(entry: PendingEntry, result: Result<Response, ServeError>, metrics: &Metrics) {
    match &result {
        Ok(r) if r.degraded => {
            metrics.degraded.fetch_add(1, Relaxed);
        }
        Ok(r) => {
            metrics.completed.fetch_add(1, Relaxed);
            if r.cache_hit {
                metrics.cache_hits.fetch_add(1, Relaxed);
            } else {
                metrics.cache_misses.fetch_add(1, Relaxed);
            }
            metrics.record_latency_us(r.latency.as_micros() as u64);
        }
        Err(ServeError::DeadlineExceeded) => {
            metrics.timed_out.fetch_add(1, Relaxed);
        }
        Err(_) => {
            metrics.failed.fetch_add(1, Relaxed);
        }
    }
    let _ = entry.reply.send(result);
}

/// Settle every pending request whose deadline has passed as
/// `DeadlineExceeded`.
fn expire_deadlines(pending: &mut HashMap<u64, PendingEntry>, metrics: &Metrics) {
    let now = Instant::now();
    let expired: Vec<u64> = pending
        .iter()
        .filter(|(_, e)| e.deadline <= now)
        .map(|(id, _)| *id)
        .collect();
    for id in expired {
        if let Some(entry) = pending.remove(&id) {
            settle(entry, Err(ServeError::DeadlineExceeded), metrics);
        }
    }
}

impl ShardLane for RemoteShard {
    fn submit(&self, record: AddressRecord) -> Result<Ticket, ServeError> {
        let mut guard = lock(&self.shared);
        let shared = &mut *guard;
        self.metrics.submitted.fetch_add(1, Relaxed);
        let Some(mut w) = shared.write.as_ref() else {
            drop(guard);
            let fallback = self.fallback.as_deref();
            return degrade(fallback, &record, ServeError::WorkerFailed, &self.metrics);
        };
        if shared.pending.len() >= self.max_in_flight {
            self.metrics.rejected.fetch_add(1, Relaxed);
            return Err(ServeError::QueueFull);
        }
        let req_id = shared.next_req_id;
        shared.next_req_id += 1;
        let msg = Message::Classify {
            req_id,
            address: record.address.0,
        };
        if write_message(&mut w, &msg).is_err() {
            self.metrics.failed.fetch_add(1, Relaxed);
            return Err(ServeError::WorkerFailed);
        }
        let (tx, ticket) = Ticket::pending();
        shared.pending.insert(
            req_id,
            PendingEntry {
                reply: tx,
                deadline: Instant::now() + REQUEST_TIMEOUT,
            },
        );
        Ok(ticket)
    }

    fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        snap.queue_depth = lock(&self.shared).pending.len() as u64;
        snap
    }

    fn shutdown_lane(self: Box<Self>) {
        (*self).shutdown();
    }
}
