//! The remote shard lane: a `ShardLane` whose engine lives in another
//! process, reached over one multiplexed BANET connection.
//!
//! One [`RemoteShard`] serves one shard worker address. Requests are
//! tagged with `req_id`s and settle out of order on the wire, so a single
//! connection carries the whole in-flight window (bounded by
//! `max_in_flight` — the per-shard admission budget; excess submits fail
//! fast with `QueueFull`, exactly like a full engine queue, so the router
//! above can shed or degrade instead of stalling the fleet).
//!
//! Failure handling is the point of this module:
//!
//! * **Fail-fast submits.** `submit` never dials. If the connection is
//!   down it returns `WorkerFailed` immediately and the router's degraded
//!   path takes over. Dialing is the prober thread's job.
//! * **Bounded-backoff reconnect.** Connection attempts are gated by an
//!   exponential backoff (`backoff` doubling to `backoff_max`), driven by
//!   the prober every `probe_interval`.
//! * **Client-side deadlines.** Every pending request carries a deadline;
//!   the reader thread sweeps expired entries on its poll tick and settles
//!   them `DeadlineExceeded`, so a wedged worker never hangs a caller.
//! * **Liveness is the lane's own.** The `connections_open` gauge (1 while
//!   connected) is what [`ShardLane::live_workers`] reads, so the router's
//!   degraded routing asks a remote lane exactly what it asks an engine. A
//!   `Pong` only refreshes `last_heard`.
//!
//! The handshake validates layout: the server's `Hello` must carry our
//! `SHARD_HASH_VERSION`, and when `expect` names a shard assignment the
//! peer must be the worker serving exactly that `index`/`count` — a
//! frontend misconfigured onto the wrong worker refuses to pair up rather
//! than silently misroute addresses.

use crate::frame::{write_magic, write_message, FrameReader, Hello, Message, ReplyOutcome, Role};
use baclassifier::{PredictError, ShardAssignment, SHARD_HASH_VERSION};
use baserve::metrics::{Metrics, MetricsSnapshot};
use baserve::{Response, ServeError, ShardLane, Ticket};
use btcsim::{AddressRecord, Label};
use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Dial timeout; also the handshake's read deadline.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);
/// Per-request deadline, enforced on this side of the wire.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(5);
/// Reader poll tick (also the deadline-sweep cadence).
const READ_TICK: Duration = Duration::from_millis(25);
/// A connection with no frames heard for this long is declared dead.
const STALE_AFTER: Duration = Duration::from_secs(2);
/// Socket write timeout.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Knobs for a [`RemoteShard`].
#[derive(Clone)]
pub struct RemoteShardConfig {
    /// Initial reconnect backoff; doubles per failure up to `backoff_max`.
    pub backoff: Duration,
    pub backoff_max: Duration,
    /// Per-shard admission budget: in-flight requests beyond this fail
    /// fast with `QueueFull`.
    pub max_in_flight: usize,
    pub probe_interval: Duration,
    /// When set, the peer must be the worker for exactly this assignment.
    pub expect: Option<ShardAssignment>,
}

impl Default for RemoteShardConfig {
    fn default() -> Self {
        RemoteShardConfig {
            backoff: Duration::from_millis(50),
            backoff_max: Duration::from_secs(2),
            max_in_flight: 64,
            probe_interval: Duration::from_millis(100),
            expect: None,
        }
    }
}

struct PendingEntry {
    reply: mpsc::SyncSender<Result<Response, ServeError>>,
    deadline: Instant,
}

struct Conn {
    write: TcpStream,
    generation: u64,
}

struct Inner {
    conn: Option<Conn>,
    pending: HashMap<u64, PendingEntry>,
    next_req_id: u64,
    /// Bumped per established connection; a stale reader thread (from a
    /// torn-down connection) compares generations and must never touch
    /// state a newer connection owns.
    generation: u64,
    next_attempt: Instant,
    backoff: Duration,
    ever_connected: bool,
    last_heard: Instant,
}

/// A connection to one remote shard worker, presenting the same
/// [`ShardLane`] surface as an in-process engine.
pub struct RemoteShard {
    addr: String,
    config: RemoteShardConfig,
    metrics: Arc<Metrics>,
    inner: Arc<Mutex<Inner>>,
    stop: Arc<AtomicBool>,
    prober: Option<std::thread::JoinHandle<()>>,
}

fn lock<'a>(m: &'a Mutex<Inner>) -> MutexGuard<'a, Inner> {
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
    /// Create a lane for the worker at `addr` and dial it once eagerly.
    /// Never fails: if the worker is down the lane starts disconnected and
    /// the prober keeps retrying under backoff. Use
    /// [`RemoteShard::wait_connected`] when startup must block on the
    /// fleet being up.
    pub fn connect(addr: &str, config: RemoteShardConfig) -> RemoteShard {
        let now = Instant::now();
        let inner = Arc::new(Mutex::new(Inner {
            conn: None,
            pending: HashMap::new(),
            next_req_id: 0,
            generation: 0,
            next_attempt: now,
            backoff: config.backoff,
            ever_connected: false,
            last_heard: now,
        }));
        let mut shard = RemoteShard {
            addr: addr.to_string(),
            config,
            metrics: Arc::new(Metrics::default()),
            inner,
            stop: Arc::new(AtomicBool::new(false)),
            prober: None,
        };
        shard.try_connect();
        shard.prober = Some(shard.spawn_prober());
        shard
    }

    /// This lane's counters: the `Arc` its prober and reader write. Its
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

    fn spawn_prober(&self) -> std::thread::JoinHandle<()> {
        let inner = Arc::clone(&self.inner);
        let metrics = Arc::clone(&self.metrics);
        let stop = Arc::clone(&self.stop);
        let config = self.config.clone();
        let addr = self.addr.clone();
        std::thread::spawn(move || {
            let mut nonce = 0u64;
            while !stop.load(Relaxed) {
                std::thread::sleep(config.probe_interval);
                if stop.load(Relaxed) {
                    break;
                }
                try_connect_impl(&addr, &config, &inner, &metrics, &stop);
                let mut guard = lock(&inner);
                // Second deadline sweep (the reader sweeps on its poll
                // tick, but a stream saturated with replies may never
                // tick) — a wedged individual request still expires.
                expire_deadlines(&mut guard, &metrics);
                if let Some(conn) = &guard.conn {
                    let generation = conn.generation;
                    if guard.last_heard.elapsed() > STALE_AFTER {
                        // Half-open connection: the peer stopped talking
                        // but TCP never noticed. Tear it down; backoff
                        // reconnect takes over.
                        disconnect_locked(&mut guard, generation, &metrics);
                        continue;
                    }
                    nonce += 1;
                    let ping = Message::Ping { nonce };
                    let mut w = &conn.write;
                    if write_message(&mut w, &ping)
                        .and_then(|_| w.flush())
                        .is_err()
                    {
                        disconnect_locked(&mut guard, generation, &metrics);
                    }
                }
            }
        })
    }

    fn try_connect(&self) {
        try_connect_impl(
            &self.addr,
            &self.config,
            &self.inner,
            &self.metrics,
            &self.stop,
        );
    }

    /// Stop the lane: close the connection, settle all pending requests
    /// `WorkerFailed`, join the prober.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        self.stop.store(true, Relaxed);
        {
            let mut guard = lock(&self.inner);
            let generation = guard.conn.as_ref().map(|c| c.generation).unwrap_or(0);
            disconnect_locked(&mut guard, generation, &self.metrics);
        }
        if let Some(h) = self.prober.take() {
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

/// Write a frame on the live connection, unwinding the pending entry on
/// any failure (so a dead socket never leaks a pending request).
fn send_on_conn(
    guard: &mut MutexGuard<'_, Inner>,
    req_id: u64,
    msg: &Message,
) -> Result<(), ServeError> {
    let ok = match &guard.conn {
        Some(conn) => {
            let mut w = &conn.write;
            write_message(&mut w, msg).and_then(|_| w.flush()).is_ok()
        }
        None => false,
    };
    if ok {
        Ok(())
    } else {
        guard.pending.remove(&req_id);
        Err(ServeError::WorkerFailed)
    }
}

fn try_connect_impl(
    addr: &str,
    config: &RemoteShardConfig,
    inner: &Arc<Mutex<Inner>>,
    metrics: &Arc<Metrics>,
    stop: &Arc<AtomicBool>,
) {
    {
        let mut guard = lock(inner);
        if guard.conn.is_some() || stop.load(Relaxed) {
            return;
        }
        let now = Instant::now();
        if now < guard.next_attempt {
            return;
        }
        // Gate concurrent dialers out while this one is in flight.
        guard.next_attempt = now + CONNECT_TIMEOUT;
    }
    match dial(addr, config) {
        Ok((stream, reader)) => {
            let mut guard = lock(inner);
            if guard.conn.is_some() || stop.load(Relaxed) {
                return; // lost the race (can't happen under the gate) or shutting down
            }
            guard.generation += 1;
            let generation = guard.generation;
            guard.conn = Some(Conn {
                write: stream,
                generation,
            });
            guard.backoff = config.backoff;
            guard.next_attempt = Instant::now();
            guard.last_heard = Instant::now();
            if guard.ever_connected {
                metrics.reconnects_total.fetch_add(1, Relaxed);
            }
            guard.ever_connected = true;
            metrics.connections_open.store(1, Relaxed);
            drop(guard);
            spawn_reader(reader, generation, inner, metrics, stop);
        }
        Err(_) => {
            let mut guard = lock(inner);
            let backoff = guard.backoff;
            guard.next_attempt = Instant::now() + backoff;
            guard.backoff = (backoff * 2).min(config.backoff_max);
        }
    }
}

/// Dial, exchange magics and hellos, validate the peer's layout. Returns
/// the write half and a frame reader already past the handshake (any
/// frames the server pipelined behind its hello stay buffered in it).
fn dial(
    addr: &str,
    config: &RemoteShardConfig,
) -> Result<(TcpStream, FrameReader<TcpStream>), String> {
    let sockaddr = addr
        .to_socket_addrs()
        .map_err(|e| format!("resolve {addr}: {e}"))?
        .next()
        .ok_or_else(|| format!("resolve {addr}: no addresses"))?;
    let stream = TcpStream::connect_timeout(&sockaddr, CONNECT_TIMEOUT)
        .map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(WRITE_TIMEOUT))
        .map_err(|e| e.to_string())?;
    // Generous read deadline for the handshake; tightened to the poll tick
    // once the reader loop owns the stream.
    stream
        .set_read_timeout(Some(CONNECT_TIMEOUT))
        .map_err(|e| e.to_string())?;

    let (shard_index, shard_count) = match &config.expect {
        Some(a) => (a.index, a.count),
        None => (0, 1),
    };
    let mut w = &stream;
    write_magic(&mut w).map_err(|e| e.to_string())?;
    write_message(
        &mut w,
        &Message::Hello(Hello {
            role: Role::Frontend,
            shard_index,
            shard_count,
            hash_version: SHARD_HASH_VERSION,
        }),
    )
    .map_err(|e| e.to_string())?;
    w.flush().map_err(|e| e.to_string())?;

    let read_half = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = FrameReader::new(read_half);
    let hello = match reader.read_message() {
        Ok(Some(Message::Hello(h))) => h,
        Ok(Some(_)) => return Err("first frame was not hello".to_string()),
        Ok(None) => return Err("peer closed during handshake".to_string()),
        Err(e) => return Err(format!("handshake: {e}")),
    };
    if hello.hash_version != SHARD_HASH_VERSION {
        return Err(format!(
            "peer speaks shard hash v{}, this build is v{SHARD_HASH_VERSION}",
            hello.hash_version
        ));
    }
    if let Some(expect) = &config.expect {
        if hello.role != Role::Worker
            || hello.shard_index != expect.index
            || hello.shard_count != expect.count
        {
            return Err(format!(
                "peer layout {:?} shard {}/{} does not match expected worker {}/{}",
                hello.role, hello.shard_index, hello.shard_count, expect.index, expect.count
            ));
        }
    }
    stream
        .set_read_timeout(Some(READ_TICK))
        .map_err(|e| e.to_string())?;
    Ok((stream, reader))
}

/// Settle one pending entry with its result, updating client metrics.
fn settle(entry: PendingEntry, result: Result<Response, ServeError>, metrics: &Metrics) {
    match &result {
        Ok(r) => {
            metrics.completed.fetch_add(1, Relaxed);
            if r.degraded {
                metrics.degraded.fetch_add(1, Relaxed);
            }
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
fn expire_deadlines(inner: &mut Inner, metrics: &Metrics) {
    let now = Instant::now();
    let expired: Vec<u64> = inner
        .pending
        .iter()
        .filter(|(_, e)| e.deadline <= now)
        .map(|(id, _)| *id)
        .collect();
    for id in expired {
        if let Some(entry) = inner.pending.remove(&id) {
            settle(entry, Err(ServeError::DeadlineExceeded), metrics);
        }
    }
}

/// Tear down the connection for `generation` (no-op if a newer connection
/// owns the state), settling every pending request as `WorkerFailed`.
fn disconnect_locked(guard: &mut MutexGuard<'_, Inner>, generation: u64, metrics: &Metrics) {
    let current = guard.conn.as_ref().map(|c| c.generation);
    if current != Some(generation) {
        return;
    }
    guard.conn = None;
    let pending = std::mem::take(&mut guard.pending);
    // Hold the current backoff; failed *dial* attempts do the doubling.
    guard.next_attempt = Instant::now() + guard.backoff;
    metrics.connections_open.store(0, Relaxed);
    for (_, entry) in pending {
        settle(entry, Err(ServeError::WorkerFailed), metrics);
    }
}

fn spawn_reader(
    mut reader: FrameReader<TcpStream>,
    generation: u64,
    inner: &Arc<Mutex<Inner>>,
    metrics: &Arc<Metrics>,
    stop: &Arc<AtomicBool>,
) {
    let inner = Arc::clone(inner);
    let metrics = Arc::clone(metrics);
    let stop = Arc::clone(stop);
    std::thread::spawn(move || loop {
        if stop.load(Relaxed) {
            return;
        }
        {
            // A torn-down generation has nothing left to do.
            let guard = lock(&inner);
            if guard.conn.as_ref().map(|c| c.generation) != Some(generation) {
                return;
            }
        }
        match reader.read_message() {
            Ok(Some(msg)) => {
                let mut guard = lock(&inner);
                if guard.conn.as_ref().map(|c| c.generation) != Some(generation) {
                    return;
                }
                guard.last_heard = Instant::now();
                match msg {
                    Message::Reply { req_id, outcome } => {
                        if let Some(entry) = guard.pending.remove(&req_id) {
                            settle(entry, result_of(outcome), &metrics);
                        }
                    }
                    // `last_heard` above is all a pong is for.
                    Message::Pong { .. } => {}
                    // A server never sends requests; anything else is a
                    // protocol violation — tear the connection down.
                    _ => {
                        disconnect_locked(&mut guard, generation, &metrics);
                        return;
                    }
                }
            }
            Ok(None) => {
                let mut guard = lock(&inner);
                disconnect_locked(&mut guard, generation, &metrics);
                return;
            }
            Err(e) if e.is_timeout() => {
                // Poll tick: sweep expired deadlines.
                let mut guard = lock(&inner);
                if guard.conn.as_ref().map(|c| c.generation) != Some(generation) {
                    return;
                }
                expire_deadlines(&mut guard, &metrics);
            }
            Err(_) => {
                let mut guard = lock(&inner);
                disconnect_locked(&mut guard, generation, &metrics);
                return;
            }
        }
    });
}

impl ShardLane for RemoteShard {
    fn submit(&self, record: AddressRecord) -> Result<Ticket, ServeError> {
        let mut guard = lock(&self.inner);
        self.metrics.submitted.fetch_add(1, Relaxed);
        if guard.conn.is_none() {
            self.metrics.failed.fetch_add(1, Relaxed);
            return Err(ServeError::WorkerFailed);
        }
        if guard.pending.len() >= self.config.max_in_flight {
            self.metrics.rejected.fetch_add(1, Relaxed);
            return Err(ServeError::QueueFull);
        }
        let req_id = guard.next_req_id;
        guard.next_req_id += 1;
        let (tx, ticket) = Ticket::pending();
        guard.pending.insert(
            req_id,
            PendingEntry {
                reply: tx,
                deadline: Instant::now() + REQUEST_TIMEOUT,
            },
        );
        let msg = Message::Classify {
            req_id,
            address: record.address.0,
        };
        match send_on_conn(&mut guard, req_id, &msg) {
            Ok(()) => Ok(ticket),
            Err(e) => {
                self.metrics.failed.fetch_add(1, Relaxed);
                Err(e)
            }
        }
    }

    fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.metrics.snapshot();
        let guard = lock(&self.inner);
        snap.queue_depth = guard.pending.len() as u64;
        snap
    }

    fn live_workers(&self) -> usize {
        usize::from(self.is_connected())
    }

    fn shutdown_lane(self: Box<Self>) {
        (*self).shutdown();
    }
}
