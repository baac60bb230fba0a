//! The BANET server: a TCP front over a serving backend.
//!
//! [`NetServer`] owns a `TcpListener` and a [`NetBackend`] (a shard worker
//! validating ownership, or a whole router) and serves
//! the BANET v2 protocol: handshake, classify, ping.
//!
//! Structure per connection: the accept thread (nonblocking listener,
//! 10 ms poll so the stop flag and the process SIGINT flag are honored)
//! spawns one *reader* thread per connection, which handshakes and then
//! decodes request frames; classify tickets are handed to a per-connection
//! *writer* thread that waits on them in submission order, so slow
//! inference never blocks frame decoding and pings answer immediately
//! through a shared write-half mutex.
//!
//! Bounds and deadlines:
//! * at most `MAX_CONNECTIONS` (64) concurrent connections — excess
//!   accepts are closed immediately (the kernel backlog stays bounded);
//! * reads tick every `READ_TICK` (50 ms), and the frame reader returns at
//!   least that often however a peer's bytes arrive, so stop/SIGINT are
//!   observed; a peer whose magic and `Hello` have not arrived
//!   `STALL_TIMEOUT` (5 s) after accept, or whose frame has not completed
//!   that long after its first byte, is cut off (idle connections after
//!   the handshake are fine — each client lane pings its live one);
//! * writes carry `WRITE_TIMEOUT` (5 s) so one dead client cannot wedge a
//!   writer thread forever.
//!
//! Nothing a peer sends stops the server: it stops on [`NetServer::stop`]
//! or the process's SIGINT. A malformed or unknown frame costs the peer its
//! own connection.

use crate::frame::{
    handshake, write_message, FrameError, FrameReader, Hello, Message, ReplyOutcome, Role,
    STALL_TIMEOUT,
};
use baclassifier::PredictError;
use baserve::shutdown;
use baserve::{Response, ServeError, Ticket};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// The backend trait lives in `baserve` (the stdin line session serves it
/// too); this is its path for TCP-side callers.
pub use baserve::lane::{NetBackend, WireError};

/// At most this many concurrent connections; excess accepts are shed.
const MAX_CONNECTIONS: usize = 64;
/// Read poll tick — latency bound on observing stop/SIGINT.
const READ_TICK: Duration = Duration::from_millis(50);
/// Socket write timeout, so one dead client cannot wedge a writer thread.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

/// Knobs for a [`NetServer`].
#[derive(Clone)]
pub struct NetServerConfig {
    /// The layout this server advertises (and whose `hash_version` the
    /// peer must match).
    pub hello: Hello,
}

impl NetServerConfig {
    /// Config for a worker serving shard `index` of `count`.
    pub fn for_shard(index: u32, count: u32) -> Self {
        NetServerConfig {
            hello: Hello {
                role: Role::Worker,
                shard_index: index,
                shard_count: count,
                hash_version: baclassifier::SHARD_HASH_VERSION,
            },
        }
    }

    /// Config for an unsharded server (shard 0 of 1).
    pub fn unsharded() -> Self {
        Self::for_shard(0, 1)
    }
}

/// Translate an engine outcome to the wire.
pub fn outcome_of(result: &Result<Response, ServeError>) -> ReplyOutcome {
    match result {
        Ok(r) => ReplyOutcome::Ok {
            label_index: r.label.index() as u8,
            cache_hit: r.cache_hit,
            degraded: r.degraded,
            latency_us: r.latency.as_micros() as u64,
        },
        Err(ServeError::QueueFull) => ReplyOutcome::QueueFull,
        Err(ServeError::ShuttingDown) => ReplyOutcome::ShuttingDown,
        Err(ServeError::Predict(PredictError::NotFitted)) => ReplyOutcome::NotFitted,
        Err(ServeError::Predict(PredictError::EmptyHistory)) => ReplyOutcome::EmptyHistory,
        Err(ServeError::WorkerFailed) => ReplyOutcome::WorkerFailed,
        Err(ServeError::DeadlineExceeded) => ReplyOutcome::DeadlineExceeded,
        Err(ServeError::BreakerOpen) => ReplyOutcome::BreakerOpen,
    }
}

struct ConnShared {
    /// Write half, shared between the writer thread (classify replies) and
    /// the reader thread (immediate control replies).
    write: Mutex<TcpStream>,
}

impl ConnShared {
    fn send(&self, msg: &Message) -> std::io::Result<()> {
        let mut w = self.write.lock().unwrap_or_else(|p| p.into_inner());
        write_message(&mut *w, msg)?;
        w.flush()
    }
}

/// A running BANET server. Dropping without [`NetServer::stop`] leaks the
/// accept thread until process exit; daemons call `stop()`.
pub struct NetServer {
    local_addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl NetServer {
    /// Start serving `backend` on `listener`.
    pub fn spawn(
        listener: TcpListener,
        backend: Arc<dyn NetBackend>,
        config: NetServerConfig,
    ) -> std::io::Result<NetServer> {
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || accept_loop(listener, backend, config, stop))
        };
        Ok(NetServer {
            local_addr,
            stop,
            accept: Some(accept),
        })
    }

    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// Whether this server has been asked to stop (locally or by process
    /// SIGINT).
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Relaxed) || shutdown::shutdown_requested()
    }

    /// Stop accepting, drain connections, join all threads.
    pub fn stop(mut self) {
        self.stop.store(true, Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Block until SIGINT, polling every 50 ms; then join.
    pub fn run_to_stop(mut self) {
        while !self.stop_requested() {
            std::thread::sleep(Duration::from_millis(50));
        }
        self.stop.store(true, Relaxed);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    backend: Arc<dyn NetBackend>,
    config: NetServerConfig,
    stop: Arc<AtomicBool>,
) {
    let open = Arc::new(AtomicUsize::new(0));
    let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !stop.load(Relaxed) && !shutdown::shutdown_requested() {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if open.load(Relaxed) >= MAX_CONNECTIONS {
                    // Bounded backlog: shed the connection instead of
                    // queueing unboundedly.
                    drop(stream);
                    continue;
                }
                open.fetch_add(1, Relaxed);
                let backend = Arc::clone(&backend);
                let config = config.clone();
                let stop = Arc::clone(&stop);
                let open = Arc::clone(&open);
                conns.push(std::thread::spawn(move || {
                    let _ = serve_connection(stream, backend, &config, &stop);
                    open.fetch_sub(1, Relaxed);
                }));
                // Reap finished connection threads so the vec stays small.
                conns.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
                conns.retain(|h| !h.is_finished());
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    stop.store(true, Relaxed); // propagate SIGINT-initiated stop to conns
    for h in conns {
        let _ = h.join();
    }
}

fn serve_connection(
    stream: TcpStream,
    backend: Arc<dyn NetBackend>,
    config: &NetServerConfig,
    stop: &AtomicBool,
) -> Result<(), FrameError> {
    let deadline = Instant::now() + STALL_TIMEOUT;
    stream.set_read_timeout(Some(READ_TICK))?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let write_half = stream.try_clone()?;

    // The peer's magic + Hello must be the first thing we read, within
    // `STALL_TIMEOUT` of accept — a peer that never handshakes must not
    // hold a connection slot.
    let mut reader = FrameReader::new(stream);
    let stopped = || stop.load(Relaxed) || shutdown::shutdown_requested();
    handshake(
        &mut &write_half,
        &mut reader,
        config.hello,
        deadline,
        stopped,
    )?;
    let shared = Arc::new(ConnShared {
        write: Mutex::new(write_half),
    });

    // Writer thread: waits on each classify ticket in submission order,
    // then replies for its `req_id`.
    let (job_tx, job_rx) = mpsc::channel::<(u64, Ticket)>();
    let writer = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || {
            while let Ok((req_id, ticket)) = job_rx.recv() {
                let outcome = outcome_of(&ticket.wait());
                if shared.send(&Message::Reply { req_id, outcome }).is_err() {
                    // Peer is gone; keep draining so tickets still resolve.
                }
            }
        })
    };

    let result = loop {
        if stopped() {
            break Ok(());
        }
        // Idle is fine; the reader itself cuts a frame that stalls.
        let msg = match reader.read_message() {
            Ok(Some(m)) => m,
            Ok(None) => break Ok(()), // clean EOF
            Err(e) if e.is_timeout() => continue,
            Err(e) => break Err(e),
        };
        match msg {
            Message::Classify { req_id, address } => match backend.submit(address) {
                Ok(ticket) => {
                    if job_tx.send((req_id, ticket)).is_err() {
                        break Ok(());
                    }
                }
                Err(WireError::Serve(e)) => {
                    let outcome = outcome_of(&Err(e));
                    if shared.send(&Message::Reply { req_id, outcome }).is_err() {
                        break Ok(());
                    }
                }
                Err(WireError::Reject(reason)) => {
                    let outcome = ReplyOutcome::Reject(reason);
                    if shared.send(&Message::Reply { req_id, outcome }).is_err() {
                        break Ok(());
                    }
                }
            },
            Message::Ping { nonce } => {
                if shared.send(&Message::Pong { nonce }).is_err() {
                    break Ok(());
                }
            }
            Message::Hello(_) => {
                break Err(FrameError::Malformed("unexpected mid-stream hello"));
            }
            // Server-bound streams never carry replies; a peer that sends
            // one is confused.
            Message::Reply { .. } | Message::Pong { .. } => {
                break Err(FrameError::Malformed("reply frame on server stream"));
            }
        }
    };
    drop(job_tx);
    let _ = writer.join();
    result
}
