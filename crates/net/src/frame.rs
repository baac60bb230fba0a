//! The BANET v2 wire format: length-prefixed, CRC-framed messages.
//!
//! A magic string once per direction at stream start, then the frames of
//! every binary record format in the workspace,
//! `[u32 LE payload-len][u32 LE CRC32 of payload][payload]`, written and read
//! by the one codec `baclassifier::durable::{put_frame, next_frame}` that
//! also frames `BJRNL` blocks, `BSTREAM` snapshots and `BART` artifacts — so
//! a frame that survives the checksum is exactly as trustworthy as a
//! journal record. Payloads are capped at [`MAX_FRAME_LEN`] — a corrupt or
//! malicious length prefix is rejected before any allocation.
//!
//! The payload is `[u8 message-type][little-endian body]`; see [`Message`]
//! for the catalogue — the five messages a fleet sends. Types 4, 5, 8, 9
//! and 10 once carried remote metrics, shutdown and cache invalidation;
//! nothing ever sent them, and they now decode as
//! `Malformed("unknown message type")` like any other unknown byte, which
//! costs the sender its connection and nothing else. Two properties the
//! fleet depends on:
//!
//! * **Self-describing errors, never panics.** Every decode failure is a
//!   typed [`FrameError`]; the property tests in
//!   `tests/frame_properties.rs` fuzz bit flips, truncations, and garbage
//!   against this promise.
//! * **Desync-free incremental reads.** [`FrameReader`] accumulates bytes
//!   across short reads and read timeouts (`WouldBlock`/`TimedOut`), so a
//!   socket with a poll-tick read deadline can park mid-frame and resume
//!   without losing its place. After any *fatal* error the reader is
//!   poisoned and refuses further reads — a stream that failed a CRC has
//!   no trustworthy frame boundary left.
//! * **Bounded frames, however the bytes arrive.** A frame (or the magic)
//!   must complete within `STALL_TIMEOUT` of its first buffered byte, and
//!   a read that is still short of a frame after `READ_SLICE` hands back
//!   a timeout, so a peer trickling one byte at a time can neither hold a
//!   connection forever nor keep its reader from seeing a stop flag.

use baclassifier::durable::{next_frame, put_frame, put_u32, put_u64, Cursor, Frame};
use std::io::{ErrorKind, Read, Write};
use std::time::{Duration, Instant};

/// Stream preamble, sent once per direction before the first frame.
pub const MAGIC: &[u8; 8] = b"BANET v2";

/// How long a frame may take to arrive, from its first buffered byte; a
/// frame still incomplete after that fails as [`FrameError::Truncated`].
pub(crate) const STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// The longest one [`FrameReader::read_message`] call keeps reading a frame
/// whose bytes are still arriving before it returns a timeout to its
/// caller (the server's 50 ms read tick); [`handshake`] waits these out.
const READ_SLICE: Duration = Duration::from_millis(50);

/// Upper bound on a frame payload. Every message is a few dozen bytes but
/// a `Reply` carrying a [`ReplyOutcome::Reject`] reason, which is cut to
/// fit at encode — so no legitimate frame exceeds the cap, and a server
/// buffers at most this much per connection (× its 64 connections =
/// 4 MiB).
pub const MAX_FRAME_LEN: u32 = 64 << 10;

/// Longest `Reject` reason that fits a frame: the cap less the `Reply`
/// payload around it (type, `req_id`, status, string length).
const MAX_REASON_LEN: usize = MAX_FRAME_LEN as usize - (1 + 8 + 1 + 4);

/// Message-type discriminants (first payload byte). 4, 5 and 8–10 are
/// retired and must not be reused.
mod msg_type {
    pub const HELLO: u8 = 1;
    pub const CLASSIFY: u8 = 2;
    pub const REPLY: u8 = 3;
    pub const PING: u8 = 6;
    pub const PONG: u8 = 7;
}

/// Who is on the other end of a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// A client (router, loadgen) that submits requests.
    Frontend,
    /// A shard worker process that answers them.
    Worker,
}

impl Role {
    fn to_byte(self) -> u8 {
        match self {
            Role::Frontend => 0,
            Role::Worker => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Role, FrameError> {
        match b {
            0 => Ok(Role::Frontend),
            1 => Ok(Role::Worker),
            _ => Err(FrameError::Malformed("unknown role byte")),
        }
    }
}

/// The handshake frame each side sends right after its magic. Carries the
/// sender's shard layout so a frontend can refuse to talk to a worker that
/// owns the wrong slice of the address space (or hashes addresses with a
/// different partition function).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    pub role: Role,
    /// Shard index this endpoint serves (0 for frontends and unsharded
    /// servers).
    pub shard_index: u32,
    /// Fleet shard count (1 for unsharded).
    pub shard_count: u32,
    /// Must equal `bashard`'s `SHARD_HASH_VERSION`; a mismatch means the
    /// two processes place addresses differently and must not pair up.
    pub hash_version: u32,
}

/// Terminal outcome of a classify request, as carried on the wire.
///
/// Mirrors `Result<baserve::Response, ServeError>` closely enough that the
/// client lane can reconstruct a `Response` byte-identical to an
/// in-process one (labels are carried by index; the latency figure is the
/// worker-side measurement).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyOutcome {
    Ok {
        label_index: u8,
        cache_hit: bool,
        degraded: bool,
        latency_us: u64,
    },
    QueueFull,
    ShuttingDown,
    NotFitted,
    EmptyHistory,
    WorkerFailed,
    DeadlineExceeded,
    BreakerOpen,
    /// Request refused before reaching an engine: unknown address, shard
    /// ownership violation. Carries a human-readable reason, cut at encode
    /// to what a frame holds.
    Reject(String),
}

mod status {
    pub const OK: u8 = 0;
    pub const QUEUE_FULL: u8 = 1;
    pub const SHUTTING_DOWN: u8 = 2;
    pub const NOT_FITTED: u8 = 3;
    pub const EMPTY_HISTORY: u8 = 4;
    pub const WORKER_FAILED: u8 = 5;
    pub const DEADLINE_EXCEEDED: u8 = 6;
    pub const BREAKER_OPEN: u8 = 7;
    pub const REJECT: u8 = 8;
}

/// Everything that can travel in a BANET frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Layout handshake; first frame in each direction.
    Hello(Hello),
    /// Classify the address with this simulator id.
    Classify { req_id: u64, address: u64 },
    /// Outcome of a `Classify`.
    Reply { req_id: u64, outcome: ReplyOutcome },
    /// Liveness probe.
    Ping { nonce: u64 },
    /// Probe answer.
    Pong { nonce: u64 },
}

/// Why a frame (or stream) could not be decoded.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying transport failure.
    Io(std::io::Error),
    /// Stream preamble was not [`MAGIC`].
    BadMagic,
    /// Length prefix exceeds [`MAX_FRAME_LEN`].
    TooLarge(u32),
    /// Stream ended mid-frame.
    Truncated,
    /// Payload failed its CRC.
    Crc { expected: u32, actual: u32 },
    /// Payload structure invalid (unknown type, short body, bad UTF-8…).
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::BadMagic => write!(f, "bad stream magic (want BANET v2)"),
            FrameError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME_LEN}")
            }
            FrameError::Truncated => write!(f, "stream ended mid-frame"),
            FrameError::Crc { expected, actual } => {
                write!(
                    f,
                    "frame crc mismatch: stored {expected:08x}, computed {actual:08x}"
                )
            }
            FrameError::Malformed(what) => write!(f, "malformed frame payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// Whether the error is a transient read timeout (poll tick) rather
    /// than a real failure. Callers retry these; everything else poisons
    /// the stream.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
        )
    }
}

// ---------------------------------------------------------------------------
// Payload encode/decode (pure, byte-level — the proptest target)
// ---------------------------------------------------------------------------

/// A read past the payload's end, as this format reports it.
fn short<T>(read: Option<T>) -> Result<T, FrameError> {
    read.ok_or(FrameError::Malformed("payload body too short"))
}

/// `s` cut to at most `max` bytes, on a char boundary.
fn truncated(s: &str, max: usize) -> &str {
    let mut end = s.len().min(max);
    while !s.is_char_boundary(end) {
        end -= 1;
    }
    &s[..end]
}

fn put_string(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn read_string(c: &mut Cursor) -> Result<String, FrameError> {
    let len = short(c.u32())? as usize;
    let raw = short(c.take(len))?;
    String::from_utf8(raw.to_vec()).map_err(|_| FrameError::Malformed("string not utf-8"))
}

impl Message {
    /// Serialise to a frame payload (type byte + LE body).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(32);
        match self {
            Message::Hello(h) => {
                buf.push(msg_type::HELLO);
                buf.push(h.role.to_byte());
                put_u32(&mut buf, h.shard_index);
                put_u32(&mut buf, h.shard_count);
                put_u32(&mut buf, h.hash_version);
            }
            Message::Classify { req_id, address } => {
                buf.push(msg_type::CLASSIFY);
                put_u64(&mut buf, *req_id);
                put_u64(&mut buf, *address);
            }
            Message::Reply { req_id, outcome } => {
                buf.push(msg_type::REPLY);
                put_u64(&mut buf, *req_id);
                match outcome {
                    ReplyOutcome::Ok {
                        label_index,
                        cache_hit,
                        degraded,
                        latency_us,
                    } => {
                        buf.push(status::OK);
                        buf.push(*label_index);
                        let mut flags = 0u8;
                        if *cache_hit {
                            flags |= 1;
                        }
                        if *degraded {
                            flags |= 2;
                        }
                        buf.push(flags);
                        put_u64(&mut buf, *latency_us);
                    }
                    ReplyOutcome::QueueFull => buf.push(status::QUEUE_FULL),
                    ReplyOutcome::ShuttingDown => buf.push(status::SHUTTING_DOWN),
                    ReplyOutcome::NotFitted => buf.push(status::NOT_FITTED),
                    ReplyOutcome::EmptyHistory => buf.push(status::EMPTY_HISTORY),
                    ReplyOutcome::WorkerFailed => buf.push(status::WORKER_FAILED),
                    ReplyOutcome::DeadlineExceeded => buf.push(status::DEADLINE_EXCEEDED),
                    ReplyOutcome::BreakerOpen => buf.push(status::BREAKER_OPEN),
                    ReplyOutcome::Reject(reason) => {
                        buf.push(status::REJECT);
                        put_string(&mut buf, truncated(reason, MAX_REASON_LEN));
                    }
                }
            }
            Message::Ping { nonce } => {
                buf.push(msg_type::PING);
                put_u64(&mut buf, *nonce);
            }
            Message::Pong { nonce } => {
                buf.push(msg_type::PONG);
                put_u64(&mut buf, *nonce);
            }
        }
        buf
    }

    /// Parse a frame payload. Total function over arbitrary bytes: every
    /// failure is a [`FrameError::Malformed`], never a panic.
    pub fn decode(payload: &[u8]) -> Result<Message, FrameError> {
        let mut c = Cursor::new(payload);
        let msg = match short(c.u8())? {
            msg_type::HELLO => Message::Hello(Hello {
                role: Role::from_byte(short(c.u8())?)?,
                shard_index: short(c.u32())?,
                shard_count: short(c.u32())?,
                hash_version: short(c.u32())?,
            }),
            msg_type::CLASSIFY => Message::Classify {
                req_id: short(c.u64())?,
                address: short(c.u64())?,
            },
            msg_type::REPLY => {
                let req_id = short(c.u64())?;
                let outcome = match short(c.u8())? {
                    status::OK => {
                        let label_index = short(c.u8())?;
                        let flags = short(c.u8())?;
                        if flags & !3 != 0 {
                            return Err(FrameError::Malformed("unknown reply flags"));
                        }
                        ReplyOutcome::Ok {
                            label_index,
                            cache_hit: flags & 1 != 0,
                            degraded: flags & 2 != 0,
                            latency_us: short(c.u64())?,
                        }
                    }
                    status::QUEUE_FULL => ReplyOutcome::QueueFull,
                    status::SHUTTING_DOWN => ReplyOutcome::ShuttingDown,
                    status::NOT_FITTED => ReplyOutcome::NotFitted,
                    status::EMPTY_HISTORY => ReplyOutcome::EmptyHistory,
                    status::WORKER_FAILED => ReplyOutcome::WorkerFailed,
                    status::DEADLINE_EXCEEDED => ReplyOutcome::DeadlineExceeded,
                    status::BREAKER_OPEN => ReplyOutcome::BreakerOpen,
                    status::REJECT => ReplyOutcome::Reject(read_string(&mut c)?),
                    _ => return Err(FrameError::Malformed("unknown reply status")),
                };
                Message::Reply { req_id, outcome }
            }
            msg_type::PING => Message::Ping {
                nonce: short(c.u64())?,
            },
            msg_type::PONG => Message::Pong {
                nonce: short(c.u64())?,
            },
            _ => return Err(FrameError::Malformed("unknown message type")),
        };
        if c.remaining() != 0 {
            return Err(FrameError::Malformed("trailing bytes after payload body"));
        }
        Ok(msg)
    }
}

/// Serialise a message into a complete frame (header + payload), ready for
/// a single `write_all`.
pub fn encode_frame(msg: &Message) -> Vec<u8> {
    let mut frame = Vec::new();
    put_frame(&mut frame, &msg.encode(), MAX_FRAME_LEN)
        .expect("every message fits a frame: a Reject reason is cut to fit at encode");
    frame
}

/// Decode one frame from the **start** of `bytes`.
///
/// Returns `Ok(None)` when the buffer holds a valid prefix of an
/// incomplete frame (read more), `Ok(Some((msg, consumed)))` on success,
/// and `Err` for any unrecoverable corruption.
pub fn decode_frame(bytes: &[u8]) -> Result<Option<(Message, usize)>, FrameError> {
    match next_frame(bytes, MAX_FRAME_LEN) {
        Frame::Whole { payload, end } => Ok(Some((Message::decode(payload)?, end))),
        Frame::Incomplete => Ok(None),
        Frame::TooLarge(len) => Err(FrameError::TooLarge(len)),
        Frame::CrcMismatch { stored, computed } => Err(FrameError::Crc {
            expected: stored,
            actual: computed,
        }),
    }
}

// ---------------------------------------------------------------------------
// Stream adapters
// ---------------------------------------------------------------------------

/// Write the stream preamble.
pub fn write_magic<W: Write>(w: &mut W) -> std::io::Result<()> {
    w.write_all(MAGIC)
}

/// Write one framed message.
pub fn write_message<W: Write>(w: &mut W, msg: &Message) -> std::io::Result<()> {
    w.write_all(&encode_frame(msg))
}

/// The BANET handshake, the same at both ends: write our magic and `ours`,
/// then read the peer's `Hello` through `reader`, waiting out its
/// `READ_SLICE` poll ticks until `deadline` passes or `stop` returns true.
/// The peer's first frame must be a `Hello` carrying our `hash_version`: a
/// peer that places addresses differently must not pair up with us.
pub fn handshake<W: Write, R: Read>(
    w: &mut W,
    reader: &mut FrameReader<R>,
    ours: Hello,
    deadline: Instant,
    stop: impl Fn() -> bool,
) -> Result<Hello, FrameError> {
    write_magic(w)?;
    write_message(w, &Message::Hello(ours))?;
    w.flush()?;
    let theirs = loop {
        match reader.read_message() {
            Ok(Some(Message::Hello(h))) => break h,
            Ok(Some(_)) => return Err(FrameError::Malformed("first frame must be hello")),
            Ok(None) => return Err(FrameError::Truncated),
            Err(e) if e.is_timeout() && Instant::now() < deadline && !stop() => {}
            Err(e) => return Err(e),
        }
    };
    if theirs.hash_version != ours.hash_version {
        return Err(FrameError::Malformed("shard hash version mismatch"));
    }
    Ok(theirs)
}

/// Incremental frame reader over a byte stream.
///
/// Short reads and read timeouts leave partial bytes buffered; the next
/// [`FrameReader::read_message`] call resumes exactly where the stream
/// paused, so a socket with `set_read_timeout` as a poll tick never
/// desyncs. Fatal errors (bad magic, CRC, malformed payload, EOF
/// mid-frame, a frame stalled past `STALL_TIMEOUT`) poison the reader —
/// there is no trustworthy frame boundary after corruption.
pub struct FrameReader<R> {
    inner: R,
    /// Stream bytes read but not yet consumed.
    buf: Vec<u8>,
    /// When the first still-buffered byte arrived: the stall clock of the
    /// frame (or magic) in progress. `None` while the buffer is empty.
    since: Option<Instant>,
    magic_seen: bool,
    poisoned: bool,
}

impl<R: Read> FrameReader<R> {
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            buf: Vec::new(),
            since: None,
            magic_seen: false,
            poisoned: false,
        }
    }

    /// Pull more bytes from the stream into the buffer. `Ok(0)` is EOF.
    fn fill(&mut self) -> std::io::Result<usize> {
        let mut chunk = [0u8; 4096];
        let n = self.inner.read(&mut chunk)?;
        if self.buf.is_empty() && n > 0 {
            self.since = Some(Instant::now());
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    fn consume(&mut self, n: usize) {
        self.buf.drain(..n);
        // Bytes left over belong to the next frame, whose clock starts now.
        self.since = (!self.buf.is_empty()).then(Instant::now);
    }

    /// Read the next message. `Ok(None)` is a clean EOF at a frame
    /// boundary. Timeouts surface as `FrameError::Io` with
    /// `is_timeout() == true` and do **not** poison the reader: the
    /// stream's own read timeout, or `READ_SLICE` spent on a frame still
    /// arriving. Every other error does, including a frame still
    /// incomplete `STALL_TIMEOUT` after its first byte (`Truncated`).
    pub fn read_message(&mut self) -> Result<Option<Message>, FrameError> {
        if self.poisoned {
            return Err(FrameError::Malformed("reader poisoned by earlier error"));
        }
        let called = Instant::now();
        loop {
            if !self.magic_seen {
                if self.buf.len() >= MAGIC.len() {
                    if &self.buf[..MAGIC.len()] != MAGIC {
                        self.poisoned = true;
                        return Err(FrameError::BadMagic);
                    }
                    self.consume(MAGIC.len());
                    self.magic_seen = true;
                    continue;
                }
            } else {
                match decode_frame(&self.buf) {
                    Ok(Some((msg, consumed))) => {
                        self.consume(consumed);
                        return Ok(Some(msg));
                    }
                    Ok(None) => {}
                    Err(e) => {
                        self.poisoned = true;
                        return Err(e);
                    }
                }
            }
            if self.since.is_some_and(|t| t.elapsed() > STALL_TIMEOUT) {
                self.poisoned = true;
                return Err(FrameError::Truncated);
            }
            if called.elapsed() >= READ_SLICE {
                return Err(FrameError::Io(ErrorKind::TimedOut.into()));
            }
            match self.fill() {
                Ok(0) => {
                    return if self.buf.is_empty() && self.magic_seen {
                        Ok(None)
                    } else {
                        self.poisoned = true;
                        Err(FrameError::Truncated)
                    };
                }
                Ok(_) => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    // Poll tick: keep the partial frame buffered, resume on
                    // the next call.
                    return Err(FrameError::Io(e));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => {
                    self.poisoned = true;
                    return Err(FrameError::Io(e));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let payload = msg.encode();
        assert_eq!(Message::decode(&payload).unwrap(), msg);
        let frame = encode_frame(&msg);
        let (decoded, consumed) = decode_frame(&frame).unwrap().unwrap();
        assert_eq!(decoded, msg);
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn every_message_roundtrips() {
        roundtrip(Message::Hello(Hello {
            role: Role::Worker,
            shard_index: 3,
            shard_count: 8,
            hash_version: 1,
        }));
        roundtrip(Message::Classify {
            req_id: 42,
            address: u64::MAX,
        });
        roundtrip(Message::Reply {
            req_id: 42,
            outcome: ReplyOutcome::Ok {
                label_index: 2,
                cache_hit: true,
                degraded: false,
                latency_us: 1234,
            },
        });
        for outcome in [
            ReplyOutcome::QueueFull,
            ReplyOutcome::ShuttingDown,
            ReplyOutcome::NotFitted,
            ReplyOutcome::EmptyHistory,
            ReplyOutcome::WorkerFailed,
            ReplyOutcome::DeadlineExceeded,
            ReplyOutcome::BreakerOpen,
            ReplyOutcome::Reject("no such address 7".to_string()),
        ] {
            roundtrip(Message::Reply { req_id: 7, outcome });
        }
        roundtrip(Message::Ping { nonce: 77 });
        roundtrip(Message::Pong { nonce: 77 });
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Recorded from the build before the catalogue was cut to five, the
    /// `Pong` entry again when v2 dropped its `processed` field: a
    /// discriminant, a status byte or a field order that moves fails here.
    #[test]
    fn golden_wire_bytes() {
        let reply = |req_id, outcome| Message::Reply { req_id, outcome };
        let ok = |label_index, cache_hit, degraded, latency_us| ReplyOutcome::Ok {
            label_index,
            cache_hit,
            degraded,
            latency_us,
        };
        let golden = [
            (
                Message::Hello(Hello {
                    role: Role::Worker,
                    shard_index: 3,
                    shard_count: 8,
                    hash_version: 1,
                }),
                "0e00000014efe58d0101030000000800000001000000",
            ),
            (
                Message::Classify {
                    req_id: 0x0102_0304_0506_0708,
                    address: 0xdead_beef,
                },
                "11000000b250bb20020807060504030201efbeadde00000000",
            ),
            (
                reply(42, ok(2, true, false, 1234)),
                "140000002b2a1458032a00000000000000000201d204000000000000",
            ),
            (
                reply(42, ok(3, false, true, 5)),
                "14000000c626cc76032a000000000000000003020500000000000000",
            ),
            (
                reply(7, ReplyOutcome::QueueFull),
                "0a0000002a8edb1b03070000000000000001",
            ),
            (
                reply(7, ReplyOutcome::ShuttingDown),
                "0a00000090dfd28203070000000000000002",
            ),
            (
                reply(7, ReplyOutcome::NotFitted),
                "0a00000006efd5f503070000000000000003",
            ),
            (
                reply(7, ReplyOutcome::EmptyHistory),
                "0a000000a57ab16b03070000000000000004",
            ),
            (
                reply(7, ReplyOutcome::WorkerFailed),
                "0a000000334ab61c03070000000000000005",
            ),
            (
                reply(7, ReplyOutcome::DeadlineExceeded),
                "0a000000891bbf8503070000000000000006",
            ),
            (
                reply(7, ReplyOutcome::BreakerOpen),
                "0a0000001f2bb8f203070000000000000007",
            ),
            (
                reply(7, ReplyOutcome::Reject("no such address 7".to_string())),
                "1f0000001f3cfe1103070000000000000008110000006e6f207375636820616464726573732037",
            ),
            (
                Message::Ping { nonce: 99 },
                "090000007cca77cb066300000000000000",
            ),
            (
                Message::Pong { nonce: 99 },
                "090000003fde0cdc076300000000000000",
            ),
        ];
        for (msg, want) in golden {
            assert_eq!(hex(&encode_frame(&msg)), want, "{msg:?}");
        }
    }

    #[test]
    fn retired_message_types_are_unknown() {
        // Bodies as the retired MetricsReq, MetricsReply, Shutdown,
        // Invalidate and InvalidateReply carried them.
        let retired: [(u8, &[u8]); 5] = [
            (4, &[3, 0, 0, 0, 0, 0, 0, 0]),
            (5, &[3, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, b'{', b'}']),
            (8, &[]),
            (9, &[4, 0, 0, 0, 0, 0, 0, 0, 17, 0, 0, 0, 0, 0, 0, 0]),
            (10, &[4, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0]),
        ];
        for (ty, body) in retired {
            let mut payload = vec![ty];
            payload.extend_from_slice(body);
            assert!(
                matches!(
                    Message::decode(&payload),
                    Err(FrameError::Malformed("unknown message type"))
                ),
                "type {ty}"
            );
        }
    }

    #[test]
    fn reject_reason_is_cut_to_what_a_frame_holds() {
        let reject = |reason: String| Message::Reply {
            req_id: 1,
            outcome: ReplyOutcome::Reject(reason),
        };
        // The longest reason that fits travels whole, in a payload of
        // exactly the cap.
        let fits = reject("x".repeat(MAX_REASON_LEN));
        let frame = encode_frame(&fits);
        assert_eq!(frame.len(), 8 + MAX_FRAME_LEN as usize);
        assert_eq!(decode_frame(&frame).unwrap().unwrap().0, fits);
        // One byte more — a three-byte char straddling the limit — is cut
        // back to the char boundary below it, never mid-char, never past
        // the cap.
        let over = reject("x".repeat(MAX_REASON_LEN - 1) + "€ and then some");
        let (decoded, _) = decode_frame(&encode_frame(&over)).unwrap().unwrap();
        assert_eq!(decoded, reject("x".repeat(MAX_REASON_LEN - 1)));
    }

    #[test]
    fn crc_flip_is_detected() {
        let mut frame = encode_frame(&Message::Ping { nonce: 1 });
        let last = frame.len() - 1;
        frame[last] ^= 0x40;
        assert!(matches!(decode_frame(&frame), Err(FrameError::Crc { .. })));
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut frame = Vec::new();
        put_u32(&mut frame, MAX_FRAME_LEN + 1);
        put_u32(&mut frame, 0);
        frame.extend_from_slice(&[0u8; 16]);
        assert!(matches!(decode_frame(&frame), Err(FrameError::TooLarge(_))));
    }

    #[test]
    fn incomplete_frame_asks_for_more() {
        let frame = encode_frame(&Message::Ping { nonce: 8 });
        for cut in 0..frame.len() {
            assert!(decode_frame(&frame[..cut]).unwrap().is_none(), "cut {cut}");
        }
    }

    #[test]
    fn trailing_payload_bytes_are_malformed() {
        let mut payload = Message::Ping { nonce: 1 }.encode();
        payload.push(0);
        assert!(matches!(
            Message::decode(&payload),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn reader_survives_byte_at_a_time_delivery() {
        struct Trickle {
            bytes: Vec<u8>,
            pos: usize,
        }
        impl Read for Trickle {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.pos >= self.bytes.len() {
                    return Ok(0);
                }
                out[0] = self.bytes[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut stream = Vec::new();
        stream.extend_from_slice(MAGIC);
        stream.extend_from_slice(&encode_frame(&Message::Ping { nonce: 7 }));
        stream.extend_from_slice(&encode_frame(&Message::Ping { nonce: 8 }));
        let mut reader = FrameReader::new(Trickle {
            bytes: stream,
            pos: 0,
        });
        assert_eq!(
            reader.read_message().unwrap(),
            Some(Message::Ping { nonce: 7 })
        );
        assert_eq!(
            reader.read_message().unwrap(),
            Some(Message::Ping { nonce: 8 })
        );
        assert_eq!(reader.read_message().unwrap(), None);
    }

    #[test]
    fn reader_resumes_across_timeouts_without_desync() {
        /// Delivers one byte per read, interleaving a timeout before each.
        struct Flaky {
            bytes: Vec<u8>,
            pos: usize,
            tick: bool,
        }
        impl Read for Flaky {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                self.tick = !self.tick;
                if self.tick {
                    return Err(std::io::Error::new(ErrorKind::WouldBlock, "tick"));
                }
                if self.pos >= self.bytes.len() {
                    return Ok(0);
                }
                out[0] = self.bytes[self.pos];
                self.pos += 1;
                Ok(1)
            }
        }
        let mut stream = Vec::new();
        stream.extend_from_slice(MAGIC);
        stream.extend_from_slice(&encode_frame(&Message::Classify {
            req_id: 1,
            address: 2,
        }));
        let mut reader = FrameReader::new(Flaky {
            bytes: stream,
            pos: 0,
            tick: false,
        });
        let mut timeouts = 0;
        let msg = loop {
            match reader.read_message() {
                Ok(Some(m)) => break m,
                Ok(None) => panic!("unexpected eof"),
                Err(e) if e.is_timeout() => timeouts += 1,
                Err(e) => panic!("unexpected error: {e}"),
            }
        };
        assert_eq!(
            msg,
            Message::Classify {
                req_id: 1,
                address: 2
            }
        );
        assert!(timeouts > 0, "flaky stream should have timed out");
    }

    #[test]
    fn truncated_stream_poisons_the_reader() {
        let mut stream = Vec::new();
        stream.extend_from_slice(MAGIC);
        let frame = encode_frame(&Message::Ping { nonce: 1 });
        stream.extend_from_slice(&frame[..frame.len() - 2]);
        let mut reader = FrameReader::new(&stream[..]);
        assert!(matches!(reader.read_message(), Err(FrameError::Truncated)));
        assert!(matches!(
            reader.read_message(),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut stream = Vec::new();
        stream.extend_from_slice(b"BJRNL v1"); // right length, wrong protocol
        stream.extend_from_slice(&encode_frame(&Message::Ping { nonce: 8 }));
        let mut reader = FrameReader::new(&stream[..]);
        assert!(matches!(reader.read_message(), Err(FrameError::BadMagic)));
    }
}
