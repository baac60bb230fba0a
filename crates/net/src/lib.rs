//! # banet — the multi-process shard fleet transport
//!
//! `bashard` scales the serving engine across shards inside one process;
//! `banet` cuts the process boundary: shard workers become independent
//! processes reached over TCP, speaking a length-prefixed, CRC-framed
//! protocol (**BANET v2**) that carries the same requests and responses the
//! in-process stack uses.
//!
//! Three pieces:
//!
//! * [`frame`] — the wire format: `BANET v2` magic per direction, then
//!   `[len][crc32][payload]` frames (the journal's and snapshot's frame
//!   codec, `baclassifier::durable`, applied to a socket). Corruption of
//!   any kind decodes to a typed error, never a panic, and the incremental
//!   [`frame::FrameReader`] survives short reads and poll-tick timeouts
//!   without desyncing.
//! * [`server`] — [`server::NetServer`]: a bounded, deadline-enforcing TCP
//!   front over a [`server::NetBackend`] (an engine + dataset, or a shard
//!   worker). Stops on `stop()` or the process SIGINT flag only — nothing
//!   a peer sends stops it; sheds connections beyond 64;
//!   cuts peers whose frame does not complete within 5 s, however slowly
//!   its bytes trickle in.
//! * [`client`] — [`client::RemoteShard`]: a `baserve::ShardLane` backed by
//!   one multiplexed connection to a worker process, which one lane thread
//!   owns: fail-fast submits, client-side deadlines, exponential-backoff
//!   reconnect and pings; while disconnected it answers for itself from its
//!   fallback (or fails fast without one). Because it is a
//!   `ShardLane`, `bashard::ShardRouter` fans batches across remote
//!   workers with the exact same placement and merge order as in-process
//!   engines — responses stay byte-identical.
//!
//! The layout handshake ([`frame::handshake`], the same at both ends: each
//! side's first frame is a [`frame::Hello`]) refuses to pair endpoints
//! whose `SHARD_HASH_VERSION` or shard assignment disagree: a misconfigured
//! fleet fails loudly at connect time, not silently at routing time.

pub mod client;
pub mod frame;
pub mod server;

pub use client::{RemoteShard, RemoteShardConfig};
pub use frame::{FrameError, FrameReader, Hello, Message, ReplyOutcome, Role, MAX_FRAME_LEN};
pub use server::{NetBackend, NetServer, NetServerConfig, WireError};
