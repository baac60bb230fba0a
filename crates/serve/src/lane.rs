//! The two serving traits: [`ShardLane`], one slot in a shard fan-out
//! (record-addressed), and [`NetBackend`], the workspace's one
//! id-addressed request surface — what both daemon fronts (the stdin line
//! session in [`crate::session`] and `banet`'s TCP server) serve.
//!
//! A *lane* is whatever answers classification requests for the addresses
//! one shard owns. The in-process lane is an [`Engine`]; `banet` adds a
//! remote lane (`RemoteShard`) that forwards requests to a shard worker
//! process over TCP. `bashard::ShardRouter` routes over `Box<dyn
//! ShardLane>`, so a fleet of engines, a fleet of sockets, or a mix of
//! both all share the same placement and in-order batch-merge code path —
//! the byte-identity argument never changes. A lane that cannot serve
//! answers for itself (from its fallback, or with an error); the router
//! never asks whether a lane is up.
//!
//! Both traits live here (not in `bashard` or `banet`) because they only
//! name `baserve` types: below both crates, the remote lane can implement
//! `ShardLane` and the line session can take a `NetBackend` without a
//! dependency cycle. `banet::server` re-exports `NetBackend`/`WireError`.

use crate::engine::{Engine, ServeError, Ticket};
use crate::metrics::MetricsSnapshot;
use btcsim::AddressRecord;

/// One shard's serving surface: submit, observe, shut down.
pub trait ShardLane: Send + Sync {
    /// Enqueue one request under the lane's own deadline (the engine's
    /// `default_deadline`, a remote lane's 5 s `REQUEST_TIMEOUT`). Must fail
    /// fast (e.g. [`ServeError::QueueFull`]) instead of queueing
    /// unboundedly — per-lane admission is what keeps one slow shard from
    /// stalling the fleet — and must settle at once, degraded or failed,
    /// while the lane cannot serve.
    fn submit(&self, record: AddressRecord) -> Result<Ticket, ServeError>;

    /// Point-in-time service metrics for this lane.
    fn metrics(&self) -> MetricsSnapshot;

    /// Stop the lane, joining its threads. Consumes the lane; routers call
    /// this once per lane at fleet shutdown.
    fn shutdown_lane(self: Box<Self>);
}

impl ShardLane for Engine {
    fn submit(&self, record: AddressRecord) -> Result<Ticket, ServeError> {
        Engine::submit(self, record)
    }

    fn metrics(&self) -> MetricsSnapshot {
        Engine::metrics(self)
    }

    fn shutdown_lane(self: Box<Self>) {
        (*self).shutdown();
    }
}

/// Why a request could not be admitted to a [`NetBackend`].
pub enum WireError {
    /// Engine-level failure; travels as the matching BANET reply status or
    /// an `err <ServeError>` line.
    Serve(ServeError),
    /// Refused before any engine saw it (unknown address, shard ownership
    /// violation); travels as `Reject(reason)` or `err <reason>`.
    Reject(String),
}

/// What a daemon front serves: classification by simulator address id over
/// one engine, one shard's engine, or a whole router.
pub trait NetBackend: Send + Sync {
    /// Admit the request for simulator address `id`. Must fail fast.
    fn submit(&self, id: u64) -> Result<Ticket, WireError>;

    /// Point-in-time metrics (the fleet roll-up for a router).
    fn metrics(&self) -> MetricsSnapshot;

    /// The per-shard snapshots behind [`NetBackend::metrics`], in shard
    /// order — the line session's `metrics shard=i` lines. Empty for a
    /// backend that is a single engine.
    fn per_shard_metrics(&self) -> Vec<MetricsSnapshot> {
        Vec::new()
    }
}
