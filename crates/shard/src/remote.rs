//! Remote shard fleets: glue between `banet`'s transport and this crate's
//! routing.
//!
//! `banet` deliberately knows nothing about `bashard` (the dependency runs
//! the other way), so the pieces that need both live here:
//!
//! * [`WorkerBackend`] — the `NetBackend` a shard *worker process* serves:
//!   one engine plus the frozen [`ShardMap`], rejecting any address the
//!   worker does not own. A frontend that somehow misroutes gets a loud
//!   `Reject`, not a silently-wrong answer from a foreign shard's engine.
//! * [`RouterBackend`] — the `NetBackend` over a whole [`ShardRouter`],
//!   whatever its lanes are. Every daemon front (stdin line session, BANET
//!   listener) serves one of these two.
//! * [`remote_router`] — build a [`ShardRouter`] whose lanes are
//!   [`RemoteShard`] connections to `addrs[i]` (worker `i` of N), each
//!   holding the fallback. A lane whose worker is down answers for itself,
//!   exactly like an engine whose workers all retired: requests for its
//!   addresses settle degraded through the fallback instead of hanging.

use crate::router::ShardRouter;
use baclassifier::{ShardAssignment, ShardMap};
use banet::{RemoteShard, RemoteShardConfig};
use baserve::metrics::{Metrics, MetricsSnapshot};
use baserve::{Engine, Fallback, NetBackend, ShardLane, Ticket, WireError};
use btcsim::{Address, AddressRecord};
use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Duration;

/// A known address's record, or the `Reject` every backend answers an
/// unknown id with.
fn lookup(by_id: &HashMap<u64, AddressRecord>, id: u64) -> Result<&AddressRecord, WireError> {
    by_id
        .get(&id)
        .ok_or_else(|| WireError::Reject(format!("no such address {id}")))
}

/// The backend a shard worker process serves over BANET: an engine that
/// answers **only** for the addresses its shard owns.
pub struct WorkerBackend {
    engine: Engine,
    by_id: HashMap<u64, AddressRecord>,
    map: ShardMap,
    shard: u32,
}

impl WorkerBackend {
    /// `by_id` may be the full dataset; ownership is enforced per request,
    /// so workers can share one dataset-building path with the frontends.
    pub fn new(
        engine: Engine,
        by_id: HashMap<u64, AddressRecord>,
        assignment: ShardAssignment,
    ) -> Self {
        WorkerBackend {
            engine,
            by_id,
            map: ShardMap::new(assignment.count),
            shard: assignment.index,
        }
    }

    pub fn engine(&self) -> &Engine {
        &self.engine
    }
}

impl NetBackend for WorkerBackend {
    fn submit(&self, id: u64) -> Result<Ticket, WireError> {
        let owner = self.map.shard_of(Address(id));
        if owner != self.shard {
            return Err(WireError::Reject(format!(
                "address {id} belongs to shard {owner}, this worker serves shard {}",
                self.shard
            )));
        }
        let record = lookup(&self.by_id, id)?;
        self.engine.submit(record.clone()).map_err(WireError::Serve)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.engine.metrics()
    }
}

/// The backend a *frontend* exposes: the whole router — over in-process
/// or remote lanes — behind the stdin line session, or behind one
/// listening socket for BANET clients (e.g. `baserve-loadgen --connect`).
pub struct RouterBackend {
    router: ShardRouter,
    by_id: HashMap<u64, AddressRecord>,
}

impl RouterBackend {
    pub fn new(router: ShardRouter, by_id: HashMap<u64, AddressRecord>) -> Self {
        RouterBackend { router, by_id }
    }
}

impl NetBackend for RouterBackend {
    fn submit(&self, id: u64) -> Result<Ticket, WireError> {
        let record = lookup(&self.by_id, id)?;
        self.router.submit(record.clone()).map_err(WireError::Serve)
    }

    fn metrics(&self) -> MetricsSnapshot {
        self.router.metrics()
    }

    fn per_shard_metrics(&self) -> Vec<MetricsSnapshot> {
        self.router.per_shard_metrics()
    }
}

/// Build a router over remote workers: lane `i` connects to `addrs[i]`,
/// which must be the worker serving shard `i` of `addrs.len()` (enforced
/// by the layout handshake — a swapped pair of addresses refuses to
/// connect rather than misroute). Every lane answers from `fallback`
/// while its worker is unreachable.
///
/// Returns the router and, in shard order, each lane's own counters (the
/// `Arc` its lane thread writes): a read-only view whose
/// `connections_open` is 1 exactly while that lane is connected. Each lane
/// dials once before this returns, so a worker that is already up is
/// usually connected by then; `ShardRouter::shutdown` closes every
/// connection.
pub fn remote_router(
    addrs: &[String],
    base: RemoteShardConfig,
    fallback: Option<Arc<Fallback>>,
) -> (ShardRouter, Vec<Arc<Metrics>>) {
    assert!(
        !addrs.is_empty(),
        "a remote fleet needs at least one worker"
    );
    let count = addrs.len() as u32;
    let mut counters = Vec::with_capacity(addrs.len());
    let lanes = addrs
        .iter()
        .enumerate()
        .map(|(i, addr)| {
            let config = RemoteShardConfig {
                expect: Some(ShardAssignment {
                    index: i as u32,
                    count,
                }),
                ..base.clone()
            };
            let lane = RemoteShard::connect(addr, config, fallback.clone());
            counters.push(lane.counters());
            Box::new(lane) as Box<dyn ShardLane>
        })
        .collect();
    (ShardRouter::from_lanes(lanes), counters)
}

/// Block until every lane in `lanes` (as [`remote_router`] returns them) is
/// connected, or `timeout` elapses. Returns whether the whole fleet
/// converged.
pub fn wait_fleet_up(lanes: &[Arc<Metrics>], timeout: Duration) -> bool {
    let start = std::time::Instant::now();
    loop {
        if lanes.iter().all(|m| m.connections_open.load(Relaxed) > 0) {
            return true;
        }
        if start.elapsed() >= timeout {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}
