//! Remote shard fleets: glue between `banet`'s transport and this crate's
//! routing and health machinery.
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
//!   [`RemoteShard`] connections to `addrs[i]` (worker `i` of N), with each
//!   lane's [`HealthSink`] wired to a shared [`ShardHealth`] board. The
//!   router's degraded routing then treats a dead TCP worker exactly like
//!   a dead in-process follower: requests for its addresses settle
//!   degraded through the fallback instead of hanging.
//!
//! The worker's `Pong` carries its processed-request count; the sink feeds
//! it to [`ShardHealth::beat`] as the progress figure, so staleness
//! detection ("up but wedged") works for remote workers too.

use crate::router::ShardRouter;
use crate::stream::ShardHealth;
use baclassifier::{ShardAssignment, ShardMap};
use banet::{HealthSink, RemoteShard, RemoteShardConfig};
use baserve::metrics::MetricsSnapshot;
use baserve::{Engine, Fallback, NetBackend, ShardLane, Ticket, WireError};
use btcsim::{Address, AddressRecord};
use std::collections::HashMap;
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

    fn processed(&self) -> u64 {
        self.engine.processed()
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

    fn processed(&self) -> u64 {
        self.router.processed()
    }
}

/// A [`HealthSink`] that drives slot `shard` of a [`ShardHealth`] board.
pub fn health_sink_for(health: Arc<ShardHealth>, shard: u32) -> HealthSink {
    let mark_board = Arc::clone(&health);
    HealthSink {
        mark: Arc::new(move |up| {
            if up {
                mark_board.mark_up(shard);
            } else {
                mark_board.mark_down(shard);
            }
        }),
        beat: Arc::new(move |processed| {
            // The worker's processed count is this lane's progress figure;
            // the board's staleness check treats it like a follower's
            // next-height watermark.
            health.beat(shard, processed);
        }),
    }
}

/// Build a router over remote workers: lane `i` connects to `addrs[i]`,
/// which must be the worker serving shard `i` of `addrs.len()` (enforced
/// by the layout handshake — a swapped pair of addresses refuses to
/// connect rather than misroute).
///
/// Returns the router (health board already attached) and the board
/// itself, which starts all-down; lanes mark their slots up as their
/// connections establish. `ShardRouter::shutdown` closes every
/// connection.
pub fn remote_router(
    addrs: &[String],
    base: RemoteShardConfig,
    fallback: Option<Arc<dyn Fallback>>,
) -> (ShardRouter, Arc<ShardHealth>) {
    assert!(
        !addrs.is_empty(),
        "a remote fleet needs at least one worker"
    );
    let count = addrs.len() as u32;
    // Board slots start down; each lane marks its slot up when its
    // handshake lands.
    let health = Arc::new(ShardHealth::new(count));
    let lanes: Vec<Box<dyn ShardLane>> = addrs
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
            let sink = health_sink_for(Arc::clone(&health), i as u32);
            Box::new(RemoteShard::connect(addr, config, sink)) as Box<dyn ShardLane>
        })
        .collect();
    let mut router = ShardRouter::from_lanes(lanes, fallback);
    router.attach_health(Arc::clone(&health));
    (router, health)
}

/// Block until every shard slot on `health` is up, or `timeout` elapses.
/// Returns whether the whole fleet converged.
pub fn wait_fleet_up(health: &ShardHealth, timeout: Duration) -> bool {
    let start = std::time::Instant::now();
    loop {
        let all_up = (0..health.count()).all(|i| health.is_up(i));
        if all_up {
            return true;
        }
        if start.elapsed() >= timeout {
            return false;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}
