//! The serving-side shard fan-out: N independent shard lanes behind one
//! submit/classify surface.
//!
//! A *lane* ([`baserve::ShardLane`]) is whatever answers for the
//! addresses one shard owns. The classic lane is a complete in-process
//! [`Engine`] — its own worker pool, queue, embedding cache, and circuit
//! breaker — built over the *same* model artifact, so any shard computes
//! byte-identical answers for the addresses it owns. `banet` adds a
//! remote lane (`RemoteShard`) that forwards to a shard worker process
//! over TCP; [`ShardRouter::from_lanes`] accepts any mix. The router's
//! only job is placement: route each request to the owner under the
//! frozen [`ShardMap`], and when a caller hands over a whole batch, merge
//! the responses back **in request order** — submit in index order, wait
//! in index order, exactly the index-ordered reduction
//! `baclassifier::parallel` uses for gradient merging. Shards never talk
//! to each other; a slow or tripped shard degrades only its own
//! addresses.
//!
//! ## Degraded routing
//!
//! A router can be wired to a streaming fleet's [`ShardHealth`] board
//! (see [`ShardRouter::attach_health`]). While a shard's follower is down
//! — panicked and mid-respawn, or gone for good — requests for its
//! addresses do **not** hang on a queue nobody drains: they settle
//! immediately with an explicitly `degraded` response from the shared
//! fallback classifier, or with [`ServeError::WorkerFailed`] when no
//! fallback is installed. Healthy shards are untouched.

use crate::stream::ShardHealth;
use baclassifier::{ArtifactError, ModelArtifact, ShardMap};
use baserve::{
    Engine, EngineConfig, EngineHooks, Fallback, MetricsSnapshot, Response, ServeError, ShardLane,
    Ticket,
};
use btcsim::{Address, AddressRecord};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// N shared-nothing shard lanes behind one routing surface.
pub struct ShardRouter {
    map: ShardMap,
    lanes: Vec<Box<dyn ShardLane>>,
    /// The same fallback the engines use for breaker-open degradation,
    /// kept by the router to answer for *downed* shards.
    fallback: Option<Arc<dyn Fallback>>,
    /// Liveness board published by the streaming fleet; `None` routes
    /// everything normally.
    health: Option<Arc<ShardHealth>>,
    /// Requests answered degraded (or failed) because the owning shard
    /// was down.
    degraded_routed: AtomicU64,
}

impl ShardRouter {
    /// Build `shards` engines over one artifact. `config` is the *total*
    /// resource budget: each engine gets [`EngineConfig::for_shard`]'s
    /// slice of it, so a 4-shard router and a 1-shard router cost the same
    /// in workers, queue slots, and cache entries.
    pub fn new(
        artifact: Arc<ModelArtifact>,
        config: EngineConfig,
        shards: u32,
    ) -> Result<Self, ArtifactError> {
        Self::with_hooks(artifact, config, EngineHooks::default(), shards)
    }

    /// As [`ShardRouter::new`], with every shard sharing the same hooks
    /// (fault plan, degraded-mode fallback).
    pub fn with_hooks(
        artifact: Arc<ModelArtifact>,
        config: EngineConfig,
        hooks: EngineHooks,
        shards: u32,
    ) -> Result<Self, ArtifactError> {
        let map = ShardMap::new(shards);
        let per_shard = config.for_shard(shards as usize);
        let fallback = hooks.fallback.clone();
        let lanes = (0..shards)
            .map(|_| {
                Engine::with_hooks(Arc::clone(&artifact), per_shard.clone(), hooks.clone())
                    .map(|e| Box::new(e) as Box<dyn ShardLane>)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            map,
            lanes,
            fallback,
            health: None,
            degraded_routed: AtomicU64::new(0),
        })
    }

    /// Build a router over pre-built lanes — in-process engines, `banet`
    /// remote shards, or a mix. Lane `i` must answer for shard `i` of
    /// `lanes.len()` under the frozen partition hash (remote lanes enforce
    /// this in their layout handshake). `fallback` answers for downed
    /// lanes when a health board is attached.
    pub fn from_lanes(lanes: Vec<Box<dyn ShardLane>>, fallback: Option<Arc<dyn Fallback>>) -> Self {
        assert!(!lanes.is_empty(), "a router needs at least one lane");
        Self {
            map: ShardMap::new(lanes.len() as u32),
            lanes,
            fallback,
            health: None,
            degraded_routed: AtomicU64::new(0),
        }
    }

    /// Wire this router to a streaming fleet's health board (shard counts
    /// must match): requests owned by a downed shard settle degraded
    /// instead of hanging.
    pub fn attach_health(&mut self, health: Arc<ShardHealth>) {
        assert_eq!(
            health.count(),
            self.map.count(),
            "health board shard count must match the router layout"
        );
        self.health = Some(health);
    }

    pub fn shard_count(&self) -> u32 {
        self.map.count()
    }

    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Requests answered via degraded routing (owning shard down) so far.
    pub fn degraded_routed(&self) -> u64 {
        self.degraded_routed.load(Ordering::Relaxed)
    }

    /// The lane owning `addr`.
    fn lane_for(&self, addr: Address) -> &dyn ShardLane {
        self.lanes[self.map.shard_of(addr) as usize].as_ref()
    }

    /// When the shard owning `record` is marked down, answer right now:
    /// a pre-settled degraded ticket from the fallback, or
    /// [`ServeError::WorkerFailed`] without one.
    fn route_degraded(&self, record: &AddressRecord) -> Option<Result<Ticket, ServeError>> {
        let health = self.health.as_ref()?;
        if health.is_up(self.map.shard_of(record.address)) {
            return None;
        }
        self.degraded_routed.fetch_add(1, Ordering::Relaxed);
        Some(match &self.fallback {
            Some(fallback) => {
                let started = Instant::now();
                let label = fallback.classify(record);
                Ok(Ticket::settled(Ok(Response {
                    label,
                    cache_hit: false,
                    degraded: true,
                    latency: started.elapsed(),
                })))
            }
            None => Err(ServeError::WorkerFailed),
        })
    }

    /// Submit to the owning shard; the ticket settles like any engine
    /// ticket. A downed shard's requests settle degraded immediately.
    pub fn submit(&self, record: AddressRecord) -> Result<Ticket, ServeError> {
        if let Some(answered) = self.route_degraded(&record) {
            return answered;
        }
        self.lane_for(record.address).submit(record)
    }

    /// Submit and wait — the one-call path.
    pub fn classify(&self, record: AddressRecord) -> Result<Response, ServeError> {
        self.submit(record)?.wait()
    }

    /// Fan a batch out to its owning shards and merge the responses back in
    /// request order: tickets are acquired in index order, then waited in
    /// index order, so `result[i]` always answers `records[i]` no matter
    /// which shard finished first.
    pub fn classify_batch(&self, records: &[AddressRecord]) -> Vec<Result<Response, ServeError>> {
        let tickets: Vec<Result<Ticket, ServeError>> =
            records.iter().map(|r| self.submit(r.clone())).collect();
        tickets
            .into_iter()
            .map(|t| t.and_then(|ticket| ticket.wait()))
            .collect()
    }

    /// Fleet-wide metrics: per-shard snapshots rolled up with
    /// [`MetricsSnapshot::merge`] (counters summed, quantiles recomputed
    /// from merged histograms).
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::merge(&self.per_shard_metrics())
    }

    /// One snapshot per shard, in shard order.
    pub fn per_shard_metrics(&self) -> Vec<MetricsSnapshot> {
        self.lanes.iter().map(|l| l.metrics()).collect()
    }

    /// Requests answered across every shard, read from the lanes' counters
    /// without snapshotting their histograms.
    pub fn processed(&self) -> u64 {
        self.lanes.iter().map(|l| l.processed()).sum()
    }

    /// Live workers across every shard.
    pub fn live_workers(&self) -> usize {
        self.lanes.iter().map(|l| l.live_workers()).sum()
    }

    /// Stop every shard lane, joining their workers.
    pub fn shutdown(self) {
        for lane in self.lanes {
            lane.shutdown_lane();
        }
    }
}
