//! The serving-side shard fan-out: N independent shard lanes behind one
//! submit/classify surface.
//!
//! A *lane* ([`baserve::ShardLane`]) is whatever answers for the
//! addresses one shard owns. The classic lane is a complete in-process
//! [`Engine`] — its own worker pool, queue, answer cache, and circuit
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
//! A lane that cannot serve — an engine whose breaker is open or whose
//! every worker retired, a remote lane with no connection — answers for
//! itself at once: an explicitly `degraded` response from its fallback,
//! or an error without one, counted in that lane's own metrics. The
//! router never asks whether a lane is up.

use baclassifier::{ArtifactError, ModelArtifact, ShardMap};
use baserve::{
    Engine, EngineConfig, EngineHooks, MetricsSnapshot, Response, ServeError, ShardLane, Ticket,
};
use btcsim::AddressRecord;
use std::sync::Arc;

/// N shared-nothing shard lanes behind one routing surface.
pub struct ShardRouter {
    map: ShardMap,
    lanes: Vec<Box<dyn ShardLane>>,
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
        let per_shard = config.for_shard(shards as usize);
        let lanes = (0..shards)
            .map(|_| {
                Engine::with_hooks(Arc::clone(&artifact), per_shard.clone(), hooks.clone())
                    .map(|e| Box::new(e) as Box<dyn ShardLane>)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_lanes(lanes))
    }

    /// Build a router over pre-built lanes — in-process engines, `banet`
    /// remote shards, or a mix. Lane `i` must answer for shard `i` of
    /// `lanes.len()` under the frozen partition hash (remote lanes enforce
    /// this in their layout handshake).
    pub fn from_lanes(lanes: Vec<Box<dyn ShardLane>>) -> Self {
        assert!(!lanes.is_empty(), "a router needs at least one lane");
        Self {
            map: ShardMap::new(lanes.len() as u32),
            lanes,
        }
    }

    pub fn shard_count(&self) -> u32 {
        self.map.count()
    }

    pub fn map(&self) -> ShardMap {
        self.map
    }

    /// Submit to the owning shard; the ticket settles like any engine
    /// ticket.
    pub fn submit(&self, record: AddressRecord) -> Result<Ticket, ServeError> {
        self.lanes[self.map.shard_of(record.address) as usize].submit(record)
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

    /// Fleet-wide metrics: the per-shard snapshots rolled up with
    /// [`MetricsSnapshot::merge`] (counters summed, quantiles recomputed
    /// from merged histograms).
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::merge(&self.per_shard_metrics())
    }

    /// One snapshot per lane, in shard order.
    pub fn per_shard_metrics(&self) -> Vec<MetricsSnapshot> {
        self.lanes.iter().map(|l| l.metrics()).collect()
    }

    /// Stop every shard lane, joining their workers.
    pub fn shutdown(self) {
        for lane in self.lanes {
            lane.shutdown_lane();
        }
    }
}
