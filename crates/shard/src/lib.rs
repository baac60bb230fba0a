//! # bashard — shared-nothing address sharding for serving and streaming
//!
//! The single-process ceiling of `baserve` (one engine) and `bstream` (one
//! follower holding every address's state) falls to a simple observation:
//! **per-address state never crosses addresses** anywhere in this
//! codebase. Histories, incremental graphs, embeddings, and labels are all
//! keyed by one address and computed from that address's transactions
//! alone, so partitioning the address universe partitions the whole
//! workload — and because each address's computation is untouched, an
//! N-shard system is *byte-identical* to the 1-shard system.
//!
//! ```text
//!               ShardMap (frozen hash, baclassifier::shard)
//!                     │ owns: addr → shard
//!        ┌────────────┼────────────────────────┐
//!   serve▼            ▼stream                  ▼snapshots
//!  ShardRouter    ShardedFollower         one BSTREAM file per
//!  Engine ×N      Follower thread ×N      shard, its layout in
//!  fan-out +      block broadcast +       the header; restart,
//!  in-order merge per-shard filter        rebalance per shard
//! ```
//!
//! Three pieces:
//!
//! * [`ShardMap`] / [`ShardAssignment`] (re-exported from
//!   `baclassifier::shard`): the frozen, platform-independent address-id →
//!   shard hash, versioned and persisted in every sharded snapshot.
//! * [`ShardRouter`]: N independent serve [`baserve::Engine`]s splitting
//!   one resource budget; requests route to the owning shard and batch
//!   responses merge back in request order.
//! * [`ShardedFollower`]: N shared-nothing follower threads consuming one
//!   broadcast [`bstream::BlockFeed`], each filtering to its owned
//!   addresses and checkpointing to its own snapshot for independent
//!   restart; the driver owns the write-ahead journal, the snapshot
//!   cadence, supervision and the one follow loop.
//!
//! The `basharded` binary serves the `baserve::protocol` line protocol
//! over a router, or with `--follow` runs the follower fleet;
//! `tests/tests/sharding.rs` asserts the N-vs-1
//! byte-identity end to end, and `bacbench` reports `shard.route_ns_per_req`,
//! `shard.lane_skew` and `shard.batch_fill`.

pub mod rebalance;
pub mod remote;
pub mod router;
pub mod stream;

pub use baclassifier::{ShardAssignment, ShardMap, SHARD_HASH_VERSION};
pub use rebalance::{rebalance_snapshots, RebalanceError, RebalanceReport};
pub use remote::{remote_router, wait_fleet_up, RouterBackend, WorkerBackend};
pub use router::ShardRouter;
pub use stream::{shard_snapshot_path, FeedEnd, Followed, ShardStreamError, ShardedFollower};
