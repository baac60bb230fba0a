//! # bstream — incremental chain-following ingestion with live reclassification
//!
//! The streaming counterpart to the batch pipeline: instead of extracting a
//! dataset from a finished chain and classifying it once, **bstream**
//! subscribes to blocks as they are mined and keeps a continuously updated
//! label table.
//!
//! ```text
//!  BlockCursor ──▶ BlockFeed (bounded channel) ──▶ Follower
//!  (producer          │  Watermark: produced /        │ per-address
//!   thread)           │  processed, lag, producer     │ history, open-slice
//!                     ▼  stamp                        ▼ graph, embeddings
//!                backpressure                  reclassify_dirty() ──▶ label table
//! ```
//!
//! These properties make live labels trustworthy:
//!
//! 1. **Byte-identity.** Per-address graphs are maintained by
//!    `IncrementalGraphs::apply_tx`, asserted bit-identical to the batch
//!    construction pipeline; histories are accumulated by
//!    `Transaction::participants`, the rule of the chain's address index. A follower's label at the tip is
//!    the label the batch pipeline would compute from the same chain.
//! 2. **Bounded lag.** The feed's channel is bounded, so a slow follower
//!    applies backpressure to the producer instead of buffering the chain;
//!    the [`feed::Watermark`] quantifies blocks-behind-tip at any moment.
//! 3. **Durability.** [`Follower::snapshot_to`] checkpoints histories,
//!    labels and margins atomically (rotating older generations aside);
//!    [`Follower::restore`] reads them back and resumes from the checkpoint
//!    height; the next reclassification rebuilds what derives from them.
//! 4. **Crash safety.** A [`Follower`] is pure state; the driver
//!    (`bashard::ShardedFollower`) appends every block to a checksummed
//!    write-ahead [`BlockJournal`] *before* any follower applies it, and is
//!    the journal's one reader: [`Follower::recover`] restores the newest
//!    valid snapshot generation (quarantining corrupt ones) and replays the
//!    tail the driver scanned, yielding state byte-identical to an
//!    uninterrupted run. Only [`recovery`] knows the generation files.
//! 5. **Timely labels.** Reclassification is micro-batched: each cadence
//!    tick coalesces every flip of an address into one unit of work, takes
//!    the dirty addresses in address order, and fans the batch's stale
//!    slice graphs (and then the capped embedding sequences) across
//!    `reclass_threads` workers that all read the follower's one model —
//!    byte-identical to the per-address serial path at any thread count.
//!
//! `basharded --follow` (`bashard::ShardedFollower::follow`) drives these
//! against a live simulation, at any shard count; `bacbench`'s
//! `follow_reclass` and `follow_ingest` workloads measure throughput,
//! reclassification cost and the `stream.*` journal, snapshot and restore
//! metrics, and `tests/tests/crash_recovery.rs` requires zero blocks lost.

pub mod feed;
pub mod follower;
pub mod journal;
pub mod metrics;
pub mod recovery;
pub mod snapshot;

pub use feed::{BlockFeed, FeedError, FeedSender, FeedStalled, Watermark};
pub use follower::{Follower, FollowerConfig};
pub use journal::{scan_journal, BlockJournal, JournalScan, TornFrame};
pub use metrics::StreamMetrics;
pub use recovery::{
    generation_path, oldest_retained_height, quarantine_path, SNAPSHOT_GENERATIONS,
};
pub use snapshot::{read_snapshot, snapshot_height, write_snapshot, Snapshot, SnapshotError};
