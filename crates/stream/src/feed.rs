//! The bounded block channel between a chain producer and the follower,
//! with a watermark tracking how far behind the tip the consumer runs.
//!
//! Backpressure is structural: the producer thread mines lazily through a
//! [`BlockCursor`] and delivers over a bounded `sync_channel`, so when the
//! follower falls behind, `send` blocks and the producer simply stops
//! mining ahead — the feed can never buffer more than `capacity` blocks.

use btcsim::{Block, BlockCursor, SimConfig};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The upstream producer stopped delivering blocks: nothing arrived for
/// the stall window while the channel stayed open. Carries the watermark
/// evidence so the operator sees *where* the pipeline stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedStalled {
    /// Blocks the producer had delivered when the stall was declared.
    pub produced: u64,
    /// How long the producer watermark had been silent.
    pub stalled_for: Duration,
}

impl std::fmt::Display for FeedStalled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "block feed stalled: producer silent for {:?} after {} blocks",
            self.stalled_for, self.produced
        )
    }
}

impl std::error::Error for FeedStalled {}

/// Why [`BlockFeed::recv_stalled`] has no block to hand out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FeedError {
    /// Nothing arrived for the wait while the channel stayed open.
    Stalled(FeedStalled),
    /// The producer thread panicked; carries its panic message.
    ProducerDied(String),
}

impl std::fmt::Display for FeedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FeedError::Stalled(stall) => stall.fmt(f),
            FeedError::ProducerDied(why) => write!(f, "block producer died: {why}"),
        }
    }
}

impl std::error::Error for FeedError {}

/// Producer handle of a [`BlockFeed::manual`] feed: sends record the
/// produced watermark exactly like the internal simulation producer.
pub struct FeedSender {
    tx: SyncSender<Block>,
    watermark: Arc<Watermark>,
}

impl FeedSender {
    /// Deliver one block; `Err` when the consumer hung up. The produced
    /// watermark is stamped before the (possibly blocking) send, matching
    /// the simulation producer.
    pub fn send(&self, block: Block) -> Result<(), Block> {
        self.watermark.record_produced(block.height);
        self.tx.send(block).map_err(|mpsc::SendError(b)| b)
    }
}

/// Produced/processed progress shared between the two ends of a feed.
///
/// Counts are *blocks*, not heights: a value of `n` means blocks at heights
/// `< n` are covered. The producer's timestamp records when it last
/// delivered, which is what tells a stalled producer
/// ([`BlockFeed::recv_stalled`]) from a slow consumer.
pub struct Watermark {
    epoch: Instant,
    produced: AtomicU64,
    processed: AtomicU64,
    produced_at_us: AtomicU64,
}

impl Watermark {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            produced: AtomicU64::new(0),
            processed: AtomicU64::new(0),
            produced_at_us: AtomicU64::new(0),
        }
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// The producer delivered the block at `height`.
    pub fn record_produced(&self, height: u64) {
        self.produced.fetch_max(height + 1, Relaxed);
        self.produced_at_us.store(self.now_us(), Relaxed);
    }

    /// The consumer finished processing the block at `height`.
    pub fn record_processed(&self, height: u64) {
        self.processed.fetch_max(height + 1, Relaxed);
    }

    /// Blocks produced so far (tip height + 1).
    pub fn produced(&self) -> u64 {
        self.produced.load(Relaxed)
    }

    /// Blocks fully processed so far.
    pub fn processed(&self) -> u64 {
        self.processed.load(Relaxed)
    }

    /// Blocks behind the tip: produced − processed.
    pub fn lag(&self) -> u64 {
        self.produced().saturating_sub(self.processed())
    }

    /// Time since the producer last delivered a block.
    pub fn produced_age(&self) -> Duration {
        Duration::from_micros(
            self.now_us()
                .saturating_sub(self.produced_at_us.load(Relaxed)),
        )
    }
}

impl Default for Watermark {
    fn default() -> Self {
        Self::new()
    }
}

/// A stream of blocks in height order, backed either by a live producer
/// thread mining a simulation or by a pre-recorded block list (tests).
pub struct BlockFeed {
    rx: Option<Receiver<Block>>,
    watermark: Arc<Watermark>,
    producer: Cell<Option<JoinHandle<()>>>,
}

impl BlockFeed {
    /// Follow the chain of `cfg` from height `start`, mining in a producer
    /// thread and delivering through a channel bounded at `capacity`
    /// blocks. The producer stops as soon as the feed is dropped.
    pub fn follow_sim(cfg: SimConfig, start: u64, capacity: usize) -> Self {
        let watermark = Arc::new(Watermark::new());
        let (tx, rx) = mpsc::sync_channel(capacity.max(1));
        let wm = Arc::clone(&watermark);
        let producer = std::thread::Builder::new()
            .name("bstream-producer".into())
            .spawn(move || {
                let mut cursor = BlockCursor::new(cfg);
                cursor.seek(start);
                while let Some(block) = cursor.next_block() {
                    wm.record_produced(block.height);
                    if tx.send(block).is_err() {
                        return; // consumer hung up; stop mining
                    }
                }
            })
            .expect("spawn block producer");
        Self {
            rx: Some(rx),
            watermark,
            producer: Cell::new(Some(producer)),
        }
    }

    /// A feed over pre-recorded blocks (deterministic tests; no thread).
    pub fn from_blocks(blocks: Vec<Block>) -> Self {
        let watermark = Arc::new(Watermark::new());
        let (tx, rx) = mpsc::sync_channel(blocks.len().max(1));
        for b in blocks {
            watermark.record_produced(b.height);
            tx.send(b).expect("channel sized to hold every block");
        }
        Self {
            rx: Some(rx),
            watermark,
            producer: Cell::new(None),
        }
    }

    /// A feed whose producer is external code holding the returned
    /// [`FeedSender`] — the shape tests use to model an upstream that can
    /// die or wedge.
    pub fn manual(capacity: usize) -> (FeedSender, Self) {
        let watermark = Arc::new(Watermark::new());
        let (tx, rx) = mpsc::sync_channel(capacity.max(1));
        let sender = FeedSender {
            tx,
            watermark: Arc::clone(&watermark),
        };
        (
            sender,
            Self {
                rx: Some(rx),
                watermark,
                producer: Cell::new(None),
            },
        )
    }

    pub fn watermark(&self) -> &Arc<Watermark> {
        &self.watermark
    }

    /// Next block, blocking; `None` once the producer is done.
    pub fn recv(&self) -> Option<Block> {
        self.rx.as_ref().and_then(|rx| rx.recv().ok())
    }

    /// Next block, waiting at most `wait`: `Ok(Some(_))` on a block,
    /// `Ok(None)` when the producer finished cleanly (channel closed),
    /// [`FeedError::ProducerDied`] when the channel closed because the
    /// producer thread panicked (joined here, so reported once), and
    /// [`FeedError::Stalled`] when the channel is still open but nothing
    /// arrived — a dead or wedged upstream surfaces as an error instead of
    /// blocking `recv` forever. A consumer that has other things to poll
    /// waits in short slices and gives up once `stalled_for` (how long the
    /// producer watermark has been silent) passes its own limit.
    pub fn recv_stalled(&self, wait: Duration) -> Result<Option<Block>, FeedError> {
        let Some(rx) = &self.rx else { return Ok(None) };
        match rx.recv_timeout(wait) {
            Ok(block) => Ok(Some(block)),
            Err(RecvTimeoutError::Disconnected) => match self.producer.take().map(|h| h.join()) {
                Some(Err(panic)) => Err(FeedError::ProducerDied(panic_message(&*panic))),
                _ => Ok(None),
            },
            Err(RecvTimeoutError::Timeout) => Err(FeedError::Stalled(FeedStalled {
                produced: self.watermark.produced(),
                stalled_for: self.watermark.produced_age().max(wait),
            })),
        }
    }
}

impl Drop for BlockFeed {
    fn drop(&mut self) {
        // Unblock a producer stuck in `send`, then reap it.
        drop(self.rx.take());
        if let Some(h) = self.producer.take() {
            h.join().ok();
        }
    }
}

/// The text a panic was raised with, or a placeholder for a non-string
/// payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64, blocks: u64) -> SimConfig {
        SimConfig {
            blocks,
            ..SimConfig::tiny(seed)
        }
    }

    #[test]
    fn feed_delivers_full_chain_in_order() {
        let feed = BlockFeed::follow_sim(tiny(3, 20), 0, 4);
        let mut heights = Vec::new();
        while let Some(b) = feed.recv() {
            feed.watermark().record_processed(b.height);
            heights.push(b.height);
        }
        assert_eq!(heights, (0..=20).collect::<Vec<u64>>());
        assert_eq!(feed.watermark().lag(), 0);
        assert_eq!(feed.watermark().processed(), 21);
    }

    #[test]
    fn capacity_bounds_producer_runahead() {
        let feed = BlockFeed::follow_sim(tiny(5, 30), 0, 2);
        // Let the producer run into the bound, consuming nothing.
        let first = feed.recv().unwrap();
        std::thread::sleep(Duration::from_millis(50));
        // At most: 1 received + 2 buffered + 1 blocked in send.
        assert!(
            feed.watermark().produced() <= 4,
            "producer ran ahead: {}",
            feed.watermark().produced()
        );
        assert_eq!(first.height, 0);
        assert!(feed.watermark().lag() >= 1);
    }

    #[test]
    fn feed_resumes_from_start_height() {
        let all: Vec<Block> = btcsim::BlockCursor::new(tiny(7, 12)).collect();
        let feed = BlockFeed::follow_sim(tiny(7, 12), 5, 8);
        let mut got = Vec::new();
        while let Some(b) = feed.recv() {
            got.push(b);
        }
        assert_eq!(got, all[5..]);
    }

    #[test]
    fn dropping_feed_stops_producer() {
        let feed = BlockFeed::follow_sim(tiny(2, 500), 0, 1);
        feed.recv().unwrap();
        drop(feed); // must not hang on the blocked producer
    }

    #[test]
    fn from_blocks_replays_exactly() {
        let blocks: Vec<Block> = btcsim::BlockCursor::new(tiny(9, 6)).collect();
        let feed = BlockFeed::from_blocks(blocks.clone());
        let mut got = Vec::new();
        while let Some(b) = feed.recv() {
            got.push(b);
        }
        assert_eq!(got, blocks);
        assert_eq!(feed.watermark().produced(), 7);
    }

    #[test]
    fn dead_producer_surfaces_as_a_stall_not_a_hang() {
        let (sender, feed) = BlockFeed::manual(4);
        let blocks: Vec<Block> = btcsim::BlockCursor::new(tiny(11, 3)).collect();
        sender.send(blocks[0].clone()).unwrap();
        assert_eq!(
            feed.recv_stalled(Duration::from_millis(200)).unwrap(),
            Some(blocks[0].clone())
        );
        // The producer is now wedged (alive — the sender is not dropped —
        // but silent): recv_stalled must return the stall error, with the
        // watermark evidence, instead of blocking.
        let Err(FeedError::Stalled(err)) = feed.recv_stalled(Duration::from_millis(30)) else {
            panic!("silent producer must stall out");
        };
        assert_eq!(err.produced, 1);
        assert!(err.stalled_for >= Duration::from_millis(30));
        assert!(err.to_string().contains("stalled"));
        // A clean EOF is not a stall.
        sender.send(blocks[1].clone()).unwrap();
        drop(sender);
        assert!(feed
            .recv_stalled(Duration::from_millis(30))
            .unwrap()
            .is_some());
        assert_eq!(feed.recv_stalled(Duration::from_millis(30)).unwrap(), None);
    }

    #[test]
    fn panicking_producer_is_an_error_not_a_drained_feed() {
        let mut cfg = tiny(17, 5);
        cfg.retail.num_users = 0; // the simulator refuses this on the producer thread
        let feed = BlockFeed::follow_sim(cfg, 0, 4);
        let err = feed
            .recv_stalled(Duration::from_secs(10))
            .expect_err("a dead producer is not a drained feed");
        let msg = err.to_string();
        assert!(
            msg.contains("block producer died") && msg.contains("retail.num_users"),
            "{msg}"
        );
    }

    #[test]
    fn manual_feed_records_produced_watermark() {
        let (sender, feed) = BlockFeed::manual(8);
        for b in btcsim::BlockCursor::new(tiny(13, 5)) {
            sender.send(b).unwrap();
        }
        assert_eq!(feed.watermark().produced(), 6);
        drop(feed);
        // Consumer hung up: the next send reports it.
        let extra: Vec<Block> = btcsim::BlockCursor::new(tiny(13, 1)).collect();
        assert!(sender.send(extra[0].clone()).is_err());
    }

    #[test]
    fn watermark_stage_timestamps_advance() {
        let wm = Watermark::new();
        wm.record_produced(0);
        std::thread::sleep(Duration::from_millis(5));
        wm.record_processed(0);
        assert!(wm.produced_age() >= Duration::from_millis(5));
        assert_eq!(wm.lag(), 0);
    }
}
