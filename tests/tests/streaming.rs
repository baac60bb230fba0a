//! Streaming acceptance: the `bstream` follower against the batch pipeline.
//!
//! Three properties:
//!
//! 1. **Convergence** — after draining a live feed to the tip, the
//!    follower's label table matches, address for address, what the batch
//!    pipeline (`Dataset::from_chain` + `BaClassifier::predict`) computes
//!    on the finished chain. Incremental maintenance is an optimization,
//!    never an approximation.
//! 2. **Durability** — snapshot mid-stream, restore in a fresh process
//!    image, resume over the remaining blocks: the restored follower ends
//!    byte-equal (labels, histories, heights) to one that never stopped.
//! 3. **Batched determinism** — the micro-batched reclassification stage
//!    produces labels and cached embeddings byte-identical to the serial
//!    per-address path at any `reclass_threads`, and one cadence tick
//!    re-embeds an address once no matter how many times it flipped dirty
//!    since the last tick.

use baclassifier::{BaClassifier, BacConfig, ModelArtifact};
use bstream::{BlockFeed, Follower, FollowerConfig};
use btcsim::{Block, BlockCursor, Dataset, SimConfig, Simulator};
use std::sync::Arc;

fn sim_cfg(seed: u64, blocks: u64) -> SimConfig {
    SimConfig {
        blocks,
        ..SimConfig::tiny(seed)
    }
}

/// Step every block of `feed`, then bring the label table current at the
/// tip — all a follower with no disk under it needs from a driver.
fn drain(follower: &mut Follower, feed: &BlockFeed) {
    while let Some(block) = feed.recv() {
        follower.step(&block);
        feed.watermark().record_processed(block.height);
    }
    follower.reclassify_dirty();
}

#[test]
fn streaming_labels_converge_to_batch_pipeline_at_tip() {
    let cfg = sim_cfg(101, 40);
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));

    let mut follower = Follower::new(&artifact, FollowerConfig::default()).unwrap();
    let feed = BlockFeed::follow_sim(cfg.clone(), 0, 8);
    drain(&mut follower, &feed);
    assert_eq!(feed.watermark().lag(), 0, "the feed is drained to the tip");
    assert_eq!(follower.next_height(), cfg.blocks + 1);

    // The batch side: same chain, same weights, from-scratch construction.
    let sim = Simulator::run_to_completion(cfg);
    let ds = Dataset::from_simulator(&sim, 3);
    let clf = BaClassifier::from_artifact(&artifact).unwrap();
    assert!(
        ds.len() >= 10,
        "sim too small to be meaningful: {}",
        ds.len()
    );
    for record in &ds.records {
        let batch = clf.predict(record).unwrap();
        assert_eq!(
            follower.labels().get(&record.address),
            Some(&batch),
            "streaming label diverged from batch for {:?} ({} txs)",
            record.address,
            record.txs.len()
        );
    }
    // The follower also labels classifiable addresses outside the label
    // map (it cannot know ground truth), so its table is a superset.
    assert!(follower.labels().len() >= ds.len());
}

#[test]
fn snapshot_restart_resume_reaches_the_continuous_state() {
    let cfg = sim_cfg(103, 36);
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let blocks: Vec<Block> = BlockCursor::new(cfg).collect();
    let split = 18;

    let mut continuous = Follower::new(&artifact, FollowerConfig::default()).unwrap();
    for b in &blocks {
        continuous.step(b);
    }
    continuous.reclassify_dirty();

    let snap = std::env::temp_dir().join(format!(
        "streaming_resume_{}_{:?}.bsnap",
        std::process::id(),
        std::thread::current().id()
    ));
    let mut first = Follower::new(&artifact, FollowerConfig::default()).unwrap();
    for b in &blocks[..split] {
        first.step(b);
    }
    first.snapshot_to(&snap).unwrap();
    drop(first); // "restart": only the snapshot file survives

    let mut resumed = Follower::restore(&artifact, FollowerConfig::default(), &snap).unwrap();
    std::fs::remove_file(&snap).ok();
    assert_eq!(resumed.next_height(), split as u64);
    // Resume over a feed that replays the tail of the chain.
    let feed = BlockFeed::from_blocks(blocks[split..].to_vec());
    drain(&mut resumed, &feed);

    assert_eq!(resumed.labels(), continuous.labels());
    assert_eq!(resumed.next_height(), continuous.next_height());
    assert_eq!(resumed.num_tracked(), continuous.num_tracked());
    for record in
        &Dataset::from_simulator(&Simulator::run_to_completion(sim_cfg(103, 36)), 1).records
    {
        assert_eq!(
            resumed.history_len(record.address),
            record.txs.len(),
            "history length after resume for {:?}",
            record.address
        );
    }
}

#[test]
fn batched_reclassification_matches_serial_at_any_thread_count() {
    let cfg = sim_cfg(113, 30);
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let blocks: Vec<Block> = BlockCursor::new(cfg).collect();

    let mut serial = Follower::new(
        &artifact,
        FollowerConfig {
            reclass_threads: 1,
            ..FollowerConfig::default()
        },
    )
    .unwrap();
    let mut batched = Follower::new(
        &artifact,
        FollowerConfig {
            reclass_threads: 4,
            ..FollowerConfig::default()
        },
    )
    .unwrap();
    for b in &blocks {
        serial.step(b);
        batched.step(b);
    }
    serial.reclassify_dirty();
    batched.reclassify_dirty();

    assert_eq!(
        serial.labels(),
        batched.labels(),
        "labels must not depend on reclass_threads"
    );
    assert_eq!(serial.history_lens(), batched.history_lens());
    for addr in serial.history_lens().into_keys() {
        let embeds = serial.embeddings(addr).expect("tracked");
        let other = batched.embeddings(addr).expect("tracked by both");
        assert_eq!(embeds.len(), other.len(), "embedding count for {addr:?}");
        for (x, y) in embeds.iter().zip(other) {
            assert_eq!(
                x.as_slice(),
                y.as_slice(),
                "embedding bytes diverged for {addr:?}"
            );
        }
    }
}

#[test]
fn cadence_tick_coalesces_repeated_flips_into_one_reembed() {
    let cfg = sim_cfg(127, 30);
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    // Disable the automatic cadence so every tick is explicit.
    let mut follower = Follower::new(
        &artifact,
        FollowerConfig {
            reclass_every: 0,
            min_txs: 1,
            ..FollowerConfig::default()
        },
    )
    .unwrap();
    for block in BlockCursor::new(cfg) {
        follower.step(&block);
    }

    let m = follower.metrics();
    assert_eq!(m.reclassifications, 0, "no tick fired during ingest");
    let tracked = follower.num_tracked() as u64;
    assert!(
        m.tx_applications > tracked,
        "chain too quiet: every address was touched at most once"
    );
    // Every touch past an address's first while it sat dirty is a
    // coalesced flip — the level-triggered dirty bit absorbs it.
    assert_eq!(m.coalesced_flips, m.tx_applications - tracked);

    // One explicit tick: each dirty address is re-embedded exactly once,
    // no matter how many transactions touched it since the last tick.
    let reclassified = follower.reclassify_dirty();
    assert_eq!(reclassified, follower.num_tracked());
    let m = follower.metrics();
    assert_eq!(m.reclassifications, tracked);
    assert!(
        m.reclassifications < m.tx_applications,
        "coalescing must re-embed fewer times than the per-tx worst case"
    );
    assert!(m.reclass_batches >= 1);
    assert_eq!(m.reclass_batch_addrs, tracked);

    // A second tick with nothing new is a no-op.
    assert_eq!(follower.reclassify_dirty(), 0);
    assert_eq!(follower.metrics().reclassifications, tracked);
}
