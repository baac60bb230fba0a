//! Sharding acceptance: N shared-nothing shards must be indistinguishable
//! — byte for byte — from the single follower and single engine they
//! replace.
//!
//! Three properties:
//!
//! 1. **Stream identity** — a `ShardedFollower` at counts 1, 2, and 4
//!    drains the same chain as an unsharded `Follower`; the followers it
//!    hands back own disjoint addresses, and their label tables, histories
//!    and embedding bytes union to the unsharded state exactly.
//! 2. **Durable restart** — snapshot every shard mid-stream, restore all
//!    of them in fresh workers, resume over the remaining blocks (with an
//!    overlapping prefix): the shards' tip state is byte-identical to a
//!    follower that never stopped, at every shard count.
//! 3. **Serve identity** — a `ShardRouter` answers every classification
//!    with the same label as a single engine over the same artifact, with
//!    responses merged back in request order.

use baclassifier::{BacConfig, ModelArtifact};
use baserve::{Engine, EngineConfig};
use bashard::{shard_snapshot_path, ShardRouter, ShardedFollower};
use bstream::{BlockFeed, Follower, FollowerConfig};
use btcsim::{Block, BlockCursor, Dataset, SimConfig, Simulator};
use integration_tests::assert_shards_match;
use std::sync::Arc;
use std::time::Duration;

/// Stall timeout for `ShardedFollower::follow`; a pre-recorded feed closes
/// long before it.
const STALL: Duration = Duration::from_secs(30);

fn sim_cfg(seed: u64, blocks: u64) -> SimConfig {
    SimConfig {
        blocks,
        ..SimConfig::tiny(seed)
    }
}

/// Reference state: an unsharded follower driven over `blocks` with a
/// final reclassification, plus its embedding bytes.
fn unsharded_tip(artifact: &ModelArtifact, blocks: &[Block]) -> Follower {
    let mut follower = Follower::new(artifact, FollowerConfig::default()).unwrap();
    for b in blocks {
        follower.step(b);
    }
    follower.reclassify_dirty();
    follower
}

#[test]
fn sharded_followers_union_to_the_unsharded_state() {
    let cfg = sim_cfg(211, 40);
    let blocks: Vec<Block> = BlockCursor::new(cfg).collect();
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let reference = unsharded_tip(&artifact, &blocks);
    assert!(reference.num_tracked() > 20, "sim too small");

    for shards in [1u32, 2, 4] {
        let sharded =
            ShardedFollower::recover(Arc::clone(&artifact), FollowerConfig::default(), shards)
                .unwrap();
        let feed = BlockFeed::from_blocks(blocks.clone());
        let followers = sharded.follow(&feed, STALL, 0).unwrap().followers;
        assert_eq!(followers.len(), shards as usize);
        assert_shards_match(&followers, &reference, true, &format!("{shards} shards"));
    }
}

#[test]
fn sharded_snapshot_restart_resume_is_byte_identical() {
    let cfg = sim_cfg(223, 36);
    let blocks: Vec<Block> = BlockCursor::new(cfg).collect();
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let reference = unsharded_tip(&artifact, &blocks);
    let split = blocks.len() / 2;

    for shards in [1u32, 2, 4] {
        let base = std::env::temp_dir().join(format!(
            "sharding_resume_{}_{shards}.bsnap",
            std::process::id()
        ));
        let follower_cfg = FollowerConfig {
            snapshot_path: Some(base.clone()),
            ..FollowerConfig::default()
        };

        // First half, then checkpoint every shard and tear the fleet down.
        let mut first =
            ShardedFollower::recover(Arc::clone(&artifact), follower_cfg.clone(), shards).unwrap();
        for b in &blocks[..split] {
            first.step(b.clone()).unwrap();
        }
        first.snapshot().unwrap();
        drop(first);
        for i in 0..shards {
            assert!(
                shard_snapshot_path(&base, i, shards).exists(),
                "shard {i} left no snapshot"
            );
        }

        // Fresh workers restore from their own files and resume over the
        // whole chain — the overlapping prefix must be skipped.
        let mut resumed =
            ShardedFollower::recover(Arc::clone(&artifact), follower_cfg, shards).unwrap();
        for b in &blocks {
            resumed.step(b.clone()).unwrap();
        }
        let followers = resumed.finish().unwrap();
        assert_eq!(followers.len(), shards as usize);
        assert_shards_match(
            &followers,
            &reference,
            false,
            &format!("{shards}-shard resume"),
        );
        for i in 0..shards {
            std::fs::remove_file(shard_snapshot_path(&base, i, shards)).ok();
        }
    }
}

#[test]
fn router_classifications_match_a_single_engine_in_request_order() {
    let cfg = sim_cfg(227, 30);
    let sim = Simulator::run_to_completion(cfg);
    let dataset = Dataset::from_simulator(&sim, 3);
    assert!(dataset.len() >= 10, "sim too small: {}", dataset.len());
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));

    let single = Engine::new(Arc::clone(&artifact), EngineConfig::default()).unwrap();
    let want: Vec<_> = dataset
        .records
        .iter()
        .map(|r| single.classify(r.clone()).unwrap().label)
        .collect();
    single.shutdown();

    for shards in [2u32, 4] {
        let router =
            ShardRouter::new(Arc::clone(&artifact), EngineConfig::default(), shards).unwrap();
        let responses = router.classify_batch(&dataset.records);
        assert_eq!(responses.len(), dataset.records.len());
        for (i, response) in responses.into_iter().enumerate() {
            let response = response.expect("batch submission within queue budget");
            assert_eq!(
                response.label, want[i],
                "{shards}-shard router diverged from the single engine at index {i}"
            );
        }
        let merged = router.metrics();
        assert_eq!(merged.submitted, dataset.records.len() as u64);
        assert_eq!(merged.terminal_total(), merged.submitted);
        router.shutdown();
    }
}
