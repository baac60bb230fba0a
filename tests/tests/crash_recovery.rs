//! Crash-recovery acceptance: killing the ingestion pipeline mid-stream —
//! a panicking shard worker, a wedged one, or the whole fleet dropped on
//! the floor — must lose **zero** blocks and recover to state
//! byte-identical to an uninterrupted run.
//!
//! Six properties:
//!
//! 1. **Worker kill** — a scripted panic takes a shard down mid-ingest at
//!    shard counts 1 and 4; the supervisor respawns it from snapshot +
//!    journal and the shards' tip equals the unsharded reference. A shard
//!    that dies six times in a row is respawned five times, then reported
//!    gone; one that makes progress between deaths keeps being respawned.
//! 2. **Fleet crash** — the whole `ShardedFollower` is dropped without
//!    finishing; `ShardedFollower::recover` resumes from per-shard
//!    snapshots plus the shared journal tail, again byte-identical.
//! 3. **Corrupt snapshot fallback** — the crash left the newest snapshot
//!    generation corrupted: recovery quarantines it, restores the
//!    previous generation, and replays a longer journal tail to the same
//!    final state.
//! 4. **Compaction** — every periodic snapshot compacts the shared journal
//!    to the oldest retained generation over all shards, and a recovery
//!    forced onto that oldest generation still replays to the same tip.
//! 5. **Compaction failure** is counted and reported, never fatal.
//! 6. **Stall** — a producer that goes silent with the feed open ends the
//!    follow loop as a stall (exit code 3) after the final flush.

use baclassifier::{BacConfig, ModelArtifact};
use baserve::{FaultAction, FaultSpec, ScriptedFaultPlan};
use bashard::{shard_snapshot_path, FeedEnd, ShardStreamError, ShardedFollower};
use bstream::{quarantine_path, scan_journal, BlockFeed, Follower, FollowerConfig};
use btcsim::{Block, BlockCursor, SimConfig};
use integration_tests::assert_shards_match;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Stall timeout for `ShardedFollower::follow` over a pre-recorded feed,
/// which closes long before it.
const STALL: Duration = Duration::from_secs(30);

fn sim_blocks(seed: u64, blocks: u64) -> Vec<Block> {
    BlockCursor::new(SimConfig {
        blocks,
        ..SimConfig::tiny(seed)
    })
    .collect()
}

/// Reference state: an unsharded follower driven over `blocks` with a
/// final reclassification.
fn unsharded_tip(artifact: &ModelArtifact, blocks: &[Block]) -> Follower {
    let mut follower = Follower::new(artifact, FollowerConfig::default()).unwrap();
    for b in blocks {
        follower.step(b);
    }
    follower.reclassify_dirty();
    follower
}

struct Scratch {
    base: PathBuf,
    journal: PathBuf,
}

fn scratch(tag: &str) -> Scratch {
    let dir = std::env::temp_dir();
    let base = dir.join(format!("crash_recovery_{tag}_{}.bsnap", std::process::id()));
    let journal = dir.join(format!("crash_recovery_{tag}_{}.bjrnl", std::process::id()));
    Scratch { base, journal }
}

impl Scratch {
    fn cfg(&self, snapshot_every: u64) -> FollowerConfig {
        FollowerConfig {
            snapshot_every,
            snapshot_path: Some(self.base.clone()),
            journal_path: Some(self.journal.clone()),
            ..FollowerConfig::default()
        }
    }

    fn cleanup(&self, shards: u32) {
        std::fs::remove_file(&self.journal).ok();
        for i in 0..shards {
            let shard_base = shard_snapshot_path(&self.base, i, shards);
            for k in 0..4 {
                let p = bstream::generation_path(&shard_base, k);
                std::fs::remove_file(quarantine_path(&p)).ok();
                std::fs::remove_file(p).ok();
            }
        }
    }
}

#[test]
fn killed_shard_worker_respawns_and_loses_nothing() {
    let blocks = sim_blocks(311, 34);
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let reference = unsharded_tip(&artifact, &blocks);
    assert!(reference.num_tracked() > 20, "sim too small");

    for shards in [1u32, 4] {
        let s = scratch(&format!("kill{shards}"));
        s.cleanup(shards);
        let victim = (shards - 1) as usize; // last shard takes the hit
        let plan = Arc::new(ScriptedFaultPlan::panics(victim, &[13]));
        let fleet = ShardedFollower::with_hooks(
            Arc::clone(&artifact),
            s.cfg(10),
            shards,
            Arc::clone(&plan) as Arc<dyn baserve::FaultPlan>,
        )
        .unwrap();
        let followed = fleet
            .follow(&BlockFeed::from_blocks(blocks.clone()), STALL, 0)
            .unwrap();
        assert_eq!(plan.injected(), 1, "the scripted panic must have fired");
        assert_eq!(followed.metrics.respawns, 1, "exactly one respawn expected");
        assert_shards_match(
            &followed.followers,
            &reference,
            false,
            &format!("{shards}-shard kill"),
        );
        s.cleanup(shards);
    }
}

#[test]
fn wedged_shard_worker_is_fenced_and_replaced() {
    let blocks = sim_blocks(313, 40);
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let reference = unsharded_tip(&artifact, &blocks);

    let shards = 2u32;
    let s = scratch("wedge");
    s.cleanup(shards);
    // Shard 1 goes comatose for far longer than the wedge timeout while
    // the driver keeps pushing blocks: queue fills, heartbeat goes stale,
    // the worker is fenced off and a replacement recovers from the
    // journal.
    let plan = Arc::new(ScriptedFaultPlan::new(vec![FaultSpec {
        worker: 1,
        batch: 9,
        action: FaultAction::Delay(Duration::from_millis(3500)),
    }]));
    let fleet = ShardedFollower::with_hooks(
        Arc::clone(&artifact),
        s.cfg(0),
        shards,
        plan as Arc<dyn baserve::FaultPlan>,
    )
    .unwrap();
    let followed = fleet
        .follow(&BlockFeed::from_blocks(blocks), STALL, 0)
        .unwrap();
    assert_eq!(
        followed.metrics.respawns, 1,
        "the wedged shard must be replaced"
    );
    assert_shards_match(&followed.followers, &reference, false, "wedged shard");
    s.cleanup(shards);
}

#[test]
fn a_shard_past_its_restart_budget_is_gone() {
    let blocks = sim_blocks(319, 12);
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let shards = 2u32;
    let s = scratch("budget");
    s.cleanup(shards);
    // Shard 0 panics at six consecutive new heights (3..=8). Each
    // replacement replays the faulting block from the journal and then
    // dies on the next one: five respawns, and the sixth death is refused.
    let plan = Arc::new(ScriptedFaultPlan::panics(0, &[4, 5, 6, 7, 8, 9]));
    let mut fleet = ShardedFollower::with_hooks(
        Arc::clone(&artifact),
        s.cfg(0),
        shards,
        Arc::clone(&plan) as Arc<dyn baserve::FaultPlan>,
    )
    .unwrap();
    // Awaiting a reclassification after every block settles each death
    // before the next block is journaled, so every fault height is new to
    // the worker it reaches.
    let err = blocks
        .iter()
        .find_map(|b| {
            fleet
                .step(b.clone())
                .and_then(|()| fleet.reclassify_dirty())
                .err()
        })
        .expect("the sixth death must exhaust the budget");
    assert!(matches!(err, ShardStreamError::WorkerGone(0)), "{err:?}");
    assert_eq!(plan.injected(), 6, "every scripted panic fired");
    assert_eq!(
        fleet.metrics().respawns,
        5,
        "a refused respawn is not counted"
    );
    drop(fleet);
    s.cleanup(shards);
}

#[test]
fn isolated_faults_do_not_exhaust_the_restart_budget() {
    let blocks = sim_blocks(359, 40); // heights 0..=40
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let reference = unsharded_tip(&artifact, &blocks);
    let shards = 2u32;
    let s = scratch("isolated");
    s.cleanup(shards);
    // Shard 0 panics at heights 4, 9, …, 29: six deaths, one more than the
    // budget, but each replacement applies four new blocks before the next
    // one, so no two deaths are consecutive.
    let plan = Arc::new(ScriptedFaultPlan::panics(0, &[5, 10, 15, 20, 25, 30]));
    let mut fleet = ShardedFollower::with_hooks(
        Arc::clone(&artifact),
        s.cfg(0),
        shards,
        Arc::clone(&plan) as Arc<dyn baserve::FaultPlan>,
    )
    .unwrap();
    for b in &blocks {
        fleet.step(b.clone()).unwrap();
        fleet.reclassify_dirty().unwrap();
    }
    assert_eq!(plan.injected(), 6, "every scripted panic fired");
    assert_eq!(fleet.metrics().respawns, 6);
    let followers = fleet.finish().unwrap();
    assert_shards_match(&followers, &reference, false, "isolated faults");
    s.cleanup(shards);
}

#[test]
fn dropped_fleet_recovers_byte_identically_at_counts_1_and_4() {
    let blocks = sim_blocks(317, 36);
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let reference = unsharded_tip(&artifact, &blocks);
    let split = blocks.len() * 3 / 5;

    for shards in [1u32, 4] {
        let s = scratch(&format!("crash{shards}"));
        s.cleanup(shards);
        {
            let mut fleet =
                ShardedFollower::recover(Arc::clone(&artifact), s.cfg(7), shards).unwrap();
            for b in &blocks[..split] {
                fleet.step(b.clone()).unwrap();
            }
            // Quiesce the queues (so no detached worker races the next
            // fleet on disk), then crash: no finish, no final snapshot —
            // everything past each shard's last periodic snapshot exists
            // only in the journal.
            fleet.reclassify_dirty().unwrap();
            drop(fleet);
        }

        let mut recovered =
            ShardedFollower::recover(Arc::clone(&artifact), s.cfg(7), shards).unwrap();
        for b in &blocks {
            recovered.step(b.clone()).unwrap();
        }
        let followers = recovered.finish().unwrap();
        assert_shards_match(
            &followers,
            &reference,
            false,
            &format!("{shards}-shard crash"),
        );
        s.cleanup(shards);
    }
}

#[test]
fn corrupt_latest_snapshot_falls_back_a_generation_and_replays() {
    let blocks = sim_blocks(331, 36);
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let reference = unsharded_tip(&artifact, &blocks);
    let split = blocks.len() * 3 / 5;

    let shards = 2u32;
    let s = scratch("fallback");
    s.cleanup(shards);
    {
        let mut fleet = ShardedFollower::recover(Arc::clone(&artifact), s.cfg(6), shards).unwrap();
        for b in &blocks[..split] {
            fleet.step(b.clone()).unwrap();
        }
        fleet.reclassify_dirty().unwrap();
        drop(fleet);
    }

    // The crash "tore" shard 0's newest snapshot generation. The older
    // generation must exist for fallback — the 6-block cadence over 60% of
    // 37 blocks guarantees at least two snapshots.
    let newest = shard_snapshot_path(&s.base, 0, shards);
    let older = bstream::generation_path(&newest, 1);
    assert!(
        older.exists(),
        "test needs a second generation at {older:?}"
    );
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&newest, bytes).unwrap();

    let mut recovered = ShardedFollower::recover(Arc::clone(&artifact), s.cfg(6), shards).unwrap();
    assert!(
        quarantine_path(&newest).exists(),
        "corrupt generation must be quarantined, not deleted"
    );
    for b in &blocks {
        recovered.step(b.clone()).unwrap();
    }
    let followers = recovered.finish().unwrap();
    assert_shards_match(&followers, &reference, false, "generation fallback");
    s.cleanup(shards);
}

#[test]
fn periodic_snapshots_compact_the_journal_to_the_oldest_retained_generation() {
    let blocks = sim_blocks(337, 29); // heights 0..=29
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let reference = unsharded_tip(&artifact, &blocks);

    for shards in [1u32, 4] {
        let s = scratch(&format!("compact{shards}"));
        s.cleanup(shards);
        let cfg = s.cfg(5);
        assert_eq!(bstream::SNAPSHOT_GENERATIONS, 2);
        {
            let mut fleet =
                ShardedFollower::recover(Arc::clone(&artifact), cfg.clone(), shards).unwrap();
            for b in &blocks {
                fleet.step(b.clone()).unwrap();
            }
            // The 30th block's checkpoint has been awaited; crash here.
        }

        // Generations at 30 and 25 on every shard: the journal starts at 25.
        let mut floor = u64::MAX;
        for i in 0..shards {
            let shard_base = shard_snapshot_path(&s.base, i, shards);
            for k in 0..2 {
                let generation = bstream::generation_path(&shard_base, k);
                floor = floor.min(bstream::snapshot_height(&generation).unwrap());
            }
        }
        assert_eq!(floor, 25);
        let journal = scan_journal(&s.journal).unwrap();
        let heights: Vec<u64> = journal.blocks.iter().map(|b| b.height).collect();
        assert_eq!(
            heights,
            (floor..30).collect::<Vec<u64>>(),
            "{shards} shards: journal must hold exactly the frames the oldest generation needs"
        );

        // Tear every shard's newest generation: recovery has to start from
        // the oldest one, which needs every frame that survived compaction.
        for i in 0..shards {
            let newest = shard_snapshot_path(&s.base, i, shards);
            let mut bytes = std::fs::read(&newest).unwrap();
            let mid = bytes.len() / 2;
            bytes[mid] ^= 0x40;
            std::fs::write(&newest, bytes).unwrap();
        }
        let recovered = ShardedFollower::recover(Arc::clone(&artifact), cfg, shards).unwrap();
        for i in 0..shards {
            assert!(quarantine_path(&shard_snapshot_path(&s.base, i, shards)).exists());
        }
        let followers = recovered.finish().unwrap();
        for follower in &followers {
            assert_eq!(
                follower.metrics().journal_replayed,
                5,
                "replay from 25 to the tip"
            );
        }
        assert_shards_match(
            &followers,
            &reference,
            false,
            &format!("{shards}-shard oldest generation"),
        );
        s.cleanup(shards);
    }
}

#[cfg(unix)]
#[test]
fn failed_compaction_is_counted_and_never_fatal() {
    let blocks = sim_blocks(349, 19); // heights 0..=19
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let reference = unsharded_tip(&artifact, &blocks);

    let shards = 2u32;
    let s = scratch("compactfail");
    s.cleanup(shards);
    // The journal lives in a directory of its own, removed once the driver
    // has it open: appends keep landing in the unlinked file, and every
    // compaction — a rewrite next to a path that is gone — fails.
    let dir = s.journal.with_extension("dir");
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = FollowerConfig {
        journal_path: Some(dir.join("follower.bjrnl")),
        ..s.cfg(5)
    };
    let fleet = ShardedFollower::recover(Arc::clone(&artifact), cfg, shards).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let followed = fleet
        .follow(&BlockFeed::from_blocks(blocks), STALL, 0)
        .unwrap();
    assert!(
        matches!(followed.end, FeedEnd::Drained),
        "{:?}",
        followed.end
    );
    assert_eq!(followed.metrics.journal_frames, 20);
    // Four periodic checkpoints and the final flush each tried to compact.
    assert_eq!(followed.metrics.journal_errors, 5);
    assert_shards_match(&followed.followers, &reference, false, "failed compaction");
    s.cleanup(shards);
}

#[test]
fn silent_producer_ends_the_loop_as_a_stall_after_the_final_flush() {
    let blocks = sim_blocks(353, 5);
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let fleet =
        ShardedFollower::recover(Arc::clone(&artifact), FollowerConfig::default(), 2).unwrap();
    let (sender, feed) = BlockFeed::manual(4);
    sender.send(blocks[0].clone()).unwrap();
    sender.send(blocks[1].clone()).unwrap();
    // The sender stays alive — the feed is open — but says nothing more.
    let stall_timeout = Duration::from_millis(60);
    let followed = fleet.follow(&feed, stall_timeout, 0).unwrap();
    match &followed.end {
        FeedEnd::Stalled(stall) => {
            assert_eq!(stall.produced, 2);
            assert!(stall.stalled_for >= stall_timeout);
        }
        other => panic!("expected a stall, got {other:?}"),
    }
    assert_eq!(followed.end.exit_code(), 3);
    for follower in &followed.followers {
        assert_eq!(
            follower.next_height(),
            2,
            "both delivered blocks were applied"
        );
    }
    drop(sender);

    assert_eq!(FeedEnd::Drained.exit_code(), 0);
    assert_eq!(FeedEnd::Interrupted.exit_code(), 0);
    assert_eq!(
        FeedEnd::Failed(ShardStreamError::WorkerGone(0)).exit_code(),
        1
    );
}

#[test]
fn panicking_producer_ends_the_loop_as_an_error_after_the_final_flush() {
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let fleet =
        ShardedFollower::recover(Arc::clone(&artifact), FollowerConfig::default(), 2).unwrap();
    let mut cfg = SimConfig::tiny(359);
    cfg.retail.num_users = 0; // the simulator refuses this on the producer thread
    let feed = BlockFeed::follow_sim(cfg, 0, 4);
    let followed = fleet.follow(&feed, STALL, 0).unwrap();
    match &followed.end {
        FeedEnd::ProducerDied(why) => assert!(why.contains("retail.num_users"), "{why}"),
        other => panic!("expected a dead producer, got {other:?}"),
    }
    assert_eq!(followed.end.exit_code(), 1);
    for follower in &followed.followers {
        assert_eq!(follower.next_height(), 0);
    }
}
