//! Crash recovery: snapshot generations, quarantine, and journal replay.
//!
//! The durable state of a follower is a small family of files:
//!
//! ```text
//! base            newest snapshot (generation 0)
//! base.g1         previous snapshot (generation 1)
//! journal         write-ahead block journal (frames ≥ the oldest
//!                 generation's height survive compaction)
//! ```
//!
//! This module is the one place that knows the generations:
//! [`SNAPSHOT_GENERATIONS`] is the retention policy, snapshot writes rotate
//! through it, [`Follower::recover`] reads it, and
//! [`oldest_retained_height`] tells the driver how far its journal may be
//! compacted.
//!
//! [`Follower::recover`] walks the generations newest-first. A snapshot
//! that fails its checksum (or any parse) is renamed to `*.quarantine` —
//! kept for post-mortems, never retried — and the next generation is
//! tried; the older the generation, the longer the journal replay that
//! follows, but the recovered tip state is identical. Only when *no*
//! generation restores does recovery start from genesis, which is still
//! correct as long as the journal reaches back that far (a gap between
//! the restored height and the tail's first block is a hard error, not a
//! silent hole in the state).
//!
//! Recovery reads no journal file. The driver opens (and heals) the journal,
//! scans it once, and hands every follower the blocks it decoded as the
//! `tail`. Replay never consults fault-injection hooks: tail blocks are
//! applied with the same `ingest_block` path as live ingestion, then one
//! reclassification pass brings the label table current. Recovery is
//! therefore byte-identical to an uninterrupted run — the property
//! `tests/crash_recovery.rs` and this module's tests assert.

use crate::follower::{Follower, FollowerConfig};
use crate::snapshot::{snapshot_height, SnapshotError};
use baclassifier::ModelArtifact;
use btcsim::Block;
use std::path::{Path, PathBuf};

/// Path of snapshot generation `k` for base path `base`: the base itself
/// for `k = 0`, `base.g<k>` for older generations.
pub fn generation_path(base: &Path, k: usize) -> PathBuf {
    if k == 0 {
        return base.to_path_buf();
    }
    let mut name = base.as_os_str().to_os_string();
    name.push(format!(".g{k}"));
    PathBuf::from(name)
}

/// Path a corrupt snapshot is quarantined to.
pub fn quarantine_path(snapshot: &Path) -> PathBuf {
    let mut name = snapshot.as_os_str().to_os_string();
    name.push(".quarantine");
    PathBuf::from(name)
}

/// Snapshot files kept per base path: the newest and one fallback for
/// when the newest is corrupt.
pub const SNAPSHOT_GENERATIONS: usize = 2;

/// Shift existing generations one slot older ahead of a new snapshot
/// write: the oldest retained generation is dropped, `base` becomes
/// `base.g1`, and so on.
pub(crate) fn rotate_generations(base: &Path) -> std::io::Result<()> {
    if !base.exists() {
        return Ok(());
    }
    std::fs::remove_file(generation_path(base, SNAPSHOT_GENERATIONS - 1)).ok();
    for k in (0..SNAPSHOT_GENERATIONS - 1).rev() {
        let from = generation_path(base, k);
        if from.exists() {
            std::fs::rename(&from, generation_path(base, k + 1))?;
        }
    }
    Ok(())
}

/// The lowest height any retained snapshot generation of `base` resumes
/// at: journal frames below it are needed by no fallback. `None` when
/// `base` has no generation yet or a generation's header is unreadable —
/// then nothing may be compacted.
pub fn oldest_retained_height(base: &Path) -> Option<u64> {
    let mut floor: Option<u64> = None;
    for k in 0..SNAPSHOT_GENERATIONS {
        let path = generation_path(base, k);
        if path.exists() {
            let height = snapshot_height(&path).ok()?;
            floor = Some(floor.map_or(height, |f| f.min(height)));
        }
    }
    floor
}

impl Follower {
    /// Recover follower state: restore the newest valid snapshot
    /// generation (quarantining corrupt ones), apply the blocks of `tail`
    /// at or above its height, and reclassify once. `tail` is the driver's
    /// journal as it scanned it; blocks below the restored height are
    /// skipped, and one above it is a gap (`Malformed`).
    pub fn recover(
        artifact: &ModelArtifact,
        cfg: FollowerConfig,
        tail: &[Block],
    ) -> Result<Follower, SnapshotError> {
        let mut quarantined = 0;
        let mut restored = None;
        if let Some(base) = &cfg.snapshot_path {
            for k in 0..SNAPSHOT_GENERATIONS {
                let path = generation_path(base, k);
                if !path.exists() {
                    continue;
                }
                match Follower::restore(artifact, cfg.clone(), &path) {
                    Ok(f) => {
                        restored = Some(f);
                        break;
                    }
                    Err(e) => {
                        let dest = quarantine_path(&path);
                        let reason = match std::fs::rename(&path, &dest) {
                            Ok(()) => format!("{e} (quarantined to {})", dest.display()),
                            Err(mv) => format!("{e} (quarantine rename failed: {mv})"),
                        };
                        eprintln!("bstream: snapshot {} unusable: {reason}", path.display());
                        quarantined += 1;
                    }
                }
            }
        }
        let mut follower = match restored {
            Some(f) => f,
            None => Follower::new(artifact, cfg).map_err(SnapshotError::Artifact)?,
        };
        follower.metrics.snapshots_quarantined += quarantined;
        for block in tail {
            if block.height < follower.next_height() {
                continue;
            }
            if block.height > follower.next_height() {
                return Err(SnapshotError::Malformed(format!(
                    "journal gap: restored state resumes at height {} but the \
                     journal's next frame is height {} — blocks are missing",
                    follower.next_height(),
                    block.height
                )));
            }
            follower.ingest_block(block);
            follower.metrics.journal_replayed += 1;
        }
        follower.reclassify_dirty();
        Ok(follower)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::follower::tests::test_sim;
    use crate::journal::BlockJournal;
    use baclassifier::BacConfig;
    use btcsim::BlockCursor;

    fn temp_base(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "bstream_recovery_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn journal_of(base: &Path) -> PathBuf {
        let mut journal = base.as_os_str().to_os_string();
        journal.push(".journal");
        PathBuf::from(journal)
    }

    fn cleanup(base: &Path) {
        for k in 0..4 {
            let p = generation_path(base, k);
            std::fs::remove_file(quarantine_path(&p)).ok();
            std::fs::remove_file(&p).ok();
        }
        std::fs::remove_file(journal_of(base)).ok();
    }

    fn recovery_cfg(base: &Path) -> FollowerConfig {
        FollowerConfig {
            snapshot_path: Some(base.to_path_buf()),
            ..FollowerConfig::default()
        }
    }

    /// The tail a driver hands its followers: the journal opened (and its
    /// torn tail cut off) by `BlockJournal::open_or_create`.
    fn driver_tail(base: &Path) -> Vec<Block> {
        BlockJournal::open_or_create(&journal_of(base))
            .unwrap()
            .1
            .blocks
    }

    /// The run that is about to crash, driven the way the driver drives a
    /// follower: a fresh journal, each block appended before it is applied,
    /// a snapshot after each height in `snapshot_after`, and no final one.
    fn crashed_run(
        artifact: &ModelArtifact,
        cfg: &FollowerConfig,
        blocks: &[Block],
        snapshot_after: &[u64],
    ) {
        let base = cfg.snapshot_path.as_ref().unwrap();
        let mut journal = BlockJournal::create(&journal_of(base), 1).unwrap();
        let mut follower = Follower::new(artifact, cfg.clone()).unwrap();
        for b in blocks {
            journal.append(b).unwrap();
            follower.step(b);
            if snapshot_after.contains(&b.height) {
                follower.snapshot_to(base).unwrap();
            }
        }
    }

    /// Uninterrupted reference over the same chain and config shape.
    fn reference_tip(artifact: &baclassifier::ModelArtifact, blocks: &[Block]) -> Follower {
        let mut f = Follower::new(artifact, FollowerConfig::default()).unwrap();
        for b in blocks {
            f.step(b);
        }
        f.reclassify_dirty();
        f
    }

    fn assert_identical(recovered: &mut Follower, reference: &Follower) {
        recovered.mark_all_dirty();
        recovered.reclassify_dirty();
        assert_eq!(recovered.next_height(), reference.next_height());
        assert_eq!(recovered.labels(), reference.labels());
        assert_eq!(recovered.history_lens(), reference.history_lens());
        for addr in reference.states.keys() {
            let got = recovered.embeddings(*addr).expect("tracked by both");
            let expect = reference.embeddings(*addr).expect("tracked");
            assert_eq!(got.len(), expect.len(), "slice count for {addr:?}");
            for (g, w) in got.iter().zip(expect) {
                assert_eq!(g.as_slice(), w.as_slice(), "embedding bytes for {addr:?}");
            }
        }
    }

    #[test]
    fn snapshot_generations_rotate() {
        let base = temp_base("rotate");
        cleanup(&base);
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let blocks: Vec<Block> = BlockCursor::new(test_sim(73, 12)).collect();
        let cfg = FollowerConfig {
            snapshot_path: Some(base.clone()),
            ..FollowerConfig::default()
        };
        let mut follower = Follower::new(&artifact, cfg).unwrap();
        let mut snapshot_heights = Vec::new();
        for (i, b) in blocks.iter().enumerate() {
            follower.step(b);
            if i % 3 == 2 {
                follower.snapshot_to(&base).unwrap();
                snapshot_heights.push(follower.next_height());
            }
        }
        // Newest in base, the prior checkpoint in .g1, nothing older.
        let n = snapshot_heights.len();
        let newest_first = snapshot_heights.iter().rev();
        for (k, want) in (0..SNAPSHOT_GENERATIONS).zip(newest_first) {
            let path = generation_path(&base, k);
            assert!(path.exists(), "generation {k} missing");
            assert_eq!(
                crate::snapshot::snapshot_height(&path).unwrap(),
                *want,
                "generation {k} height"
            );
        }
        assert!(n > SNAPSHOT_GENERATIONS);
        let oldest = generation_path(&base, SNAPSHOT_GENERATIONS);
        assert!(!oldest.exists(), "over-retention");
        // The compaction floor is the older of the two retained heights.
        assert_eq!(
            oldest_retained_height(&base),
            Some(snapshot_heights[n - SNAPSHOT_GENERATIONS])
        );
        cleanup(&base);
    }

    #[test]
    fn the_compaction_floor_needs_every_retained_generation() {
        let base = temp_base("floor");
        cleanup(&base);
        assert_eq!(oldest_retained_height(&base), None, "no generation yet");
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let blocks: Vec<Block> = BlockCursor::new(test_sim(71, 6)).collect();
        let mut follower = Follower::new(&artifact, recovery_cfg(&base)).unwrap();
        for b in &blocks {
            follower.step(b);
            if b.height == 2 || b.height == 5 {
                follower.snapshot_to(&base).unwrap();
            }
        }
        assert_eq!(oldest_retained_height(&base), Some(3));
        // Generation 1 alone still bounds the floor.
        std::fs::remove_file(&base).unwrap();
        assert_eq!(oldest_retained_height(&base), Some(3));
        // An unreadable header forbids compaction.
        std::fs::write(generation_path(&base, 1), b"BSTR").unwrap();
        assert_eq!(oldest_retained_height(&base), None);
        cleanup(&base);
    }

    #[test]
    fn crash_midway_recovers_byte_identically_via_journal() {
        let base = temp_base("crash");
        cleanup(&base);
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let blocks: Vec<Block> = BlockCursor::new(test_sim(79, 24)).collect();
        let reference = reference_tip(&artifact, &blocks);
        let cfg = recovery_cfg(&base);

        // Run half the chain with a snapshot early on, then "crash" (drop
        // without a final snapshot — the journal holds the tail).
        crashed_run(&artifact, &cfg, &blocks[..16], &[7]);
        let tail = driver_tail(&base);
        assert_eq!(tail.len(), 16);

        // Recover: snapshot at height 8, journal replay for the rest.
        let mut recovered = Follower::recover(&artifact, cfg, &tail).unwrap();
        assert_eq!(recovered.metrics().snapshots_quarantined, 0);
        assert_eq!(
            recovered.metrics().journal_replayed,
            8,
            "journal tail after height 8"
        );
        assert_eq!(recovered.next_height(), 16);
        // Finish the chain and compare against the uninterrupted run.
        for b in &blocks[16..] {
            recovered.step(b);
        }
        recovered.reclassify_dirty();
        assert_identical(&mut recovered, &reference);
        cleanup(&base);
    }

    #[test]
    fn corrupt_latest_generation_falls_back_and_quarantines() {
        let base = temp_base("fallback");
        cleanup(&base);
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let blocks: Vec<Block> = BlockCursor::new(test_sim(83, 20)).collect();
        let reference = reference_tip(&artifact, &blocks);
        let cfg = recovery_cfg(&base);

        crashed_run(&artifact, &cfg, &blocks, &[5, 12]);
        // Corrupt the newest snapshot (generation 0).
        let mut bytes = std::fs::read(&base).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&base, &bytes).unwrap();

        let mut recovered = Follower::recover(&artifact, cfg, &driver_tail(&base)).unwrap();
        assert_eq!(recovered.metrics().snapshots_quarantined, 1);
        assert!(quarantine_path(&base).exists(), "corrupt file preserved");
        assert!(!base.exists(), "corrupt file moved out of the way");
        // Fell back to .g1: a longer replay, everything after its
        // checkpoint at height 6.
        assert_eq!(
            recovered.metrics().journal_replayed,
            blocks.len() as u64 - 6
        );
        assert_identical(&mut recovered, &reference);
        cleanup(&base);
    }

    #[test]
    fn recovery_from_journal_alone_rebuilds_everything() {
        let base = temp_base("journalonly");
        cleanup(&base);
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let blocks: Vec<Block> = BlockCursor::new(test_sim(89, 15)).collect();
        let reference = reference_tip(&artifact, &blocks);
        let cfg = recovery_cfg(&base);
        crashed_run(&artifact, &cfg, &blocks, &[]); // no snapshot ever written
        let mut recovered = Follower::recover(&artifact, cfg, &driver_tail(&base)).unwrap();
        // Nothing restored: every block came from the tail.
        assert_eq!(recovered.metrics().journal_replayed, blocks.len() as u64);
        assert_identical(&mut recovered, &reference);
        cleanup(&base);
    }

    #[test]
    fn journal_gap_is_a_hard_error() {
        let base = temp_base("gap");
        cleanup(&base);
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let blocks: Vec<Block> = BlockCursor::new(test_sim(97, 10)).collect();
        let cfg = recovery_cfg(&base);
        crashed_run(&artifact, &cfg, &blocks, &[6]);
        // Compact the journal past the snapshot, then delete the snapshot:
        // the journal now starts at height 7 with no state below it.
        let (mut j, _) = BlockJournal::open_or_create(&journal_of(&base)).unwrap();
        j.compact_below(7).unwrap();
        drop(j);
        for k in 0..2 {
            std::fs::remove_file(generation_path(&base, k)).ok();
        }
        match Follower::recover(&artifact, cfg, &driver_tail(&base)).err() {
            Some(SnapshotError::Malformed(m)) => {
                assert!(m.contains("journal gap"), "message: {m}")
            }
            other => panic!("expected journal-gap error, got {other:?}"),
        }
        cleanup(&base);
    }

    #[test]
    fn torn_journal_tail_is_truncated_and_reported() {
        let base = temp_base("torntail");
        cleanup(&base);
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let blocks: Vec<Block> = BlockCursor::new(test_sim(101, 10)).collect();
        let cfg = recovery_cfg(&base);
        crashed_run(&artifact, &cfg, &blocks, &[]);
        let jpath = journal_of(&base);
        let bytes = std::fs::read(&jpath).unwrap();
        std::fs::write(&jpath, &bytes[..bytes.len() - 3]).unwrap();
        // The driver opens the journal before any follower recovers: that
        // is where the torn tail is cut off and reported.
        let (_, scan) = BlockJournal::open_or_create(&jpath).unwrap();
        assert!(scan.torn.is_some());
        let recovered = Follower::recover(&artifact, cfg, &scan.blocks).unwrap();
        assert_eq!(
            recovered.metrics().journal_replayed,
            blocks.len() as u64 - 1
        );
        assert_eq!(recovered.next_height(), blocks.len() as u64 - 1);
        cleanup(&base);
    }
}
