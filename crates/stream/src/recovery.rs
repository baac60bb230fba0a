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
//! [`SNAPSHOT_GENERATIONS`] is the one retention policy: snapshot writes
//! rotate, recovery reads and the driver's journal compaction count that
//! many generations.
//!
//! [`Follower::recover`] walks the generations newest-first. A snapshot
//! that fails its checksum (or any parse) is renamed to `*.quarantine` —
//! kept for post-mortems, never retried — and the next generation is
//! tried; the older the generation, the longer the journal replay that
//! follows, but the recovered tip state is identical. Only when *no*
//! generation restores does recovery start from genesis, which is still
//! correct as long as the journal reaches back that far (a gap between
//! the restored height and the journal's first frame is a hard error, not
//! a silent hole in the state).
//!
//! Recovery only *reads* the journal, up to its last whole frame — opening
//! it for appends (and truncating and reporting a torn tail) is the
//! driver's job, done before any follower scans it. Replay never consults fault-injection hooks: blocks come
//! *from* the journal and are applied with the same `ingest_block` path as
//! live ingestion, then one reclassification pass brings the label table
//! current. Recovery is therefore byte-identical
//! to an uninterrupted run — the property `tests/crash_recovery.rs` and
//! this module's tests assert.

use crate::follower::{Follower, FollowerConfig};
use crate::journal::scan_journal;
use crate::snapshot::SnapshotError;
use baclassifier::ModelArtifact;
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

/// What [`Follower::recover`] rebuilt and from where.
pub struct Recovery {
    pub follower: Follower,
    /// Which snapshot generation restored (0 = newest); `None` when no
    /// usable snapshot existed and state was rebuilt from the journal
    /// alone.
    pub restored_generation: Option<usize>,
    /// Snapshots that failed restore, with where they were moved and why.
    pub quarantined: Vec<(PathBuf, String)>,
    /// Blocks replayed from the journal tail (heights the restored
    /// snapshot did not already cover).
    pub replayed_blocks: u64,
}

impl Follower {
    /// Recover follower state from disk: restore the newest valid
    /// snapshot generation (quarantining corrupt ones), replay the tail of
    /// the journal at `cfg.journal_path` — read, never written — and
    /// reclassify.
    pub fn recover(
        artifact: &ModelArtifact,
        cfg: FollowerConfig,
    ) -> Result<Recovery, SnapshotError> {
        let mut quarantined: Vec<(PathBuf, String)> = Vec::new();
        let mut restored: Option<(Follower, usize)> = None;
        if let Some(base) = cfg.snapshot_path.clone() {
            for k in 0..SNAPSHOT_GENERATIONS {
                let path = generation_path(&base, k);
                if !path.exists() {
                    continue;
                }
                match Follower::restore(artifact, cfg.clone(), &path) {
                    Ok(f) => {
                        restored = Some((f, k));
                        break;
                    }
                    Err(e) => {
                        let dest = quarantine_path(&path);
                        let reason = match std::fs::rename(&path, &dest) {
                            Ok(()) => format!("{e} (quarantined to {})", dest.display()),
                            Err(mv) => format!("{e} (quarantine rename failed: {mv})"),
                        };
                        eprintln!("bstream: snapshot {} unusable: {reason}", path.display());
                        quarantined.push((dest, reason));
                    }
                }
            }
        }
        let (mut follower, restored_generation) = match restored {
            Some((f, k)) => (f, Some(k)),
            None => (
                Follower::new(artifact, cfg.clone()).map_err(SnapshotError::Artifact)?,
                None,
            ),
        };
        follower.metrics.snapshots_quarantined += quarantined.len() as u64;

        // Replay the journal tail over the restored state.
        let mut replayed_blocks = 0u64;
        if let Some(jpath) = cfg.journal_path.as_deref().filter(|p| p.exists()) {
            let scan = scan_journal(jpath)?;
            for block in &scan.blocks {
                if block.height < follower.next_height() {
                    continue;
                }
                if block.height > follower.next_height() {
                    return Err(SnapshotError::Malformed(format!(
                        "{}: journal gap: restored state resumes at height {} but the \
                         journal's next frame is height {} — blocks are missing",
                        jpath.display(),
                        follower.next_height(),
                        block.height
                    )));
                }
                follower.ingest_block(block);
                replayed_blocks += 1;
            }
            follower.metrics.journal_replayed += replayed_blocks;
        }
        follower.reclassify_dirty();
        Ok(Recovery {
            follower,
            restored_generation,
            quarantined,
            replayed_blocks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::follower::tests::test_sim;
    use crate::journal::BlockJournal;
    use baclassifier::BacConfig;
    use btcsim::{Block, BlockCursor};

    fn temp_base(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "bstream_recovery_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn cleanup(base: &Path) {
        for k in 0..4 {
            let p = generation_path(base, k);
            std::fs::remove_file(quarantine_path(&p)).ok();
            std::fs::remove_file(&p).ok();
        }
        let mut journal = base.as_os_str().to_os_string();
        journal.push(".journal");
        std::fs::remove_file(PathBuf::from(journal)).ok();
    }

    fn recovery_cfg(base: &Path) -> FollowerConfig {
        let mut journal = base.as_os_str().to_os_string();
        journal.push(".journal");
        FollowerConfig {
            snapshot_path: Some(base.to_path_buf()),
            journal_path: Some(PathBuf::from(journal)),
            ..FollowerConfig::default()
        }
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
        let mut journal = BlockJournal::create(cfg.journal_path.as_ref().unwrap(), 1).unwrap();
        let mut follower = Follower::new(artifact, cfg.clone()).unwrap();
        for b in blocks {
            journal.append(b).unwrap();
            follower.step(b);
            if snapshot_after.contains(&b.height) {
                follower
                    .snapshot_to(cfg.snapshot_path.as_ref().unwrap())
                    .unwrap();
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
        let journaled = scan_journal(cfg.journal_path.as_ref().unwrap()).unwrap();
        assert_eq!(journaled.blocks.len(), 16);

        // Recover: snapshot at height 8, journal replay for the rest.
        let recovery = Follower::recover(&artifact, cfg).unwrap();
        assert_eq!(recovery.restored_generation, Some(0));
        assert!(recovery.quarantined.is_empty());
        assert_eq!(recovery.replayed_blocks, 8, "journal tail after height 8");
        let mut recovered = recovery.follower;
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

        let recovery = Follower::recover(&artifact, cfg).unwrap();
        assert_eq!(recovery.restored_generation, Some(1), "fell back to .g1");
        assert_eq!(recovery.quarantined.len(), 1);
        assert!(quarantine_path(&base).exists(), "corrupt file preserved");
        assert!(!base.exists(), "corrupt file moved out of the way");
        // Longer replay: everything after the .g1 checkpoint at height 6.
        assert_eq!(recovery.replayed_blocks, blocks.len() as u64 - 6);
        let mut recovered = recovery.follower;
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
        let recovery = Follower::recover(&artifact, cfg).unwrap();
        assert_eq!(recovery.restored_generation, None);
        assert_eq!(recovery.replayed_blocks, blocks.len() as u64);
        let mut recovered = recovery.follower;
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
        let jpath = cfg.journal_path.clone().unwrap();
        let (mut j, _) = BlockJournal::open_or_create(&jpath).unwrap();
        j.compact_below(7).unwrap();
        drop(j);
        for k in 0..2 {
            std::fs::remove_file(generation_path(&base, k)).ok();
        }
        match Follower::recover(&artifact, cfg).err() {
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
        let jpath = cfg.journal_path.clone().unwrap();
        let bytes = std::fs::read(&jpath).unwrap();
        std::fs::write(&jpath, &bytes[..bytes.len() - 3]).unwrap();
        // The driver opens the journal before any follower reads it: that
        // is where the torn tail is cut off and reported.
        let (_, scan) = BlockJournal::open_or_create(&jpath).unwrap();
        assert!(scan.torn.is_some());
        let recovery = Follower::recover(&artifact, cfg).unwrap();
        assert_eq!(recovery.replayed_blocks, blocks.len() as u64 - 1);
        assert_eq!(recovery.follower.next_height(), blocks.len() as u64 - 1);
        cleanup(&base);
    }
}
