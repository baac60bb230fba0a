//! Property-based crash-safety tests: *no* corruption of the durable
//! artifacts — snapshot or journal, bit flips or truncations, at any
//! offset — may ever panic recovery. Every corrupted input must come back
//! as a clean success (quarantine + fallback + replay) or a descriptive
//! error; the absence of a panic is the property under test.
//!
//! Pristine snapshot + journal bytes are built once from a real follower
//! run; each case mutates its own private copies, so quarantine renames
//! and journal truncation never leak between cases.

use baclassifier::durable::{next_frame, put_frame, Frame};
use baclassifier::{BacConfig, ModelArtifact};
use bstream::{
    generation_path, quarantine_path, scan_journal, BlockJournal, Follower, FollowerConfig,
    SnapshotError,
};
use btcsim::{Block, BlockCursor, SimConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

struct Pristine {
    artifact: ModelArtifact,
    snapshot: Vec<u8>,
    journal: Vec<u8>,
}

/// One real follower run with a mid-stream snapshot and a journal tail:
/// the bytes every corruption case starts from.
fn pristine() -> &'static Pristine {
    static PRISTINE: OnceLock<Pristine> = OnceLock::new();
    PRISTINE.get_or_init(|| {
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let dir = std::env::temp_dir();
        let snap = dir.join(format!("corruption_pristine_{}.bsnap", std::process::id()));
        let journal = dir.join(format!("corruption_pristine_{}.bjrnl", std::process::id()));
        let cfg = FollowerConfig::default();
        // Driven the way the driver drives a follower: each block appended
        // to the journal before it is applied, one snapshot after 9 blocks
        // with the journal compacted behind it, then a crash.
        let mut writer = BlockJournal::create(&journal, 1).unwrap();
        let mut follower = Follower::new(&artifact, cfg).unwrap();
        let blocks: Vec<Block> = BlockCursor::new(SimConfig {
            blocks: 14,
            ..SimConfig::tiny(83)
        })
        .collect();
        for b in &blocks {
            writer.append(b).unwrap();
            follower.step(b);
            if follower.next_height() == 9 {
                follower.snapshot_to(&snap).unwrap();
                writer.compact_below(9).unwrap();
            }
        }
        drop((follower, writer));
        // One snapshot: generation 0 alone, nothing rotated aside.
        assert!(!generation_path(&snap, 1).exists());
        let snapshot_bytes = std::fs::read(&snap).unwrap();
        let journal_bytes = std::fs::read(&journal).unwrap();
        std::fs::remove_file(&snap).ok();
        std::fs::remove_file(&journal).ok();
        assert!(!snapshot_bytes.is_empty() && !journal_bytes.is_empty());
        Pristine {
            artifact,
            snapshot: snapshot_bytes,
            journal: journal_bytes,
        }
    })
}

/// A private scratch directory per case: quarantine renames and tail
/// truncation must not contaminate the next case's inputs.
fn case_dir() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("corruption_case_{}_{n}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn flip_bit(bytes: &mut [u8], bit: u64) {
    if bytes.is_empty() {
        return;
    }
    let at = (bit % (bytes.len() as u64 * 8)) as usize;
    bytes[at / 8] ^= 1 << (at % 8);
}

fn truncate(bytes: &mut Vec<u8>, cut: u64) {
    if bytes.is_empty() {
        return;
    }
    bytes.truncate((cut % bytes.len() as u64) as usize);
}

/// Recovery over the (possibly corrupted) snapshot + journal pair must
/// not panic; scanning the journal directly must not either. The result
/// values are irrelevant — both Ok and Err are acceptable outcomes.
fn recovery_survives(snapshot: Vec<u8>, journal: Vec<u8>) {
    let dir = case_dir();
    let snap_path = dir.join("state.bsnap");
    let journal_path = dir.join("state.bjrnl");
    std::fs::write(&snap_path, snapshot).unwrap();
    std::fs::write(&journal_path, journal).unwrap();

    let _ = scan_journal(&journal_path);
    // The tail comes from the journal as the driver opens (and heals) it. A
    // journal it cannot open is a descriptive error, and the snapshot side
    // is still recovered, with no tail.
    let opened = BlockJournal::open_or_create(&journal_path).map(|(_, scan)| scan.blocks);
    if let Err(e) = &opened {
        assert!(!e.to_string().is_empty());
    }
    let cfg = FollowerConfig {
        snapshot_path: Some(snap_path),
        ..FollowerConfig::default()
    };
    match Follower::recover(
        &pristine().artifact,
        cfg,
        opened.as_deref().unwrap_or_default(),
    ) {
        Ok(follower) => {
            // Whatever survived must be a follower in a usable state.
            assert!(follower.next_height() > 0 || follower.num_tracked() == 0);
        }
        Err(e) => {
            // Errors must be descriptive, never silent.
            assert!(!e.to_string().is_empty());
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Degenerate snapshots: an empty file, the magic alone, a v1 text file,
/// a header that declares more records than follow, and a well-formed
/// frame after the last record. Each must come back from `restore` as a
/// typed error naming the file, and recovery must quarantine it and carry
/// on — never a panic (which inside a supervised shard worker burns the
/// whole respawn budget), never a partial restore.
#[test]
fn degenerate_snapshots_are_typed_errors_not_panics() {
    let p = pristine();
    // Every frame boundary of the pristine snapshot, magic first.
    let mut ends = vec![8];
    while let Frame::Whole { end, .. } = next_frame(&p.snapshot[*ends.last().unwrap()..], u32::MAX)
    {
        ends.push(ends.last().unwrap() + end);
    }
    assert_eq!(ends.last(), Some(&p.snapshot.len()));
    assert!(ends.len() > 3, "the pristine snapshot holds records");
    let mut extra_frame = p.snapshot.clone();
    put_frame(&mut extra_frame, &7u64.to_le_bytes(), u32::MAX).unwrap();
    for (what, bytes) in [
        ("empty file", Vec::new()),
        ("the magic alone", p.snapshot[..8].to_vec()),
        (
            "a v1 text file",
            b"BSTREAM v1\nheight 0\naddresses 0\n".to_vec(),
        ),
        (
            "a header that declares more records than follow",
            p.snapshot[..ends[ends.len() - 2]].to_vec(),
        ),
        ("an extra frame after the last record", extra_frame),
    ] {
        let dir = case_dir();
        let path = dir.join("state.bsnap");
        std::fs::write(&path, &bytes).unwrap();
        match Follower::restore(&p.artifact, FollowerConfig::default(), &path) {
            Err(
                SnapshotError::Malformed(m)
                | SnapshotError::UnsupportedVersion(m)
                | SnapshotError::Checksum(m),
            ) => assert!(m.contains("state.bsnap"), "{what}: path in error: {m}"),
            Err(other) => panic!("{what}: expected a typed format error, got {other:?}"),
            Ok(_) => panic!("{what}: restore must fail closed"),
        }
        let cfg = FollowerConfig {
            snapshot_path: Some(path.clone()),
            ..FollowerConfig::default()
        };
        let recovered = Follower::recover(&p.artifact, cfg, &[]).unwrap();
        assert_eq!(recovered.metrics().snapshots_quarantined, 1, "{what}");
        assert!(quarantine_path(&path).exists() && !path.exists(), "{what}");
        // Nothing restored: with no tail, nothing replayed either.
        assert_eq!(recovered.metrics().journal_replayed, 0, "{what}");
        assert_eq!(recovered.next_height(), 0, "{what}");
        std::fs::remove_dir_all(&dir).ok();
        recovery_survives(bytes, p.journal.clone());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // A single flipped bit anywhere in either artifact: a frame's CRC (or
    // the parser) must catch it and recovery must degrade gracefully.
    #[test]
    fn bit_flips_never_panic_recovery(
        snap_bit in any::<u64>(),
        journal_bit in any::<u64>(),
        corrupt_snapshot in any::<bool>(),
        corrupt_journal in any::<bool>(),
    ) {
        let p = pristine();
        let mut snapshot = p.snapshot.clone();
        let mut journal = p.journal.clone();
        if corrupt_snapshot {
            flip_bit(&mut snapshot, snap_bit);
        }
        if corrupt_journal {
            flip_bit(&mut journal, journal_bit);
        }
        recovery_survives(snapshot, journal);
    }

    // Truncation at any byte — torn writes, partial copies, full loss of
    // either file: the journal heals its tail, the snapshot quarantines.
    #[test]
    fn truncations_never_panic_recovery(
        snap_cut in any::<u64>(),
        journal_cut in any::<u64>(),
    ) {
        let p = pristine();
        let mut snapshot = p.snapshot.clone();
        let mut journal = p.journal.clone();
        truncate(&mut snapshot, snap_cut);
        truncate(&mut journal, journal_cut);
        recovery_survives(snapshot, journal);
    }

    // Both at once, with extra garbage appended — the worst disk a crash
    // can leave behind.
    #[test]
    fn combined_corruption_never_panics_recovery(
        snap_bit in any::<u64>(),
        journal_cut in any::<u64>(),
        garbage in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let p = pristine();
        let mut snapshot = p.snapshot.clone();
        let mut journal = p.journal.clone();
        flip_bit(&mut snapshot, snap_bit);
        truncate(&mut journal, journal_cut);
        journal.extend_from_slice(&garbage);
        snapshot.extend_from_slice(&garbage);
        recovery_survives(snapshot, journal);
    }
}
