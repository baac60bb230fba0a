//! Offline shard rebalancing: re-split `base.{i}of{N}` snapshot files to a
//! new shard count without replaying the chain.
//!
//! An address record is a pure function of its address's history, label
//! and margin, and leads with the address; which file it lands in is
//! decided by [`ShardMap`] alone. So N→M reads the inputs with
//! `bstream::read_snapshot` (every frame's CRC checked), checks each file's
//! layout and height and the owner and order of every address under the
//! old map, merges the records in address order, and writes M outputs with
//! `bstream::write_snapshot`, each record's payload copied **verbatim**:
//! the bytes a fresh M-shard run over the same chain would have written
//! (`tests/tests/net.rs` asserts it for 2 → 4 and 2 → 4 → 2).

use crate::stream::shard_snapshot_path;
use baclassifier::{ShardAssignment, ShardMap};
use bstream::{read_snapshot, write_snapshot, Snapshot, SnapshotError};
use btcsim::Address;
use std::path::{Path, PathBuf};

/// Why a rebalance run was refused.
#[derive(Debug)]
pub enum RebalanceError {
    /// An input could not be read as a snapshot, or an output not written.
    Snapshot(SnapshotError),
    /// Input set inconsistent: wrong layouts, differing heights, misplaced
    /// or unordered addresses.
    Layout(String),
}

impl std::fmt::Display for RebalanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebalanceError::Snapshot(e) => write!(f, "{e}"),
            RebalanceError::Layout(m) => write!(f, "layout error: {m}"),
        }
    }
}

impl std::error::Error for RebalanceError {}

impl From<SnapshotError> for RebalanceError {
    fn from(e: SnapshotError) -> Self {
        RebalanceError::Snapshot(e)
    }
}

/// What a rebalance run did.
#[derive(Debug)]
pub struct RebalanceReport {
    pub height: u64,
    pub addresses: usize,
    pub old_count: u32,
    pub new_count: u32,
    pub outputs: Vec<PathBuf>,
}

/// Re-split the snapshot set `input_base.{i}of{old_count}` (for
/// `old_count == 1`, a bare unsharded `input_base` is accepted when the
/// `.0of1` file is absent) into `output_base.{j}of{new_count}`. Nothing is
/// written unless every input checks out; outputs land atomically.
pub fn rebalance_snapshots(
    input_base: &Path,
    old_count: u32,
    output_base: &Path,
    new_count: u32,
) -> Result<RebalanceReport, RebalanceError> {
    if old_count == 0 || new_count == 0 {
        let msg = "shard counts must be at least 1";
        return Err(RebalanceError::Layout(msg.to_string()));
    }
    let old_map = ShardMap::new(old_count);
    let mut inputs: Vec<Snapshot> = Vec::with_capacity(old_count as usize);
    for i in 0..old_count {
        let mut path = shard_snapshot_path(input_base, i, old_count);
        if old_count == 1 && !path.exists() && input_base.exists() {
            path = input_base.to_path_buf();
        }
        let snapshot = read_snapshot(&path)?;
        let claims = snapshot.shard.unwrap_or_else(ShardAssignment::unsharded);
        let height = inputs.first().map_or(snapshot.height, |first| first.height);
        // Followers write `BTreeMap` order; anything else, or an address
        // its old layout puts elsewhere, is not this pipeline's output.
        let mut prev = None;
        let stray = snapshot.records().map(|(addr, _)| addr).find(|&addr| {
            let stray = old_map.shard_of(addr) != i || prev.is_some_and(|p| p >= addr);
            prev = Some(addr);
            stray
        });
        let (index, count, at) = (claims.index, claims.count, snapshot.height);
        let problem = if (index, count) != (i, old_count) {
            format!("claims shard {index}/{count}, expected {i}/{old_count}")
        } else if at != height {
            format!("height {at} differs from {height}: not one checkpoint")
        } else if let Some(addr) = stray {
            format!("address {} misplaced or out of order", addr.0)
        } else {
            inputs.push(snapshot);
            continue;
        };
        let path = path.display();
        return Err(RebalanceError::Layout(format!("{path}: {problem}")));
    }

    // Inputs are sorted and disjoint: sorting the union gives the global
    // `BTreeMap` order a fresh follower iterates, which routing preserves.
    let mut merged: Vec<(Address, &[u8])> = inputs.iter().flat_map(Snapshot::records).collect();
    merged.sort_unstable_by_key(|(addr, _)| *addr);
    let new_map = ShardMap::new(new_count);
    let mut buckets: Vec<Vec<&[u8]>> = vec![Vec::new(); new_count as usize];
    for (addr, record) in &merged {
        buckets[new_map.shard_of(*addr) as usize].push(record);
    }
    let height = inputs[0].height;
    let mut outputs = Vec::with_capacity(new_count as usize);
    for (index, bucket) in (0..new_count).zip(buckets) {
        let path = shard_snapshot_path(output_base, index, new_count);
        let shard = ShardAssignment {
            index,
            count: new_count,
        };
        write_snapshot(&path, height, Some(shard), bucket.into_iter())?;
        outputs.push(path);
    }
    Ok(RebalanceReport {
        height,
        addresses: merged.len(),
        old_count,
        new_count,
        outputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot at height `height` whose records are each an address
    /// plus a body of `1 + address % 3` bytes: the rebalancer reads only
    /// the leading address, and copies the rest verbatim.
    fn write_shard(path: &Path, height: u64, shard: Option<(u32, u32)>, addrs: &[u64]) {
        let records = addrs.iter().map(|a| {
            let mut record = a.to_le_bytes().to_vec();
            record.resize(8 + 1 + (*a % 3) as usize, *a as u8);
            record
        });
        let shard = shard.map(|(index, count)| ShardAssignment { index, count });
        write_snapshot(path, height, shard, records).unwrap();
    }

    /// Addresses 0..universe bucketed by the frozen hash for a given count.
    fn addrs_for(count: u32, shard: u32, universe: u64) -> Vec<u64> {
        let map = ShardMap::new(count);
        (0..universe)
            .filter(|a| map.shard_of(Address(*a)) == shard)
            .collect()
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bashard-rebal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn rebalance_2_to_4_routes_every_address_to_its_new_owner() {
        let dir = scratch("route");
        let base = dir.join("snap.bstream");
        for i in 0..2 {
            let path = shard_snapshot_path(&base, i, 2);
            write_shard(&path, 7, Some((i, 2)), &addrs_for(2, i, 64));
        }
        let out_base = dir.join("rebal.bstream");
        let report = rebalance_snapshots(&base, 2, &out_base, 4).unwrap();
        assert_eq!(report.addresses, 64);
        assert_eq!(report.outputs.len(), 4);

        // Each output must read back clean, carry its own layout, and be
        // exactly the fresh-4-shard rendering of its slice.
        for j in 0..4 {
            let path = shard_snapshot_path(&out_base, j, 4);
            let snapshot = read_snapshot(&path).unwrap();
            assert_eq!(snapshot.shard, Some(ShardAssignment { index: j, count: 4 }));
            assert_eq!(snapshot.height, 7);
            let expect = dir.join(format!("fresh-{j}.bstream"));
            write_shard(&expect, 7, Some((j, 4)), &addrs_for(4, j, 64));
            assert_eq!(
                std::fs::read(&path).unwrap(),
                std::fs::read(&expect).unwrap(),
                "shard {j} output differs from a fresh 4-shard write"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checksum_is_refused() {
        let dir = scratch("crc");
        let base = dir.join("snap.bstream");
        let path = shard_snapshot_path(&base, 0, 1);
        write_shard(&path, 7, Some((0, 1)), &addrs_for(1, 0, 8));
        // The last byte is inside the last record's payload.
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        let err = rebalance_snapshots(&base, 1, &dir.join("out.bstream"), 2).unwrap_err();
        assert!(
            matches!(err, RebalanceError::Snapshot(SnapshotError::Checksum(_))),
            "got {err}"
        );
        assert!(!shard_snapshot_path(&dir.join("out.bstream"), 0, 2).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn misplaced_address_is_refused() {
        let dir = scratch("own");
        let base = dir.join("snap.bstream");
        // Put shard 1's addresses in shard 0's file.
        for i in 0..2 {
            let path = shard_snapshot_path(&base, i, 2);
            write_shard(&path, 7, Some((i, 2)), &addrs_for(2, 1, 32));
        }
        let err = rebalance_snapshots(&base, 2, &dir.join("out.bstream"), 4).unwrap_err();
        assert!(matches!(err, RebalanceError::Layout(_)), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn differing_heights_are_refused() {
        let dir = scratch("height");
        let base = dir.join("snap.bstream");
        let path0 = shard_snapshot_path(&base, 0, 2);
        write_shard(&path0, 7, Some((0, 2)), &addrs_for(2, 0, 16));
        // Second shard at a different height.
        write_shard(&shard_snapshot_path(&base, 1, 2), 9, Some((1, 2)), &[]);
        let err = rebalance_snapshots(&base, 2, &dir.join("out.bstream"), 4).unwrap_err();
        assert!(matches!(err, RebalanceError::Layout(_)), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
