//! Offline shard rebalancing: re-split `base.{i}of{N}` snapshot files to a
//! new shard count without replaying the chain.
//!
//! The key property — and the reason this is ~text manipulation rather
//! than a model-state migration — is that a snapshot's per-address section
//! (`A` line plus its `T` lines) is a pure function of that address's
//! transaction history and the frozen classifier. Which *file* a section
//! lands in is decided by [`ShardMap`] alone. So rebalancing N→M is:
//! verify and parse the N inputs, k-way merge their sections in ascending
//! address order (each input is already sorted — followers iterate a
//! `BTreeMap`), route every section through `ShardMap::new(M)`, and write
//! M outputs with fresh headers and checksums, copying each section's
//! bytes **verbatim**. The result is byte-identical to what a fresh
//! M-shard fleet would have written after consuming the same chain —
//! `bashard-rebalance` is the CLI, and the network acceptance test
//! asserts the identity.
//!
//! Safety rails, in the same spirit as `Follower::restore`:
//! * checksum trailers are verified before any parse, by the same
//!   `bstream::snapshot::verify_trailer` restore uses (a file without one
//!   is refused);
//! * headers are read by the same `bstream::SnapshotHeader::parse` restore
//!   uses, and every input must carry the expected `shard i N` line (a
//!   single unsharded input stands in for the 1-shard layout);
//! * all inputs must agree on `height`;
//! * every address must live in the file its old layout assigns it to —
//!   a mis-assembled input set fails loudly instead of producing a
//!   plausible-looking but misrouted output;
//! * outputs are written atomically (`baclassifier::write_atomic`).

use crate::stream::shard_snapshot_path;
use baclassifier::{write_atomic, ShardAssignment, ShardMap};
use bstream::snapshot::{push_trailer, verify_trailer};
use bstream::{SnapshotError, SnapshotHeader, SnapshotLines};
use btcsim::Address;
use std::path::{Path, PathBuf};

/// Why a rebalance run was refused.
#[derive(Debug)]
pub enum RebalanceError {
    Io(std::io::Error),
    /// A structural problem in an input file.
    Malformed(String),
    /// An input failed its checksum trailer.
    Checksum(String),
    /// Input set inconsistent: wrong shard lines, differing heights,
    /// misplaced addresses.
    Layout(String),
}

impl std::fmt::Display for RebalanceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RebalanceError::Io(e) => write!(f, "i/o error: {e}"),
            RebalanceError::Malformed(m) => write!(f, "malformed snapshot: {m}"),
            RebalanceError::Checksum(m) => write!(f, "checksum failure: {m}"),
            RebalanceError::Layout(m) => write!(f, "layout error: {m}"),
        }
    }
}

impl std::error::Error for RebalanceError {}

impl From<std::io::Error> for RebalanceError {
    fn from(e: std::io::Error) -> Self {
        RebalanceError::Io(e)
    }
}

/// A format or partition-hash version this build does not implement is a
/// layout the rebalancer cannot re-split; the rest map one to one.
impl From<SnapshotError> for RebalanceError {
    fn from(e: SnapshotError) -> Self {
        match e {
            SnapshotError::Io(e) => RebalanceError::Io(e),
            SnapshotError::Checksum(m) => RebalanceError::Checksum(m),
            SnapshotError::Malformed(m) => RebalanceError::Malformed(m),
            other => RebalanceError::Layout(other.to_string()),
        }
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

/// One address's section of a snapshot, kept as verbatim text.
struct Section {
    addr: Address,
    /// The `A` line and its `T` lines, newline-terminated, exactly as they
    /// appeared in the input.
    text: String,
}

/// One parsed input file: header facts plus its sections in file order.
struct ParsedShard {
    height: u64,
    /// `(index, count)` from the shard line; `None` for an unsharded file.
    shard: Option<(u32, u32)>,
    sections: Vec<Section>,
}

/// Parse one snapshot file, verifying its checksum and keeping each
/// address section as verbatim bytes.
fn parse_snapshot(path: &Path) -> Result<ParsedShard, RebalanceError> {
    let text = std::fs::read_to_string(path)?;
    // Checksum trailer first, exactly as `Follower::restore` does.
    let body = verify_trailer(path, &text)?;
    let mut lines = SnapshotLines::new(path, body);
    let header = SnapshotHeader::parse(&mut lines)?;

    let mut sections = Vec::with_capacity(header.addresses.min(1 << 20));
    for _ in 0..header.addresses {
        let a_line = lines.next_line("A line")?;
        let mut toks = a_line.split_whitespace();
        if toks.next() != Some("A") {
            return Err(lines.bad(format!("expected A line, got {a_line:?}")).into());
        }
        let addr = toks
            .next()
            .and_then(|t| t.parse::<u64>().ok())
            .map(Address)
            .ok_or_else(|| lines.bad(format!("bad address in {a_line:?}")))?;
        let num_txs = toks
            .nth(1) // skip the label field
            .and_then(|t| t.parse::<usize>().ok())
            .ok_or_else(|| lines.bad(format!("bad tx count in {a_line:?}")))?;
        let mut section = String::with_capacity(a_line.len() + 1);
        section.push_str(a_line);
        section.push('\n');
        for _ in 0..num_txs {
            let t_line = lines.next_line("T line")?;
            if !t_line.starts_with("T ") {
                return Err(lines.bad(format!("expected T line, got {t_line:?}")).into());
            }
            section.push_str(t_line);
            section.push('\n');
        }
        sections.push(Section {
            addr,
            text: section,
        });
    }
    if let Ok(extra) = lines.next_line("end of file") {
        return Err(lines
            .bad(format!("trailing content after last section: {extra:?}"))
            .into());
    }
    Ok(ParsedShard {
        height: header.height,
        shard: header.shard.map(|s| (s.index, s.count)),
        sections,
    })
}

/// Re-split the sharded snapshot set at `input_base` (old layout inferred
/// and validated from the files) into `new_count` shards at `output_base`.
///
/// `old_count` names the input layout: files
/// `input_base.0of{old_count}` … are read (for `old_count == 1`, a bare
/// unsharded `input_base` file is accepted when the `.0of1` file is
/// absent). Outputs land at `output_base.{j}of{new_count}`, each
/// byte-identical to what a fresh `new_count`-shard run over the same
/// chain would have checkpointed.
pub fn rebalance_snapshots(
    input_base: &Path,
    old_count: u32,
    output_base: &Path,
    new_count: u32,
) -> Result<RebalanceReport, RebalanceError> {
    if old_count == 0 || new_count == 0 {
        return Err(RebalanceError::Layout(
            "shard counts must be at least 1".to_string(),
        ));
    }

    // Read and validate every input under its claimed layout.
    let mut inputs: Vec<(PathBuf, ParsedShard)> = Vec::with_capacity(old_count as usize);
    for i in 0..old_count {
        let sharded_path = shard_snapshot_path(input_base, i, old_count);
        let path = if old_count == 1 && !sharded_path.exists() && input_base.exists() {
            input_base.to_path_buf()
        } else {
            sharded_path
        };
        let parsed = parse_snapshot(&path)?;
        match parsed.shard {
            Some((index, count)) => {
                if index != i || count != old_count {
                    return Err(RebalanceError::Layout(format!(
                        "{}: file claims shard {index}/{count}, expected {i}/{old_count}",
                        path.display()
                    )));
                }
            }
            None if old_count == 1 => {} // unsharded input
            None => {
                return Err(RebalanceError::Layout(format!(
                    "{}: unsharded file in a {old_count}-shard input set",
                    path.display()
                )));
            }
        }
        inputs.push((path, parsed));
    }

    let height = inputs[0].1.height;
    for (path, parsed) in &inputs {
        if parsed.height != height {
            return Err(RebalanceError::Layout(format!(
                "{}: height {} differs from {} — snapshot set is not a \
                 consistent checkpoint",
                path.display(),
                parsed.height,
                height
            )));
        }
    }

    // Ownership check under the old layout, and sortedness within each
    // file (followers write `BTreeMap` order; anything else means the file
    // was not produced by this pipeline).
    let old_map = ShardMap::new(old_count);
    for (i, (path, parsed)) in inputs.iter().enumerate() {
        let mut prev: Option<Address> = None;
        for section in &parsed.sections {
            let owner = old_map.shard_of(section.addr);
            if owner != i as u32 {
                return Err(RebalanceError::Layout(format!(
                    "{}: address {} belongs to shard {owner} of {old_count}, \
                     found in shard {i}'s file",
                    path.display(),
                    section.addr.0
                )));
            }
            if prev.is_some_and(|p| p >= section.addr) {
                return Err(RebalanceError::Malformed(format!(
                    "{}: addresses out of order near {}",
                    path.display(),
                    section.addr.0
                )));
            }
            prev = Some(section.addr);
        }
    }

    // K-way merge in ascending address order (inputs are sorted and the
    // partition is disjoint, so a plain merge-then-route reproduces the
    // global BTreeMap order a fresh follower would iterate).
    let mut merged: Vec<Section> = Vec::new();
    for (_, parsed) in inputs {
        merged.extend(parsed.sections);
    }
    merged.sort_by_key(|s| s.addr);
    let addresses = merged.len();

    // Route through the new layout and render each output.
    let new_map = ShardMap::new(new_count);
    let mut buckets: Vec<Vec<&Section>> = (0..new_count).map(|_| Vec::new()).collect();
    for section in &merged {
        buckets[new_map.shard_of(section.addr) as usize].push(section);
    }

    let mut outputs = Vec::with_capacity(new_count as usize);
    for (j, bucket) in buckets.iter().enumerate() {
        let mut out = String::new();
        SnapshotHeader {
            height,
            shard: Some(ShardAssignment {
                index: j as u32,
                count: new_count,
            }),
            addresses: bucket.len(),
        }
        .write(&mut out);
        for section in bucket {
            out.push_str(&section.text);
        }
        push_trailer(&mut out);

        let path = shard_snapshot_path(output_base, j as u32, new_count);
        write_atomic(&path, out.as_bytes())?;
        outputs.push(path);
    }

    Ok(RebalanceReport {
        height,
        addresses,
        old_count,
        new_count,
        outputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use baclassifier::SHARD_HASH_VERSION;
    use std::fmt::Write as _;

    fn write_snapshot(path: &Path, shard: Option<(u32, u32)>, addrs: &[(u64, usize)]) {
        let mut out = String::new();
        out.push_str("BSTREAM v1\n");
        out.push_str("height 7\n");
        if let Some((i, n)) = shard {
            let _ = writeln!(out, "shard {i} {n} {SHARD_HASH_VERSION}");
        }
        let _ = writeln!(out, "addresses {}", addrs.len());
        for (addr, txs) in addrs {
            let _ = writeln!(out, "A {addr} - {txs}");
            for t in 0..*txs {
                let _ = writeln!(out, "T {t} {t} 1 1 {addr}:100 {addr}:50");
            }
        }
        push_trailer(&mut out);
        std::fs::write(path, out).unwrap();
    }

    /// Addresses 0..k bucketed by the frozen hash for a given count.
    fn addrs_for(count: u32, shard: u32, universe: u64) -> Vec<(u64, usize)> {
        let map = ShardMap::new(count);
        (0..universe)
            .filter(|a| map.shard_of(Address(*a)) == shard)
            .map(|a| (a, 1 + (a % 3) as usize))
            .collect()
    }

    #[test]
    fn rebalance_2_to_4_routes_every_address_to_its_new_owner() {
        let dir = std::env::temp_dir().join(format!("bashard-rebal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("snap.bstream");
        for i in 0..2 {
            write_snapshot(
                &shard_snapshot_path(&base, i, 2),
                Some((i, 2)),
                &addrs_for(2, i, 64),
            );
        }
        let out_base = dir.join("rebal.bstream");
        let report = rebalance_snapshots(&base, 2, &out_base, 4).unwrap();
        assert_eq!(report.addresses, 64);
        assert_eq!(report.outputs.len(), 4);

        // Each output must parse clean, carry its own layout, and be
        // exactly the fresh-4-shard rendering of its slice.
        for j in 0..4 {
            let path = shard_snapshot_path(&out_base, j, 4);
            let parsed = parse_snapshot(&path).unwrap();
            assert_eq!(parsed.shard, Some((j, 4)));
            assert_eq!(parsed.height, 7);
            let expect = dir.join(format!("fresh-{j}.bstream"));
            write_snapshot(&expect, Some((j, 4)), &addrs_for(4, j, 64));
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
        let dir = std::env::temp_dir().join(format!("bashard-rebal-crc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("snap.bstream");
        let path = shard_snapshot_path(&base, 0, 1);
        write_snapshot(&path, Some((0, 1)), &addrs_for(1, 0, 8));
        let mut bytes = std::fs::read(&path).unwrap();
        let flip = bytes.len() / 2;
        bytes[flip] ^= 0x01;
        std::fs::write(&path, bytes).unwrap();
        let err = rebalance_snapshots(&base, 1, &dir.join("out.bstream"), 2).unwrap_err();
        assert!(matches!(err, RebalanceError::Checksum(_)), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn misplaced_address_is_refused() {
        let dir = std::env::temp_dir().join(format!("bashard-rebal-own-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("snap.bstream");
        // Put shard 1's addresses in shard 0's file.
        write_snapshot(
            &shard_snapshot_path(&base, 0, 2),
            Some((0, 2)),
            &addrs_for(2, 1, 32),
        );
        write_snapshot(
            &shard_snapshot_path(&base, 1, 2),
            Some((1, 2)),
            &addrs_for(2, 1, 32),
        );
        let err = rebalance_snapshots(&base, 2, &dir.join("out.bstream"), 4).unwrap_err();
        assert!(matches!(err, RebalanceError::Layout(_)), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn differing_heights_are_refused() {
        let dir = std::env::temp_dir().join(format!("bashard-rebal-h-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = dir.join("snap.bstream");
        write_snapshot(
            &shard_snapshot_path(&base, 0, 2),
            Some((0, 2)),
            &addrs_for(2, 0, 16),
        );
        // Second shard at a different height.
        let path1 = shard_snapshot_path(&base, 1, 2);
        let mut out = String::new();
        out.push_str("BSTREAM v1\nheight 9\n");
        let _ = writeln!(out, "shard 1 2 {SHARD_HASH_VERSION}");
        out.push_str("addresses 0\n");
        push_trailer(&mut out);
        std::fs::write(&path1, out).unwrap();
        let err = rebalance_snapshots(&base, 2, &dir.join("out.bstream"), 4).unwrap_err();
        assert!(matches!(err, RebalanceError::Layout(_)), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
