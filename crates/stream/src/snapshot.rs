//! Snapshot/restore of follower state.
//!
//! Format (`BSTREAM v2`): a `baclassifier::durable` record file — the
//! 8-byte magic `BSTRM v2`, then the journal's CRC frames — fields
//! little-endian:
//!
//! ```text
//! header  := height u64 · shard index u32 · shard count u32 (0: unsharded)
//!            · hash-version u32 · addresses u64
//! address := address u64 · label u8 (255: none) · margin u8 (0: none,
//!            1: f32 bits u32) · tx-count u32 · per transaction: txid u64
//!            · timestamp u64 · n-in u32 · n-out u32 · (address u64 ·
//!            sats u64) per input, then per output
//! ```
//!
//! Address records follow in `BTreeMap` order, each leading with its
//! address so the offline rebalancer routes them verbatim. Graphs and
//! embeddings are functions of the history and are not stored; a
//! transaction is interned back into one `Arc` on restore. Files are written
//! atomically (`durable::write_records`).
//!
//! Unlike the journal, a snapshot fails closed: a journal's valid prefix is
//! a shorter chain that replay extends, a snapshot's is a follower missing
//! addresses that nothing brings back. A torn or CRC-failing frame, a
//! missing or extra record, or one that does not decode is a typed
//! [`SnapshotError`] naming the path, and recovery quarantines the file.
//! Restore adopts the recorded layout when the config names none and
//! refuses another one or an unknown partition-hash version.

use crate::follower::{AddressState, Follower, FollowerConfig};
use baclassifier::durable::{
    put_u32, put_u64, write_records, Cursor, RecordFault, RecordReader, FRAME_HEADER,
};
use baclassifier::{ArtifactError, ModelArtifact, ShardAssignment, SHARD_HASH_VERSION};
use btcsim::{Address, Amount, Label, TxView, Txid};
use std::collections::hash_map::{Entry, HashMap};
use std::io::Read;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;

/// Why a snapshot could not be written or read back.
#[derive(Debug)]
pub enum SnapshotError {
    Io(std::io::Error),
    /// The file exists but does not parse as a snapshot.
    Malformed(String),
    /// The file is a snapshot of a version this build cannot read.
    UnsupportedVersion(String),
    /// A record's payload does not match its stored CRC.
    Checksum(String),
    /// The model artifact could not be loaded during restore.
    Artifact(ArtifactError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::Malformed(m) => write!(f, "malformed snapshot: {m}"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported snapshot: {v}"),
            SnapshotError::Checksum(m) => write!(f, "snapshot checksum mismatch: {m}"),
            SnapshotError::Artifact(e) => write!(f, "artifact: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// The file's first 8 bytes; the format version is part of them.
const MAGIC: &[u8; 8] = b"BSTRM v2";

/// The header record's payload: height, index, count, hash version, count.
const HEADER_LEN: usize = 8 + 4 + 4 + 4 + 8;

/// The label byte of an address that has none (deferred under `min_txs`).
const NO_LABEL: u8 = u8::MAX;

fn malformed(path: &Path, msg: std::fmt::Arguments) -> SnapshotError {
    SnapshotError::Malformed(format!("{}: {msg}", path.display()))
}

/// A record-file fault met reading `what`, as this format reports it.
fn refused(path: &Path, what: std::fmt::Arguments, fault: RecordFault) -> SnapshotError {
    let path = path.display();
    match fault {
        RecordFault::Magic(_) => {
            SnapshotError::UnsupportedVersion(format!("{path}: {fault}, this build reads BSTRM v2"))
        }
        RecordFault::Crc(_) => SnapshotError::Checksum(format!("{path}: {what}: {fault}")),
        _ => SnapshotError::Malformed(format!("{path}: {what}: {fault}")),
    }
}

/// A snapshot read whole with every frame's CRC checked.
pub struct Snapshot {
    /// The height a restored follower resumes at.
    pub height: u64,
    /// `None` for an unsharded file: the trivial 1-shard layout.
    pub shard: Option<ShardAssignment>,
    bytes: Vec<u8>,
    /// Each address record's address and payload, in file order.
    records: Vec<(Address, Range<usize>)>,
}

impl Snapshot {
    /// Each address record: its address and its whole payload.
    pub fn records(&self) -> impl ExactSizeIterator<Item = (Address, &[u8])> {
        let bytes = &self.bytes;
        self.records.iter().map(|(a, r)| (*a, &bytes[r.clone()]))
    }
}

/// Write a snapshot of `records` (address record payloads, in `BTreeMap`
/// order) atomically to `path`. The one writer: [`Follower::snapshot_to`]
/// and the offline rebalancer.
pub fn write_snapshot<R: AsRef<[u8]>>(
    path: &Path,
    height: u64,
    shard: Option<ShardAssignment>,
    records: impl ExactSizeIterator<Item = R>,
) -> Result<(), SnapshotError> {
    let layout = shard.map_or([0; 3], |s| [s.index, s.count, SHARD_HASH_VERSION]);
    let mut header = height.to_le_bytes().to_vec();
    header.extend(layout.iter().flat_map(|field| field.to_le_bytes()));
    put_u64(&mut header, records.len() as u64);
    Ok(write_records(path, MAGIC, &header, records)?)
}

/// The magic and header at the front of `bytes`: a snapshot with no records
/// yet, how many it declares, and the reader positioned after the header.
fn read_header<'a>(
    path: &Path,
    bytes: &'a [u8],
) -> Result<(Snapshot, usize, RecordReader<'a>), SnapshotError> {
    let (reader, payload) = RecordReader::open(bytes, MAGIC)
        .map_err(|fault| refused(path, format_args!("header record"), fault))?;
    let mut c = Cursor::new(payload);
    let fields = (c.u64(), c.u32(), c.u32(), c.u32(), c.u64(), c.remaining());
    let (Some(height), Some(index), Some(count), Some(hash), Some(addresses), 0) = fields else {
        let msg = format_args!("header record of {} bytes", payload.len());
        return Err(malformed(path, msg));
    };
    if count > 0 && hash != SHARD_HASH_VERSION {
        let path = path.display();
        let msg = format!("{path}: shard hash v{hash}, this build reads v{SHARD_HASH_VERSION}");
        return Err(SnapshotError::UnsupportedVersion(msg));
    }
    if index >= count.max(1) {
        return Err(malformed(path, format_args!("bad shard {index}/{count}")));
    }
    let shard = (count > 0).then_some(ShardAssignment { index, count });
    let snapshot = Snapshot {
        height,
        shard,
        bytes: Vec::new(),
        records: Vec::new(),
    };
    Ok((snapshot, addresses as usize, reader))
}

/// Read `path` whole: the header, exactly the address records it declares
/// (each CRC-checked and at least an address long), then the end of the
/// file. The one reader: restore and the offline rebalancer.
pub fn read_snapshot(path: &Path) -> Result<Snapshot, SnapshotError> {
    let bytes = std::fs::read(path)?;
    let (mut snapshot, addresses, mut reader) = read_header(path, &bytes)?;
    snapshot.records.reserve(addresses.min(bytes.len() / 16));
    for i in 0..addresses {
        let what = format_args!("address record {i} of {addresses}");
        let payload = reader.record().map_err(|f| refused(path, what, f))?;
        let Some(addr) = Cursor::new(payload).u64() else {
            let msg = format_args!("address record {i}: no address");
            return Err(malformed(path, msg));
        };
        let end = reader.pos();
        let range = end - payload.len()..end;
        snapshot.records.push((Address(addr), range));
    }
    let what = format_args!("{addresses} address records");
    reader.finish().map_err(|f| refused(path, what, f))?;
    snapshot.bytes = bytes;
    Ok(snapshot)
}

/// The height a restore of `path` would resume at, from its magic and
/// header record alone, CRC checked: the journal-compaction floor.
pub fn snapshot_height(path: &Path) -> Result<u64, SnapshotError> {
    let mut head = Vec::new();
    let len = MAGIC.len() + FRAME_HEADER + HEADER_LEN;
    let file = std::fs::File::open(path)?;
    file.take(len as u64).read_to_end(&mut head)?;
    Ok(read_header(path, &head)?.0.height)
}

fn encode_address(addr: Address, label: Option<Label>, state: &AddressState) -> Vec<u8> {
    let mut out = addr.0.to_le_bytes().to_vec();
    out.push(label.map_or(NO_LABEL, |l| l.index() as u8));
    out.push(state.margin.is_some().into());
    if let Some(margin) = state.margin {
        put_u32(&mut out, margin.to_bits());
    }
    put_u32(&mut out, state.history.len() as u32);
    for tx in &state.history {
        put_u64(&mut out, tx.txid.0);
        put_u64(&mut out, tx.timestamp);
        put_u32(&mut out, tx.inputs.len() as u32);
        put_u32(&mut out, tx.outputs.len() as u32);
        for (addr, value) in tx.inputs.iter().chain(&tx.outputs) {
            put_u64(&mut out, addr.0);
            put_u64(&mut out, value.sats());
        }
    }
    out
}

/// A read past the record's end, as this format reports it.
fn short<T>(read: Option<T>) -> Result<T, String> {
    read.ok_or_else(|| "record ends early".to_string())
}

type AddressRecord = (Option<Label>, Option<f32>, Vec<Arc<TxView>>);

/// An address record's label, margin and history. Equal transactions are
/// one `Arc`; one that differs from the first seen under its txid keeps
/// its own copy.
fn read_address(
    payload: &[u8],
    interned: &mut HashMap<Txid, Arc<TxView>>,
) -> Result<AddressRecord, String> {
    let mut c = Cursor::new(payload);
    short(c.u64())?; // the address, read by `read_snapshot`
    let label = match short(c.u8())? {
        NO_LABEL => None,
        i => Some(Label::from_index(i.into()).ok_or(format!("bad label index {i}"))?),
    };
    let margin = match short(c.u8())? {
        0 => None,
        1 => Some(f32::from_bits(short(c.u32())?)),
        tag => return Err(format!("bad margin tag {tag}")),
    };
    let num_txs = short(c.u32())? as usize;
    // Each transaction needs at least its 24-byte fixed part.
    if num_txs > c.remaining() / 24 {
        return Err(format!("tx count {num_txs} exceeds the record"));
    }
    let mut history = Vec::with_capacity(num_txs);
    for _ in 0..num_txs {
        let (txid, timestamp) = (Txid(short(c.u64())?), short(c.u64())?);
        let (n_in, n_out) = (short(c.u32())? as usize, short(c.u32())? as usize);
        if n_in + n_out > c.remaining() / 16 {
            return Err(format!("{} entries exceed the record", n_in + n_out));
        }
        let mut entry = |_| Ok((Address(short(c.u64())?), Amount::from_sats(short(c.u64())?)));
        let inputs = (0..n_in).map(&mut entry).collect::<Result<_, String>>()?;
        let outputs = (0..n_out).map(&mut entry).collect::<Result<_, String>>()?;
        let view = TxView {
            txid,
            timestamp,
            inputs,
            outputs,
        };
        history.push(match interned.entry(txid) {
            Entry::Occupied(first) if **first.get() == view => Arc::clone(first.get()),
            Entry::Occupied(_) => Arc::new(view),
            Entry::Vacant(slot) => Arc::clone(slot.insert(Arc::new(view))),
        });
    }
    match c.remaining() {
        0 => Ok((label, margin, history)),
        trailing => Err(format!("{trailing} trailing bytes")),
    }
}

impl Follower {
    /// Write a snapshot to `path` atomically, older generations rotated
    /// aside first. A reclassification pass runs first so the snapshot is a
    /// fully-classified point: a restored follower starts clean, so an
    /// address dirty now but untouched afterwards would never get its label.
    pub fn snapshot_to(&mut self, path: &Path) -> Result<(), SnapshotError> {
        self.reclassify_dirty();
        let records = self
            .states
            .iter()
            .map(|(addr, state)| encode_address(*addr, self.labels.get(addr).copied(), state));
        crate::recovery::rotate_generations(path)?;
        write_snapshot(path, self.next_height, self.cfg.shard, records)?;
        self.metrics.snapshots_written += 1;
        Ok(())
    }

    /// Rebuild a follower from a snapshot: histories, labels and margins;
    /// no graph is built. The restored follower resumes at the
    /// snapshot's height: feed it the chain from there (or an overlapping
    /// prefix — already-seen blocks are skipped).
    pub fn restore(
        artifact: &ModelArtifact,
        mut cfg: FollowerConfig,
        path: &Path,
    ) -> Result<Self, SnapshotError> {
        let snapshot = read_snapshot(path)?;
        // A snapshot knows its own layout: a config that names none adopts
        // it, one that names another is refused.
        if let Some(want) = cfg.shard {
            let have = snapshot.shard.unwrap_or_else(ShardAssignment::unsharded);
            if have != want {
                let msg = format_args!("shard layout mismatch: snapshot {have:?}, config {want:?}");
                return Err(malformed(path, msg));
            }
        }
        cfg.shard = cfg.shard.or(snapshot.shard);

        let mut follower = Follower::new(artifact, cfg).map_err(SnapshotError::Artifact)?;
        follower.next_height = snapshot.height;
        let mut interned: HashMap<Txid, Arc<TxView>> = HashMap::new();
        for (i, (addr, payload)) in snapshot.records().enumerate() {
            let (label, margin, history) = read_address(payload, &mut interned)
                .map_err(|m| malformed(path, format_args!("address record {i}: {m}")))?;
            // Graphs and embeddings wait for the first reclassification.
            // Snapshots are taken at fully-classified points, so an address
            // without a label was deferred under `min_txs`: it stays dirty.
            let state = AddressState {
                history,
                dirty: label.is_none(),
                margin,
                ..AddressState::default()
            };
            follower.states.insert(addr, state);
            if let Some(label) = label {
                follower.labels.insert(addr, label);
            }
        }
        Ok(follower)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::follower::tests::{distinct_txs, test_sim};
    use baclassifier::durable::{next_frame, put_frame, Frame};
    use baclassifier::BacConfig;
    use btcsim::BlockCursor;

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "bstream_snapshot_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    /// A follower over `blocks` blocks of seed `seed`, snapshotted to a
    /// fresh path: the follower, the path and the file's bytes.
    fn snapshotted(seed: u64, blocks: u64, tag: &str) -> (Follower, std::path::PathBuf, Vec<u8>) {
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let mut follower = Follower::new(&artifact, FollowerConfig::default()).unwrap();
        for block in BlockCursor::new(test_sim(seed, blocks)) {
            follower.step(&block);
        }
        let path = temp_path(tag);
        follower.snapshot_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        (follower, path, bytes)
    }

    /// Magic, then a frame per payload: a file whose records say what the
    /// test wants them to, each with a valid CRC.
    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        for payload in payloads {
            put_frame(&mut out, payload, u32::MAX).unwrap();
        }
        out
    }

    /// A header record's payload: height, `[index, count, hash version]`,
    /// address count.
    fn header(height: u64, layout: [u32; 3], addresses: u64) -> Vec<u8> {
        let mut out = height.to_le_bytes().to_vec();
        layout.iter().for_each(|field| put_u32(&mut out, *field));
        put_u64(&mut out, addresses);
        out
    }

    fn restore_err(path: &Path) -> SnapshotError {
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        Follower::restore(&artifact, FollowerConfig::default(), path)
            .err()
            .expect("restore must fail")
    }

    /// Every frame boundary of a snapshot: after the magic, after each
    /// record.
    fn frame_ends(bytes: &[u8]) -> Vec<usize> {
        let mut ends = vec![MAGIC.len()];
        while let Frame::Whole { end, .. } = next_frame(&bytes[*ends.last().unwrap()..], u32::MAX) {
            ends.push(ends.last().unwrap() + end);
        }
        ends
    }

    #[test]
    fn snapshot_roundtrip_preserves_state() {
        let (follower, path, _) = snapshotted(31, 20, "roundtrip");
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let restored = Follower::restore(&artifact, FollowerConfig::default(), &path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(restored.next_height(), follower.next_height());
        assert_eq!(restored.num_tracked(), follower.num_tracked());
        assert_eq!(restored.labels(), follower.labels());
        assert!(follower.states.values().any(|s| s.margin.is_some()));
        for (addr, state) in &follower.states {
            let r = restored.states.get(addr).expect("address restored");
            assert_eq!(r.history, state.history);
            // The margin comes back bit for bit.
            assert_eq!(r.margin.map(f32::to_bits), state.margin.map(f32::to_bits));
            // Labelled addresses come back clean; one deferred under
            // `min_txs` keeps the dirty bit the uninterrupted run holds.
            assert_eq!(r.dirty, state.dirty);
            assert_eq!(r.dirty, !restored.labels().contains_key(addr));
        }
    }

    #[test]
    fn restore_shares_transactions_builds_no_graph_and_re_embeds_identically() {
        let (follower, path, _) = snapshotted(42, 60, "shared");
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let mut restored = Follower::restore(&artifact, FollowerConfig::default(), &path).unwrap();
        std::fs::remove_file(&path).ok();

        let (ptrs, txids) = distinct_txs(&restored);
        assert_eq!(ptrs, txids, "one Arc<TxView> per transaction again");
        assert_eq!((ptrs, txids), distinct_txs(&follower));
        assert!(restored.states.values().all(|s| s.inc.is_none()));
        assert!(restored.states.values().all(|s| s.embeds.is_empty()));

        restored.mark_all_dirty();
        restored.reclassify_dirty();
        assert_eq!(restored.labels(), follower.labels());
        assert_eq!(restored.num_tracked(), follower.num_tracked());
        for addr in follower.states.keys() {
            assert_eq!(restored.embeddings(*addr), follower.embeddings(*addr));
        }
    }

    #[test]
    fn restored_follower_continues_like_a_continuous_run() {
        let sim = test_sim(37, 24);
        let blocks: Vec<btcsim::Block> = BlockCursor::new(sim).collect();
        let artifact = ModelArtifact::untrained(BacConfig::fast());

        let mut continuous = Follower::new(&artifact, FollowerConfig::default()).unwrap();
        for b in &blocks {
            continuous.step(b);
        }

        let mut first_half = Follower::new(&artifact, FollowerConfig::default()).unwrap();
        for b in &blocks[..12] {
            first_half.step(b);
        }
        let path = temp_path("resume");
        first_half.snapshot_to(&path).unwrap();
        let mut resumed = Follower::restore(&artifact, FollowerConfig::default(), &path).unwrap();
        std::fs::remove_file(&path).ok();
        // Overlapping replay from genesis: heights below the checkpoint are
        // skipped, the rest are applied.
        for b in &blocks {
            resumed.step(b);
        }

        assert_eq!(resumed.labels(), continuous.labels());
        assert_eq!(resumed.next_height(), continuous.next_height());
        for (addr, state) in &continuous.states {
            assert_eq!(resumed.states.get(addr).unwrap().history, state.history);
        }
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let path = temp_path("corrupt");
        let header = |addresses| header(5, [0; 3], addresses);
        let mut future = framed(&[&header(0)]);
        future[..8].copy_from_slice(b"BSTRM v9");
        std::fs::write(&path, future).unwrap();
        match restore_err(&path) {
            SnapshotError::UnsupportedVersion(v) => {
                assert!(v.contains("BSTRM v9"), "version in error: {v}");
                assert!(v.contains(path.to_str().unwrap()), "path in error: {v}");
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }

        // A header that declares a record the file does not hold, and a
        // record too short to carry its address.
        for file in [framed(&[&header(1)]), framed(&[&header(1), &[3, 0, 0]])] {
            std::fs::write(&path, file).unwrap();
            match restore_err(&path) {
                SnapshotError::Malformed(m) => {
                    assert!(m.contains(path.to_str().unwrap()), "{m}");
                    assert!(m.contains("address record 0"), "{m}");
                }
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bitflip_fails_the_checksum_naming_the_path() {
        let (_, path, _) = snapshotted(53, 15, "bitflip");
        let snapshot = read_snapshot(&path).unwrap();
        // One bit in the middle of the middle record's payload.
        let (_, range) = &snapshot.records[snapshot.records.len() / 2];
        let mut corrupted = snapshot.bytes.clone();
        corrupted[(range.start + range.end) / 2] ^= 0x08;
        std::fs::write(&path, &corrupted).unwrap();

        match restore_err(&path) {
            SnapshotError::Checksum(m) => {
                assert!(m.contains(path.to_str().unwrap()), "path in error: {m}");
            }
            other => panic!("expected Checksum, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_cut_at_any_frame_boundary_is_rejected() {
        let (_, path, bytes) = snapshotted(57, 12, "cut");
        let ends = frame_ends(&bytes);
        assert_eq!(
            ends.last(),
            Some(&bytes.len()),
            "the writer frames every byte"
        );
        // Every boundary but the last leaves whole, CRC-valid frames behind:
        // the magic alone, the header alone, the header and some records.
        for &cut in &ends[..ends.len() - 1] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            match restore_err(&path) {
                SnapshotError::Malformed(m) => {
                    assert!(m.contains("missing"), "cut {cut}: {m}");
                    assert!(m.contains(path.to_str().unwrap()), "cut {cut}: {m}");
                }
                other => panic!("cut {cut}: expected Malformed, got {other:?}"),
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_cut_at_any_byte_never_restores() {
        // Small: every cut re-reads the file up to the tear.
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let blocks: Vec<btcsim::Block> = BlockCursor::new(test_sim(63, 6)).collect();
        let outputs = blocks
            .iter()
            .flat_map(|b| &b.txs)
            .flat_map(|tx| &tx.outputs);
        let cfg = FollowerConfig {
            tracked: Some(outputs.map(|o| o.address).take(6).collect()),
            ..FollowerConfig::default()
        };
        let mut follower = Follower::new(&artifact, cfg).unwrap();
        for block in &blocks {
            follower.step(block);
        }
        let path = temp_path("every_byte");
        follower.snapshot_to(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let records = read_snapshot(&path).unwrap().records.len();
        assert!(
            records >= 3 && bytes.len() < 16 << 10,
            "{records} records in {} bytes",
            bytes.len()
        );
        let header_end = frame_ends(&bytes)[1];
        for cut in 0..bytes.len() {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let restored = Follower::restore(&artifact, FollowerConfig::default(), &path);
            assert!(restored.is_err(), "cut {cut} of {} restored", bytes.len());
            // `snapshot_height` reads the header alone: it answers once the
            // header is whole and refuses any cut inside it.
            assert_eq!(
                snapshot_height(&path).is_ok(),
                cut >= header_end,
                "cut {cut}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trailing_garbage_is_rejected_naming_the_path() {
        let (_, path, mut bytes) = snapshotted(59, 10, "garbage");
        // A well-formed, CRC-valid frame after the last declared record.
        put_frame(&mut bytes, &7u64.to_le_bytes(), u32::MAX).unwrap();
        std::fs::write(&path, &bytes).unwrap();

        match restore_err(&path) {
            SnapshotError::Malformed(m) => {
                assert!(m.contains("after the last"), "message: {m}");
                assert!(m.contains(path.to_str().unwrap()), "path in error: {m}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_height_reads_just_the_header() {
        let (follower, path, bytes) = snapshotted(61, 9, "height");
        assert_eq!(snapshot_height(&path).unwrap(), follower.next_height());
        // Only the header is read: a torn record after it is not seen.
        let header_end = frame_ends(&bytes)[1];
        std::fs::write(&path, &bytes[..header_end + 3]).unwrap();
        assert_eq!(snapshot_height(&path).unwrap(), follower.next_height());
        // ...but the header's own CRC is checked.
        let mut flipped = bytes.clone();
        flipped[MAGIC.len() + FRAME_HEADER] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert!(matches!(
            snapshot_height(&path),
            Err(SnapshotError::Checksum(_))
        ));
        std::fs::write(&path, "not a snapshot\n").unwrap();
        assert!(matches!(
            snapshot_height(&path),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sharded_snapshot_records_and_enforces_layout() {
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let shard = ShardAssignment { index: 1, count: 2 };
        let cfg = FollowerConfig {
            shard: Some(shard),
            ..FollowerConfig::default()
        };
        let mut follower = Follower::new(&artifact, cfg.clone()).unwrap();
        for block in BlockCursor::new(test_sim(43, 15)) {
            follower.step(&block);
        }
        let path = temp_path("sharded");
        follower.snapshot_to(&path).unwrap();
        assert_eq!(
            read_snapshot(&path).unwrap().shard,
            Some(shard),
            "snapshot must persist its shard assignment"
        );

        // Restore with the matching config.
        let same = Follower::restore(&artifact, cfg, &path).unwrap();
        assert_eq!(same.num_tracked(), follower.num_tracked());
        assert_eq!(same.config().shard, Some(shard));

        // Restore with no shard in the config: the file's layout is adopted.
        let adopted = Follower::restore(&artifact, FollowerConfig::default(), &path).unwrap();
        assert_eq!(adopted.config().shard, Some(shard));

        // Restore under a different layout is refused.
        let wrong = FollowerConfig {
            shard: Some(ShardAssignment { index: 0, count: 4 }),
            ..FollowerConfig::default()
        };
        match Follower::restore(&artifact, wrong, &path).err() {
            Some(SnapshotError::Malformed(m)) => assert!(m.contains("shard layout mismatch")),
            other => panic!("expected shard mismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unknown_shard_hash_version_is_refused() {
        let path = temp_path("hashver");
        std::fs::write(&path, framed(&[&header(3, [0, 2, 99], 0)])).unwrap();
        match restore_err(&path) {
            SnapshotError::UnsupportedVersion(v) => assert!(v.contains("shard hash v99")),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unsharded_snapshot_restores_under_trivial_layout_only() {
        let (_, path, _) = snapshotted(47, 10, "trivial");
        assert_eq!(read_snapshot(&path).unwrap().shard, None);
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        // Explicit 1-shard config matches an unsharded file...
        let trivial = FollowerConfig {
            shard: Some(ShardAssignment::unsharded()),
            ..FollowerConfig::default()
        };
        assert!(Follower::restore(&artifact, trivial, &path).is_ok());
        // ...but a multi-shard config does not.
        let wrong = FollowerConfig {
            shard: Some(ShardAssignment { index: 0, count: 2 }),
            ..FollowerConfig::default()
        };
        assert!(Follower::restore(&artifact, wrong, &path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_write_is_atomic() {
        let (_, path, _) = snapshotted(41, 10, "atomic");
        // No temp residue next to the final file.
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let residue: Vec<String> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| n.contains(&name) && n.contains(".tmp."))
            .collect();
        assert!(residue.is_empty(), "temp files left behind: {residue:?}");
        assert!(path.exists());
        std::fs::remove_file(&path).ok();
    }

    /// Regression: temp naming via `with_extension("tmp")` collapsed the
    /// sibling per-shard paths `base.0of2` and `base.1of2` onto one temp
    /// file, so concurrent shard snapshots truncated and renamed it out
    /// from under each other — spurious Io errors, or one shard's bytes
    /// landing in the other shard's file (seen as a flaky
    /// `sharded_snapshot_restart_resume` failure). Temp names must be
    /// per-target. The race needs real interleaving, so this hammers a
    /// barrier-aligned snapshot loop from two threads and then checks
    /// both files restore to their own shard's assignment.
    #[test]
    fn concurrent_sibling_snapshots_do_not_collide() {
        let base = temp_path("sibling");
        let shard_path = |i: u32| {
            let mut name = base.as_os_str().to_os_string();
            name.push(format!(".{i}of2"));
            std::path::PathBuf::from(name)
        };
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(2));
        let handles: Vec<_> = (0..2u32)
            .map(|i| {
                let path = shard_path(i);
                let barrier = std::sync::Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let artifact = ModelArtifact::untrained(BacConfig::fast());
                    let cfg = FollowerConfig {
                        shard: Some(ShardAssignment { index: i, count: 2 }),
                        ..FollowerConfig::default()
                    };
                    let mut follower = Follower::new(&artifact, cfg).unwrap();
                    for block in BlockCursor::new(test_sim(47, 8)) {
                        follower.step(&block);
                    }
                    barrier.wait();
                    for _ in 0..25 {
                        follower.snapshot_to(&path).unwrap();
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("snapshot thread survives");
        }
        // Each file restores to its own shard's assignment and state.
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        for i in 0..2u32 {
            let restored =
                Follower::restore(&artifact, FollowerConfig::default(), &shard_path(i)).unwrap();
            assert_eq!(
                restored.config().shard,
                Some(ShardAssignment { index: i, count: 2 })
            );
            std::fs::remove_file(shard_path(i)).ok();
            // Generation files from the repeated snapshots.
            for g in 1..4 {
                let mut name = shard_path(i).into_os_string();
                name.push(format!(".g{g}"));
                std::fs::remove_file(std::path::PathBuf::from(name)).ok();
            }
        }
    }
}
