//! Snapshot/restore of follower state.
//!
//! Format (`BSTREAM v1`, line-oriented text, one file per snapshot):
//!
//! ```text
//! BSTREAM v1
//! height <next_height>
//! shard <index> <count> <hash-version>     (only for sharded followers)
//! addresses <n>
//! A <addr> <label-index|-> <num-txs>
//! T <txid> <timestamp> <n-in> <n-out> <addr>:<sats> ...
//! checksum <crc32-hex>                     (over every preceding byte)
//! ```
//!
//! Each `A` line is followed by its `num-txs` `T` lines, inputs listed
//! before outputs. Only transaction histories and the label table are
//! persisted — aggregates, graphs and embeddings are deterministic
//! functions of the history, so the format survives changes to any derived
//! representation. A transaction is written once per tracked address it
//! touches and interned back into one `Arc` on restore. Snapshots
//! are written atomically (`baclassifier::write_atomic`): a crash
//! mid-write leaves the previous snapshot intact.
//!
//! The trailing `checksum` line is a CRC32 (same polynomial as the block
//! journal) over every byte before it. [`verify_trailer`] checks it before
//! a single parsed value is trusted, so a bit-flip anywhere in the file is
//! a [`SnapshotError::Checksum`] naming the path — not a silently divergent
//! label table — and so is a file with no trailer at all (a truncation at
//! a line boundary would otherwise parse clean). Every parse error names
//! the file and the 1-based line it occurred on.
//!
//! The optional `shard` line makes a snapshot self-describing about its
//! place in a sharded deployment: restore adopts the recorded assignment
//! when the config doesn't name one, rejects the file when the config
//! names a different one, and refuses files written under a partition
//! hash this build doesn't implement. A file with no `shard` line is the
//! trivial 1-shard layout, so pre-sharding snapshots restore unchanged.

use crate::follower::{AddressState, Follower, FollowerConfig};
use crate::journal::crc32;
use baclassifier::construction::FocusAggregates;
use baclassifier::{
    write_atomic, ArtifactError, ModelArtifact, ShardAssignment, SHARD_HASH_VERSION,
};
use btcsim::{Address, Amount, Label, TxView, Txid};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt::Write as _;
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
    /// The file's checksum trailer does not match its contents.
    Checksum(String),
    /// The model artifact could not be loaded during restore.
    Artifact(ArtifactError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot io: {e}"),
            SnapshotError::Malformed(m) => write!(f, "malformed snapshot: {m}"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version: {v}")
            }
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

/// First line of every snapshot; the format version is part of it.
const MAGIC: &str = "BSTREAM v1";

fn malformed(msg: impl Into<String>) -> SnapshotError {
    SnapshotError::Malformed(msg.into())
}

/// Line-by-line reader that knows which file and line it is on, so every
/// error can say exactly where parsing stopped.
pub struct SnapshotLines<'a> {
    path: &'a Path,
    lines: std::str::Lines<'a>,
    /// 1-based number of the last line handed out.
    line_no: usize,
}

impl<'a> SnapshotLines<'a> {
    pub fn new(path: &'a Path, text: &'a str) -> Self {
        Self {
            path,
            lines: text.lines(),
            line_no: 0,
        }
    }

    /// The next line, or a `Malformed` error saying `what` is missing.
    pub fn next_line(&mut self, what: &str) -> Result<&'a str, SnapshotError> {
        match self.lines.next() {
            Some(line) => {
                self.line_no += 1;
                Ok(line)
            }
            None => Err(malformed(format!(
                "{}: unexpected end of file at line {}: missing {what}",
                self.path.display(),
                self.line_no + 1
            ))),
        }
    }

    /// A `Malformed` error about the line handed out last.
    pub fn bad(&self, msg: impl std::fmt::Display) -> SnapshotError {
        malformed(format!(
            "{} line {}: {msg}",
            self.path.display(),
            self.line_no
        ))
    }
}

/// The lines every BSTREAM file starts with: magic, `height`, the optional
/// `shard` line, `addresses`. The one reader and writer of them — restore,
/// [`snapshot_height`], the snapshot writer and the offline rebalancer all
/// go through here, so a header one accepts the others accept.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// The height the restored follower resumes at.
    pub height: u64,
    /// `None` when the file has no `shard` line: the trivial 1-shard layout.
    pub shard: Option<ShardAssignment>,
    /// How many `A` sections follow.
    pub addresses: usize,
}

impl SnapshotHeader {
    pub fn write(&self, out: &mut String) {
        out.push_str(MAGIC);
        out.push('\n');
        let _ = writeln!(out, "height {}", self.height);
        if let Some(shard) = &self.shard {
            let _ = writeln!(
                out,
                "shard {} {} {}",
                shard.index, shard.count, SHARD_HASH_VERSION
            );
        }
        let _ = writeln!(out, "addresses {}", self.addresses);
    }

    /// Parse the header off the front of `lines`, leaving them at the first
    /// `A` line. A magic line or partition-hash version this build does not
    /// implement is [`SnapshotError::UnsupportedVersion`]; anything else
    /// wrong (a `shard` line with `index >= count` included) is
    /// [`SnapshotError::Malformed`].
    pub fn parse(lines: &mut SnapshotLines<'_>) -> Result<Self, SnapshotError> {
        let magic = lines.next_line("BSTREAM header")?;
        if magic != MAGIC {
            return Err(SnapshotError::UnsupportedVersion(format!(
                "{}: {magic}",
                lines.path.display()
            )));
        }
        let mut toks = lines.next_line("height line")?.split_whitespace();
        if toks.next() != Some("height") {
            return Err(lines.bad("expected height line"));
        }
        let height = parse_u64(toks.next(), "height").map_err(|m| lines.bad(m))?;

        let mut toks = lines.next_line("addresses line")?.split_whitespace();
        let mut key = toks.next();
        let mut shard = None;
        if key == Some("shard") {
            let mut field = |what: &str| {
                let tok = toks.next().ok_or_else(|| format!("missing {what}"))?;
                tok.parse::<u32>().map_err(|_| format!("bad {what}"))
            };
            let index = field("shard index").map_err(|m| lines.bad(m))?;
            let count = field("shard count").map_err(|m| lines.bad(m))?;
            let hash_version = field("shard hash version").map_err(|m| lines.bad(m))?;
            if hash_version != SHARD_HASH_VERSION {
                return Err(SnapshotError::UnsupportedVersion(format!(
                    "{}: shard hash v{hash_version} (this build implements \
                     v{SHARD_HASH_VERSION})",
                    lines.path.display()
                )));
            }
            if index >= count {
                return Err(lines.bad(format!("bad shard assignment {index}/{count}")));
            }
            shard = Some(ShardAssignment { index, count });
            toks = lines.next_line("addresses line")?.split_whitespace();
            key = toks.next();
        }
        if key != Some("addresses") {
            return Err(lines.bad("expected addresses line"));
        }
        let addresses = parse_u64(toks.next(), "address count").map_err(|m| lines.bad(m))?;
        Ok(Self {
            height,
            shard,
            addresses: addresses as usize,
        })
    }
}

fn parse_u64(tok: Option<&str>, what: &str) -> Result<u64, String> {
    tok.ok_or_else(|| format!("missing {what}"))?
        .parse()
        .map_err(|_| format!("bad {what}"))
}

fn write_entries(line: &mut String, entries: &[(Address, Amount)]) {
    for (addr, value) in entries {
        let _ = write!(line, " {}:{}", addr.0, value.sats());
    }
}

fn parse_entry(tok: &str) -> Result<(Address, Amount), String> {
    let (addr, sats) = tok
        .split_once(':')
        .ok_or_else(|| format!("bad entry {tok:?}"))?;
    Ok((
        Address(parse_u64(Some(addr), "entry address")?),
        Amount::from_sats(parse_u64(Some(sats), "entry sats")?),
    ))
}

/// Append the `checksum` trailer covering every byte already in `out`.
pub fn push_trailer(out: &mut String) {
    let _ = writeln!(out, "checksum {:08x}", crc32(out.as_bytes()));
}

/// Verify a snapshot's `checksum` trailer and return the text it covers
/// (everything before the trailer line). The one trailer check, shared by
/// [`Follower::restore`] and the offline rebalancer. Fails closed: the
/// last line must be exactly `checksum <8 hex digits>\n` — a missing
/// trailer (empty or truncated file) or a mismatch is
/// [`SnapshotError::Checksum`], an unparseable one (stray `\r`, wrong
/// length) is [`SnapshotError::Malformed`]; no input panics.
pub fn verify_trailer<'a>(path: &Path, text: &'a str) -> Result<&'a str, SnapshotError> {
    let start = text.trim_end_matches('\n').rfind('\n').map_or(0, |i| i + 1);
    let (covered, trailer) = text.split_at(start);
    let Some(stored) = trailer.strip_prefix("checksum ") else {
        return Err(SnapshotError::Checksum(format!(
            "{}: no checksum trailer — file is truncated or not a snapshot",
            path.display()
        )));
    };
    let stored_val = stored
        .strip_suffix('\n')
        .filter(|hex| hex.len() == 8 && hex.bytes().all(|b| b.is_ascii_hexdigit()))
        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
        .ok_or_else(|| {
            malformed(format!(
                "{}: unparseable checksum trailer {stored:?}",
                path.display()
            ))
        })?;
    let computed = crc32(covered.as_bytes());
    if stored_val != computed {
        return Err(SnapshotError::Checksum(format!(
            "{}: stored {stored_val:08x}, computed {computed:08x} — \
             file is corrupt or was edited",
            path.display()
        )));
    }
    Ok(covered)
}

/// Read just the header of a snapshot for its `height` — the height a
/// restore would resume at — without reading or verifying the body. Used to
/// compute the journal-compaction floor across retained generations.
pub fn snapshot_height(path: &Path) -> Result<u64, SnapshotError> {
    use std::io::BufRead;
    let mut reader = std::io::BufReader::new(std::fs::File::open(path)?);
    let mut head = String::new();
    // Magic, height, the optional shard line, addresses.
    for _ in 0..4 {
        reader.read_line(&mut head)?;
    }
    Ok(SnapshotHeader::parse(&mut SnapshotLines::new(path, &head))?.height)
}

impl Follower {
    /// Write a snapshot to `path`, atomically, with a checksum trailer.
    ///
    /// Runs a reclassification pass first so the snapshot captures a
    /// fully-classified point: a restored follower starts with no dirty
    /// state, so an address dirty at checkpoint time but untouched
    /// afterwards would otherwise never get its pending label.
    pub fn snapshot_to(&mut self, path: &Path) -> Result<(), SnapshotError> {
        self.reclassify_dirty();

        let mut out = String::new();
        SnapshotHeader {
            height: self.next_height,
            shard: self.cfg.shard,
            addresses: self.states.len(),
        }
        .write(&mut out);
        for (addr, state) in &self.states {
            let label = self
                .labels
                .get(addr)
                .map_or_else(|| "-".to_string(), |l| l.index().to_string());
            let _ = writeln!(out, "A {} {} {}", addr.0, label, state.history.len());
            for tx in &state.history {
                let mut line = format!(
                    "T {} {} {} {}",
                    tx.txid.0,
                    tx.timestamp,
                    tx.inputs.len(),
                    tx.outputs.len()
                );
                write_entries(&mut line, &tx.inputs);
                write_entries(&mut line, &tx.outputs);
                out.push_str(&line);
                out.push('\n');
            }
        }
        push_trailer(&mut out);

        // Rotate older generations aside before the rename replaces the
        // base file, so a corrupt write discovered later still has a
        // predecessor to fall back to.
        crate::recovery::rotate_generations(path, self.cfg.snapshot_generations)?;
        write_atomic(path, out.as_bytes())?;
        self.metrics.snapshots_written += 1;
        Ok(())
    }

    /// Rebuild a follower from a snapshot: histories, aggregates and
    /// labels; no graph is built. The restored follower resumes at the
    /// snapshot's height: feed it the chain from there (or an overlapping
    /// prefix — already-seen blocks are skipped).
    pub fn restore(
        artifact: &ModelArtifact,
        mut cfg: FollowerConfig,
        path: &Path,
    ) -> Result<Self, SnapshotError> {
        let text = std::fs::read_to_string(path)?;

        let body = verify_trailer(path, &text)?;

        let mut lines = SnapshotLines::new(path, body);
        let header = SnapshotHeader::parse(&mut lines)?;
        match (&cfg.shard, header.shard) {
            // The snapshot knows its own layout: adopt it.
            (None, Some(shard)) => cfg.shard = Some(shard),
            (Some(want), file) => {
                let have = file.unwrap_or_else(ShardAssignment::unsharded);
                if have != *want {
                    return Err(malformed(format!(
                        "shard layout mismatch: snapshot is shard {}/{}, config wants {}/{}",
                        have.index, have.count, want.index, want.count
                    )));
                }
            }
            (None, None) => {}
        }

        let mut follower = Follower::new(artifact, cfg).map_err(SnapshotError::Artifact)?;
        follower.next_height = header.height;
        // Equal `T` lines are one transaction; one that differs from the
        // first seen under its txid keeps its own copy.
        let mut interned: HashMap<Txid, Arc<TxView>> = HashMap::new();

        for _ in 0..header.addresses {
            let mut toks = lines.next_line("A line")?.split_whitespace();
            if toks.next() != Some("A") {
                return Err(lines.bad("expected A line"));
            }
            let addr = Address(parse_u64(toks.next(), "address").map_err(|m| lines.bad(m))?);
            let label = match toks.next() {
                Some("-") => None,
                tok => {
                    let idx = parse_u64(tok, "label index").map_err(|m| lines.bad(m))? as usize;
                    Some(
                        Label::from_index(idx)
                            .ok_or_else(|| lines.bad(format!("bad label index {idx}")))?,
                    )
                }
            };
            let num_txs = parse_u64(toks.next(), "tx count").map_err(|m| lines.bad(m))? as usize;

            let mut history = Vec::with_capacity(num_txs.min(1 << 20));
            for _ in 0..num_txs {
                let mut toks = lines.next_line("T line")?.split_whitespace();
                if toks.next() != Some("T") {
                    return Err(lines.bad("expected T line"));
                }
                let txid = Txid(parse_u64(toks.next(), "txid").map_err(|m| lines.bad(m))?);
                let timestamp = parse_u64(toks.next(), "timestamp").map_err(|m| lines.bad(m))?;
                let n_in =
                    parse_u64(toks.next(), "input count").map_err(|m| lines.bad(m))? as usize;
                let n_out =
                    parse_u64(toks.next(), "output count").map_err(|m| lines.bad(m))? as usize;
                let mut inputs = Vec::with_capacity(n_in.min(1 << 16));
                for _ in 0..n_in {
                    inputs.push(
                        parse_entry(toks.next().ok_or_else(|| lines.bad("missing input"))?)
                            .map_err(|m| lines.bad(m))?,
                    );
                }
                let mut outputs = Vec::with_capacity(n_out.min(1 << 16));
                for _ in 0..n_out {
                    outputs.push(
                        parse_entry(toks.next().ok_or_else(|| lines.bad("missing output"))?)
                            .map_err(|m| lines.bad(m))?,
                    );
                }
                if toks.next().is_some() {
                    return Err(lines.bad("trailing tokens on T line"));
                }
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
            // Graphs and embeddings wait for the first reclassification.
            // Snapshots are taken at fully-classified points, so an address
            // without a label was deferred under `min_txs`: it stays dirty.
            let state = AddressState {
                agg: FocusAggregates::from_history(addr, history.iter().map(Arc::as_ref)),
                history,
                dirty: label.is_none(),
                ..AddressState::default()
            };
            follower.states.insert(addr, state);
            if let Some(label) = label {
                follower.labels.insert(addr, label);
            }
        }
        if lines.next_line("end of file").is_ok() {
            return Err(malformed(format!(
                "{} line {}: trailing garbage after the last address",
                path.display(),
                lines.line_no
            )));
        }
        Ok(follower)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::follower::tests::{distinct_txs, test_sim};
    use baclassifier::BacConfig;
    use btcsim::BlockCursor;

    /// `body` plus a valid checksum trailer — a well-formed file as far as
    /// integrity goes, so a test reaches the parser it means to exercise.
    fn sealed(body: &str) -> String {
        let mut out = body.to_string();
        push_trailer(&mut out);
        out
    }

    fn temp_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!(
            "bstream_snapshot_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    #[test]
    fn snapshot_roundtrip_preserves_state() {
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let mut follower = Follower::new(&artifact, FollowerConfig::default()).unwrap();
        for block in BlockCursor::new(test_sim(31, 20)) {
            follower.step(&block);
        }
        let path = temp_path("roundtrip");
        follower.snapshot_to(&path).unwrap();

        let restored = Follower::restore(&artifact, FollowerConfig::default(), &path).unwrap();
        std::fs::remove_file(&path).ok();

        assert_eq!(restored.next_height(), follower.next_height());
        assert_eq!(restored.num_tracked(), follower.num_tracked());
        assert_eq!(restored.labels(), follower.labels());
        for (addr, state) in &follower.states {
            let r = restored.states.get(addr).expect("address restored");
            assert_eq!(r.history, state.history);
            assert_eq!(r.agg, state.agg);
            // Labelled addresses come back clean; one deferred under
            // `min_txs` keeps the dirty bit the uninterrupted run holds.
            assert_eq!(r.dirty, state.dirty);
            assert_eq!(r.dirty, !restored.labels().contains_key(addr));
        }
    }

    #[test]
    fn restore_shares_transactions_builds_no_graph_and_re_embeds_identically() {
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let mut follower = Follower::new(&artifact, FollowerConfig::default()).unwrap();
        for block in BlockCursor::new(test_sim(42, 60)) {
            follower.step(&block);
        }
        let path = temp_path("shared");
        follower.snapshot_to(&path).unwrap();
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
        assert_eq!(restored.export_embeddings(), follower.export_embeddings());
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
        std::fs::write(&path, sealed("BSTREAM v999\nheight 0\naddresses 0\n")).unwrap();
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let err = Follower::restore(&artifact, FollowerConfig::default(), &path)
            .err()
            .expect("restore must fail");
        match err {
            SnapshotError::UnsupportedVersion(v) => {
                assert!(v.contains("BSTREAM v999"), "version in error: {v}");
                assert!(
                    v.contains(path.display().to_string().as_str()),
                    "path in error: {v}"
                );
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }

        std::fs::write(
            &path,
            sealed("BSTREAM v1\nheight 5\naddresses 1\nA 3 - 1\n"),
        )
        .unwrap();
        let err = Follower::restore(&artifact, FollowerConfig::default(), &path)
            .err()
            .expect("restore must fail");
        match err {
            SnapshotError::Malformed(m) => {
                assert!(m.contains(path.display().to_string().as_str()));
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bitflip_fails_the_checksum_naming_the_path() {
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let mut follower = Follower::new(&artifact, FollowerConfig::default()).unwrap();
        for block in BlockCursor::new(test_sim(53, 15)) {
            follower.step(&block);
        }
        let path = temp_path("bitflip");
        follower.snapshot_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().next_back().unwrap().starts_with("checksum "));
        // Corrupt one digit deep inside the body (swap a '3' for a '4'
        // somewhere after the header so the file still "parses").
        let mid = text.len() / 2;
        let pos = text[mid..]
            .char_indices()
            .find(|(_, c)| c.is_ascii_digit())
            .map(|(i, _)| mid + i)
            .expect("snapshot body contains digits");
        let mut corrupted = text.into_bytes();
        corrupted[pos] = if corrupted[pos] == b'3' { b'4' } else { b'3' };
        std::fs::write(&path, &corrupted).unwrap();

        match Follower::restore(&artifact, FollowerConfig::default(), &path).err() {
            Some(SnapshotError::Checksum(m)) => {
                assert!(
                    m.contains(path.display().to_string().as_str()),
                    "path in error: {m}"
                );
            }
            other => panic!("expected Checksum, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_without_checksum_trailer_is_rejected() {
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let mut follower = Follower::new(&artifact, FollowerConfig::default()).unwrap();
        for block in BlockCursor::new(test_sim(57, 12)) {
            follower.step(&block);
        }
        let path = temp_path("no_trailer");
        follower.snapshot_to(&path).unwrap();
        // Strip the trailer: exactly what a truncation at the last line
        // boundary leaves behind — every remaining line still parses.
        let text = std::fs::read_to_string(&path).unwrap();
        let stripped: String = text
            .lines()
            .filter(|l| !l.starts_with("checksum "))
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(&path, stripped).unwrap();
        match Follower::restore(&artifact, FollowerConfig::default(), &path).err() {
            Some(SnapshotError::Checksum(m)) => {
                assert!(m.contains("no checksum trailer"), "message: {m}");
                assert!(m.contains(path.display().to_string().as_str()));
            }
            other => panic!("expected Checksum, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trailing_garbage_is_rejected_naming_path_and_line() {
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let mut follower = Follower::new(&artifact, FollowerConfig::default()).unwrap();
        for block in BlockCursor::new(test_sim(59, 10)) {
            follower.step(&block);
        }
        let path = temp_path("garbage");
        follower.snapshot_to(&path).unwrap();
        // Splice junk between the body and the checksum line, recomputing
        // the trailer so only the garbage check can catch it.
        let text = std::fs::read_to_string(&path).unwrap();
        let body: String = text
            .lines()
            .filter(|l| !l.starts_with("checksum "))
            .map(|l| format!("{l}\n"))
            .collect();
        let with_garbage = sealed(&format!("{body}this is not a snapshot line\n"));
        std::fs::write(&path, with_garbage).unwrap();

        match Follower::restore(&artifact, FollowerConfig::default(), &path).err() {
            Some(SnapshotError::Malformed(m)) => {
                assert!(m.contains("trailing garbage"), "message: {m}");
                assert!(
                    m.contains(path.display().to_string().as_str()),
                    "path in error: {m}"
                );
                assert!(m.contains("line "), "line number in error: {m}");
            }
            other => panic!("expected Malformed, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn snapshot_height_reads_just_the_header() {
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let mut follower = Follower::new(&artifact, FollowerConfig::default()).unwrap();
        for block in BlockCursor::new(test_sim(61, 9)) {
            follower.step(&block);
        }
        let path = temp_path("height");
        follower.snapshot_to(&path).unwrap();
        assert_eq!(snapshot_height(&path).unwrap(), follower.next_height());
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
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines().any(|l| l == "shard 1 2 1"),
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
        std::fs::write(
            &path,
            sealed("BSTREAM v1\nheight 3\nshard 0 2 99\naddresses 0\n"),
        )
        .unwrap();
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        match Follower::restore(&artifact, FollowerConfig::default(), &path).err() {
            Some(SnapshotError::UnsupportedVersion(v)) => assert!(v.contains("shard hash v99")),
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unsharded_snapshot_restores_under_trivial_layout_only() {
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let mut follower = Follower::new(&artifact, FollowerConfig::default()).unwrap();
        for block in BlockCursor::new(test_sim(47, 10)) {
            follower.step(&block);
        }
        let path = temp_path("trivial");
        follower.snapshot_to(&path).unwrap();
        // Explicit 1-shard config matches a file with no shard line...
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
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        let mut follower = Follower::new(&artifact, FollowerConfig::default()).unwrap();
        for block in BlockCursor::new(test_sim(41, 10)) {
            follower.step(&block);
        }
        let path = temp_path("atomic");
        follower.snapshot_to(&path).unwrap();
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
