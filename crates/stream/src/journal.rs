//! Write-ahead block journal: the crash-safety floor under the follower.
//!
//! Every block is appended to the journal *before* it is applied to
//! follower state, so a crash at any point loses nothing: restart restores
//! the latest valid snapshot and replays the journal tail (heights below
//! the snapshot are skipped by `ingest_block`'s resume rule). The journal
//! is an append-only file of `baclassifier::durable` frames:
//!
//! ```text
//! [8-byte magic "BJRNL v1"]
//! frame := [u32 LE payload-len][u32 LE CRC32 of payload][payload]
//! payload := LE binary block codec (see `encode_block`)
//! ```
//!
//! A torn write — the process died mid-append, or the tail sector never
//! hit the platter — shows up as a frame whose length field runs past EOF
//! or whose CRC does not match. [`scan_journal`] stops at the first such
//! frame; [`BlockJournal::open_or_create`] additionally truncates the file
//! there, so the journal self-heals to its longest valid prefix. Bit-flips
//! anywhere in the body are caught by the per-frame CRC; corrupt frames
//! never decode into a block.
//!
//! The driver's journal ([`BlockJournal::open_or_create`]) fsyncs after
//! every frame, so a crash loses nothing. [`BlockJournal::create`] takes the
//! cadence: `N` batches fsyncs (a crash loses at most the last `N-1` blocks
//! *from the journal*, but those were not applied yet either, so recovered
//! state is still a consistent prefix), `0` leaves syncing to the OS.

use baclassifier::durable::{
    next_frame, put_frame, put_u32, put_u64, sync_parent_dir, Cursor, Frame,
};
use btcsim::{Address, Amount, Block, OutPoint, Transaction, TxIn, TxOut, Txid};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::ops::Range;
use std::path::{Path, PathBuf};

/// 8-byte file magic; the version is part of the magic so a future v2 is a
/// clean `UnsupportedVersion`-style error, not a CRC storm.
pub const JOURNAL_MAGIC: &[u8; 8] = b"BJRNL v1";

/// Upper bound on a single frame payload (64 MiB), for the reader and the
/// writer alike: a longer length field is corruption rather than an
/// allocation request, and a longer block is refused before it is written.
const MAX_FRAME_LEN: u32 = 64 << 20;

// ---------------------------------------------------------------------------
// Block codec: fixed-width LE binary, field-for-field with `btcsim` types.
// ---------------------------------------------------------------------------

/// Serialize a block to the journal payload encoding.
pub fn encode_block(block: &Block) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + block.txs.len() * 64);
    put_u64(&mut out, block.height);
    put_u64(&mut out, block.timestamp);
    put_u32(&mut out, block.txs.len() as u32);
    for tx in &block.txs {
        put_u64(&mut out, tx.txid.0);
        put_u64(&mut out, tx.timestamp);
        put_u32(&mut out, tx.inputs.len() as u32);
        put_u32(&mut out, tx.outputs.len() as u32);
        for input in &tx.inputs {
            put_u64(&mut out, input.prevout.txid.0);
            put_u32(&mut out, input.prevout.vout);
            put_u64(&mut out, input.address.0);
            put_u64(&mut out, input.value.sats());
        }
        for output in &tx.outputs {
            put_u64(&mut out, output.address.0);
            put_u64(&mut out, output.value.sats());
        }
    }
    out
}

/// Decode a journal payload back into a block. Every count is validated
/// against the remaining payload before allocation, so a corrupt (but
/// CRC-colliding) payload cannot request absurd memory.
pub fn decode_block(payload: &[u8]) -> Result<Block, String> {
    let mut cur = Cursor::new(payload);
    // A read past the end leaves the cursor where the payload ran out.
    read_block(&mut cur).unwrap_or_else(|| Err(format!("payload truncated at byte {}", cur.pos())))
}

/// `None` is a read past the payload's end; a count the payload cannot
/// hold and trailing bytes carry their own message.
fn read_block(cur: &mut Cursor) -> Option<Result<Block, String>> {
    let height = cur.u64()?;
    let timestamp = cur.u64()?;
    let ntx = cur.u32()? as usize;
    // Each tx needs at least its 24-byte fixed header.
    if ntx > cur.remaining() / 24 {
        return Some(Err(format!("tx count {ntx} exceeds payload")));
    }
    let mut txs = Vec::with_capacity(ntx);
    for _ in 0..ntx {
        let txid = Txid(cur.u64()?);
        let tx_timestamp = cur.u64()?;
        let nin = cur.u32()? as usize;
        let nout = cur.u32()? as usize;
        if nin > cur.remaining() / 28 {
            return Some(Err(format!("input count {nin} exceeds payload")));
        }
        let mut inputs = Vec::with_capacity(nin);
        for _ in 0..nin {
            inputs.push(TxIn {
                prevout: OutPoint {
                    txid: Txid(cur.u64()?),
                    vout: cur.u32()?,
                },
                address: Address(cur.u64()?),
                value: Amount::from_sats(cur.u64()?),
            });
        }
        if nout > cur.remaining() / 16 {
            return Some(Err(format!("output count {nout} exceeds payload")));
        }
        let mut outputs = Vec::with_capacity(nout);
        for _ in 0..nout {
            outputs.push(TxOut {
                address: Address(cur.u64()?),
                value: Amount::from_sats(cur.u64()?),
            });
        }
        txs.push(Transaction {
            txid,
            inputs,
            outputs,
            timestamp: tx_timestamp,
        });
    }
    if cur.remaining() != 0 {
        return Some(Err(format!(
            "{} trailing bytes after last tx",
            cur.remaining()
        )));
    }
    Some(Ok(Block {
        height,
        timestamp,
        txs,
    }))
}

// ---------------------------------------------------------------------------
// Scanning
// ---------------------------------------------------------------------------

/// Where and why a scan stopped before EOF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornFrame {
    /// Byte offset of the first frame that failed to validate. The valid
    /// journal prefix ends here.
    pub offset: u64,
    pub reason: String,
}

/// Result of validating a journal file front to back.
#[derive(Debug)]
pub struct JournalScan {
    /// Every block recovered from the valid prefix, in append order.
    pub blocks: Vec<Block>,
    /// Length in bytes of the valid prefix (magic + whole good frames).
    pub valid_len: u64,
    /// Byte range of each block's frame in the file, parallel to `blocks`.
    pub frames: Vec<Range<usize>>,
    /// First invalid frame, if the file does not end cleanly.
    pub torn: Option<TornFrame>,
}

/// Read and validate `path` front to back, stopping at the first frame
/// whose length field, CRC, or payload decoding fails. Never panics on
/// arbitrary bytes — corruption is reported via `torn`, and only an
/// unreadable file or bad magic is an `Err`.
pub fn scan_journal(path: &Path) -> std::io::Result<JournalScan> {
    scan_bytes(path, &std::fs::read(path)?)
}

/// [`scan_journal`] over the file's bytes, already read.
fn scan_bytes(path: &Path, bytes: &[u8]) -> std::io::Result<JournalScan> {
    if bytes.len() < JOURNAL_MAGIC.len() || &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "{}: not a block journal (bad or missing magic)",
                path.display()
            ),
        ));
    }
    let mut scan = JournalScan {
        blocks: Vec::new(),
        valid_len: JOURNAL_MAGIC.len() as u64,
        frames: Vec::new(),
        torn: None,
    };
    let mut pos = JOURNAL_MAGIC.len();
    while pos < bytes.len() {
        let reason = match next_frame(&bytes[pos..], MAX_FRAME_LEN) {
            Frame::Whole { payload, end } => match decode_block(payload) {
                Ok(block) => {
                    scan.blocks.push(block);
                    scan.frames.push(pos..pos + end);
                    pos += end;
                    scan.valid_len = pos as u64;
                    continue;
                }
                Err(reason) => format!("undecodable payload: {reason}"),
            },
            Frame::Incomplete => format!("truncated frame ({} bytes left)", bytes.len() - pos),
            Frame::TooLarge(len) => format!("frame length {len} exceeds {MAX_FRAME_LEN}"),
            Frame::CrcMismatch { stored, computed } => {
                format!("crc mismatch (stored {stored:08x}, computed {computed:08x})")
            }
        };
        scan.torn = Some(TornFrame {
            offset: pos as u64,
            reason,
        });
        break;
    }
    Ok(scan)
}

// ---------------------------------------------------------------------------
// The journal writer
// ---------------------------------------------------------------------------

/// Append-only block journal with an fsync cadence.
pub struct BlockJournal {
    file: File,
    path: PathBuf,
    /// fsync after every `sync_every` appended frames; 0 never syncs.
    sync_every: u64,
    appended_since_sync: u64,
}

impl BlockJournal {
    /// Create a fresh journal at `path`, truncating anything there. The
    /// file and its directory entry are durable before this returns.
    pub fn create(path: &Path, sync_every: u64) -> std::io::Result<Self> {
        let mut file = File::create(path)?;
        file.write_all(JOURNAL_MAGIC)?;
        file.sync_all()?;
        sync_parent_dir(path)?;
        Ok(Self {
            file,
            path: path.to_path_buf(),
            sync_every,
            appended_since_sync: 0,
        })
    }

    /// Open an existing journal for appending — or create one if the path
    /// is absent. A torn tail (see [`scan_journal`]) is truncated away so
    /// appends land after the last whole frame. Returns the journal plus
    /// the scan of what survived, so the caller can replay it. Every
    /// append fsyncs.
    pub fn open_or_create(path: &Path) -> std::io::Result<(Self, JournalScan)> {
        if !path.exists() {
            let journal = Self::create(path, 1)?;
            return Ok((
                journal,
                JournalScan {
                    blocks: Vec::new(),
                    valid_len: JOURNAL_MAGIC.len() as u64,
                    frames: Vec::new(),
                    torn: None,
                },
            ));
        }
        let scan = scan_journal(path)?;
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        if scan.torn.is_some() {
            file.set_len(scan.valid_len)?;
            file.sync_all()?;
        }
        file.seek(SeekFrom::Start(scan.valid_len))?;
        Ok((
            Self {
                file,
                path: path.to_path_buf(),
                sync_every: 1,
                appended_since_sync: 0,
            },
            scan,
        ))
    }

    /// Append one block as a checksummed frame. Returns the frame size in
    /// bytes and whether this append fsynced (per the cadence). Writes are
    /// unbuffered: once `append` returns, a [`scan_journal`] of the path
    /// sees the frame, even if not yet durable. A block over the
    /// scan's frame limit is refused (`InvalidInput`) before any byte is
    /// written: appended, it would read back as a torn tail, and the next
    /// open would truncate it and every block after it.
    pub fn append(&mut self, block: &Block) -> std::io::Result<(u64, bool)> {
        let mut frame = Vec::new();
        put_frame(&mut frame, &encode_block(block), MAX_FRAME_LEN)?;
        self.file.write_all(&frame)?;
        self.appended_since_sync += 1;
        let synced = self.sync_every > 0 && self.appended_since_sync >= self.sync_every;
        if synced {
            self.sync()?;
        }
        Ok((frame.len() as u64, synced))
    }

    /// Force everything appended so far to stable storage.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.file.sync_all()?;
        self.appended_since_sync = 0;
        Ok(())
    }

    /// Drop every frame whose block height is below `height`, rewriting
    /// the journal atomically (`baclassifier::write_atomic`) and reopening the
    /// handle. Called after a snapshot: frames at or above the snapshot
    /// height must survive so a fallback to an *older* snapshot generation
    /// still finds its replay tail — pass the minimum height across all
    /// retained generations, not the newest. A kept frame is copied as read.
    pub fn compact_below(&mut self, height: u64) -> std::io::Result<u64> {
        self.sync()?;
        let bytes = std::fs::read(&self.path)?;
        let scan = scan_bytes(&self.path, &bytes)?;
        let dropped = scan.blocks.iter().filter(|b| b.height < height).count() as u64;
        if dropped == 0 && scan.torn.is_none() {
            return Ok(0);
        }
        let mut kept = JOURNAL_MAGIC.to_vec();
        for (block, frame) in scan.blocks.iter().zip(&scan.frames) {
            if block.height >= height {
                kept.extend_from_slice(&bytes[frame.clone()]);
            }
        }
        baclassifier::write_atomic(&self.path, &kept)?;
        let mut file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        file.seek(SeekFrom::End(0))?;
        self.file = file;
        self.appended_since_sync = 0;
        Ok(dropped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btcsim::BlockCursor;

    fn temp_path(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "bstream_journal_{tag}_{}_{:?}",
            std::process::id(),
            std::thread::current().id()
        ))
    }

    fn sim_blocks(seed: u64, n: u64) -> Vec<Block> {
        let cfg = btcsim::SimConfig {
            blocks: n,
            ..btcsim::SimConfig::tiny(seed)
        };
        BlockCursor::new(cfg).collect()
    }

    #[test]
    fn block_codec_roundtrips() {
        for block in sim_blocks(51, 12) {
            let payload = encode_block(&block);
            let back = decode_block(&payload).unwrap();
            assert_eq!(back, block);
        }
    }

    #[test]
    fn append_then_scan_recovers_every_block() {
        let path = temp_path("roundtrip");
        let blocks = sim_blocks(53, 10);
        let mut journal = BlockJournal::create(&path, 1).unwrap();
        for b in &blocks {
            let (bytes, synced) = journal.append(b).unwrap();
            assert!(bytes > baclassifier::durable::FRAME_HEADER as u64);
            assert!(synced, "sync_every=1 must sync each frame");
        }
        drop(journal);
        let scan = scan_journal(&path).unwrap();
        assert!(scan.torn.is_none());
        assert_eq!(scan.blocks, blocks);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_detected_and_truncated_at_every_cut_point() {
        let path = temp_path("torn");
        let blocks = sim_blocks(59, 6);
        let mut journal = BlockJournal::create(&path, 1).unwrap();
        for b in &blocks {
            journal.append(b).unwrap();
        }
        drop(journal);
        let full = std::fs::read(&path).unwrap();
        // Cut the file at every possible byte boundary: the scan must
        // recover a clean prefix of the original blocks, never panic.
        for cut in JOURNAL_MAGIC.len()..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let scan = scan_journal(&path).unwrap();
            assert_eq!(scan.blocks.as_slice(), &blocks[..scan.blocks.len()]);
            if cut < full.len() {
                assert!(scan.valid_len <= cut as u64);
            }
            // Reopening truncates to the valid prefix and appends cleanly.
            let (mut journal, reopened) = BlockJournal::open_or_create(&path).unwrap();
            let survived = reopened.blocks.len();
            assert_eq!(reopened.blocks.as_slice(), &blocks[..survived]);
            for b in &blocks[survived..] {
                journal.append(b).unwrap();
            }
            drop(journal);
            let healed = scan_journal(&path).unwrap();
            assert!(healed.torn.is_none());
            assert_eq!(healed.blocks, blocks);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bitflip_in_payload_is_caught_by_crc() {
        let path = temp_path("bitflip");
        let blocks = sim_blocks(61, 4);
        let mut journal = BlockJournal::create(&path, 1).unwrap();
        for b in &blocks {
            journal.append(b).unwrap();
        }
        drop(journal);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit in the middle of the file body.
        let mid = JOURNAL_MAGIC.len() + (bytes.len() - JOURNAL_MAGIC.len()) / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let scan = scan_journal(&path).unwrap();
        assert!(scan.torn.is_some(), "flip must be detected");
        assert_eq!(scan.blocks.as_slice(), &blocks[..scan.blocks.len()]);
        assert!(scan.blocks.len() < blocks.len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_an_error_not_a_scan() {
        let path = temp_path("magic");
        std::fs::write(&path, b"NOTAJRNL plus some garbage").unwrap();
        let err = scan_journal(&path).unwrap_err();
        assert!(err.to_string().contains("not a block journal"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sync_cadence_batches_fsyncs() {
        let path = temp_path("cadence");
        let blocks = sim_blocks(67, 5); // 6 blocks: heights 0..=5
        let mut journal = BlockJournal::create(&path, 3).unwrap();
        let synced: Vec<bool> = blocks
            .iter()
            .map(|b| journal.append(b).unwrap().1)
            .collect();
        assert_eq!(synced, vec![false, false, true, false, false, true]);
        // sync_every = 0: never synced by cadence.
        let path0 = temp_path("cadence0");
        let mut never = BlockJournal::create(&path0, 0).unwrap();
        for b in &blocks {
            assert!(!never.append(b).unwrap().1);
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&path0).ok();
    }

    #[test]
    fn compaction_drops_only_frames_below_the_floor() {
        let path = temp_path("compact");
        let blocks = sim_blocks(71, 7); // 8 blocks: heights 0..=7
        let mut journal = BlockJournal::create(&path, 1).unwrap();
        for b in &blocks {
            journal.append(b).unwrap();
        }
        let dropped = journal.compact_below(5).unwrap();
        assert_eq!(dropped, 5);
        // The journal stays appendable after compaction.
        let extra = sim_blocks(71, 8).pop().unwrap();
        journal.append(&extra).unwrap();
        drop(journal);
        let scan = scan_journal(&path).unwrap();
        assert!(scan.torn.is_none());
        let heights: Vec<u64> = scan.blocks.iter().map(|b| b.height).collect();
        assert_eq!(heights, vec![5, 6, 7, 8]);
        // Compacting below 0 is a no-op.
        let (mut journal, _) = BlockJournal::open_or_create(&path).unwrap();
        assert_eq!(journal.compact_below(0).unwrap(), 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_keeps_frames_byte_for_byte() {
        let blocks = sim_blocks(73, 7); // 8 blocks: heights 0..=7
        let mut want = JOURNAL_MAGIC.to_vec();
        for b in &blocks[3..] {
            put_frame(&mut want, &encode_block(b), MAX_FRAME_LEN).unwrap();
        }
        for torn in [false, true] {
            let path = temp_path(if torn {
                "compact_torn"
            } else {
                "compact_whole"
            });
            let mut journal = BlockJournal::create(&path, 1).unwrap();
            for b in &blocks {
                journal.append(b).unwrap();
            }
            if torn {
                let mut file = OpenOptions::new().append(true).open(&path).unwrap();
                file.write_all(&want[8..20]).unwrap();
            }
            assert_eq!(journal.compact_below(3).unwrap(), 3);
            assert_eq!(std::fs::read(&path).unwrap(), want, "torn tail: {torn}");
            std::fs::remove_file(&path).ok();
        }
    }
}
