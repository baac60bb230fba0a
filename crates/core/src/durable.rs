//! Crash-safe file replacement, shared by every durable artifact in the
//! workspace (model artifacts, follower snapshots, rebalanced snapshots,
//! compacted journals, bench result files), the little-endian field codec
//! of its binary formats (`BART` records, `BJRNL` blocks, `BSTREAM`
//! records, `BANET` payloads), the one frame codec all four share —
//! `[len u32 LE][crc32(payload) u32 LE][payload]` — and the one record
//! file that every file read whole uses (`BART`, `BSTREAM`): an 8-byte
//! magic, then whole frames up to the end of the file.

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::OnceLock;

/// Replace `path` with `bytes` atomically: write a temp file in the same
/// directory (a rename across filesystems is not atomic), fsync it, rename
/// it over `path`, then fsync the directory so the rename itself survives a
/// crash. A reader sees the old file or the new one, never a torn mix; on
/// any error the temp file is removed and `path` is left as it was.
///
/// The temp name carries the target's file name, the process id and a
/// per-process sequence number, so concurrent writers — sibling per-shard
/// snapshots in one process, or two processes saving the same artifact —
/// never share a temp file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        SEQ.fetch_add(1, Relaxed)
    ));
    let tmp = path.with_file_name(tmp_name);
    let write = || -> io::Result<()> {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path)
    };
    let result = write();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
}

/// fsync the directory holding `path`, so that a file created or renamed
/// there keeps its directory entry, and with it its fsynced bytes, across
/// an OS crash.
pub fn sync_parent_dir(path: &Path) -> io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()
}

/// Append `v` in little-endian byte order.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` in little-endian byte order.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader over one payload. A read that would
/// run past the end returns `None` and leaves the position where it was;
/// each format maps that to its own error.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let slice = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(slice)
    }

    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

/// CRC32 (IEEE, reflected, poly 0xEDB88320) of `bytes`: every frame's
/// checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        table
    });
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = table[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Bytes a frame puts before its payload: length and CRC, both u32 LE.
pub const FRAME_HEADER: usize = 8;

/// Append one frame carrying `payload`. `max_len` is the limit the
/// format's reader enforces: a longer payload is refused with
/// `InvalidInput` before a byte is appended, so no writer produces a frame
/// its own reader would take for corruption.
pub fn put_frame(out: &mut Vec<u8>, payload: &[u8], max_len: u32) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&len| len <= max_len)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("frame payload of {} bytes exceeds {max_len}", payload.len()),
            )
        })?;
    out.reserve(FRAME_HEADER + payload.len());
    put_u32(out, len);
    put_u32(out, crc32(payload));
    out.extend_from_slice(payload);
    Ok(())
}

/// What [`next_frame`] found at the front of a buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Frame<'a> {
    /// A whole frame whose CRC matches, and the offset just past it.
    Whole { payload: &'a [u8], end: usize },
    /// A valid prefix of a frame: a stream reads more, a file is torn here.
    Incomplete,
    /// The length field exceeds the reader's limit.
    TooLarge(u32),
    /// The payload does not match its stored CRC.
    CrcMismatch { stored: u32, computed: u32 },
}

/// Decode the frame at the start of `bytes`. A length over `max_len` is
/// refused before the payload is looked for, so an absurd length field
/// costs nothing; no input panics.
pub fn next_frame(bytes: &[u8], max_len: u32) -> Frame<'_> {
    let mut c = Cursor::new(bytes);
    let (Some(len), Some(stored)) = (c.u32(), c.u32()) else {
        return Frame::Incomplete;
    };
    if len > max_len {
        return Frame::TooLarge(len);
    }
    let Some(payload) = c.take(len as usize) else {
        return Frame::Incomplete;
    };
    let computed = crc32(payload);
    if computed != stored {
        return Frame::CrcMismatch { stored, computed };
    }
    Frame::Whole {
        payload,
        end: c.pos(),
    }
}

/// Bytes of a record file's magic, the format version part of them.
pub const MAGIC_LEN: usize = 8;

/// Write a record file atomically: `magic`, a frame holding `header`, then
/// one frame per record. Files are read whole, so a frame may be as long as
/// a `u32` counts.
pub fn write_records<R: AsRef<[u8]>>(
    path: &Path,
    magic: &[u8; MAGIC_LEN],
    header: &[u8],
    records: impl IntoIterator<Item = R>,
) -> io::Result<()> {
    let mut out = magic.to_vec();
    put_frame(&mut out, header, u32::MAX)?;
    for record in records {
        put_frame(&mut out, record.as_ref(), u32::MAX)?;
    }
    write_atomic(path, &out)
}

/// Why a record file was refused, and at which offset of it.
#[derive(Debug, PartialEq, Eq)]
pub enum RecordFault {
    /// The file does not open with the magic: its first bytes (up to 8).
    Magic(Vec<u8>),
    /// The file ends here, where another record was due.
    Missing(usize),
    /// The frame here runs past the end of the file.
    Torn(usize),
    /// The frame here does not match its stored CRC.
    Crc(usize),
    /// Bytes follow the last record, from here.
    Trailing(usize),
}

impl std::fmt::Display for RecordFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (what, at) = match self {
            RecordFault::Magic(m) => return write!(f, "magic {:?}", String::from_utf8_lossy(m)),
            RecordFault::Missing(at) => ("missing", at),
            RecordFault::Torn(at) => ("torn", at),
            RecordFault::Crc(at) => ("CRC mismatch", at),
            RecordFault::Trailing(at) => ("bytes after the last record", at),
        };
        write!(f, "{what} at byte {at}")
    }
}

/// The one reader of a record file held whole in memory: the format asks
/// for its records one at a time, as many as its header declares, then
/// [`finish`](Self::finish)es. No input panics, and no length field is
/// trusted before the bytes it counts are there.
pub struct RecordReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> RecordReader<'a> {
    /// Check the magic and read the header record.
    pub fn open(bytes: &'a [u8], magic: &[u8; MAGIC_LEN]) -> Result<(Self, &'a [u8]), RecordFault> {
        if !bytes.starts_with(magic) {
            let found = bytes.iter().take(MAGIC_LEN).copied().collect();
            return Err(RecordFault::Magic(found));
        }
        let mut reader = RecordReader {
            bytes,
            pos: MAGIC_LEN,
        };
        let header = reader.record()?;
        Ok((reader, header))
    }

    /// The next record's payload, CRC checked.
    pub fn record(&mut self) -> Result<&'a [u8], RecordFault> {
        let at = self.pos;
        match next_frame(&self.bytes[at..], u32::MAX) {
            Frame::Whole { payload, end } => {
                self.pos += end;
                Ok(payload)
            }
            Frame::CrcMismatch { .. } => Err(RecordFault::Crc(at)),
            _ if at == self.bytes.len() => Err(RecordFault::Missing(at)),
            _ => Err(RecordFault::Torn(at)),
        }
    }

    /// Bytes read so far: the offset just past the last record.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The end of the file: nothing may follow the last record.
    pub fn finish(self) -> Result<(), RecordFault> {
        match self.pos < self.bytes.len() {
            true => Err(RecordFault::Trailing(self.pos)),
            false => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_write_keeps_the_old_file_and_cleans_up() {
        let dir = std::env::temp_dir().join(format!("bac_durable_{}", std::process::id()));
        // Renaming a file over a non-empty directory fails after the temp
        // file was fully written.
        let target = dir.join("occupied");
        std::fs::create_dir_all(target.join("child")).unwrap();
        assert!(write_atomic(&target, b"bytes").is_err());
        assert!(target.join("child").is_dir());
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cursor_reads_little_endian_and_refuses_to_overrun() {
        let mut bytes = vec![7];
        put_u32(&mut bytes, 0x0403_0201);
        put_u64(&mut bytes, u64::MAX - 1);
        assert_eq!(bytes[1..5], [1, 2, 3, 4]);
        let mut c = Cursor::new(&bytes);
        assert_eq!(c.u8(), Some(7));
        assert_eq!(c.u32(), Some(0x0403_0201));
        assert_eq!((c.pos(), c.remaining()), (5, 8));
        // A failed read consumes nothing, whatever length it asked for.
        assert_eq!(c.take(9), None);
        assert_eq!(c.take(usize::MAX), None);
        assert_eq!(c.pos(), 5);
        assert_eq!(c.u64(), Some(u64::MAX - 1));
        assert_eq!((c.u8(), c.remaining()), (None, 0));
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn frames_round_trip_and_refuse_what_their_reader_would() {
        let mut out = vec![0xAA];
        put_frame(&mut out, b"abcd", 4).unwrap();
        put_frame(&mut out, b"", 4).unwrap();
        assert_eq!(out.len(), 1 + 2 * FRAME_HEADER + 4);
        // The writer holds the reader's limit: five bytes under a limit of
        // four is refused and nothing is appended.
        let err = put_frame(&mut out, b"abcde", 4).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(out.len(), 1 + 2 * FRAME_HEADER + 4);

        let bytes = &out[1..];
        let Frame::Whole { payload, end } = next_frame(bytes, 4) else {
            panic!("first frame");
        };
        assert_eq!((payload, end), (&b"abcd"[..], FRAME_HEADER + 4));
        assert_eq!(
            next_frame(&bytes[end..], 4),
            Frame::Whole {
                payload: b"",
                end: FRAME_HEADER
            }
        );
        // Every proper prefix asks for more; a lower limit refuses the
        // length before looking for the payload; a flipped bit is a CRC
        // mismatch.
        for cut in 0..end {
            assert_eq!(next_frame(&bytes[..cut], 4), Frame::Incomplete, "{cut}");
        }
        assert_eq!(next_frame(&bytes[..FRAME_HEADER], 3), Frame::TooLarge(4));
        let mut flipped = bytes.to_vec();
        flipped[end - 1] ^= 1;
        assert!(matches!(next_frame(&flipped, 4), Frame::CrcMismatch { .. }));
    }

    #[test]
    fn a_record_file_reads_back_and_names_each_fault() {
        const MAGIC: &[u8; MAGIC_LEN] = b"TEST v1\n";
        let path = std::env::temp_dir().join(format!("bac_records_{}", std::process::id()));
        write_records(&path, MAGIC, b"head", [&b"one"[..], b""]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let second = MAGIC_LEN + FRAME_HEADER + 4 + FRAME_HEADER + 3;
        assert_eq!(bytes.len(), second + FRAME_HEADER);

        let (mut r, header) = RecordReader::open(&bytes, MAGIC).unwrap();
        assert_eq!(
            (header, r.record(), r.record()),
            (&b"head"[..], Ok(&b"one"[..]), Ok(&b""[..]))
        );
        assert_eq!(r.pos(), bytes.len());
        assert_eq!(r.record(), Err(RecordFault::Missing(bytes.len())));
        assert_eq!(r.finish(), Ok(()));

        let open = |b: &[u8]| RecordReader::open(b, MAGIC).map(|(_, header)| header.to_vec());
        assert_eq!(open(b"TEST"), Err(RecordFault::Magic(b"TEST".to_vec())));
        assert_eq!(
            open(b"TEST v2\nrest"),
            Err(RecordFault::Magic(b"TEST v2\n".to_vec()))
        );
        assert_eq!(
            open(&bytes[..MAGIC_LEN]),
            Err(RecordFault::Missing(MAGIC_LEN))
        );
        assert_eq!(
            open(&bytes[..MAGIC_LEN + 3]),
            Err(RecordFault::Torn(MAGIC_LEN))
        );
        let mut flipped = bytes.clone();
        flipped[MAGIC_LEN + FRAME_HEADER] ^= 1;
        assert_eq!(open(&flipped), Err(RecordFault::Crc(MAGIC_LEN)));

        let (mut r, _) = RecordReader::open(&bytes, MAGIC).unwrap();
        r.record().unwrap();
        assert_eq!(r.finish(), Err(RecordFault::Trailing(second)));
    }
}
