//! Crash-safe file replacement, shared by every durable artifact in the
//! workspace (model artifacts, follower snapshots, rebalanced snapshots,
//! compacted journals, bench result files), and the little-endian field
//! codec of its three binary formats (`BART` manifests, `BJRNL` blocks,
//! `BANET` payloads).

use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

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
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    };
    let write = || -> io::Result<()> {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)?;
        File::open(dir)?.sync_all()
    };
    let result = write();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    result
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
}
