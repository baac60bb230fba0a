//! Crash-safe file replacement, shared by every durable artifact in the
//! workspace (model artifacts, follower snapshots, rebalanced snapshots,
//! compacted journals, bench result files).

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
}
