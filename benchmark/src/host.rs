//! What the benchmark asks of the host: memory readings from `/proc` and
//! the one directory it writes to.

use std::path::PathBuf;

/// `benchmark/out/` — the model artifact of this process, trace files and
/// the durability probe's scratch files. Ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"))
}

fn status_kb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Resident set now, KB (0 where `/proc` is unreadable).
pub fn rss_kb() -> f64 {
    status_kb("VmRSS:").unwrap_or(0.0)
}

/// High-water mark of the resident set, MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").expect("VmHWM in /proc/self/status") / 1024.0
}

/// Hand freed heap back to the kernel, so that what is resident is what is
/// in use (a no-op off glibc).
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and may be called
        // at any time; it only releases free heap pages.
        unsafe { malloc_trim(0) };
    }
}

/// Restart the high-water mark from what is in use, so the peak read after
/// the first timed pass is the peak of the passes — the system under test
/// — and not of input generation (150 MB of simulated chain that set-up
/// has already dropped but the allocator would otherwise keep resident).
/// Returns whether the kernel accepted the reset; where it does not, the
/// peak covers the whole process, on every run alike.
pub fn reset_peak_rss() -> bool {
    trim_heap();
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Pin this process (and every thread it will start) to one CPU: the
/// highest-numbered one it is allowed to run on. Returns the CPU, or
/// `None` where the kernel refuses (the run then proceeds unpinned).
///
/// Every workload is specified as one compute thread; pinning makes the
/// generator and the engine worker share that one CPU by construction
/// instead of by the scheduler's mood. On the recording host the same
/// `serve_hot` pass ran at ~118 k requests/s when the scheduler happened
/// to co-locate the two threads and at 55–70 k when it spread them over
/// both vCPUs (cross-CPU wake-ups are VM exits), and which of the two a
/// run got was chance. The single-threaded workloads measure the same
/// pinned or not.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        }
        const WORDS: usize = 16; // 1 024 CPUs
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a live, writable buffer of exactly the byte
        // length passed; pid 0 is the calling thread.
        if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = mask.iter().rposition(|w| *w != 0)?;
        let bit = 63 - mask[word].leading_zeros() as usize;
        let mut one = [0u64; WORDS];
        one[word] = 1 << bit;
        // SAFETY: `one` is a live buffer of exactly the byte length passed.
        (unsafe { sched_setaffinity(0, WORDS * 8, one.as_ptr()) } == 0).then_some(word * 64 + bit)
    }
    #[cfg(not(target_os = "linux"))]
    None
}
