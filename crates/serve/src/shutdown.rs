//! Cooperative SIGINT shutdown for the daemon, serving or following.
//!
//! `basharded` polls [`shutdown_requested`] between units of work and, when
//! it trips, drains in-flight responses (or, with `--follow`, flushes the
//! journal and writes a final snapshot) before exiting — a Ctrl-C is a
//! clean checkpoint, not a crash. The `banet` accept loop polls the same
//! flag to stop accepting and drain open connections.
//!
//! The handler is registered through the raw C `signal` symbol that is
//! already in every linked libc, keeping the workspace free of external
//! crates. The handler body only stores to an `AtomicBool` —
//! async-signal-safe by construction. EOF-driven shutdowns reuse the same
//! flag via [`request_shutdown`].
//!
//! This module lives in `baserve`, the lowest crate with a front that
//! polls the flag.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Once;

static SHUTDOWN: AtomicBool = AtomicBool::new(false);
static INSTALL: Once = Once::new();

#[cfg(unix)]
const SIGINT: i32 = 2;

#[cfg(unix)]
extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

#[cfg(unix)]
extern "C" fn on_sigint(_signum: i32) {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Route SIGINT to the shutdown flag (idempotent; first call wins). On
/// non-unix targets this is a no-op and only [`request_shutdown`] trips
/// the flag.
pub fn install_sigint_handler() {
    INSTALL.call_once(|| {
        #[cfg(unix)]
        unsafe {
            signal(SIGINT, on_sigint as *const () as usize);
        }
    });
}

/// Whether a shutdown (SIGINT or programmatic) has been requested.
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Trip the shutdown flag programmatically (EOF on stdin, tests).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    extern "C" {
        fn raise(signum: i32) -> i32;
    }

    #[test]
    fn sigint_trips_the_flag() {
        install_sigint_handler();
        assert!(!shutdown_requested());
        unsafe {
            raise(SIGINT);
        }
        assert!(shutdown_requested());
    }
}
