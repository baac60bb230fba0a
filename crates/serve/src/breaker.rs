//! A three-state circuit breaker guarding the batching engine.
//!
//! ```text
//!            N consecutive failures
//!   Closed ──────────────────────────▶ Open
//!     ▲                                 │ cooldown elapses
//!     │ probe succeeds                  ▼
//!     └────────────────────────────  HalfOpen ──▶ Open (probe fails)
//! ```
//!
//! *Failures* are worker panics and queue-full rejections — the two signals
//! that the real model path is unhealthy or saturated. While **Open**, the
//! engine sheds every request to the degraded fallback path instead of
//! enqueueing it. After `cooldown`, the breaker **half-opens**: exactly one
//! probe request is admitted to the real queue; a recorded success closes
//! the breaker, another failure re-opens it for a fresh cooldown. The
//! engine's threshold and cooldown are constants in `engine.rs`.

use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Observable breaker state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BreakerState {
    Closed,
    Open,
    HalfOpen,
}

/// What the breaker decided about one incoming request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Breaker closed: take the normal path.
    Normal,
    /// Half-open probe: take the normal path; its outcome decides the state.
    Probe,
    /// Breaker open: serve degraded (or reject if no fallback exists).
    Shed,
}

struct Inner {
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: Instant,
    probe_in_flight: bool,
}

pub struct CircuitBreaker {
    threshold: u32,
    cooldown: Duration,
    inner: Mutex<Inner>,
}

impl CircuitBreaker {
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        Self {
            threshold,
            cooldown,
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                consecutive_failures: 0,
                opened_at: Instant::now(),
                probe_in_flight: false,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        // A panic while holding this lock must not wedge the breaker; the
        // state machine is valid after any complete method call.
        self.inner
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Route one incoming request. May transition Open → HalfOpen when the
    /// cooldown has elapsed.
    pub fn admit(&self) -> Admission {
        let mut g = self.lock();
        match g.state {
            BreakerState::Closed => Admission::Normal,
            BreakerState::Open => {
                if g.opened_at.elapsed() >= self.cooldown {
                    g.state = BreakerState::HalfOpen;
                    g.probe_in_flight = true;
                    Admission::Probe
                } else {
                    Admission::Shed
                }
            }
            BreakerState::HalfOpen => {
                if g.probe_in_flight {
                    Admission::Shed
                } else {
                    g.probe_in_flight = true;
                    Admission::Probe
                }
            }
        }
    }

    /// A batch completed without panicking (or a probe was served).
    pub fn record_success(&self) {
        let mut g = self.lock();
        g.consecutive_failures = 0;
        g.probe_in_flight = false;
        g.state = BreakerState::Closed;
    }

    /// A worker panicked or a request was rejected queue-full. Returns
    /// `true` when this failure tripped the breaker (Closed/HalfOpen → Open)
    /// so the caller can count trips in metrics.
    pub fn record_failure(&self) -> bool {
        let mut g = self.lock();
        match g.state {
            BreakerState::Closed => {
                g.consecutive_failures += 1;
                if g.consecutive_failures >= self.threshold {
                    g.state = BreakerState::Open;
                    g.opened_at = Instant::now();
                    true
                } else {
                    false
                }
            }
            BreakerState::HalfOpen => {
                g.state = BreakerState::Open;
                g.opened_at = Instant::now();
                g.probe_in_flight = false;
                true
            }
            BreakerState::Open => false,
        }
    }

    /// Force the breaker open (used when the last worker retires: there is
    /// no model path left to probe, so requests must shed immediately).
    pub fn force_open(&self) -> bool {
        let mut g = self.lock();
        let tripped = g.state != BreakerState::Open;
        g.state = BreakerState::Open;
        g.opened_at = Instant::now();
        g.probe_in_flight = false;
        tripped
    }

    pub fn state(&self) -> BreakerState {
        self.lock().state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    #[test]
    fn trips_after_threshold_consecutive_failures() {
        let b = CircuitBreaker::new(3, Duration::from_millis(10));
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.record_failure());
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(), Admission::Shed);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = CircuitBreaker::new(2, Duration::from_millis(10));
        b.record_failure();
        b.record_success();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "streak was broken");
    }

    #[test]
    fn half_open_probe_closes_on_success() {
        let b = CircuitBreaker::new(1, Duration::from_millis(5));
        assert!(b.record_failure());
        assert_eq!(b.admit(), Admission::Shed);
        sleep(Duration::from_millis(6));
        assert_eq!(b.admit(), Admission::Probe);
        // Only one probe at a time.
        assert_eq!(b.admit(), Admission::Shed);
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.admit(), Admission::Normal);
    }

    #[test]
    fn half_open_probe_reopens_on_failure() {
        let b = CircuitBreaker::new(1, Duration::from_millis(5));
        b.record_failure();
        sleep(Duration::from_millis(6));
        assert_eq!(b.admit(), Admission::Probe);
        assert!(b.record_failure(), "probe failure re-trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.admit(), Admission::Shed);
    }

    #[test]
    fn force_open_sheds_immediately() {
        let b = CircuitBreaker::new(5, Duration::from_secs(60));
        assert!(b.force_open());
        assert!(!b.force_open(), "second force is not a new trip");
        assert_eq!(b.admit(), Admission::Shed);
    }
}
