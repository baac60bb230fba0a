//! Deterministic fault injection for the serving engine.
//!
//! Resilience claims are only as good as the faults they were tested
//! against, so the engine exposes a first-class hook — [`FaultPlan`] — that
//! is consulted by every worker immediately before it processes a batch.
//! The hook is part of the production code path (a no-op [`NoFaults`] plan
//! by default), **not** a `cfg(test)` shadow implementation: the exact code
//! that runs in production is the code the chaos harness exercises.
//!
//! [`ScriptedFaultPlan`] is the deterministic implementation used by the
//! chaos acceptance tests (`tests/tests/chaos_serving.rs`): a finite script of
//! `(worker, batch)`-addressed [`FaultAction`]s, so a given seed/script
//! reproduces the identical failure sequence on every run.
//!
//! The module also hosts the byte-level corruption helpers shared by the
//! harness: [`corrupt_bytes`] (artifact bit-flips that must be caught by
//! BART's frames) and [`garble_line`]/[`truncate_line`] (protocol-line
//! mutations that must never crash the parser).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// What a [`FaultPlan`] tells a worker to do before processing a batch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic (while holding the shared cache lock, so lock-poisoning
    /// recovery is exercised too). The supervisor must complete the
    /// batch's tickets as `WorkerFailed` and restart the worker.
    Panic,
    /// Sleep this long before serving the batch — long enough, and every
    /// deadline-carrying request in the batch must resolve as
    /// `DeadlineExceeded` instead of hanging.
    Delay(Duration),
}

/// Hook consulted by each worker before every batch it processes.
///
/// `worker` is the worker's index in the pool; `batch` counts that worker's
/// batches starting at 1 (a restarted worker continues the count, so "panic
/// worker 0 on its 3rd batch" stays addressable across restarts).
pub trait FaultPlan: Send + Sync {
    fn before_batch(&self, worker: usize, batch: u64) -> Option<FaultAction>;
}

/// The production plan: injects nothing, costs one dynamic call per batch.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoFaults;

impl FaultPlan for NoFaults {
    fn before_batch(&self, _worker: usize, _batch: u64) -> Option<FaultAction> {
        None
    }
}

/// One scripted fault: `action` fires when worker `worker` reaches batch
/// number `batch` (1-based, per-worker).
#[derive(Clone, Debug)]
pub struct FaultSpec {
    pub worker: usize,
    pub batch: u64,
    pub action: FaultAction,
}

/// A finite, deterministic fault script. The same script injects the same
/// faults at the same points on every run — chaos tests stay reproducible.
#[derive(Debug, Default)]
pub struct ScriptedFaultPlan {
    specs: Vec<FaultSpec>,
    injected: AtomicU64,
}

impl ScriptedFaultPlan {
    pub fn new(specs: Vec<FaultSpec>) -> Self {
        Self {
            specs,
            injected: AtomicU64::new(0),
        }
    }

    /// Convenience: panic `worker` on each batch in `batches`.
    pub fn panics(worker: usize, batches: &[u64]) -> Self {
        Self::new(
            batches
                .iter()
                .map(|&batch| FaultSpec {
                    worker,
                    batch,
                    action: FaultAction::Panic,
                })
                .collect(),
        )
    }

    /// How many faults have actually fired (for asserting the script ran).
    pub fn injected(&self) -> u64 {
        self.injected.load(Relaxed)
    }
}

impl FaultPlan for ScriptedFaultPlan {
    fn before_batch(&self, worker: usize, batch: u64) -> Option<FaultAction> {
        let hit = self
            .specs
            .iter()
            .find(|s| s.worker == worker && s.batch == batch)?;
        self.injected.fetch_add(1, Relaxed);
        Some(hit.action.clone())
    }
}

/// SplitMix64 — the one-liner generator used for all deterministic fault
/// randomness (bit positions, character picks, backoff jitter).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Flip `flips` deterministically-chosen bits in `bytes`. Used to corrupt
/// artifact files: BART's frames must refuse every such mutation.
pub fn corrupt_bytes(bytes: &mut [u8], seed: u64, flips: usize) {
    if bytes.is_empty() {
        return;
    }
    let mut s = seed;
    for _ in 0..flips.max(1) {
        let r = splitmix64(&mut s);
        let idx = (r as usize) % bytes.len();
        let bit = ((r >> 48) % 8) as u32;
        bytes[idx] ^= 1 << bit;
    }
}

/// Deterministically mangle a protocol line: swap bytes for arbitrary
/// (possibly non-ASCII) ones and splice in control characters. The parser
/// must answer every output with a clean `err`, never a panic.
pub fn garble_line(line: &str, seed: u64) -> String {
    let mut bytes: Vec<u8> = line.bytes().collect();
    if bytes.is_empty() {
        bytes.push(b'?');
    }
    let mut s = seed;
    let mutations = 1 + (splitmix64(&mut s) % 4) as usize;
    for _ in 0..mutations {
        let r = splitmix64(&mut s);
        let idx = (r as usize) % bytes.len();
        // Printable-ish garbage plus the occasional control byte; '\n' is
        // excluded so the result stays a single line.
        let replacement = match (r >> 32) % 4 {
            0 => b'\0',
            1 => b'\t',
            2 => (0x21 + ((r >> 40) % 0x5e)) as u8,
            _ => 0x80 | ((r >> 40) & 0x7f) as u8, // non-ASCII, keeps UTF-8 valid? no — raw byte
        };
        bytes[idx] = replacement;
    }
    // Lossy conversion keeps this a `str` for `parse_request`; raw invalid
    // UTF-8 goes through `parse_request_bytes` in the harness instead.
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Deterministically truncate a line to a strict prefix (possibly empty).
pub fn truncate_line(line: &str, seed: u64) -> String {
    if line.is_empty() {
        return String::new();
    }
    let mut s = seed;
    let cut = (splitmix64(&mut s) as usize) % line.len();
    line.chars().take(cut).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripted_plan_fires_exactly_where_addressed() {
        let plan = ScriptedFaultPlan::new(vec![
            FaultSpec {
                worker: 1,
                batch: 3,
                action: FaultAction::Panic,
            },
            FaultSpec {
                worker: 0,
                batch: 2,
                action: FaultAction::Delay(Duration::from_millis(5)),
            },
        ]);
        assert_eq!(plan.before_batch(0, 1), None);
        assert_eq!(plan.before_batch(1, 2), None);
        assert_eq!(plan.before_batch(1, 3), Some(FaultAction::Panic));
        assert_eq!(
            plan.before_batch(0, 2),
            Some(FaultAction::Delay(Duration::from_millis(5)))
        );
        assert_eq!(plan.injected(), 2);
    }

    #[test]
    fn no_faults_is_silent() {
        for w in 0..4 {
            for b in 1..100 {
                assert_eq!(NoFaults.before_batch(w, b), None);
            }
        }
    }

    #[test]
    fn corruption_is_deterministic_and_real() {
        let original = vec![0u8; 256];
        let mut a = original.clone();
        let mut b = original.clone();
        corrupt_bytes(&mut a, 7, 4);
        corrupt_bytes(&mut b, 7, 4);
        assert_eq!(a, b, "same seed must corrupt identically");
        assert_ne!(a, original, "corruption must change the bytes");
        let mut c = original.clone();
        corrupt_bytes(&mut c, 8, 4);
        assert_ne!(a, c, "different seeds should differ");
    }

    #[test]
    fn garble_and_truncate_are_deterministic() {
        let line = "classify 12345";
        assert_eq!(garble_line(line, 3), garble_line(line, 3));
        assert_eq!(truncate_line(line, 3), truncate_line(line, 3));
        assert!(truncate_line(line, 9).len() < line.len());
        // Empty input never panics.
        let _ = garble_line("", 1);
        assert_eq!(truncate_line("", 1), "");
    }
}
