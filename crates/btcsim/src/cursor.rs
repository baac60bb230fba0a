//! A resumable, seekable block cursor — the subscription API streaming
//! consumers use to follow a simulated chain.
//!
//! The simulator is deterministic: a given seed always produces the same
//! chain, and mining depends only on how many blocks have been stepped. A
//! [`BlockCursor`] exploits that to offer *resumable* iteration — a restarted
//! follower seeks to its checkpoint height and reads on, receiving exactly
//! the blocks it would have seen without the restart (see the determinism
//! tests below). Blocks ahead of the cursor are mined lazily on demand, so a
//! cursor is also the natural producer for a live block feed.

use crate::address::{Address, Label};
use crate::block::{Block, Chain};
use crate::sim::{SimConfig, Simulator};
use std::collections::BTreeMap;

/// Iterates the blocks of a deterministic simulation in height order,
/// mining lazily and supporting O(1) seeks over already-mined history.
pub struct BlockCursor {
    sim: Simulator,
    /// Height of the next block [`BlockCursor::next_block`] will yield.
    next: u64,
}

impl BlockCursor {
    /// Start a cursor at height 0 (genesis) of the chain `cfg` describes.
    pub fn new(cfg: SimConfig) -> Self {
        Self {
            sim: Simulator::new(cfg),
            next: 0,
        }
    }

    /// Total blocks this chain will have once fully mined (genesis + the
    /// configured block count).
    pub fn total_blocks(&self) -> u64 {
        self.sim.config().blocks + 1
    }

    /// Height the next [`BlockCursor::next_block`] call will yield
    /// (`total_blocks()` once exhausted).
    pub fn position(&self) -> u64 {
        self.next
    }

    /// Move the cursor so the next read yields `height` (clamped to the end
    /// of the chain). Seeking backward re-reads retained blocks; seeking
    /// forward mines the gap on the next read. Returns the new position.
    pub fn seek(&mut self, height: u64) -> u64 {
        self.next = height.min(self.total_blocks());
        self.next
    }

    /// The next block in height order, or `None` when the configured chain
    /// is exhausted.
    pub fn next_block(&mut self) -> Option<Block> {
        if self.next >= self.total_blocks() {
            return None;
        }
        while self.sim.chain().height() <= self.next {
            self.sim.step_block();
        }
        let block = self.sim.chain().blocks()[self.next as usize].clone();
        self.next += 1;
        Some(block)
    }

    /// The chain mined so far.
    pub fn chain(&self) -> &Chain {
        self.sim.chain()
    }

    /// Ground-truth labels for actor-controlled addresses created so far.
    pub fn labels(&self) -> BTreeMap<Address, Label> {
        self.sim.labels()
    }

    pub fn config(&self) -> &SimConfig {
        self.sim.config()
    }

    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }
}

impl Iterator for BlockCursor {
    type Item = Block;

    fn next(&mut self) -> Option<Block> {
        self.next_block()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> SimConfig {
        SimConfig {
            blocks: 25,
            ..SimConfig::tiny(seed)
        }
    }

    #[test]
    fn same_seed_same_cursor_yields_identical_blocks() {
        let a: Vec<Block> = BlockCursor::new(cfg(3)).collect();
        let b: Vec<Block> = BlockCursor::new(cfg(3)).collect();
        assert_eq!(a.len(), 26); // genesis + 25
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_diverge() {
        let a: Vec<Block> = BlockCursor::new(cfg(3)).collect();
        let b: Vec<Block> = BlockCursor::new(cfg(4)).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn cursor_matches_batch_run() {
        let streamed: Vec<Block> = BlockCursor::new(cfg(7)).collect();
        let sim = Simulator::run_to_completion(cfg(7));
        assert_eq!(streamed, sim.chain().blocks());
    }

    #[test]
    fn seek_resumes_mid_chain_deterministically() {
        let full: Vec<Block> = BlockCursor::new(cfg(5)).collect();
        // A fresh cursor seeked to a checkpoint height must replay the
        // exact remainder a continuously-running cursor would have seen.
        for checkpoint in [0u64, 1, 10, 25, 26] {
            let mut resumed = BlockCursor::new(cfg(5));
            assert_eq!(resumed.seek(checkpoint), checkpoint);
            let tail: Vec<Block> = resumed.collect();
            assert_eq!(tail, full[checkpoint as usize..]);
        }
    }

    #[test]
    fn backward_seek_rereads_retained_blocks() {
        let mut c = BlockCursor::new(cfg(2));
        let first: Vec<Block> = (0..10).filter_map(|_| c.next_block()).collect();
        c.seek(0);
        let again: Vec<Block> = (0..10).filter_map(|_| c.next_block()).collect();
        assert_eq!(first, again);
        // Backward seeking never re-mines: the chain still holds 10 blocks.
        assert_eq!(c.sim.chain().height(), 10);
    }

    #[test]
    fn exhausted_cursor_returns_none_and_clamps_seeks() {
        let mut c = BlockCursor::new(cfg(1));
        let n = c.by_ref().count() as u64;
        assert_eq!(n, c.total_blocks());
        assert_eq!(c.next_block(), None);
        assert_eq!(c.seek(u64::MAX), c.total_blocks());
        assert_eq!(c.next_block(), None);
        // But seeking back in range revives iteration.
        c.seek(n - 1);
        assert_eq!(c.next_block().unwrap().height, n - 1);
    }

    #[test]
    fn position_tracks_reads() {
        let mut c = BlockCursor::new(cfg(6));
        assert_eq!(c.position(), 0);
        c.next_block();
        c.next_block();
        assert_eq!(c.position(), 2);
        assert_eq!(c.next_block().unwrap().height, 2);
    }
}
