//! Behavior-driven actors: each models one of the paper's four address
//! behavior categories (Table I) plus unlabeled retail background traffic.
//!
//! Actors step once per block. Their wallets live in [`Shared::wallets`],
//! and a confirmed transaction reaches only the wallets that own one of
//! its addresses ([`Shared::confirm`]). Cross-actor flows (a miner
//! depositing to an exchange, a gambler hitting a mixer) go through the
//! shared [`Directory`] (published receiving addresses) and [`Mailbox`]
//! (queued requests served by the owning actor on its next step), so
//! actors never borrow each other.

use crate::address::{Address, Label};
use crate::amount::Amount;
use crate::tx::Transaction;
use crate::wallet::{AddressAlloc, WalletId, Wallets};
use rand::rngs::StdRng;
use std::collections::BTreeMap;

pub mod exchange;
pub mod gambling;
pub mod mining;
pub mod retail;
pub mod service;

pub use exchange::ExchangeActor;
pub use gambling::GamblingActor;
pub use mining::MiningPoolActor;
pub use retail::RetailActor;
pub use service::ServiceActor;

/// Queued cross-actor requests, served by the owning actor next block.
#[derive(Debug, Default)]
pub struct Mailbox {
    /// (exchange id, payout destination, amount): withdrawal to process.
    pub withdrawals: Vec<(usize, Address, Amount)>,
    /// (mixer id, payout destination, amount): mixing job to execute.
    pub mix_jobs: Vec<(usize, Address, Amount)>,
}

/// Published receiving addresses other actors can pay into.
///
/// Refreshed by the owning actors at the start of their step; readers see
/// addresses published this block (earlier-stepping actors) or the previous
/// block — both are fine, addresses stay valid.
#[derive(Debug, Default)]
pub struct Directory {
    /// Fresh single-use deposit addresses per exchange.
    pub exchange_deposits: Vec<Vec<Address>>,
    /// Gambling-house bet addresses per house.
    pub house_addresses: Vec<Address>,
    /// Mixer intake addresses per mixer.
    pub mixer_intakes: Vec<Address>,
}

impl Directory {
    /// Pop a deposit address of a random exchange, if any is available.
    pub fn take_exchange_deposit(&mut self, rng: &mut StdRng) -> Option<(usize, Address)> {
        use rand::Rng;
        let available: Vec<usize> = self
            .exchange_deposits
            .iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(i, _)| i)
            .collect();
        if available.is_empty() {
            return None;
        }
        let ex = available[rng.gen_range(0..available.len())];
        self.exchange_deposits[ex].pop().map(|a| (ex, a))
    }
}

/// Shared mutable state threaded through every actor step.
#[derive(Debug, Default)]
pub struct Shared {
    pub alloc: AddressAlloc,
    pub wallets: Wallets,
    pub mail: Mailbox,
    pub dir: Directory,
}

impl Shared {
    /// Hand a confirmed transaction to each distinct wallet that owns one of
    /// its input or output addresses. A wallet holds an outpoint only if it
    /// owns the address the outpoint pays, so no other wallet's view changes.
    pub fn confirm(&mut self, tx: &Transaction) {
        let mut owners: Vec<WalletId> = Vec::new();
        for a in tx.input_addresses().chain(tx.output_addresses()) {
            if let Some(w) = self.alloc.owner(a) {
                if !owners.contains(&w) {
                    owners.push(w);
                }
            }
        }
        for w in owners {
            self.wallets[w].observe(tx);
        }
    }

    /// Ground-truth labels of every labeled wallet's addresses.
    pub fn labels(&self) -> BTreeMap<Address, Label> {
        self.alloc
            .owners()
            .filter_map(|(a, w)| Some((a, self.wallets[w].label()?)))
            .collect()
    }
}

/// Per-block step context: time, entropy, and the transaction sink.
pub struct StepCtx<'a> {
    pub rng: &'a mut StdRng,
    pub timestamp: u64,
    pub height: u64,
    nonce: &'a mut u64,
    out: &'a mut Vec<Transaction>,
}

impl<'a> StepCtx<'a> {
    pub fn new(
        rng: &'a mut StdRng,
        timestamp: u64,
        height: u64,
        nonce: &'a mut u64,
        out: &'a mut Vec<Transaction>,
    ) -> Self {
        Self {
            rng,
            timestamp,
            height,
            nonce,
            out,
        }
    }

    /// Globally unique transaction nonce.
    pub fn next_nonce(&mut self) -> u64 {
        let n = *self.nonce;
        *self.nonce += 1;
        n
    }

    /// Submit a transaction for inclusion in the current block.
    pub fn submit(&mut self, tx: Transaction) {
        self.out.push(tx);
    }

    /// Number of transactions already submitted this block.
    pub fn submitted(&self) -> usize {
        self.out.len()
    }
}

/// A block-stepped behavior agent.
pub trait Actor {
    /// Emit this block's transactions.
    fn step(&mut self, ctx: &mut StepCtx<'_>, shared: &mut Shared);
}

/// Standard flat fee the simulator's wallets pay.
pub const DEFAULT_FEE: Amount = Amount::from_sats(2_000);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn ctx_nonces_are_unique() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut nonce = 0u64;
        let mut out = Vec::new();
        let mut ctx = StepCtx::new(&mut rng, 0, 0, &mut nonce, &mut out);
        let a = ctx.next_nonce();
        let b = ctx.next_nonce();
        assert_ne!(a, b);
    }

    #[test]
    fn directory_take_round_trips() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut dir = Directory {
            exchange_deposits: vec![vec![], vec![Address(7)]],
            ..Default::default()
        };
        let (ex, addr) = dir.take_exchange_deposit(&mut rng).unwrap();
        assert_eq!((ex, addr), (1, Address(7)));
        assert!(dir.take_exchange_deposit(&mut rng).is_none());
    }
}
