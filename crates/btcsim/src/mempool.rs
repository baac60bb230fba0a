//! The mempool: pending transactions ordered by fee rate, with bounded
//! block assembly. With an unbounded block size the simulator behaves as if
//! every transaction confirms immediately; a bound creates the fee-market
//! congestion dynamics real chains exhibit.

use crate::amount::Amount;
use crate::tx::{Transaction, Txid};
use std::collections::HashSet;

/// Pending transactions awaiting confirmation.
#[derive(Clone, Debug, Default)]
pub struct Mempool {
    txs: Vec<Transaction>,
    seen: HashSet<Txid>,
}

impl Mempool {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.txs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.txs.is_empty()
    }

    /// Pending transactions in submission order.
    pub fn iter(&self) -> impl Iterator<Item = &Transaction> {
        self.txs.iter()
    }

    /// Submit a transaction. Duplicate txids are ignored (idempotent relay).
    pub fn submit(&mut self, tx: Transaction) {
        if self.seen.insert(tx.txid) {
            self.txs.push(tx);
        }
    }

    /// Fee per byte-proxy: fee divided by (inputs + outputs), the simulator's
    /// stand-in for weight units.
    fn fee_rate(tx: &Transaction) -> f64 {
        let size = (tx.inputs.len() + tx.outputs.len()).max(1) as f64;
        tx.fee().sats() as f64 / size
    }

    /// Total fees currently pending.
    pub fn pending_fees(&self) -> Amount {
        self.txs.iter().map(|t| t.fee()).sum()
    }

    /// Assemble the next block's transactions: up to `max` transactions,
    /// highest fee rate first (coinbase transactions always qualify first —
    /// they carry no fee but create the block). Remaining transactions stay
    /// pending. Selection is deterministic: ties break by submission order.
    pub fn take_block(&mut self, max: usize) -> Vec<Transaction> {
        if self.txs.len() <= max {
            let drained = std::mem::take(&mut self.txs);
            self.seen.clear();
            return drained;
        }
        // Stable sort preserves submission order among equal fee rates.
        let mut order: Vec<usize> = (0..self.txs.len()).collect();
        order.sort_by(|&a, &b| {
            let (ta, tb) = (&self.txs[a], &self.txs[b]);
            tb.is_coinbase()
                .cmp(&ta.is_coinbase())
                .then(
                    Self::fee_rate(tb)
                        .partial_cmp(&Self::fee_rate(ta))
                        .expect("finite fee rates"),
                )
                .then(a.cmp(&b))
        });
        let chosen: HashSet<usize> = order[..max].iter().copied().collect();
        let mut block = Vec::with_capacity(max);
        let mut rest = Vec::with_capacity(self.txs.len() - max);
        for (i, tx) in std::mem::take(&mut self.txs).into_iter().enumerate() {
            if chosen.contains(&i) {
                self.seen.remove(&tx.txid);
                block.push(tx);
            } else {
                rest.push(tx);
            }
        }
        self.txs = rest;
        // Keep the block in fee-rate order too (miners order by rate).
        block.sort_by(|a, b| {
            b.is_coinbase().cmp(&a.is_coinbase()).then(
                Self::fee_rate(b)
                    .partial_cmp(&Self::fee_rate(a))
                    .expect("finite"),
            )
        });
        block
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::tx::{OutPoint, TxIn, TxOut};

    fn tx_with_fee(fee_sats: u64, nonce: u64) -> Transaction {
        Transaction::new(
            vec![TxIn {
                prevout: OutPoint {
                    txid: Txid(nonce),
                    vout: 0,
                },
                address: Address(1),
                value: Amount::from_sats(10_000),
            }],
            vec![TxOut {
                address: Address(2),
                value: Amount::from_sats(10_000 - fee_sats),
            }],
            0,
            nonce,
        )
    }

    #[test]
    fn unbounded_block_drains_everything() {
        let mut pool = Mempool::new();
        for i in 0..5 {
            pool.submit(tx_with_fee(100, i));
        }
        let block = pool.take_block(usize::MAX);
        assert_eq!(block.len(), 5);
        assert!(pool.is_empty());
    }

    #[test]
    fn bounded_block_takes_highest_fee_rates_first() {
        let mut pool = Mempool::new();
        pool.submit(tx_with_fee(10, 1));
        pool.submit(tx_with_fee(500, 2));
        pool.submit(tx_with_fee(100, 3));
        let block = pool.take_block(2);
        assert_eq!(block.len(), 2);
        let fees: Vec<u64> = block.iter().map(|t| t.fee().sats()).collect();
        assert_eq!(fees, vec![500, 100]);
        assert_eq!(pool.len(), 1);
        // The cheap transaction confirms next block.
        let next = pool.take_block(2);
        assert_eq!(next[0].fee().sats(), 10);
    }

    #[test]
    fn coinbase_always_included_first() {
        let mut pool = Mempool::new();
        pool.submit(tx_with_fee(900, 1));
        let coinbase = Transaction::new(
            vec![],
            vec![TxOut {
                address: Address(9),
                value: Amount::from_sats(625_000_000),
            }],
            0,
            2,
        );
        pool.submit(coinbase.clone());
        let block = pool.take_block(1);
        assert_eq!(block[0].txid, coinbase.txid, "coinbase outranks any fee");
    }

    #[test]
    fn duplicate_submission_is_idempotent() {
        let mut pool = Mempool::new();
        let tx = tx_with_fee(50, 7);
        pool.submit(tx.clone());
        pool.submit(tx);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn pending_fees_tracks_total() {
        let mut pool = Mempool::new();
        pool.submit(tx_with_fee(30, 1));
        pool.submit(tx_with_fee(70, 2));
        assert_eq!(pool.pending_fees(), Amount::from_sats(100));
    }

    #[test]
    fn selection_is_deterministic_on_ties() {
        let build = || {
            let mut pool = Mempool::new();
            for i in 0..6 {
                pool.submit(tx_with_fee(100, i)); // equal fee rates
            }
            pool.take_block(3)
                .iter()
                .map(|t| t.txid)
                .collect::<Vec<_>>()
        };
        assert_eq!(build(), build());
    }
}
