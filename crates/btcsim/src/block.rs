//! Blocks and the linear chain.

use crate::tx::{Transaction, Txid};
use crate::utxo::{UndoLog, UtxoError, UtxoSet};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Average spacing between blocks (the Bitcoin 10-minute target).
pub const BLOCK_INTERVAL_SECS: u64 = 600;

/// A block: height, timestamp, and its transactions (coinbase first, if any).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    pub height: u64,
    pub timestamp: u64,
    pub txs: Vec<Transaction>,
}

/// Chain-level validation failures.
#[derive(Debug)]
pub enum ChainError {
    /// Block height must be exactly `tip + 1`.
    BadHeight { expected: u64, got: u64 },
    /// Block timestamps must not decrease.
    TimestampRegression { tip: u64, got: u64 },
    /// A transaction failed UTXO validation.
    Tx(Txid, UtxoError),
}

impl std::fmt::Display for ChainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChainError::BadHeight { expected, got } => {
                write!(f, "bad height: expected {expected}, got {got}")
            }
            ChainError::TimestampRegression { tip, got } => {
                write!(f, "timestamp regression: tip {tip}, got {got}")
            }
            ChainError::Tx(txid, e) => write!(f, "tx {txid}: {e}"),
        }
    }
}

impl std::error::Error for ChainError {}

/// A validated linear blockchain with UTXO tracking and per-address indexes.
#[derive(Clone, Debug, Default)]
pub struct Chain {
    blocks: Vec<Block>,
    utxo: UtxoSet,
    num_transactions: usize,
    /// Chronological `(height, index in block)` positions of the
    /// transactions each address participates in. BTreeMap so iteration
    /// order is deterministic across runs.
    addr_index: BTreeMap<crate::address::Address, Vec<(u32, u32)>>,
}

impl Chain {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    pub fn utxo(&self) -> &UtxoSet {
        &self.utxo
    }

    pub fn num_transactions(&self) -> usize {
        self.num_transactions
    }

    pub fn num_addresses(&self) -> usize {
        self.addr_index.len()
    }

    /// Timestamp of the tip block (0 for an empty chain).
    pub fn tip_timestamp(&self) -> u64 {
        self.blocks.last().map_or(0, |b| b.timestamp)
    }

    /// Validate and append a block; all-or-nothing per transaction list.
    pub fn append(&mut self, block: Block) -> Result<(), ChainError> {
        if block.height != self.height() {
            return Err(ChainError::BadHeight {
                expected: self.height(),
                got: block.height,
            });
        }
        if block.timestamp < self.tip_timestamp() {
            return Err(ChainError::TimestampRegression {
                tip: self.tip_timestamp(),
                got: block.timestamp,
            });
        }
        // Apply in place; a bad mid-block tx rolls back the ones before it,
        // so a failed block leaves the set as it was.
        let mut undo = UndoLog::default();
        for tx in &block.txs {
            if let Err(e) = self.utxo.apply_logged(tx, &mut undo) {
                self.utxo.rollback(&mut undo);
                return Err(ChainError::Tx(tx.txid, e));
            }
        }
        let h = block.height as u32;
        let mut seen = std::collections::HashSet::new();
        for (i, tx) in block.txs.iter().enumerate() {
            for addr in tx.participants(&mut seen) {
                self.addr_index.entry(addr).or_default().push((h, i as u32));
            }
        }
        self.num_transactions += block.txs.len();
        self.blocks.push(block);
        Ok(())
    }

    /// Chronological `(height, index in block)` positions of the
    /// transactions an address participates in.
    pub fn address_history(&self, addr: crate::address::Address) -> &[(u32, u32)] {
        self.addr_index.get(&addr).map_or(&[], |v| v.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::Address;
    use crate::amount::Amount;
    use crate::tx::{OutPoint, TxIn, TxOut};
    use crate::utxo::UtxoEntry;

    fn coinbase(addr: u64, sats: u64, ts: u64, nonce: u64) -> Transaction {
        Transaction::new(
            vec![],
            vec![TxOut {
                address: Address(addr),
                value: Amount::from_sats(sats),
            }],
            ts,
            nonce,
        )
    }

    #[test]
    fn append_and_lookup() {
        let mut chain = Chain::new();
        let cb = coinbase(1, 50, 100, 0);
        let txid = cb.txid;
        chain
            .append(Block {
                height: 0,
                timestamp: 100,
                txs: vec![cb],
            })
            .unwrap();
        assert_eq!(chain.height(), 1);
        assert_eq!(chain.num_transactions(), 1);
        assert_eq!(chain.address_history(Address(1)), &[(0, 0)]);
        assert_eq!(chain.blocks()[0].txs[0].txid, txid);
    }

    #[test]
    fn height_must_be_sequential() {
        let mut chain = Chain::new();
        let res = chain.append(Block {
            height: 5,
            timestamp: 0,
            txs: vec![],
        });
        assert!(matches!(
            res,
            Err(ChainError::BadHeight {
                expected: 0,
                got: 5
            })
        ));
    }

    #[test]
    fn timestamp_cannot_regress() {
        let mut chain = Chain::new();
        chain
            .append(Block {
                height: 0,
                timestamp: 100,
                txs: vec![],
            })
            .unwrap();
        let res = chain.append(Block {
            height: 1,
            timestamp: 50,
            txs: vec![],
        });
        assert!(matches!(res, Err(ChainError::TimestampRegression { .. })));
    }

    /// Every UTXO entry in outpoint order, the entry count and the total.
    fn utxo_snapshot(chain: &Chain) -> (Vec<(OutPoint, UtxoEntry)>, usize, Amount) {
        let mut entries: Vec<(OutPoint, UtxoEntry)> =
            chain.utxo().iter().map(|(&op, &e)| (op, e)).collect();
        entries.sort_by_key(|&(op, _)| op);
        (entries, chain.utxo().len(), chain.utxo().total_value())
    }

    /// A transaction spending output `vout` of `prev` whole, minus `fee`, to
    /// `to`.
    fn spend(prev: &Transaction, vout: u32, to: u64, fee: u64, nonce: u64) -> Transaction {
        let o = prev.outputs[vout as usize];
        Transaction::new(
            vec![TxIn {
                prevout: OutPoint {
                    txid: prev.txid,
                    vout,
                },
                address: o.address,
                value: o.value,
            }],
            vec![TxOut {
                address: Address(to),
                value: o.value - Amount::from_sats(fee),
            }],
            600,
            nonce,
        )
    }

    /// Appends `txs` as block 1 onto a chain whose genesis holds `genesis`,
    /// expects the append to fail, and checks that the chain, its UTXO set
    /// included, is exactly as it was.
    fn assert_block_rolls_back(genesis: Vec<Transaction>, txs: Vec<Transaction>) {
        let mut chain = Chain::new();
        chain
            .append(Block {
                height: 0,
                timestamp: 0,
                txs: genesis,
            })
            .unwrap();
        let before = utxo_snapshot(&chain);
        let (num_txs, num_addrs) = (chain.num_transactions(), chain.num_addresses());
        let res = chain.append(Block {
            height: 1,
            timestamp: 600,
            txs,
        });
        assert!(matches!(res, Err(ChainError::Tx(..))), "{res:?}");
        assert_eq!(chain.height(), 1);
        assert_eq!(utxo_snapshot(&chain), before);
        assert_eq!(
            (chain.num_transactions(), chain.num_addresses()),
            (num_txs, num_addrs)
        );
    }

    #[test]
    fn bad_tx_rolls_back_whole_block() {
        let cb = coinbase(1, 50, 0, 0);
        let other = coinbase(7, 80, 0, 1);
        // One valid spend, then an overspend of its output.
        let good = spend(&cb, 0, 2, 1, 1);
        let bad = Transaction::new(
            spend(&good, 0, 3, 0, 2).inputs,
            vec![TxOut {
                address: Address(3),
                value: Amount::from_sats(99),
            }],
            600,
            2,
        );
        assert_block_rolls_back(vec![cb, other], vec![good, bad]);
    }

    #[test]
    fn bad_tx_rolls_back_spends_of_outputs_created_in_the_same_block() {
        let cb = coinbase(1, 50, 0, 0);
        let first = spend(&cb, 0, 2, 1, 1);
        // Spends `first`'s output, created earlier in this block.
        let second = spend(&first, 0, 3, 1, 2);
        let missing = spend(&coinbase(9, 10, 0, 99), 0, 4, 0, 3);
        assert_block_rolls_back(vec![cb], vec![first, second, missing]);
    }

    #[test]
    fn bad_tx_rolls_back_an_output_that_overwrote_an_unspent_one() {
        let cb = coinbase(1, 50, 0, 0);
        // Same contents and nonce, hence the same txid: its output lands on
        // the outpoint `cb` left unspent.
        let duplicate = coinbase(1, 50, 0, 0);
        assert_eq!(duplicate.txid, cb.txid);
        let missing = spend(&coinbase(9, 10, 0, 99), 0, 4, 0, 3);
        assert_block_rolls_back(vec![cb], vec![duplicate, missing]);
    }

    #[test]
    fn address_history_is_chronological_and_deduped() {
        let mut chain = Chain::new();
        let cb = coinbase(1, 100, 0, 0);
        let cb_txid = cb.txid;
        chain
            .append(Block {
                height: 0,
                timestamp: 0,
                txs: vec![cb],
            })
            .unwrap();
        // Address 1 pays itself (appears on both sides — history should list
        // the tx once).
        let self_pay = Transaction::new(
            vec![TxIn {
                prevout: OutPoint {
                    txid: cb_txid,
                    vout: 0,
                },
                address: Address(1),
                value: Amount::from_sats(100),
            }],
            vec![TxOut {
                address: Address(1),
                value: Amount::from_sats(99),
            }],
            600,
            1,
        );
        chain
            .append(Block {
                height: 1,
                timestamp: 600,
                txs: vec![self_pay],
            })
            .unwrap();
        assert_eq!(chain.address_history(Address(1)), &[(0, 0), (1, 0)]);
    }

    #[test]
    fn unknown_address_has_empty_history() {
        let chain = Chain::new();
        assert!(chain.address_history(Address(42)).is_empty());
    }
}
