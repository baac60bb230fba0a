//! The unspent-transaction-output set and transaction validation.

use crate::address::Address;
use crate::amount::Amount;
use crate::tx::{OutPoint, Transaction};
use std::collections::HashMap;

/// Validation failures when applying a transaction to the UTXO set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum UtxoError {
    /// An input references an outpoint that is not unspent.
    MissingInput(OutPoint),
    /// An input's claimed owner/value disagrees with the UTXO set.
    InputMismatch(OutPoint),
    /// Output value exceeds input value on a non-coinbase transaction.
    ValueCreated { input: Amount, output: Amount },
    /// Duplicate outpoint spent twice within one transaction.
    DoubleSpend(OutPoint),
}

impl std::fmt::Display for UtxoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UtxoError::MissingInput(op) => write!(f, "missing input {op:?}"),
            UtxoError::InputMismatch(op) => write!(f, "input mismatch at {op:?}"),
            UtxoError::ValueCreated { input, output } => {
                write!(f, "outputs {output:?} exceed inputs {input:?}")
            }
            UtxoError::DoubleSpend(op) => write!(f, "double spend of {op:?}"),
        }
    }
}

impl std::error::Error for UtxoError {}

/// One unspent output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UtxoEntry {
    pub address: Address,
    pub value: Amount,
}

/// The prior state of each outpoint a run of [`UtxoSet::apply_logged`]
/// calls touched, oldest first: `None` where the outpoint was absent, the
/// entry it held where it was spent or overwritten.
#[derive(Debug, Default)]
pub struct UndoLog(Vec<(OutPoint, Option<UtxoEntry>)>);

/// The set of unspent transaction outputs.
#[derive(Clone, Debug, Default)]
pub struct UtxoSet {
    entries: HashMap<OutPoint, UtxoEntry>,
}

impl UtxoSet {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn get(&self, op: &OutPoint) -> Option<&UtxoEntry> {
        self.entries.get(op)
    }

    pub fn contains(&self, op: &OutPoint) -> bool {
        self.entries.contains_key(op)
    }

    /// Total value of all unspent outputs.
    pub fn total_value(&self) -> Amount {
        self.entries.values().map(|e| e.value).sum()
    }

    /// Validate a transaction against the current set without mutating it.
    pub fn validate(&self, tx: &Transaction) -> Result<(), UtxoError> {
        let mut seen = std::collections::HashSet::new();
        for input in &tx.inputs {
            if !seen.insert(input.prevout) {
                return Err(UtxoError::DoubleSpend(input.prevout));
            }
            match self.entries.get(&input.prevout) {
                None => return Err(UtxoError::MissingInput(input.prevout)),
                Some(e) if e.address != input.address || e.value != input.value => {
                    return Err(UtxoError::InputMismatch(input.prevout))
                }
                Some(_) => {}
            }
        }
        if !tx.is_coinbase() && tx.output_value() > tx.input_value() {
            return Err(UtxoError::ValueCreated {
                input: tx.input_value(),
                output: tx.output_value(),
            });
        }
        Ok(())
    }

    /// Validate and apply: spend the inputs, insert the outputs.
    pub fn apply(&mut self, tx: &Transaction) -> Result<(), UtxoError> {
        self.apply_logged(tx, &mut UndoLog::default())
    }

    /// [`UtxoSet::apply`], recording in `undo` the prior state of every
    /// outpoint it touches. A transaction that fails validation changes
    /// nothing and records nothing.
    pub fn apply_logged(&mut self, tx: &Transaction, undo: &mut UndoLog) -> Result<(), UtxoError> {
        self.validate(tx)?;
        for input in &tx.inputs {
            let spent = self.entries.remove(&input.prevout);
            undo.0.push((input.prevout, spent));
        }
        for (vout, output) in tx.outputs.iter().enumerate() {
            if output.value.is_zero() {
                continue; // unspendable dust marker; keep the set clean
            }
            let op = OutPoint {
                txid: tx.txid,
                vout: vout as u32,
            };
            let replaced = self.entries.insert(
                op,
                UtxoEntry {
                    address: output.address,
                    value: output.value,
                },
            );
            undo.0.push((op, replaced));
        }
        Ok(())
    }

    /// Restore every outpoint `undo` recorded, newest first, leaving the set
    /// as it was before the logged applies and the log empty.
    pub fn rollback(&mut self, undo: &mut UndoLog) {
        for (op, prior) in undo.0.drain(..).rev() {
            match prior {
                Some(e) => self.entries.insert(op, e),
                None => self.entries.remove(&op),
            };
        }
    }

    /// Iterate all entries (unordered).
    pub fn iter(&self) -> impl Iterator<Item = (&OutPoint, &UtxoEntry)> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{TxIn, TxOut};

    fn coinbase(addr: u64, sats: u64, nonce: u64) -> Transaction {
        Transaction::new(
            vec![],
            vec![TxOut {
                address: Address(addr),
                value: Amount::from_sats(sats),
            }],
            0,
            nonce,
        )
    }

    fn spend(prev: &Transaction, vout: u32, to: u64, sats: u64, nonce: u64) -> Transaction {
        let entry = prev.outputs[vout as usize];
        Transaction::new(
            vec![TxIn {
                prevout: OutPoint {
                    txid: prev.txid,
                    vout,
                },
                address: entry.address,
                value: entry.value,
            }],
            vec![TxOut {
                address: Address(to),
                value: Amount::from_sats(sats),
            }],
            1,
            nonce,
        )
    }

    #[test]
    fn coinbase_creates_utxo() {
        let mut set = UtxoSet::new();
        let cb = coinbase(1, 50, 0);
        set.apply(&cb).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.total_value(), Amount::from_sats(50));
    }

    #[test]
    fn spend_moves_value() {
        let mut set = UtxoSet::new();
        let cb = coinbase(1, 50, 0);
        set.apply(&cb).unwrap();
        let tx = spend(&cb, 0, 2, 45, 1); // 5 sats fee
        set.apply(&tx).unwrap();
        assert_eq!(set.len(), 1);
        assert_eq!(set.total_value(), Amount::from_sats(45));
        let op = OutPoint {
            txid: tx.txid,
            vout: 0,
        };
        assert_eq!(set.get(&op).unwrap().address, Address(2));
    }

    #[test]
    fn double_spend_rejected() {
        let mut set = UtxoSet::new();
        let cb = coinbase(1, 50, 0);
        set.apply(&cb).unwrap();
        let tx1 = spend(&cb, 0, 2, 45, 1);
        let tx2 = spend(&cb, 0, 3, 45, 2);
        set.apply(&tx1).unwrap();
        assert!(matches!(set.apply(&tx2), Err(UtxoError::MissingInput(_))));
    }

    #[test]
    fn intra_tx_double_spend_rejected() {
        let mut set = UtxoSet::new();
        let cb = coinbase(1, 50, 0);
        set.apply(&cb).unwrap();
        let op = OutPoint {
            txid: cb.txid,
            vout: 0,
        };
        let inp = TxIn {
            prevout: op,
            address: Address(1),
            value: Amount::from_sats(50),
        };
        let tx = Transaction::new(
            vec![inp, inp],
            vec![TxOut {
                address: Address(2),
                value: Amount::from_sats(90),
            }],
            1,
            7,
        );
        assert_eq!(set.apply(&tx), Err(UtxoError::DoubleSpend(op)));
    }

    #[test]
    fn value_creation_rejected() {
        let mut set = UtxoSet::new();
        let cb = coinbase(1, 50, 0);
        set.apply(&cb).unwrap();
        let tx = spend(&cb, 0, 2, 60, 1); // 60 > 50
        assert!(matches!(
            set.apply(&tx),
            Err(UtxoError::ValueCreated { .. })
        ));
        // Set unchanged on failure.
        assert_eq!(set.total_value(), Amount::from_sats(50));
    }

    #[test]
    fn input_owner_mismatch_rejected() {
        let mut set = UtxoSet::new();
        let cb = coinbase(1, 50, 0);
        set.apply(&cb).unwrap();
        let tx = Transaction::new(
            vec![TxIn {
                prevout: OutPoint {
                    txid: cb.txid,
                    vout: 0,
                },
                address: Address(99), // wrong owner claim
                value: Amount::from_sats(50),
            }],
            vec![TxOut {
                address: Address(2),
                value: Amount::from_sats(40),
            }],
            1,
            3,
        );
        assert!(matches!(set.apply(&tx), Err(UtxoError::InputMismatch(_))));
    }

    #[test]
    fn zero_value_outputs_not_tracked() {
        let mut set = UtxoSet::new();
        let tx = Transaction::new(
            vec![],
            vec![
                TxOut {
                    address: Address(1),
                    value: Amount::ZERO,
                },
                TxOut {
                    address: Address(2),
                    value: Amount::from_sats(10),
                },
            ],
            0,
            0,
        );
        set.apply(&tx).unwrap();
        assert_eq!(set.len(), 1);
    }
}
