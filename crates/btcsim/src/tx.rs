//! Transactions under the UTXO model (paper §II-A).

use crate::address::Address;
use crate::amount::Amount;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// A transaction id (FNV-1a of the transaction contents — the simulator does
/// not need cryptographic strength, only uniqueness and determinism).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Txid(pub u64);

impl fmt::Debug for Txid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tx#{:016x}", self.0)
    }
}

impl fmt::Display for Txid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Reference to a specific output of a previous transaction.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct OutPoint {
    pub txid: Txid,
    pub vout: u32,
}

/// A transaction input: the outpoint it spends, with the owning address and
/// value resolved at creation time (kept inline so consumers never need the
/// full UTXO set to interpret a transaction).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TxIn {
    pub prevout: OutPoint,
    pub address: Address,
    pub value: Amount,
}

/// A transaction output: recipient and value.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct TxOut {
    pub address: Address,
    pub value: Amount,
}

/// A bitcoin transaction. Coinbase transactions have no inputs.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Transaction {
    pub txid: Txid,
    pub inputs: Vec<TxIn>,
    pub outputs: Vec<TxOut>,
    /// Unix timestamp inherited from the containing block.
    pub timestamp: u64,
}

impl Transaction {
    /// Build a transaction, computing its txid from contents + a nonce that
    /// the caller guarantees unique (e.g. a global transaction counter).
    pub fn new(inputs: Vec<TxIn>, outputs: Vec<TxOut>, timestamp: u64, nonce: u64) -> Self {
        assert!(!outputs.is_empty(), "transaction must have outputs");
        let txid = Txid(txid_hash(&inputs, &outputs, timestamp, nonce));
        Self {
            txid,
            inputs,
            outputs,
            timestamp,
        }
    }

    /// True for block-reward transactions.
    pub fn is_coinbase(&self) -> bool {
        self.inputs.is_empty()
    }

    pub fn input_value(&self) -> Amount {
        self.inputs.iter().map(|i| i.value).sum()
    }

    pub fn output_value(&self) -> Amount {
        self.outputs.iter().map(|o| o.value).sum()
    }

    /// Miner fee (input − output); zero for coinbase.
    pub fn fee(&self) -> Amount {
        if self.is_coinbase() {
            Amount::ZERO
        } else {
            self.input_value().saturating_sub(self.output_value())
        }
    }

    /// Every address appearing on the input side (with multiplicity).
    pub fn input_addresses(&self) -> impl Iterator<Item = Address> + '_ {
        self.inputs.iter().map(|i| i.address)
    }

    /// Every address appearing on the output side (with multiplicity).
    pub fn output_addresses(&self) -> impl Iterator<Item = Address> + '_ {
        self.outputs.iter().map(|o| o.address)
    }

    /// Each address the transaction touches, once, on first appearance,
    /// inputs before outputs: the one rule every per-address history
    /// follows (`Chain`'s address index, the streaming follower). `seen` is
    /// the caller's scratch set, cleared here, so a walk over many
    /// transactions allocates nothing per transaction.
    pub fn participants<'a>(
        &'a self,
        seen: &'a mut HashSet<Address>,
    ) -> impl Iterator<Item = Address> + 'a {
        seen.clear();
        self.input_addresses()
            .chain(self.output_addresses())
            .filter(move |&a| seen.insert(a))
    }
}

fn txid_hash(inputs: &[TxIn], outputs: &[TxOut], timestamp: u64, nonce: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(timestamp);
    h.write_u64(nonce);
    for i in inputs {
        h.write_u64(i.prevout.txid.0);
        h.write_u64(i.prevout.vout as u64);
        h.write_u64(i.address.0);
        h.write_u64(i.value.sats());
    }
    for o in outputs {
        h.write_u64(o.address.0);
        h.write_u64(o.value.sats());
    }
    h.finish()
}

/// FNV-1a 64-bit, enough for simulator txids.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out(addr: u64, sats: u64) -> TxOut {
        TxOut {
            address: Address(addr),
            value: Amount::from_sats(sats),
        }
    }

    fn input(txid: u64, vout: u32, addr: u64, sats: u64) -> TxIn {
        TxIn {
            prevout: OutPoint {
                txid: Txid(txid),
                vout,
            },
            address: Address(addr),
            value: Amount::from_sats(sats),
        }
    }

    #[test]
    fn coinbase_detection() {
        let cb = Transaction::new(vec![], vec![out(1, 50)], 0, 0);
        assert!(cb.is_coinbase());
        assert_eq!(cb.fee(), Amount::ZERO);
        let tx = Transaction::new(vec![input(9, 0, 2, 60)], vec![out(1, 50)], 0, 1);
        assert!(!tx.is_coinbase());
    }

    #[test]
    fn fee_is_input_minus_output() {
        let tx = Transaction::new(
            vec![input(9, 0, 2, 100)],
            vec![out(1, 60), out(3, 30)],
            0,
            1,
        );
        assert_eq!(tx.fee(), Amount::from_sats(10));
        assert_eq!(tx.input_value(), Amount::from_sats(100));
        assert_eq!(tx.output_value(), Amount::from_sats(90));
    }

    #[test]
    fn txids_differ_by_nonce_and_content() {
        let a = Transaction::new(vec![], vec![out(1, 50)], 0, 0);
        let b = Transaction::new(vec![], vec![out(1, 50)], 0, 1);
        let c = Transaction::new(vec![], vec![out(1, 51)], 0, 0);
        assert_ne!(a.txid, b.txid);
        assert_ne!(a.txid, c.txid);
    }

    #[test]
    fn txid_is_deterministic() {
        let a = Transaction::new(vec![], vec![out(7, 123)], 55, 9);
        let b = Transaction::new(vec![], vec![out(7, 123)], 55, 9);
        assert_eq!(a.txid, b.txid);
    }

    #[test]
    #[should_panic(expected = "outputs")]
    fn empty_outputs_panics() {
        let _ = Transaction::new(vec![], vec![], 0, 0);
    }
}
