//! Wallets: address management, coin selection, and the change mechanism.
//!
//! Models the behavior described in the paper's §II-A: when a wallet spends,
//! it zeroes out the consumed UTXOs and sends any leftover funds to a freshly
//! generated change address, which preserves privacy but makes address
//! behavior hard to analyse — exactly the difficulty BAClassifier targets.
//!
//! Every wallet lives in one [`Wallets`] arena, and every address is minted
//! for exactly one of them: [`AddressAlloc`] records the minting wallet of
//! each address (the owner index), so a confirmed transaction is handed only
//! to the wallets that own its addresses.

use crate::address::{Address, Label};
use crate::amount::Amount;
use crate::tx::{OutPoint, Transaction, TxIn, TxOut};
use std::cmp::Reverse;
use std::collections::BTreeMap;
use std::ops::{Index, IndexMut};

/// Position of a wallet in [`Wallets`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalletId(u32);

/// Allocates globally-unique addresses and records which wallet minted each.
///
/// Addresses are handed out densely from 0, so the owner index is a `Vec`
/// indexed by `Address.0`.
#[derive(Clone, Debug, Default)]
pub struct AddressAlloc {
    owners: Vec<WalletId>,
}

impl AddressAlloc {
    pub fn new() -> Self {
        Self::default()
    }

    /// Mint the next address for `owner`.
    pub fn mint(&mut self, owner: WalletId) -> Address {
        let a = Address(self.owners.len() as u64);
        self.owners.push(owner);
        a
    }

    /// The wallet that minted `a`; `None` for an address this allocator
    /// never handed out.
    pub fn owner(&self, a: Address) -> Option<WalletId> {
        usize::try_from(a.0)
            .ok()
            .and_then(|i| self.owners.get(i))
            .copied()
    }

    /// Every minted address with its owner, in address order.
    pub fn owners(&self) -> impl Iterator<Item = (Address, WalletId)> + '_ {
        self.owners
            .iter()
            .enumerate()
            .map(|(i, &w)| (Address(i as u64), w))
    }
}

/// How a wallet handles change outputs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChangePolicy {
    /// Always generate a fresh address (modern wallet default, §II-A).
    FreshAddress,
    /// Return change to the first input's address (legacy behavior; used by
    /// some services — makes clustering heuristics work, which BitScope
    /// exploits).
    ReuseInput,
}

/// Every wallet of the economy, indexed by [`WalletId`].
#[derive(Debug, Default)]
pub struct Wallets(Vec<Wallet>);

impl Wallets {
    /// Create an empty wallet whose addresses carry `label` (`None` for the
    /// unlabeled background population).
    pub fn create(&mut self, change_policy: ChangePolicy, label: Option<Label>) -> WalletId {
        let id = WalletId(u32::try_from(self.0.len()).expect("wallet count fits u32"));
        self.0.push(Wallet::new(id, change_policy, label));
        id
    }

    pub fn iter(&self) -> impl Iterator<Item = &Wallet> {
        self.0.iter()
    }
}

impl Index<WalletId> for Wallets {
    type Output = Wallet;
    fn index(&self, id: WalletId) -> &Wallet {
        &self.0[id.0 as usize]
    }
}

impl IndexMut<WalletId> for Wallets {
    fn index_mut(&mut self, id: WalletId) -> &mut Wallet {
        &mut self.0[id.0 as usize]
    }
}

/// A simulated wallet: a set of owned addresses and their unspent outputs.
///
/// The UTXOs are kept twice, both deterministic: by outpoint (consolidation
/// sweeps the lowest outpoints) and by value descending, then outpoint
/// (largest-first coin selection reads a prefix), beside a running balance.
#[derive(Clone, Debug)]
pub struct Wallet {
    id: WalletId,
    label: Option<Label>,
    /// Ascending: the allocator mints addresses in increasing order.
    addresses: Vec<Address>,
    utxos: BTreeMap<OutPoint, TxOut>,
    by_value: BTreeMap<(Reverse<Amount>, OutPoint), Address>,
    balance: Amount,
    change_policy: ChangePolicy,
}

impl Wallet {
    fn new(id: WalletId, change_policy: ChangePolicy, label: Option<Label>) -> Self {
        Self {
            id,
            label,
            addresses: Vec::new(),
            utxos: BTreeMap::new(),
            by_value: BTreeMap::new(),
            balance: Amount::ZERO,
            change_policy,
        }
    }

    /// Ground-truth label of every address this wallet owns.
    pub fn label(&self) -> Option<Label> {
        self.label
    }

    /// Mint and own a new address.
    pub fn new_address(&mut self, alloc: &mut AddressAlloc) -> Address {
        let a = alloc.mint(self.id);
        self.addresses.push(a);
        a
    }

    pub fn owns(&self, a: Address) -> bool {
        self.addresses.binary_search(&a).is_ok()
    }

    /// Owned addresses, oldest first.
    pub fn addresses(&self) -> impl Iterator<Item = Address> + '_ {
        self.addresses.iter().copied()
    }

    pub fn num_addresses(&self) -> usize {
        self.addresses.len()
    }

    /// Spendable balance.
    pub fn balance(&self) -> Amount {
        self.balance
    }

    pub fn num_utxos(&self) -> usize {
        self.utxos.len()
    }

    /// Unspent outputs in outpoint order.
    pub fn utxos(&self) -> impl Iterator<Item = (OutPoint, TxOut)> + '_ {
        self.utxos.iter().map(|(&op, &o)| (op, o))
    }

    fn insert_utxo(&mut self, op: OutPoint, o: TxOut) {
        if let Some(old) = self.utxos.insert(op, o) {
            self.by_value.remove(&(Reverse(old.value), op));
            self.balance -= old.value;
        }
        self.by_value.insert((Reverse(o.value), op), o.address);
        self.balance += o.value;
    }

    fn remove_utxo(&mut self, op: &OutPoint) {
        if let Some(old) = self.utxos.remove(op) {
            self.by_value.remove(&(Reverse(old.value), *op));
            self.balance -= old.value;
        }
    }

    /// Update the UTXO view from a confirmed transaction: drop spent inputs,
    /// pick up outputs paying owned addresses.
    pub fn observe(&mut self, tx: &Transaction) {
        for input in &tx.inputs {
            self.remove_utxo(&input.prevout);
        }
        for (vout, output) in tx.outputs.iter().enumerate() {
            if !output.value.is_zero() && self.owns(output.address) {
                self.insert_utxo(
                    OutPoint {
                        txid: tx.txid,
                        vout: vout as u32,
                    },
                    *output,
                );
            }
        }
    }

    /// Build a payment covering `payments` plus `fee`, using largest-first
    /// coin selection (value descending, then txid, then vout); leftover goes
    /// to a change output per the wallet's [`ChangePolicy`]. Returns `None`
    /// when the balance is insufficient.
    ///
    /// The created transaction is not yet confirmed: the caller must route it
    /// through a block and then [`Wallet::observe`] it (the simulator does
    /// both).
    pub fn create_payment(
        &mut self,
        payments: Vec<TxOut>,
        fee: Amount,
        alloc: &mut AddressAlloc,
        timestamp: u64,
        nonce: u64,
    ) -> Option<Transaction> {
        assert!(!payments.is_empty(), "payment with no outputs");
        let target = payments.iter().map(|o| o.value).sum::<Amount>() + fee;
        if self.balance < target {
            return None;
        }
        // Largest-first selection: deterministic and keeps input counts low.
        let mut inputs = Vec::new();
        let mut gathered = Amount::ZERO;
        for (&(Reverse(value), prevout), &address) in &self.by_value {
            inputs.push(TxIn {
                prevout,
                address,
                value,
            });
            gathered += value;
            if gathered >= target {
                break;
            }
        }
        debug_assert!(gathered >= target);
        let change = gathered - target;
        let mut outputs = payments;
        if !change.is_zero() {
            let change_addr = match self.change_policy {
                ChangePolicy::FreshAddress => self.new_address(alloc),
                ChangePolicy::ReuseInput => inputs[0].address,
            };
            outputs.push(TxOut {
                address: change_addr,
                value: change,
            });
        }
        let tx = Transaction::new(inputs, outputs, timestamp, nonce);
        // Optimistically mark inputs spent so back-to-back payments within a
        // block do not double-spend; confirmation re-observes harmlessly.
        for input in &tx.inputs {
            self.remove_utxo(&input.prevout);
        }
        Some(tx)
    }

    /// Consolidate up to `max_inputs` UTXOs into a single output at `dest`
    /// (exchange sweep / mixer merge pattern). `None` if fewer than 2 UTXOs
    /// or the swept value does not cover the fee.
    pub fn consolidate(
        &mut self,
        dest: Address,
        max_inputs: usize,
        fee: Amount,
        timestamp: u64,
        nonce: u64,
    ) -> Option<Transaction> {
        if self.utxos.len() < 2 {
            return None;
        }
        let inputs: Vec<TxIn> = self
            .utxos
            .iter()
            .take(max_inputs.max(2))
            .map(|(&prevout, o)| TxIn {
                prevout,
                address: o.address,
                value: o.value,
            })
            .collect();
        let total: Amount = inputs.iter().map(|i| i.value).sum();
        let swept = total.checked_sub(fee)?;
        if swept.is_zero() {
            return None;
        }
        let tx = Transaction::new(
            inputs,
            vec![TxOut {
                address: dest,
                value: swept,
            }],
            timestamp,
            nonce,
        );
        for input in &tx.inputs {
            self.remove_utxo(&input.prevout);
        }
        Some(tx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn wallet(policy: ChangePolicy) -> Wallet {
        Wallet::new(WalletId(0), policy, None)
    }

    fn fund(wallet: &mut Wallet, alloc: &mut AddressAlloc, sats: u64, nonce: u64) -> Transaction {
        let addr = wallet.new_address(alloc);
        let tx = Transaction::new(
            vec![],
            vec![TxOut {
                address: addr,
                value: Amount::from_sats(sats),
            }],
            0,
            nonce,
        );
        wallet.observe(&tx);
        tx
    }

    #[test]
    fn observe_tracks_balance() {
        let mut alloc = AddressAlloc::new();
        let mut w = wallet(ChangePolicy::FreshAddress);
        fund(&mut w, &mut alloc, 100, 0);
        fund(&mut w, &mut alloc, 50, 1);
        assert_eq!(w.balance(), Amount::from_sats(150));
        assert_eq!(w.num_utxos(), 2);
    }

    #[test]
    fn payment_with_fresh_change() {
        let mut alloc = AddressAlloc::new();
        let mut w = wallet(ChangePolicy::FreshAddress);
        fund(&mut w, &mut alloc, 100, 0);
        let before = w.num_addresses();
        let tx = w
            .create_payment(
                vec![TxOut {
                    address: Address(999),
                    value: Amount::from_sats(60),
                }],
                Amount::from_sats(5),
                &mut alloc,
                10,
                1,
            )
            .unwrap();
        // 100 - 60 - 5 = 35 change to a fresh owned address.
        assert_eq!(tx.outputs.len(), 2);
        assert_eq!(tx.outputs[1].value, Amount::from_sats(35));
        assert!(w.owns(tx.outputs[1].address));
        assert_eq!(w.num_addresses(), before + 1);
        assert_eq!(tx.fee(), Amount::from_sats(5));
    }

    #[test]
    fn reuse_input_change_policy() {
        let mut alloc = AddressAlloc::new();
        let mut w = wallet(ChangePolicy::ReuseInput);
        let funding = fund(&mut w, &mut alloc, 100, 0);
        let src = funding.outputs[0].address;
        let tx = w
            .create_payment(
                vec![TxOut {
                    address: Address(999),
                    value: Amount::from_sats(40),
                }],
                Amount::ZERO,
                &mut alloc,
                10,
                1,
            )
            .unwrap();
        assert_eq!(tx.outputs[1].address, src);
    }

    #[test]
    fn insufficient_balance_returns_none() {
        let mut alloc = AddressAlloc::new();
        let mut w = wallet(ChangePolicy::FreshAddress);
        fund(&mut w, &mut alloc, 10, 0);
        let res = w.create_payment(
            vec![TxOut {
                address: Address(999),
                value: Amount::from_sats(60),
            }],
            Amount::ZERO,
            &mut alloc,
            10,
            1,
        );
        assert!(res.is_none());
        // Balance untouched by the failed attempt.
        assert_eq!(w.balance(), Amount::from_sats(10));
    }

    #[test]
    fn sequential_payments_do_not_double_spend() {
        let mut alloc = AddressAlloc::new();
        let mut w = wallet(ChangePolicy::FreshAddress);
        fund(&mut w, &mut alloc, 100, 0);
        let tx1 = w
            .create_payment(
                vec![TxOut {
                    address: Address(999),
                    value: Amount::from_sats(30),
                }],
                Amount::ZERO,
                &mut alloc,
                10,
                1,
            )
            .unwrap();
        // Before confirmation the wallet already marked inputs spent: a second
        // payment cannot reuse them.
        let tx2 = w.create_payment(
            vec![TxOut {
                address: Address(998),
                value: Amount::from_sats(30),
            }],
            Amount::ZERO,
            &mut alloc,
            10,
            2,
        );
        assert!(tx2.is_none());
        // After confirming tx1 the change becomes spendable again.
        w.observe(&tx1);
        let tx3 = w.create_payment(
            vec![TxOut {
                address: Address(998),
                value: Amount::from_sats(30),
            }],
            Amount::ZERO,
            &mut alloc,
            11,
            3,
        );
        assert!(tx3.is_some());
    }

    #[test]
    fn exact_spend_has_no_change_output() {
        let mut alloc = AddressAlloc::new();
        let mut w = wallet(ChangePolicy::FreshAddress);
        fund(&mut w, &mut alloc, 100, 0);
        let tx = w
            .create_payment(
                vec![TxOut {
                    address: Address(999),
                    value: Amount::from_sats(95),
                }],
                Amount::from_sats(5),
                &mut alloc,
                10,
                1,
            )
            .unwrap();
        assert_eq!(tx.outputs.len(), 1);
    }

    #[test]
    fn consolidate_sweeps_many_utxos() {
        let mut alloc = AddressAlloc::new();
        let mut w = wallet(ChangePolicy::FreshAddress);
        for i in 0..5 {
            fund(&mut w, &mut alloc, 10, i);
        }
        let dest = Address(12345);
        let tx = w
            .consolidate(dest, 10, Amount::from_sats(2), 100, 99)
            .unwrap();
        assert_eq!(tx.inputs.len(), 5);
        assert_eq!(tx.outputs.len(), 1);
        assert_eq!(tx.outputs[0].value, Amount::from_sats(48));
        assert_eq!(tx.outputs[0].address, dest);
    }

    #[test]
    fn consolidate_needs_at_least_two_utxos() {
        let mut alloc = AddressAlloc::new();
        let mut w = wallet(ChangePolicy::FreshAddress);
        fund(&mut w, &mut alloc, 10, 0);
        assert!(w.consolidate(Address(1), 10, Amount::ZERO, 0, 1).is_none());
    }

    #[test]
    fn multi_utxo_payment_gathers_enough_inputs() {
        let mut alloc = AddressAlloc::new();
        let mut w = wallet(ChangePolicy::FreshAddress);
        for i in 0..4 {
            fund(&mut w, &mut alloc, 25, i);
        }
        let tx = w
            .create_payment(
                vec![TxOut {
                    address: Address(999),
                    value: Amount::from_sats(70),
                }],
                Amount::ZERO,
                &mut alloc,
                10,
                9,
            )
            .unwrap();
        assert!(tx.inputs.len() >= 3);
        assert_eq!(tx.input_value(), tx.output_value());
    }

    /// Largest-first selection written out: every UTXO sorted by value
    /// descending, then txid, then vout, and the shortest prefix covering
    /// `target`; `None` if the whole set does not.
    fn reference_selection(w: &Wallet, target: Amount) -> Option<Vec<OutPoint>> {
        let mut all: Vec<(OutPoint, TxOut)> = w.utxos().collect();
        all.sort_by(|a, b| {
            b.1.value
                .cmp(&a.1.value)
                .then(a.0.txid.cmp(&b.0.txid))
                .then(a.0.vout.cmp(&b.0.vout))
        });
        let mut gathered = Amount::ZERO;
        let mut picked = Vec::new();
        for (op, o) in all {
            picked.push(op);
            gathered += o.value;
            if gathered >= target {
                return Some(picked);
            }
        }
        None
    }

    /// Applies `(kind, x, y)` operations: fund, pay, consolidate, or confirm
    /// a pending transaction. After each, the running balance must equal the
    /// sum of the UTXOs; a payment must pick exactly the reference selection.
    fn run_ops(reuse_input: bool, ops: &[(u8, u16, u8)]) -> Result<(), TestCaseError> {
        let mut alloc = AddressAlloc::new();
        let mut w = wallet(if reuse_input {
            ChangePolicy::ReuseInput
        } else {
            ChangePolicy::FreshAddress
        });
        let stranger = Address(u64::MAX);
        let mut pending: Vec<Transaction> = Vec::new();
        for (nonce, &(kind, x, y)) in ops.iter().enumerate() {
            let nonce = nonce as u64;
            match kind % 4 {
                0 => {
                    // Four distinct values and up to three outputs a funding
                    // transaction, so selection ties on value, and on value
                    // and txid.
                    let outputs = (0..1 + y % 3)
                        .map(|k| {
                            let address = if w.num_addresses() == 0 || (x + u16::from(k)) % 2 == 0 {
                                w.new_address(&mut alloc)
                            } else {
                                w.addresses()
                                    .nth(usize::from(x) % w.num_addresses())
                                    .unwrap()
                            };
                            // Outputs 0 and 1 carry the same value.
                            let value = Amount::from_sats(
                                1_000 * (1 + u64::from(x + u16::from(k) / 2) % 4),
                            );
                            TxOut { address, value }
                        })
                        .collect();
                    w.observe(&Transaction::new(vec![], outputs, 0, nonce));
                }
                1 => {
                    let amount = Amount::from_sats(1 + u64::from(x) * 3);
                    let fee = Amount::from_sats(u64::from(y) * 7);
                    let want = reference_selection(&w, amount + fee);
                    let before = w.balance();
                    let payment = TxOut {
                        address: stranger,
                        value: amount,
                    };
                    match w.create_payment(vec![payment], fee, &mut alloc, 0, nonce) {
                        Some(tx) => {
                            let got: Vec<OutPoint> = tx.inputs.iter().map(|i| i.prevout).collect();
                            prop_assert_eq!(Some(got), want);
                            prop_assert_eq!(w.balance() + tx.input_value(), before);
                            pending.push(tx);
                        }
                        None => {
                            prop_assert!(before < amount + fee);
                            prop_assert_eq!(want, None);
                        }
                    }
                }
                2 => {
                    let max_inputs = 2 + usize::from(x) % 5;
                    let want: Vec<OutPoint> =
                        w.utxos().take(max_inputs).map(|(op, _)| op).collect();
                    let dest = if y % 2 == 0 {
                        stranger
                    } else {
                        w.new_address(&mut alloc)
                    };
                    let fee = Amount::from_sats(u64::from(y) * 5);
                    if let Some(tx) = w.consolidate(dest, max_inputs, fee, 0, nonce) {
                        let got: Vec<OutPoint> = tx.inputs.iter().map(|i| i.prevout).collect();
                        prop_assert_eq!(got, want);
                        pending.push(tx);
                    }
                }
                _ => {
                    if !pending.is_empty() {
                        let tx = pending.remove(usize::from(x) % pending.len());
                        w.observe(&tx);
                        if y % 3 == 0 {
                            // Observing the same confirmation twice is a no-op.
                            let utxos: Vec<_> = w.utxos().collect();
                            w.observe(&tx);
                            prop_assert_eq!(w.utxos().collect::<Vec<_>>(), utxos);
                        }
                    }
                }
            }
            let sum: Amount = w.utxos().map(|(_, o)| o.value).sum();
            prop_assert_eq!(w.balance(), sum);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn balance_and_selection_match_the_reference(
            reuse_input in any::<bool>(),
            ops in proptest::collection::vec((any::<u8>(), 0u16..2_000, any::<u8>()), 1..60),
        ) {
            run_ops(reuse_input, &ops)?;
        }
    }
}
