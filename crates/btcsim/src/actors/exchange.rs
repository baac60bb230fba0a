//! Exchange behavior: hot/cold wallets, single-use deposit addresses,
//! periodic sweeps (many-to-one consolidation), batched withdrawals
//! (one-to-many payouts), and hot/cold rebalancing.

use super::{Actor, Shared, StepCtx, DEFAULT_FEE};
use crate::address::{Address, Label};
use crate::amount::{Amount, SATS_PER_BTC};
use crate::tx::TxOut;
use crate::wallet::{ChangePolicy, WalletId};
use rand::Rng;

/// Deposit addresses kept available in the directory.
const DEPOSIT_POOL_TARGET: usize = 24;
/// Sweep deposit funds into the hot wallet every this many blocks.
const SWEEP_INTERVAL: u64 = 6;
/// Max deposit UTXOs consolidated per sweep transaction.
const SWEEP_BATCH: usize = 32;
/// Move funds to cold storage when the hot wallet exceeds this.
const HOT_CEILING: Amount = Amount::from_sats(500 * SATS_PER_BTC);
/// Refill hot from cold when the hot wallet drops below this.
const HOT_FLOOR: Amount = Amount::from_sats(10 * SATS_PER_BTC);
/// Max withdrawal payouts batched into one transaction.
const WITHDRAWAL_BATCH: usize = 16;

/// An exchange: deposit wallet (single-use intake addresses), hot wallet
/// (operational), cold wallet (reserve).
pub struct ExchangeActor {
    /// This exchange's index in `Directory::exchange_deposits` /
    /// `Mailbox::withdrawals`.
    id: usize,
    deposit_wallet: WalletId,
    hot: WalletId,
    cold: WalletId,
    hot_main: Address,
    cold_main: Address,
}

impl ExchangeActor {
    pub fn new(id: usize, shared: &mut Shared) -> Self {
        let label = Some(Label::Exchange);
        let hot = shared.wallets.create(ChangePolicy::FreshAddress, label);
        let cold = shared.wallets.create(ChangePolicy::ReuseInput, label);
        let deposit_wallet = shared.wallets.create(ChangePolicy::FreshAddress, label);
        let hot_main = shared.wallets[hot].new_address(&mut shared.alloc);
        let cold_main = shared.wallets[cold].new_address(&mut shared.alloc);
        if shared.dir.exchange_deposits.len() <= id {
            shared.dir.exchange_deposits.resize(id + 1, Vec::new());
        }
        Self {
            id,
            deposit_wallet,
            hot,
            cold,
            hot_main,
            cold_main,
        }
    }

    fn refill_deposit_pool(&mut self, shared: &mut Shared) {
        let pool = &mut shared.dir.exchange_deposits[self.id];
        while pool.len() < DEPOSIT_POOL_TARGET {
            pool.push(shared.wallets[self.deposit_wallet].new_address(&mut shared.alloc));
        }
    }

    fn sweep_deposits(&mut self, ctx: &mut StepCtx<'_>, shared: &mut Shared) {
        // Consolidate confirmed deposits into the hot wallet: the classic
        // many-inputs-one-output exchange pattern.
        let deposits = &mut shared.wallets[self.deposit_wallet];
        while deposits.num_utxos() >= 2 {
            let nonce = ctx.next_nonce();
            let Some(tx) = deposits.consolidate(
                self.hot_main,
                SWEEP_BATCH,
                DEFAULT_FEE,
                ctx.timestamp,
                nonce,
            ) else {
                break;
            };
            ctx.submit(tx);
        }
    }

    fn process_withdrawals(&mut self, ctx: &mut StepCtx<'_>, shared: &mut Shared) {
        let mine: Vec<(Address, Amount)> = {
            let (mine, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut shared.mail.withdrawals)
                .into_iter()
                .partition(|&(id, _, _)| id == self.id);
            shared.mail.withdrawals = rest;
            mine.into_iter().map(|(_, a, v)| (a, v)).collect()
        };
        for batch in mine.chunks(WITHDRAWAL_BATCH) {
            let outs: Vec<TxOut> = batch
                .iter()
                .map(|&(address, value)| TxOut { address, value })
                .collect();
            let nonce = ctx.next_nonce();
            match shared.wallets[self.hot].create_payment(
                outs,
                DEFAULT_FEE,
                &mut shared.alloc,
                ctx.timestamp,
                nonce,
            ) {
                Some(tx) => ctx.submit(tx),
                None => {
                    // Hot balance short (e.g. change still unconfirmed):
                    // re-queue the batch for the next block.
                    shared
                        .mail
                        .withdrawals
                        .extend(batch.iter().map(|&(a, v)| (self.id, a, v)));
                }
            }
        }
    }

    fn rebalance(&mut self, ctx: &mut StepCtx<'_>, shared: &mut Shared) {
        let hot = shared.wallets[self.hot].balance();
        let cold = shared.wallets[self.cold].balance();
        if hot > HOT_CEILING {
            let excess = hot - HOT_FLOOR.mul_f64(4.0).min(hot);
            if excess > DEFAULT_FEE {
                let nonce = ctx.next_nonce();
                if let Some(tx) = shared.wallets[self.hot].create_payment(
                    vec![TxOut {
                        address: self.cold_main,
                        value: excess - DEFAULT_FEE,
                    }],
                    DEFAULT_FEE,
                    &mut shared.alloc,
                    ctx.timestamp,
                    nonce,
                ) {
                    ctx.submit(tx);
                }
            }
        } else if hot < HOT_FLOOR && cold > HOT_FLOOR.mul_f64(2.0) {
            let refill = cold.div_n(4);
            let nonce = ctx.next_nonce();
            if let Some(tx) = shared.wallets[self.cold].create_payment(
                vec![TxOut {
                    address: self.hot_main,
                    value: refill,
                }],
                DEFAULT_FEE,
                &mut shared.alloc,
                ctx.timestamp,
                nonce,
            ) {
                ctx.submit(tx);
            }
        }
    }
}

impl Actor for ExchangeActor {
    fn step(&mut self, ctx: &mut StepCtx<'_>, shared: &mut Shared) {
        self.refill_deposit_pool(shared);
        self.process_withdrawals(ctx, shared);
        if ctx.height % SWEEP_INTERVAL == self.id as u64 % SWEEP_INTERVAL {
            self.sweep_deposits(ctx, shared);
        }
        // Occasional rebalance check with jitter so exchanges don't sync up.
        if ctx.rng.gen_bool(0.2) {
            self.rebalance(ctx, shared);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transaction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run_step(actor: &mut ExchangeActor, shared: &mut Shared, height: u64) -> Vec<Transaction> {
        let mut rng = StdRng::seed_from_u64(height);
        let mut nonce = height * 1000;
        let mut out = Vec::new();
        let mut ctx = StepCtx::new(&mut rng, height * 600, height, &mut nonce, &mut out);
        actor.step(&mut ctx, shared);
        out
    }

    #[test]
    fn deposit_pool_is_refilled() {
        let mut shared = Shared::default();
        let mut ex = ExchangeActor::new(0, &mut shared);
        run_step(&mut ex, &mut shared, 0);
        assert_eq!(shared.dir.exchange_deposits[0].len(), 24);
    }

    #[test]
    fn deposits_get_swept_to_hot() {
        let mut shared = Shared::default();
        let mut ex = ExchangeActor::new(0, &mut shared);
        run_step(&mut ex, &mut shared, 0);
        // Simulate three user deposits into published addresses.
        for i in 0..3 {
            let dep = shared.dir.exchange_deposits[0].pop().unwrap();
            let tx = Transaction::new(
                vec![],
                vec![TxOut {
                    address: dep,
                    value: Amount::from_btc(1.0),
                }],
                0,
                900 + i,
            );
            shared.confirm(&tx);
        }
        assert_eq!(shared.wallets[ex.deposit_wallet].num_utxos(), 3);
        // Sweep happens on the block where height % interval == id.
        let txs = run_step(&mut ex, &mut shared, 6);
        assert_eq!(txs.len(), 1, "one consolidation tx");
        assert!(txs[0].inputs.len() == 3);
        assert_eq!(txs[0].outputs[0].address, ex.hot_main);
        for tx in &txs {
            shared.confirm(tx);
        }
        assert!(shared.wallets[ex.hot].balance() > Amount::from_btc(2.9));
    }

    #[test]
    fn withdrawals_are_batched() {
        let mut shared = Shared::default();
        let mut ex = ExchangeActor::new(0, &mut shared);
        // Fund hot wallet directly.
        let fund = Transaction::new(
            vec![],
            vec![TxOut {
                address: ex.hot_main,
                value: Amount::from_btc(100.0),
            }],
            0,
            1,
        );
        shared.confirm(&fund);
        for i in 0..20u64 {
            shared
                .mail
                .withdrawals
                .push((0, Address(100_000 + i), Amount::from_btc(0.1)));
        }
        let txs = run_step(&mut ex, &mut shared, 1);
        // 20 withdrawals, batch size 16: the first batch pays out; the second
        // cannot spend the unconfirmed change and is re-queued.
        let payouts: Vec<_> = txs.iter().filter(|t| !t.inputs.is_empty()).collect();
        assert_eq!(payouts.len(), 1);
        assert!(payouts[0].outputs.len() >= 16);
        assert_eq!(shared.mail.withdrawals.len(), 4);
        // After confirmation the re-queued batch is served.
        for tx in &txs {
            shared.confirm(tx);
        }
        let txs2 = run_step(&mut ex, &mut shared, 2);
        let payouts2: Vec<_> = txs2.iter().filter(|t| !t.inputs.is_empty()).collect();
        assert_eq!(payouts2.len(), 1);
        assert_eq!(payouts2[0].outputs.len(), 5); // 4 payouts + change
        assert!(shared.mail.withdrawals.is_empty());
    }

    #[test]
    fn labels_cover_all_owned_addresses() {
        let mut shared = Shared::default();
        let mut ex = ExchangeActor::new(0, &mut shared);
        run_step(&mut ex, &mut shared, 0);
        let labels = shared.labels();
        assert!(labels.len() >= 26); // 24 deposits + hot + cold
        assert!(labels.values().all(|&l| l == Label::Exchange));
    }

    #[test]
    fn foreign_withdrawals_left_in_mailbox() {
        let mut shared = Shared::default();
        let mut ex = ExchangeActor::new(0, &mut shared);
        shared
            .mail
            .withdrawals
            .push((3, Address(1), Amount::from_btc(1.0)));
        run_step(&mut ex, &mut shared, 1);
        assert_eq!(shared.mail.withdrawals.len(), 1);
    }
}
