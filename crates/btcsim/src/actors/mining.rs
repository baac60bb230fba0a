//! Mining-pool behavior: collect block rewards, fan payouts out to a large,
//! stable population of miner addresses — the pattern that motivates the
//! paper's multi-transaction address compression (thousands of miner
//! addresses co-occurring across payout transactions).

use super::{Actor, Shared, StepCtx, DEFAULT_FEE};
use crate::address::{Address, Label};
use crate::amount::Amount;
use crate::tx::TxOut;
use crate::wallet::{ChangePolicy, WalletId};
use rand::Rng;

/// Blocks between payout rounds.
const PAYOUT_INTERVAL: u64 = 12;
/// Fraction of miners paid each round (the rest are below the payout
/// threshold that round).
const PAYOUT_FRACTION: f64 = 0.7;
/// Miners forward earnings to an exchange with this per-round chance.
const MINER_DEPOSIT_PROB: f64 = 0.05;

/// A mining pool plus the miners it pays.
pub struct MiningPoolActor {
    pool: WalletId,
    pool_reward_addr: Address,
    miners: WalletId,
    miner_addrs: Vec<Address>,
}

impl MiningPoolActor {
    /// A pool paying `num_miners` miner addresses.
    pub fn new(num_miners: usize, shared: &mut Shared) -> Self {
        let pool = shared
            .wallets
            .create(ChangePolicy::ReuseInput, Some(Label::Mining));
        let pool_reward_addr = shared.wallets[pool].new_address(&mut shared.alloc);
        let miners = shared
            .wallets
            .create(ChangePolicy::ReuseInput, Some(Label::Mining));
        let miner_addrs: Vec<Address> = (0..num_miners)
            .map(|_| shared.wallets[miners].new_address(&mut shared.alloc))
            .collect();
        Self {
            pool,
            pool_reward_addr,
            miners,
            miner_addrs,
        }
    }

    /// Address the simulator pays the coinbase to when this pool wins a block.
    pub fn reward_address(&self) -> Address {
        self.pool_reward_addr
    }

    fn payout_round(&mut self, ctx: &mut StepCtx<'_>, shared: &mut Shared) {
        let balance = shared.wallets[self.pool].balance();
        if balance < Amount::from_btc(1.0) {
            return;
        }
        // Pick the miners paid this round.
        let paid: Vec<Address> = self
            .miner_addrs
            .iter()
            .copied()
            .filter(|_| ctx.rng.gen_bool(PAYOUT_FRACTION))
            .collect();
        if paid.is_empty() {
            return;
        }
        // Distribute ~80% of the pool balance, proportional with jitter
        // (hashrate differences between miners).
        let distributable = balance.mul_f64(0.8);
        let base = distributable.div_n(paid.len() as u64);
        let outs: Vec<TxOut> = paid
            .iter()
            .map(|&address| TxOut {
                address,
                value: base.mul_f64(0.5 + ctx.rng.gen::<f64>()),
            })
            .filter(|o| !o.value.is_zero())
            .collect();
        if outs.is_empty() {
            return;
        }
        let total: Amount = outs.iter().map(|o| o.value).sum();
        if total + DEFAULT_FEE > balance {
            return;
        }
        let nonce = ctx.next_nonce();
        if let Some(tx) = shared.wallets[self.pool].create_payment(
            outs,
            DEFAULT_FEE,
            &mut shared.alloc,
            ctx.timestamp,
            nonce,
        ) {
            ctx.submit(tx);
        }
    }

    fn miner_deposits(&mut self, ctx: &mut StepCtx<'_>, shared: &mut Shared) {
        // Some miners cash out to an exchange deposit address.
        if shared.wallets[self.miners].balance() < Amount::from_btc(0.5) {
            return;
        }
        let rounds = (self.miner_addrs.len() as f64 * MINER_DEPOSIT_PROB).ceil() as usize;
        for _ in 0..rounds {
            if !ctx.rng.gen_bool(0.8) {
                continue;
            }
            let Some((_, dep)) = shared.dir.take_exchange_deposit(ctx.rng) else {
                break;
            };
            let miners = &mut shared.wallets[self.miners];
            let amount = miners.balance().div_n(20).max(Amount::from_btc(0.05));
            let amount = amount.min(miners.balance().saturating_sub(DEFAULT_FEE));
            if amount.is_zero() {
                break;
            }
            let nonce = ctx.next_nonce();
            if let Some(tx) = miners.create_payment(
                vec![TxOut {
                    address: dep,
                    value: amount,
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

impl Actor for MiningPoolActor {
    fn step(&mut self, ctx: &mut StepCtx<'_>, shared: &mut Shared) {
        if ctx.height > 0 && ctx.height.is_multiple_of(PAYOUT_INTERVAL) {
            self.payout_round(ctx, shared);
        }
        self.miner_deposits(ctx, shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transaction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn step_at(actor: &mut MiningPoolActor, shared: &mut Shared, height: u64) -> Vec<Transaction> {
        let mut rng = StdRng::seed_from_u64(height + 5);
        let mut nonce = height * 1000;
        let mut out = Vec::new();
        let mut ctx = StepCtx::new(&mut rng, height * 600, height, &mut nonce, &mut out);
        actor.step(&mut ctx, shared);
        out
    }

    fn fund_pool(actor: &MiningPoolActor, shared: &mut Shared, btc: f64, nonce: u64) {
        let tx = Transaction::new(
            vec![],
            vec![TxOut {
                address: actor.reward_address(),
                value: Amount::from_btc(btc),
            }],
            0,
            nonce,
        );
        shared.confirm(&tx);
    }

    #[test]
    fn payout_fans_out_to_many_miners() {
        let mut shared = Shared::default();
        let mut pool = MiningPoolActor::new(120, &mut shared);
        fund_pool(&pool, &mut shared, 50.0, 1);
        let txs = step_at(&mut pool, &mut shared, 12);
        assert_eq!(txs.len(), 1);
        // ~70% of 120 miners paid in a single fan-out transaction.
        assert!(
            txs[0].outputs.len() > 40,
            "only {} outputs",
            txs[0].outputs.len()
        );
    }

    #[test]
    fn no_payout_off_schedule() {
        let mut shared = Shared::default();
        let mut pool = MiningPoolActor::new(120, &mut shared);
        fund_pool(&pool, &mut shared, 50.0, 1);
        let txs = step_at(&mut pool, &mut shared, 13);
        assert!(
            txs.iter().all(|t| t.outputs.len() < 10),
            "no fan-out expected"
        );
    }

    #[test]
    fn no_payout_when_poor() {
        let mut shared = Shared::default();
        let mut pool = MiningPoolActor::new(120, &mut shared);
        fund_pool(&pool, &mut shared, 0.1, 1);
        assert!(step_at(&mut pool, &mut shared, 12).is_empty());
    }

    #[test]
    fn miners_deposit_to_exchanges_when_available() {
        let mut shared = Shared::default();
        shared.dir.exchange_deposits = vec![(0..50).map(|i| Address(10_000 + i)).collect()];
        let mut pool = MiningPoolActor::new(120, &mut shared);
        fund_pool(&pool, &mut shared, 50.0, 1);
        // Run a payout so miners have funds, confirm it, then another step.
        let txs = step_at(&mut pool, &mut shared, 12);
        for tx in &txs {
            shared.confirm(tx);
        }
        let txs2 = step_at(&mut pool, &mut shared, 13);
        let deposits: Vec<_> = txs2
            .iter()
            .filter(|t| {
                t.outputs
                    .iter()
                    .any(|o| o.address.0 >= 10_000 && o.address.0 < 10_050)
            })
            .collect();
        assert!(!deposits.is_empty(), "expected at least one miner deposit");
    }

    #[test]
    fn labels_are_mining() {
        let mut shared = Shared::default();
        MiningPoolActor::new(120, &mut shared);
        let labels = shared.labels();
        assert_eq!(labels.len(), 121); // pool reward + 120 miners
        assert!(labels.values().all(|&l| l == Label::Mining));
    }
}
