//! Unlabeled retail background traffic: peer-to-peer payments plus the
//! client side of exchange deposits/withdrawals and mixer usage. These
//! addresses form the anonymous crowd the labeled actors transact with.

use super::{Actor, Shared, StepCtx, DEFAULT_FEE};
use crate::address::Address;
use crate::amount::Amount;
use crate::dist;
use crate::tx::TxOut;
use crate::wallet::{ChangePolicy, WalletId, Wallets};
use rand::Rng;

/// Expected p2p payments per block.
const P2P_PER_BLOCK: f64 = 8.0;
/// Expected exchange deposits per block.
const DEPOSITS_PER_BLOCK: f64 = 3.0;
/// Chance a deposit is followed by a queued withdrawal request.
const WITHDRAWAL_PROB: f64 = 0.8;
/// Expected mixer jobs initiated per block.
const MIXES_PER_BLOCK: f64 = 2.0;
/// Median p2p payment (BTC).
const MEDIAN_PAYMENT_BTC: f64 = 0.1;

/// The retail population: its size and its growth.
#[derive(Clone, Debug)]
pub struct RetailConfig {
    /// Number of user wallets.
    pub num_users: usize,
    /// Expected new users joining per block (drives the Fig. 1 growth
    /// curve). New users are funded by existing users.
    pub growth_per_block: f64,
}

impl Default for RetailConfig {
    fn default() -> Self {
        Self {
            num_users: 150,
            growth_per_block: 0.0,
        }
    }
}

/// The anonymous user crowd.
pub struct RetailActor {
    growth_per_block: f64,
    users: Vec<WalletId>,
    /// Size of the founding population (rate baseline).
    initial_users: usize,
    /// Zipf popularity: a few heavy users make most payments, like reality.
    popularity: dist::ZipfSampler,
}

impl RetailActor {
    pub fn new(cfg: RetailConfig, shared: &mut Shared) -> Self {
        let users: Vec<WalletId> = (0..cfg.num_users).map(|_| new_user(shared).0).collect();
        let popularity = dist::ZipfSampler::new(cfg.num_users, 0.8);
        let initial_users = cfg.num_users;
        Self {
            growth_per_block: cfg.growth_per_block,
            users,
            initial_users,
            popularity,
        }
    }

    /// Activity scales with the population: as adoption grows (Fig. 1), so
    /// does per-block transaction volume.
    fn rate(&self, base: f64) -> f64 {
        base * self.users.len() as f64 / self.initial_users.max(1) as f64
    }

    /// Primary funding address of every user (for the genesis premine).
    pub fn funding_addresses(&self, wallets: &Wallets) -> Vec<Address> {
        self.users
            .iter()
            .filter_map(|&w| wallets[w].addresses().next())
            .collect()
    }

    fn pay(
        &mut self,
        user: usize,
        dest: Address,
        amount: Amount,
        ctx: &mut StepCtx<'_>,
        shared: &mut Shared,
    ) -> bool {
        if amount.is_zero() {
            return false;
        }
        let nonce = ctx.next_nonce();
        match shared.wallets[self.users[user]].create_payment(
            vec![TxOut {
                address: dest,
                value: amount,
            }],
            DEFAULT_FEE,
            &mut shared.alloc,
            ctx.timestamp,
            nonce,
        ) {
            Some(tx) => {
                ctx.submit(tx);
                true
            }
            None => false,
        }
    }

    fn sample_amount(&self, ctx: &mut StepCtx<'_>) -> Amount {
        Amount::from_btc(dist::log_normal(ctx.rng, MEDIAN_PAYMENT_BTC.ln(), 1.2).min(50.0))
    }

    /// Onboard new users: each is funded by an existing user, modelling the
    /// adoption growth behind the paper's Fig. 1.
    fn growth_round(&mut self, ctx: &mut StepCtx<'_>, shared: &mut Shared) {
        let n = dist::poisson(ctx.rng, self.growth_per_block) as usize;
        for _ in 0..n {
            let (w, addr) = new_user(shared);
            self.users.push(w);
            let sponsor = self.popularity.sample(ctx.rng);
            let amount = Amount::from_btc(MEDIAN_PAYMENT_BTC * 5.0);
            self.pay(sponsor, addr, amount, ctx, shared);
        }
    }

    fn pick_sender(&self, ctx: &mut StepCtx<'_>) -> usize {
        use rand::Rng as _;
        // Founders are the whales (zipf), but later joiners also transact.
        if ctx.rng.gen_bool(0.3) {
            ctx.rng.gen_range(0..self.users.len())
        } else {
            self.popularity.sample(ctx.rng)
        }
    }

    fn p2p_round(&mut self, ctx: &mut StepCtx<'_>, shared: &mut Shared) {
        let n = dist::poisson(ctx.rng, self.rate(P2P_PER_BLOCK)) as usize;
        for _ in 0..n {
            let from = self.pick_sender(ctx);
            let to = ctx.rng.gen_range(0..self.users.len());
            if from == to {
                continue;
            }
            let dest = shared.wallets[self.users[to]].new_address(&mut shared.alloc);
            let amount = self.sample_amount(ctx);
            self.pay(from, dest, amount, ctx, shared);
        }
    }

    fn exchange_round(&mut self, ctx: &mut StepCtx<'_>, shared: &mut Shared) {
        let n = dist::poisson(ctx.rng, self.rate(DEPOSITS_PER_BLOCK)) as usize;
        for _ in 0..n {
            let user = self.pick_sender(ctx);
            let Some((ex, dep)) = shared.dir.take_exchange_deposit(ctx.rng) else {
                break;
            };
            let amount = self.sample_amount(ctx);
            if self.pay(user, dep, amount, ctx, shared) && ctx.rng.gen_bool(WITHDRAWAL_PROB) {
                // Later withdraw roughly what was deposited to a fresh address.
                let back = shared.wallets[self.users[user]].new_address(&mut shared.alloc);
                let w_amount = amount.mul_f64(0.6 + 0.35 * ctx.rng.gen::<f64>());
                shared.mail.withdrawals.push((ex, back, w_amount));
            }
        }
    }

    fn mixer_round(&mut self, ctx: &mut StepCtx<'_>, shared: &mut Shared) {
        if shared.dir.mixer_intakes.is_empty() {
            return;
        }
        let n = dist::poisson(ctx.rng, self.rate(MIXES_PER_BLOCK)) as usize;
        for _ in 0..n {
            let user = self.pick_sender(ctx);
            let mixer = ctx.rng.gen_range(0..shared.dir.mixer_intakes.len());
            let intake = shared.dir.mixer_intakes[mixer];
            if intake == Address(u64::MAX) {
                continue;
            }
            let amount = self.sample_amount(ctx).mul_f64(3.0); // mixes skew larger
            if self.pay(user, intake, amount, ctx, shared) {
                let dest = shared.wallets[self.users[user]].new_address(&mut shared.alloc);
                shared.mail.mix_jobs.push((mixer, dest, amount));
            }
        }
    }
}

/// A new unlabeled user wallet with its first (funding) address.
fn new_user(shared: &mut Shared) -> (WalletId, Address) {
    let w = shared.wallets.create(ChangePolicy::FreshAddress, None);
    (w, shared.wallets[w].new_address(&mut shared.alloc))
}

impl Actor for RetailActor {
    fn step(&mut self, ctx: &mut StepCtx<'_>, shared: &mut Shared) {
        self.growth_round(ctx, shared);
        self.p2p_round(ctx, shared);
        self.exchange_round(ctx, shared);
        self.mixer_round(ctx, shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transaction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn step_at(actor: &mut RetailActor, shared: &mut Shared, height: u64) -> Vec<Transaction> {
        let mut rng = StdRng::seed_from_u64(height + 13);
        let mut nonce = height * 10_000;
        let mut out = Vec::new();
        let mut ctx = StepCtx::new(&mut rng, height * 600, height, &mut nonce, &mut out);
        actor.step(&mut ctx, shared);
        out
    }

    fn fund_all(actor: &RetailActor, shared: &mut Shared, btc: f64) {
        for (i, addr) in actor
            .funding_addresses(&shared.wallets)
            .into_iter()
            .enumerate()
        {
            let tx = Transaction::new(
                vec![],
                vec![TxOut {
                    address: addr,
                    value: Amount::from_btc(btc),
                }],
                0,
                800_000 + i as u64,
            );
            shared.confirm(&tx);
        }
    }

    #[test]
    fn p2p_traffic_flows_between_users() {
        let mut shared = Shared::default();
        let mut retail = RetailActor::new(RetailConfig::default(), &mut shared);
        fund_all(&retail, &mut shared, 5.0);
        let mut count = 0;
        for h in 1..6 {
            let txs = step_at(&mut retail, &mut shared, h);
            count += txs.len();
            for tx in &txs {
                shared.confirm(tx);
            }
        }
        assert!(count > 15, "expected steady p2p volume, saw {count}");
    }

    #[test]
    fn deposits_consume_directory_addresses_and_queue_withdrawals() {
        let mut shared = Shared::default();
        shared.dir.exchange_deposits = vec![(0..100).map(|i| Address(1_000_000 + i)).collect()];
        let mut retail = RetailActor::new(RetailConfig::default(), &mut shared);
        fund_all(&retail, &mut shared, 5.0);
        let before = shared.dir.exchange_deposits[0].len();
        for h in 1..8 {
            let txs = step_at(&mut retail, &mut shared, h);
            for tx in &txs {
                shared.confirm(tx);
            }
        }
        assert!(shared.dir.exchange_deposits[0].len() < before);
        assert!(!shared.mail.withdrawals.is_empty());
    }

    #[test]
    fn mixer_jobs_are_enqueued_with_payment() {
        let mut shared = Shared::default();
        shared.dir.mixer_intakes = vec![Address(5_000_000)];
        let mut retail = RetailActor::new(RetailConfig::default(), &mut shared);
        fund_all(&retail, &mut shared, 20.0);
        let mut mix_payments = 0;
        for h in 1..6 {
            let txs = step_at(&mut retail, &mut shared, h);
            mix_payments += txs
                .iter()
                .filter(|t| t.outputs.iter().any(|o| o.address == Address(5_000_000)))
                .count();
            for tx in &txs {
                shared.confirm(tx);
            }
        }
        assert!(mix_payments > 0);
        assert_eq!(shared.mail.mix_jobs.len(), mix_payments);
    }

    #[test]
    fn unfunded_population_is_quiet() {
        let mut shared = Shared::default();
        let mut retail = RetailActor::new(RetailConfig::default(), &mut shared);
        let txs = step_at(&mut retail, &mut shared, 1);
        assert!(txs.is_empty());
    }

    #[test]
    fn retail_contributes_no_labels() {
        let mut shared = Shared::default();
        RetailActor::new(RetailConfig::default(), &mut shared);
        assert!(shared.labels().is_empty());
    }
}
