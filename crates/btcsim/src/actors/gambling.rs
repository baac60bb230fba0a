//! Gambling behavior: many small, frequent, roughly symmetric flows between
//! gambler addresses and the house — high transaction counts, low values,
//! tight time cadence.

use super::{Actor, Shared, StepCtx, DEFAULT_FEE};
use crate::address::{Address, Label};
use crate::amount::Amount;
use crate::dist;
use crate::tx::TxOut;
use crate::wallet::{ChangePolicy, WalletId, Wallets};
use rand::Rng;

/// Gambler wallets playing at each house.
pub(crate) const NUM_GAMBLERS: usize = 40;
/// Expected bets placed per block across all gamblers.
const BETS_PER_BLOCK: f64 = 4.0;
/// House edge: win probability for a 2x payout.
const WIN_PROB: f64 = 0.474;
/// Typical bet size (log-normal median), in BTC.
const MEDIAN_BET_BTC: f64 = 0.02;

/// A gambling site (house wallet) and its gamblers.
pub struct GamblingActor {
    house: WalletId,
    house_addr: Address,
    gamblers: Vec<WalletId>,
    /// Wins owed: (gambler wallet index, payout) settled next step.
    pending_payouts: Vec<(usize, Amount)>,
}

impl GamblingActor {
    /// House `id`: its bet address is `Directory::house_addresses[id]`.
    pub fn new(id: usize, shared: &mut Shared) -> Self {
        let label = Some(Label::Gambling);
        let house = shared.wallets.create(ChangePolicy::ReuseInput, label);
        let house_addr = shared.wallets[house].new_address(&mut shared.alloc);
        if shared.dir.house_addresses.len() <= id {
            shared.dir.house_addresses.resize(id + 1, Address(u64::MAX));
        }
        shared.dir.house_addresses[id] = house_addr;
        let gamblers = (0..NUM_GAMBLERS)
            .map(|_| {
                let w = shared.wallets.create(ChangePolicy::FreshAddress, label);
                shared.wallets[w].new_address(&mut shared.alloc);
                w
            })
            .collect();
        Self {
            house,
            house_addr,
            gamblers,
            pending_payouts: Vec::new(),
        }
    }

    pub fn house_address(&self) -> Address {
        self.house_addr
    }

    /// Primary receiving address of each gambler (for external funding).
    pub fn gambler_addresses(&self, wallets: &Wallets) -> Vec<Address> {
        self.gamblers
            .iter()
            .filter_map(|&w| wallets[w].addresses().next())
            .collect()
    }

    fn settle_payouts(&mut self, ctx: &mut StepCtx<'_>, shared: &mut Shared) {
        let pending = std::mem::take(&mut self.pending_payouts);
        for (gi, amount) in pending {
            let Some(dest) = shared.wallets[self.gamblers[gi]].addresses().next() else {
                continue;
            };
            let nonce = ctx.next_nonce();
            if let Some(tx) = shared.wallets[self.house].create_payment(
                vec![TxOut {
                    address: dest,
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

    fn place_bets(&mut self, ctx: &mut StepCtx<'_>, shared: &mut Shared) {
        let n_bets = dist::poisson(ctx.rng, BETS_PER_BLOCK) as usize;
        let mu = MEDIAN_BET_BTC.ln();
        for _ in 0..n_bets {
            let gi = ctx.rng.gen_range(0..self.gamblers.len());
            let bet = Amount::from_btc(dist::log_normal(ctx.rng, mu, 0.8).min(5.0));
            if bet.is_zero() {
                continue;
            }
            let house_addr = self.house_addr;
            let nonce = ctx.next_nonce();
            let Some(tx) = shared.wallets[self.gamblers[gi]].create_payment(
                vec![TxOut {
                    address: house_addr,
                    value: bet,
                }],
                DEFAULT_FEE,
                &mut shared.alloc,
                ctx.timestamp,
                nonce,
            ) else {
                continue; // broke gambler
            };
            ctx.submit(tx);
            if ctx.rng.gen_bool(WIN_PROB) {
                self.pending_payouts.push((gi, bet.mul_f64(2.0)));
            }
        }
    }
}

impl Actor for GamblingActor {
    fn step(&mut self, ctx: &mut StepCtx<'_>, shared: &mut Shared) {
        self.settle_payouts(ctx, shared);
        self.place_bets(ctx, shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transaction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn step_at(actor: &mut GamblingActor, shared: &mut Shared, height: u64) -> Vec<Transaction> {
        let mut rng = StdRng::seed_from_u64(height + 77);
        let mut nonce = height * 1000;
        let mut out = Vec::new();
        let mut ctx = StepCtx::new(&mut rng, height * 600, height, &mut nonce, &mut out);
        actor.step(&mut ctx, shared);
        out
    }

    fn fund_gamblers(actor: &GamblingActor, shared: &mut Shared, btc: f64) {
        for (i, addr) in actor
            .gambler_addresses(&shared.wallets)
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
                500_000 + i as u64,
            );
            shared.confirm(&tx);
        }
    }

    #[test]
    fn funded_gamblers_place_bets() {
        let mut shared = Shared::default();
        let mut g = GamblingActor::new(0, &mut shared);
        fund_gamblers(&g, &mut shared, 2.0);
        let mut total_bets = 0;
        for h in 1..10 {
            let txs = step_at(&mut g, &mut shared, h);
            total_bets += txs
                .iter()
                .filter(|t| t.outputs.iter().any(|o| o.address == g.house_address()))
                .count();
            for tx in &txs {
                shared.confirm(tx);
            }
        }
        assert!(total_bets > 10, "expected steady betting, saw {total_bets}");
    }

    #[test]
    fn broke_gamblers_cannot_bet() {
        let mut shared = Shared::default();
        let mut g = GamblingActor::new(0, &mut shared);
        let txs = step_at(&mut g, &mut shared, 1);
        assert!(txs.is_empty());
    }

    #[test]
    fn wins_are_paid_next_step() {
        let mut shared = Shared::default();
        let mut g = GamblingActor::new(0, &mut shared);
        fund_gamblers(&g, &mut shared, 2.0);
        // House needs float to pay winners.
        let float = Transaction::new(
            vec![],
            vec![TxOut {
                address: g.house_address(),
                value: Amount::from_btc(100.0),
            }],
            0,
            999_999,
        );
        shared.confirm(&float);
        // At the house's odds some bet wins within a few blocks.
        let mut height = 1;
        while g.pending_payouts.is_empty() {
            assert!(height < 20, "no bet won in {height} blocks");
            for tx in &step_at(&mut g, &mut shared, height) {
                shared.confirm(tx);
            }
            height += 1;
        }
        let payouts = step_at(&mut g, &mut shared, height);
        let from_house: Vec<_> = payouts
            .iter()
            .filter(|t| t.inputs.iter().any(|i| i.address == g.house_address()))
            .collect();
        assert!(!from_house.is_empty(), "house should pay winners");
    }

    #[test]
    fn house_registered_in_directory() {
        let mut shared = Shared::default();
        let g = GamblingActor::new(0, &mut shared);
        assert_eq!(shared.dir.house_addresses[0], g.house_address());
    }

    #[test]
    fn labels_cover_house_and_gamblers() {
        let mut shared = Shared::default();
        GamblingActor::new(0, &mut shared);
        let labels = shared.labels();
        assert_eq!(labels.len(), 41);
        assert!(labels.values().all(|&l| l == Label::Gambling));
    }
}
