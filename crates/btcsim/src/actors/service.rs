//! Service behavior (paper's fourth category): coin mixers / underground
//! banks. Intake addresses receive client funds; the mixer then runs peel
//! chains — a sequence of transactions each paying a small slice to a
//! destination and passing the remainder to a fresh internal address —
//! producing long chains of single-use Service-labeled addresses.

use super::{Actor, Shared, StepCtx, DEFAULT_FEE};
use crate::address::{Address, Label};
use crate::amount::Amount;
use crate::tx::TxOut;
use crate::wallet::{ChangePolicy, WalletId};
use rand::Rng;

/// Number of peel hops per mixing job.
const PEEL_HOPS: usize = 5;
/// Fee the service keeps, as a fraction of the mixed amount.
const SERVICE_FEE: f64 = 0.03;
/// Max jobs processed per block.
const JOBS_PER_BLOCK: usize = 4;

/// In-flight peel chain.
#[derive(Debug)]
struct PeelJob {
    /// Remaining value travelling down the chain.
    remaining: Amount,
    /// Final client destination.
    dest: Address,
    /// Hops still to perform.
    hops_left: usize,
    /// Per-hop payout to the destination.
    slice: Amount,
}

/// A coin-mixing service.
pub struct ServiceActor {
    /// This mixer's index in `Directory::mixer_intakes` / `Mailbox::mix_jobs`.
    id: usize,
    wallet: WalletId,
    intake: Address,
    profit_addr: Address,
    jobs: Vec<PeelJob>,
}

impl ServiceActor {
    pub fn new(id: usize, shared: &mut Shared) -> Self {
        let wallet = shared
            .wallets
            .create(ChangePolicy::FreshAddress, Some(Label::Service));
        let intake = shared.wallets[wallet].new_address(&mut shared.alloc);
        let profit_addr = shared.wallets[wallet].new_address(&mut shared.alloc);
        if shared.dir.mixer_intakes.len() <= id {
            shared.dir.mixer_intakes.resize(id + 1, Address(u64::MAX));
        }
        shared.dir.mixer_intakes[id] = intake;
        Self {
            id,
            wallet,
            intake,
            profit_addr,
            jobs: Vec::new(),
        }
    }

    pub fn intake_address(&self) -> Address {
        self.intake
    }

    pub fn active_jobs(&self) -> usize {
        self.jobs.len()
    }

    fn accept_jobs(&mut self, shared: &mut Shared) {
        let (mine, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut shared.mail.mix_jobs)
            .into_iter()
            .partition(|&(id, _, _)| id == self.id);
        shared.mail.mix_jobs = rest;
        for (_, dest, amount) in mine {
            let after_fee = amount.mul_f64(1.0 - SERVICE_FEE);
            if after_fee.is_zero() {
                continue;
            }
            self.jobs.push(PeelJob {
                remaining: after_fee,
                dest,
                hops_left: PEEL_HOPS,
                slice: after_fee.div_n(PEEL_HOPS as u64),
            });
        }
    }

    fn run_peel_hops(&mut self, ctx: &mut StepCtx<'_>, shared: &mut Shared) {
        let mut processed = 0;
        let mut i = 0;
        while i < self.jobs.len() && processed < JOBS_PER_BLOCK {
            let job = &mut self.jobs[i];
            if shared.wallets[self.wallet].balance() < job.slice + DEFAULT_FEE {
                i += 1;
                continue;
            }
            let last_hop = job.hops_left <= 1;
            let pay = if last_hop {
                job.remaining
            } else {
                job.slice.min(job.remaining)
            };
            if pay.is_zero() {
                self.jobs.swap_remove(i);
                continue;
            }
            let dest = job.dest;
            let nonce = ctx.next_nonce();
            // FreshAddress change policy makes every hop leave the remainder
            // on a brand-new service address: the peel chain.
            let tx = shared.wallets[self.wallet].create_payment(
                vec![TxOut {
                    address: dest,
                    value: pay,
                }],
                DEFAULT_FEE,
                &mut shared.alloc,
                ctx.timestamp,
                nonce,
            );
            match tx {
                Some(tx) => {
                    ctx.submit(tx);
                    let job = &mut self.jobs[i];
                    job.remaining = job.remaining.saturating_sub(pay);
                    job.hops_left -= 1;
                    processed += 1;
                    if job.hops_left == 0 || job.remaining.is_zero() {
                        self.jobs.swap_remove(i);
                    } else {
                        i += 1;
                    }
                }
                None => {
                    i += 1;
                }
            }
        }
    }

    fn skim_profit(&mut self, ctx: &mut StepCtx<'_>, shared: &mut Shared) {
        // Occasionally consolidate accumulated fees.
        let wallet = &mut shared.wallets[self.wallet];
        if ctx.rng.gen_bool(0.05) && wallet.num_utxos() > 8 {
            let nonce = ctx.next_nonce();
            if let Some(tx) =
                wallet.consolidate(self.profit_addr, 8, DEFAULT_FEE, ctx.timestamp, nonce)
            {
                ctx.submit(tx);
            }
        }
    }
}

impl Actor for ServiceActor {
    fn step(&mut self, ctx: &mut StepCtx<'_>, shared: &mut Shared) {
        self.accept_jobs(shared);
        self.run_peel_hops(ctx, shared);
        self.skim_profit(ctx, shared);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transaction;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn step_at(actor: &mut ServiceActor, shared: &mut Shared, height: u64) -> Vec<Transaction> {
        let mut rng = StdRng::seed_from_u64(height + 31);
        let mut nonce = height * 1000;
        let mut out = Vec::new();
        let mut ctx = StepCtx::new(&mut rng, height * 600, height, &mut nonce, &mut out);
        actor.step(&mut ctx, shared);
        out
    }

    fn fund_intake(actor: &ServiceActor, shared: &mut Shared, btc: f64, nonce: u64) {
        let tx = Transaction::new(
            vec![],
            vec![TxOut {
                address: actor.intake_address(),
                value: Amount::from_btc(btc),
            }],
            0,
            nonce,
        );
        shared.confirm(&tx);
    }

    #[test]
    fn mix_job_runs_full_peel_chain() {
        let mut shared = Shared::default();
        let mut mixer = ServiceActor::new(0, &mut shared);
        fund_intake(&mixer, &mut shared, 10.0, 1);
        let dest = Address(777_777);
        shared.mail.mix_jobs.push((0, dest, Amount::from_btc(10.0)));

        let mut payouts = Vec::new();
        for h in 1..12 {
            let txs = step_at(&mut mixer, &mut shared, h);
            for tx in &txs {
                shared.confirm(tx);
                for o in &tx.outputs {
                    if o.address == dest {
                        payouts.push(o.value);
                    }
                }
            }
        }
        // Five hops, each paying a slice to the destination.
        assert_eq!(payouts.len(), 5, "saw {} payout hops", payouts.len());
        let total: Amount = payouts.iter().copied().sum();
        // ~97% of the deposit (3% service fee), minus nothing else.
        assert!(
            total >= Amount::from_btc(9.6) && total <= Amount::from_btc(9.71),
            "{total}"
        );
        assert_eq!(mixer.active_jobs(), 0);
    }

    #[test]
    fn peel_chain_creates_fresh_service_addresses() {
        let mut shared = Shared::default();
        let mut mixer = ServiceActor::new(0, &mut shared);
        fund_intake(&mixer, &mut shared, 10.0, 1);
        shared
            .mail
            .mix_jobs
            .push((0, Address(777), Amount::from_btc(10.0)));
        let before = shared.wallets[mixer.wallet].num_addresses();
        for h in 1..12 {
            let txs = step_at(&mut mixer, &mut shared, h);
            for tx in &txs {
                shared.confirm(tx);
            }
        }
        // Each hop with change mints a fresh address.
        assert!(shared.wallets[mixer.wallet].num_addresses() >= before + 4);
    }

    #[test]
    fn foreign_jobs_left_in_mailbox() {
        let mut shared = Shared::default();
        let mut mixer = ServiceActor::new(0, &mut shared);
        shared
            .mail
            .mix_jobs
            .push((9, Address(1), Amount::from_btc(1.0)));
        step_at(&mut mixer, &mut shared, 1);
        assert_eq!(shared.mail.mix_jobs.len(), 1);
    }

    #[test]
    fn unfunded_job_waits() {
        let mut shared = Shared::default();
        let mut mixer = ServiceActor::new(0, &mut shared);
        shared
            .mail
            .mix_jobs
            .push((0, Address(1), Amount::from_btc(5.0)));
        let txs = step_at(&mut mixer, &mut shared, 1);
        assert!(txs.is_empty());
        assert_eq!(
            mixer.active_jobs(),
            1,
            "job stays queued until funds arrive"
        );
    }

    #[test]
    fn labels_are_service() {
        let mut shared = Shared::default();
        ServiceActor::new(0, &mut shared);
        let labels = shared.labels();
        assert!(labels.values().all(|&l| l == Label::Service));
        assert!(labels.len() >= 2);
    }
}
