//! The block-stepped simulator: wires actors, mines blocks, tracks activity.

use crate::actors::retail::RetailConfig;
use crate::actors::{
    Actor, ExchangeActor, GamblingActor, MiningPoolActor, RetailActor, ServiceActor, Shared,
    StepCtx,
};
use crate::address::{Address, Label};
use crate::amount::Amount;
use crate::block::{Block, Chain, BLOCK_INTERVAL_SECS};
use crate::dist;
use crate::tx::{Transaction, TxOut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Retail users' premine each (BTC).
const USER_INITIAL_BTC: f64 = 8.0;
/// Gamblers' premine each (BTC).
const GAMBLER_INITIAL_BTC: f64 = 3.0;
/// Each gambling house's premined float (BTC).
const HOUSE_FLOAT_BTC: f64 = 200.0;
/// Block subsidy (BTC), the same at every height.
const BLOCK_REWARD_BTC: f64 = 6.25;

/// Who is in the economy, and for how many blocks. The premine and subsidy
/// amounts are fixed, and so is every actor's behaviour: its rates and sizes
/// are constants in its module, and only populations (with retail's growth,
/// `RetailConfig`) are set here. The defaults produce a small but
/// fully-featured economy; scale `blocks` and the populations up for larger
/// datasets.
#[derive(Clone, Debug)]
pub struct SimConfig {
    pub seed: u64,
    /// Number of blocks to mine after genesis.
    pub blocks: u64,
    pub num_exchanges: usize,
    pub num_pools: usize,
    pub num_gambling: usize,
    pub num_mixers: usize,
    pub retail: RetailConfig,
    /// Miner reward addresses per pool (paper Table I: the Mining class).
    pub miners_per_pool: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 42,
            blocks: 400,
            num_exchanges: 2,
            num_pools: 2,
            num_gambling: 2,
            num_mixers: 2,
            retail: RetailConfig::default(),
            miners_per_pool: 120,
        }
    }
}

impl SimConfig {
    /// A tiny configuration for fast unit tests.
    pub fn tiny(seed: u64) -> Self {
        Self {
            seed,
            blocks: 60,
            num_exchanges: 1,
            num_pools: 1,
            num_gambling: 1,
            num_mixers: 1,
            retail: RetailConfig {
                num_users: 40,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// Per-block activity counters (drives the paper's Fig. 1).
#[derive(Clone, Debug)]
pub struct ActivityPoint {
    pub height: u64,
    pub timestamp: u64,
    /// Unique addresses appearing in this block's transactions.
    pub active_addresses: usize,
    /// Transactions in this block.
    pub transactions: usize,
    /// Distinct addresses ever seen up to and including this block.
    pub cumulative_addresses: usize,
}

/// The assembled simulation.
pub struct Simulator {
    cfg: SimConfig,
    rng: StdRng,
    chain: Chain,
    shared: Shared,
    exchanges: Vec<ExchangeActor>,
    pools: Vec<MiningPoolActor>,
    gambling: Vec<GamblingActor>,
    mixers: Vec<ServiceActor>,
    retail: RetailActor,
    nonce: u64,
    activity: Vec<ActivityPoint>,
    pool_weights: dist::ZipfSampler,
}

impl Simulator {
    /// Build actors and mine the genesis premine block.
    pub fn new(cfg: SimConfig) -> Self {
        assert!(cfg.num_pools > 0, "at least one mining pool required");
        assert!(
            cfg.retail.num_users > 0,
            "retail.num_users must be positive"
        );
        let rng = StdRng::seed_from_u64(cfg.seed);
        let mut shared = Shared::default();
        let exchanges: Vec<ExchangeActor> = (0..cfg.num_exchanges)
            .map(|id| ExchangeActor::new(id, &mut shared))
            .collect();
        let pools: Vec<MiningPoolActor> = (0..cfg.num_pools)
            .map(|_| MiningPoolActor::new(cfg.miners_per_pool, &mut shared))
            .collect();
        let gambling: Vec<GamblingActor> = (0..cfg.num_gambling)
            .map(|id| GamblingActor::new(id, &mut shared))
            .collect();
        let mixers: Vec<ServiceActor> = (0..cfg.num_mixers)
            .map(|id| ServiceActor::new(id, &mut shared))
            .collect();
        let retail = RetailActor::new(cfg.retail.clone(), &mut shared);

        let pool_weights = dist::ZipfSampler::new(cfg.num_pools, 1.1);
        let mut sim = Self {
            cfg,
            rng,
            chain: Chain::new(),
            shared,
            exchanges,
            pools,
            gambling,
            mixers,
            retail,
            nonce: 0,
            activity: Vec::new(),
            pool_weights,
        };
        sim.mine_genesis();
        sim
    }

    fn mine_genesis(&mut self) {
        // Premine: fund retail users, gamblers, and house floats so the
        // economy starts liquid.
        let mut outputs = Vec::new();
        for addr in self.retail.funding_addresses(&self.shared.wallets) {
            outputs.push(TxOut {
                address: addr,
                value: Amount::from_btc(USER_INITIAL_BTC),
            });
        }
        for g in &self.gambling {
            for addr in g.gambler_addresses(&self.shared.wallets) {
                outputs.push(TxOut {
                    address: addr,
                    value: Amount::from_btc(GAMBLER_INITIAL_BTC),
                });
            }
            outputs.push(TxOut {
                address: g.house_address(),
                value: Amount::from_btc(HOUSE_FLOAT_BTC),
            });
        }
        let premine = Transaction::new(vec![], outputs, 0, self.next_nonce());
        self.shared.confirm(&premine);
        let block = Block {
            height: 0,
            timestamp: 0,
            txs: vec![premine],
        };
        self.record_activity(&block);
        self.chain.append(block).expect("genesis must validate");
    }

    fn next_nonce(&mut self) -> u64 {
        let n = self.nonce;
        self.nonce += 1;
        n
    }

    fn record_activity(&mut self, block: &Block) {
        let mut active = std::collections::HashSet::new();
        for tx in &block.txs {
            for a in tx.input_addresses().chain(tx.output_addresses()) {
                active.insert(a);
            }
        }
        self.activity.push(ActivityPoint {
            height: block.height,
            timestamp: block.timestamp,
            active_addresses: active.len(),
            transactions: block.txs.len(),
            cumulative_addresses: 0, // filled after append
        });
    }

    /// Mine one block: coinbase to a weighted-random pool, step every actor,
    /// validate and append.
    pub fn step_block(&mut self) {
        let height = self.chain.height();
        let jitter = self.rng.gen_range(0..BLOCK_INTERVAL_SECS / 3);
        let timestamp = self.chain.tip_timestamp() + BLOCK_INTERVAL_SECS + jitter;

        let mut txs = Vec::new();
        // Coinbase: block reward to the winning pool.
        let winner = self.pool_weights.sample(&mut self.rng);
        let coinbase = Transaction::new(
            vec![],
            vec![TxOut {
                address: self.pools[winner].reward_address(),
                value: Amount::from_btc(BLOCK_REWARD_BTC),
            }],
            timestamp,
            self.next_nonce(),
        );
        txs.push(coinbase);

        // Step actors. Exchanges first so fresh deposit addresses are
        // published before retail spends; retail last so its requests are
        // served next block (confirmation delay).
        {
            let mut nonce = self.nonce;
            let mut ctx = StepCtx::new(&mut self.rng, timestamp, height, &mut nonce, &mut txs);
            for e in &mut self.exchanges {
                e.step(&mut ctx, &mut self.shared);
            }
            for m in &mut self.mixers {
                m.step(&mut ctx, &mut self.shared);
            }
            for p in &mut self.pools {
                p.step(&mut ctx, &mut self.shared);
            }
            for g in &mut self.gambling {
                g.step(&mut ctx, &mut self.shared);
            }
            self.retail.step(&mut ctx, &mut self.shared);
            self.nonce = nonce;
        }

        // Every transaction confirms in the block that built it, in the
        // order it was built.
        for tx in &txs {
            self.shared.confirm(tx);
        }
        let block = Block {
            height,
            timestamp,
            txs,
        };
        self.record_activity(&block);
        self.chain
            .append(block)
            .expect("simulated block must validate");
        if let Some(last) = self.activity.last_mut() {
            last.cumulative_addresses = self.chain.num_addresses();
        }
    }

    /// Run the configured number of blocks.
    pub fn run(&mut self) {
        for _ in 0..self.cfg.blocks {
            self.step_block();
        }
    }

    /// Convenience: build, run, return.
    pub fn run_to_completion(cfg: SimConfig) -> Simulator {
        let mut sim = Simulator::new(cfg);
        sim.run();
        sim
    }

    pub fn chain(&self) -> &Chain {
        &self.chain
    }

    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Per-block activity series (Fig. 1 input).
    pub fn activity(&self) -> &[ActivityPoint] {
        &self.activity
    }

    /// Ground-truth labels for every actor-controlled address.
    pub fn labels(&self) -> BTreeMap<Address, Label> {
        self.shared.labels()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actors::gambling::NUM_GAMBLERS;
    use crate::tx::OutPoint;
    use crate::wallet::Wallet;
    use proptest::prelude::*;

    /// `w`'s UTXOs as a wallet that saw every confirmed transaction would
    /// hold them: each spent input dropped, each nonzero output to one of
    /// `w`'s addresses picked up.
    fn broadcast_view(sim: &Simulator, w: &Wallet) -> BTreeMap<OutPoint, TxOut> {
        let mut utxos = BTreeMap::new();
        for tx in sim.chain().blocks().iter().flat_map(|b| &b.txs) {
            for input in &tx.inputs {
                utxos.remove(&input.prevout);
            }
            for (vout, o) in tx.outputs.iter().enumerate() {
                if !o.value.is_zero() && w.owns(o.address) {
                    let op = OutPoint {
                        txid: tx.txid,
                        vout: vout as u32,
                    };
                    utxos.insert(op, *o);
                }
            }
        }
        utxos
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        // Handing each confirmation only to the owners of its addresses
        // leaves every wallet where seeing every confirmation would.
        #[test]
        fn routed_wallets_match_a_broadcast_replay(seed in 0u64..1_000) {
            let sim = Simulator::run_to_completion(SimConfig::tiny(seed));
            for w in sim.shared.wallets.iter() {
                let want = broadcast_view(&sim, w);
                prop_assert_eq!(w.utxos().collect::<BTreeMap<_, _>>(), want.clone());
                prop_assert_eq!(w.balance(), want.values().map(|o| o.value).sum::<Amount>());
            }
        }
    }

    #[test]
    fn small_sim_runs_and_validates() {
        let sim = Simulator::run_to_completion(SimConfig::tiny(7));
        assert_eq!(sim.chain().height(), 61); // genesis + 60
        assert!(
            sim.chain().num_transactions() > 100,
            "economy should be active"
        );
    }

    #[test]
    fn simulation_is_deterministic_per_seed() {
        let a = Simulator::run_to_completion(SimConfig::tiny(9));
        let b = Simulator::run_to_completion(SimConfig::tiny(9));
        assert_eq!(a.chain().num_transactions(), b.chain().num_transactions());
        assert_eq!(a.chain().num_addresses(), b.chain().num_addresses());
        let ta: Vec<_> = a
            .chain()
            .blocks()
            .iter()
            .flat_map(|b| &b.txs)
            .map(|t| t.txid)
            .collect();
        let tb: Vec<_> = b
            .chain()
            .blocks()
            .iter()
            .flat_map(|b| &b.txs)
            .map(|t| t.txid)
            .collect();
        assert_eq!(ta, tb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Simulator::run_to_completion(SimConfig::tiny(1));
        let b = Simulator::run_to_completion(SimConfig::tiny(2));
        let ta: Vec<_> = a
            .chain()
            .blocks()
            .iter()
            .flat_map(|b| &b.txs)
            .map(|t| t.txid)
            .collect();
        let tb: Vec<_> = b
            .chain()
            .blocks()
            .iter()
            .flat_map(|b| &b.txs)
            .map(|t| t.txid)
            .collect();
        assert_ne!(ta, tb);
    }

    #[test]
    fn all_four_labels_present() {
        let sim = Simulator::run_to_completion(SimConfig::tiny(7));
        let labels = sim.labels();
        for l in Label::ALL {
            assert!(
                labels.values().any(|&v| v == l),
                "missing label {l} in simulated economy"
            );
        }
    }

    #[test]
    fn activity_series_covers_every_block() {
        let sim = Simulator::run_to_completion(SimConfig::tiny(7));
        assert_eq!(sim.activity().len(), 61);
        assert!(sim.activity().iter().all(|p| p.transactions >= 1));
        // Cumulative address count never decreases.
        let cums: Vec<_> = sim
            .activity()
            .iter()
            .skip(1)
            .map(|p| p.cumulative_addresses)
            .collect();
        assert!(cums.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn value_is_conserved_modulo_rewards() {
        // Total UTXO value == premine + block rewards − fees; fees are burned
        // in this model, so UTXO total <= premine + rewards and close to it.
        let sim = Simulator::run_to_completion(SimConfig::tiny(7));
        let cfg = sim.config();
        let premine_users = cfg.retail.num_users as f64 * USER_INITIAL_BTC;
        let premine_gamblers =
            cfg.num_gambling as f64 * (NUM_GAMBLERS as f64 * GAMBLER_INITIAL_BTC + HOUSE_FLOAT_BTC);
        let rewards = cfg.blocks as f64 * BLOCK_REWARD_BTC;
        let ceiling = Amount::from_btc(premine_users + premine_gamblers + rewards);
        let total = sim.chain().utxo().total_value();
        assert!(total <= ceiling, "{total} > {ceiling}");
        // Fees are tiny: at least 99% of issued value should remain.
        assert!(
            total >= ceiling.mul_f64(0.99),
            "{total} too far below {ceiling}"
        );
    }

    #[test]
    fn timestamps_strictly_increase() {
        let sim = Simulator::run_to_completion(SimConfig::tiny(7));
        let ts: Vec<_> = sim.chain().blocks().iter().map(|b| b.timestamp).collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
    }
}
