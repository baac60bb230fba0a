//! Golden digests of simulated chains: every block, every transaction and
//! every extracted record, folded into one FNV-1a value per configuration.
//!
//! The simulator is a deterministic function of its `SimConfig`, and every
//! table, figure and benchmark input in the workspace is built from its
//! output, so a change to how the simulator does its bookkeeping must leave
//! these values exactly as they are.

use btcsim::actors::retail::RetailConfig;
use btcsim::{Dataset, SimConfig, Simulator};

/// The economy behind the paper tables (`bac_bench::ExpScale::paper()`'s
/// `sim_config`) at seed 42, with `blocks` blocks after genesis.
fn paper_chain(blocks: u64) -> SimConfig {
    SimConfig {
        seed: 42,
        blocks,
        num_exchanges: 2,
        num_pools: 2,
        num_gambling: 2,
        num_mixers: 2,
        retail: RetailConfig {
            growth_per_block: 1.2,
            ..Default::default()
        },
        miners_per_pool: 400,
    }
}

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Every block's height and timestamp, and every transaction's txid,
/// inputs (prevout, address, value) and outputs (address, value), in chain
/// order.
fn chain_digest(sim: &Simulator) -> u64 {
    let mut h = Fnv::new();
    for block in sim.chain().blocks() {
        h.u64(block.height);
        h.u64(block.timestamp);
        h.u64(block.txs.len() as u64);
        for tx in &block.txs {
            h.u64(tx.txid.0);
            h.u64(tx.inputs.len() as u64);
            for i in &tx.inputs {
                h.u64(i.prevout.txid.0);
                h.u64(u64::from(i.prevout.vout));
                h.u64(i.address.0);
                h.u64(i.value.sats());
            }
            h.u64(tx.outputs.len() as u64);
            for o in &tx.outputs {
                h.u64(o.address.0);
                h.u64(o.value.sats());
            }
        }
    }
    h.0
}

/// Every record of `Dataset::from_simulator(sim, 2)`: address, label and
/// the txids of its history, in record order.
fn dataset_digest(sim: &Simulator) -> u64 {
    let mut h = Fnv::new();
    let ds = Dataset::from_simulator(sim, 2);
    h.u64(ds.records.len() as u64);
    for r in &ds.records {
        h.u64(r.address.0);
        h.u64(r.label.index() as u64);
        h.u64(r.txs.len() as u64);
        for tx in &r.txs {
            h.u64(tx.txid.0);
        }
    }
    h.0
}

/// Runs `cfg` and checks the chain digest and the dataset digest.
fn check(cfg: SimConfig, chain: u64, dataset: u64) {
    let sim = Simulator::run_to_completion(cfg);
    let got = (chain_digest(&sim), dataset_digest(&sim));
    assert_eq!(
        got,
        (chain, dataset),
        "digests {:#018x} {:#018x}",
        got.0,
        got.1
    );
}

#[test]
fn paper_chain_350_blocks() {
    check(
        paper_chain(350),
        0x4a38_aef0_eb69_5fc4,
        0x67ca_b586_2246_4d05,
    );
}

#[test]
fn paper_chain_700_blocks() {
    check(
        paper_chain(700),
        0xf0f7_ebd3_bd7e_175d,
        0xaf56_227b_0f63_afb3,
    );
}
