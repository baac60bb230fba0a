//! Delta-based graph maintenance for streaming ingestion.
//!
//! The batch pipeline ([`construct_address_graphs`]) rebuilds every slice
//! graph from the full history each time it runs. A chain follower sees one
//! transaction at a time, so rebuilding from scratch per block is O(history)
//! per update. This module maintains the same graphs incrementally:
//!
//! * [`IncrementalGraphs::apply_tx`] appends one transaction to the raw
//!   (uncompressed) slice graphs with the very step the batch extractor folds
//!   over a history (`extract::push_tx`). Their values stay on the edges:
//!   [`IncrementalGraphs::raw_graphs`] seeds what it returns, and is asserted
//!   **byte-identical** to [`extract_original_graphs`] (see
//!   [`graphs_identical`] and `crates/core/tests/incremental_properties.rs`).
//! * Compression and augmentation are pure per-slice functions, so nothing
//!   derived is kept: [`IncrementalGraphs::graphs`] derives the retained
//!   slices, seeding only the nodes that survive, and hands them over. A
//!   caller that keeps what it read from a frozen slice (the follower: its
//!   embedding) drops the raw graph with [`IncrementalGraphs::forget_frozen`].
//!
//! [`construct_address_graphs`]: crate::construction::construct_address_graphs

use crate::config::ConstructionConfig;
use crate::construction::address_graph::{AddressGraph, Edge, Node};
use crate::construction::extract::{push_tx, seed_slice, AddrNodes};
use crate::construction::pipeline::derive_slice;
use btcsim::{Address, TxView};

/// Incrementally maintained slice graphs for one focus address.
///
/// Feeding the same chronological transactions through [`apply_tx`] yields
/// graphs bit-for-bit equal to running the batch pipeline over the full
/// history — the property the streaming layer's correctness rests on.
///
/// [`apply_tx`]: IncrementalGraphs::apply_tx
#[derive(Clone, Debug)]
pub struct IncrementalGraphs {
    focus: Address,
    cfg: ConstructionConfig,
    num_txs: usize,
    /// Raw (uncompressed) graphs of the retained slices — a suffix of the
    /// history's slices; only the last one can still grow. Their node
    /// features are whatever the last `raw_graphs` left; nothing derives
    /// from them.
    raw: Vec<AddressGraph>,
    /// Address → node index for the *current* (last) slice.
    addr_node: AddrNodes,
}

impl IncrementalGraphs {
    pub fn new(focus: Address, cfg: ConstructionConfig) -> Self {
        assert!(cfg.slice_size > 0, "slice_size must be positive");
        Self {
            focus,
            cfg,
            num_txs: 0,
            raw: Vec::new(),
            addr_node: AddrNodes::default(),
        }
    }

    /// Build incremental state by replaying an existing history.
    pub fn from_history<'a>(
        focus: Address,
        txs: impl IntoIterator<Item = &'a TxView>,
        cfg: ConstructionConfig,
    ) -> Self {
        let mut inc = Self::new(focus, cfg);
        for tx in txs {
            inc.apply_tx(tx);
        }
        inc
    }

    /// Transactions applied so far.
    pub fn num_txs(&self) -> usize {
        self.num_txs
    }

    /// Slices so far (the last may be partial), forgotten ones included.
    pub fn num_slices(&self) -> usize {
        self.num_txs.div_ceil(self.cfg.slice_size)
    }

    /// Append one transaction: the batch extractor's own step, so raw graphs
    /// stay byte-identical to
    /// [`extract_original_graphs`](crate::construction::extract_original_graphs)
    /// once seeded.
    pub fn apply_tx(&mut self, tx: &TxView) {
        let (focus, slice_size) = (self.focus, self.cfg.slice_size);
        push_tx(&mut self.raw, &mut self.addr_node, focus, slice_size, tx, 0);
        self.num_txs += 1;
    }

    /// The retained raw (uncompressed) slice graphs — stage-1 output, every
    /// slice seeded on every call.
    pub fn raw_graphs(&mut self) -> &[AddressGraph] {
        self.raw.iter_mut().for_each(seed_slice);
        &self.raw
    }

    /// The derived (compressed + augmented, per config) graphs of the
    /// retained slices — equal to `construct_address_graphs(record, cfg)`
    /// over the applied history, from the first retained `slice_index` on.
    /// Derived on every call: a slice is wanted again exactly when a
    /// transaction landed in it, which would have invalidated a kept copy.
    pub fn graphs(&self) -> Vec<AddressGraph> {
        let derive = |raw| derive_slice(&self.cfg, raw);
        self.raw.iter().map(derive).collect()
    }

    /// Drop the raw graph of every retained slice but the open (last) one:
    /// a later transaction lands in it or opens the one numbered after it.
    pub fn forget_frozen(&mut self) {
        let frozen = self.raw.len().saturating_sub(1);
        self.raw.drain(..frozen);
    }
}

/// Bitwise equality over graph lists — `Ok(())` or a description of the
/// first mismatch. Floats are compared via `to_bits`, so this is strict
/// byte-identity, not approximate equality.
pub fn graphs_identical(a: &[AddressGraph], b: &[AddressGraph]) -> Result<(), String> {
    if a.len() != b.len() {
        return Err(format!("graph count {} vs {}", a.len(), b.len()));
    }
    // (focus, slice_index, start_timestamp, (num_txs, nodes, edges))
    let slice = |g: &AddressGraph| {
        let sizes = (g.num_txs, g.nodes.len(), g.edges.len());
        (g.focus, g.slice_index, g.start_timestamp, sizes)
    };
    let node = |n: &Node| {
        let bits = (n.sfe.0.map(f64::to_bits), n.centrality.map(f64::to_bits));
        (n.kind, n.address, n.merged_count, bits)
    };
    let edge = |e: &Edge| (e.addr_node, e.tx_node, e.side, e.value.to_bits());
    for (gi, (ga, gb)) in a.iter().zip(b).enumerate() {
        if slice(ga) != slice(gb) {
            return Err(format!("graph {gi}: {:?} vs {:?}", slice(ga), slice(gb)));
        }
        let nodes = ga.nodes.iter().zip(&gb.nodes);
        if let Some((i, (x, y))) = nodes.enumerate().find(|(_, (x, y))| node(x) != node(y)) {
            return Err(format!("graph {gi}: node {i} {x:?} vs {y:?}"));
        }
        let edges = ga.edges.iter().zip(&gb.edges);
        if let Some((i, (x, y))) = edges.enumerate().find(|(_, (x, y))| edge(x) != edge(y)) {
            return Err(format!("graph {gi}: edge {i} {x:?} vs {y:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::pipeline::construct_address_graphs;
    use btcsim::{Amount, Dataset, Label, SimConfig, Simulator, Txid};

    fn view(ts: u64, inputs: &[(u64, f64)], outputs: &[(u64, f64)]) -> TxView {
        TxView {
            txid: Txid(ts * 131 + inputs.len() as u64),
            timestamp: ts,
            inputs: inputs
                .iter()
                .map(|&(a, v)| (Address(a), Amount::from_btc(v)))
                .collect(),
            outputs: outputs
                .iter()
                .map(|&(a, v)| (Address(a), Amount::from_btc(v)))
                .collect(),
        }
    }

    fn record(address: u64, txs: Vec<TxView>) -> btcsim::AddressRecord {
        btcsim::AddressRecord {
            address: Address(address),
            label: Label::Exchange,
            txs,
        }
    }

    fn synthetic_history(n: u64) -> Vec<TxView> {
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    view(
                        100 + i,
                        &[(0, 1.0 + i as f64 * 0.01), (40 + i % 5, 0.25)],
                        &[(200 + i % 7, 1.1)],
                    )
                } else {
                    view(100 + i, &[(300 + i % 4, 2.0)], &[(0, 1.9), (500 + i, 0.05)])
                }
            })
            .collect()
    }

    fn check_equivalence(txs: &[TxView], cfg: ConstructionConfig) {
        let rec = record(0, txs.to_vec());
        let batch = construct_address_graphs(&rec, &cfg);
        let mut inc = IncrementalGraphs::new(Address(0), cfg.clone());
        for tx in txs {
            inc.apply_tx(tx);
        }
        let raw_batch = crate::construction::extract::extract_original_graphs(&rec, cfg.slice_size);
        graphs_identical(inc.raw_graphs(), &raw_batch).expect("raw graphs identical");
        graphs_identical(&inc.graphs(), &batch).expect("derived graphs identical");
    }

    #[test]
    fn incremental_matches_batch_across_slice_sizes() {
        let txs = synthetic_history(23);
        for slice_size in [1, 2, 5, 10, 23, 100] {
            check_equivalence(
                &txs,
                ConstructionConfig {
                    slice_size,
                    ..Default::default()
                },
            );
        }
    }

    #[test]
    fn incremental_matches_batch_with_ablation_flags() {
        let txs = synthetic_history(17);
        for (compress, augment) in [(false, false), (true, false), (false, true), (true, true)] {
            check_equivalence(
                &txs,
                ConstructionConfig {
                    slice_size: 6,
                    compress,
                    augment,
                    ..Default::default()
                },
            );
        }
    }

    #[test]
    fn incremental_matches_batch_on_simulated_records() {
        let sim = Simulator::run_to_completion(SimConfig::tiny(11));
        let ds = Dataset::from_simulator(&sim, 2);
        let cfg = ConstructionConfig {
            slice_size: 8,
            ..Default::default()
        };
        for rec in ds.records.iter().take(25) {
            let batch = construct_address_graphs(rec, &cfg);
            let mut inc = IncrementalGraphs::new(rec.address, cfg.clone());
            for tx in &rec.txs {
                inc.apply_tx(tx);
            }
            graphs_identical(&inc.graphs(), &batch)
                .unwrap_or_else(|e| panic!("address {:?}: {e}", rec.address));
        }
    }

    #[test]
    fn equivalence_holds_at_every_prefix() {
        // Interleaving reads with apply_tx must not disturb state. With four
        // transactions a slice, each slice is read while open, grows, and is
        // read again after it froze.
        let txs = synthetic_history(14);
        let cfg = ConstructionConfig {
            slice_size: 4,
            ..Default::default()
        };
        let mut inc = IncrementalGraphs::new(Address(0), cfg.clone());
        for (i, tx) in txs.iter().enumerate() {
            inc.apply_tx(tx);
            // A clone taken before anything observed the transaction derives
            // for itself.
            let unobserved = inc.clone();
            let rec = record(0, txs[..=i].to_vec());
            let raw_batch = crate::construction::extract::extract_original_graphs(&rec, 4);
            graphs_identical(inc.raw_graphs(), &raw_batch)
                .unwrap_or_else(|e| panic!("raw prefix {}: {e}", i + 1));
            let batch = construct_address_graphs(&rec, &cfg);
            graphs_identical(&inc.graphs(), &batch)
                .unwrap_or_else(|e| panic!("prefix {}: {e}", i + 1));
            graphs_identical(&unobserved.graphs(), &batch)
                .unwrap_or_else(|e| panic!("clone at prefix {}: {e}", i + 1));
        }
    }

    #[test]
    fn empty_state_has_no_graphs() {
        let inc = IncrementalGraphs::new(Address(0), ConstructionConfig::default());
        assert_eq!(inc.num_slices(), 0);
        assert!(inc.graphs().is_empty());
    }

    #[test]
    fn from_history_equals_stepwise_application() {
        let txs = synthetic_history(12);
        let cfg = ConstructionConfig {
            slice_size: 5,
            ..Default::default()
        };
        let mut step = IncrementalGraphs::new(Address(0), cfg.clone());
        for tx in &txs {
            step.apply_tx(tx);
        }
        let whole = IncrementalGraphs::from_history(Address(0), &txs, cfg);
        graphs_identical(&whole.graphs(), &step.graphs()).unwrap();
    }

    #[test]
    fn graphs_identical_reports_mismatches() {
        let txs = synthetic_history(6);
        let cfg = ConstructionConfig {
            slice_size: 3,
            ..Default::default()
        };
        let a = IncrementalGraphs::from_history(Address(0), &txs, cfg.clone());
        let b = IncrementalGraphs::from_history(Address(0), &txs[..5], cfg);
        let err = graphs_identical(&a.graphs(), &b.graphs());
        assert!(err.is_err());
        let c = a.clone();
        let ga = a.graphs();
        let gc = c.graphs();
        assert_eq!(graphs_identical(&ga, &gc), Ok(()));
        // One bit of one float, in each place a float lives.
        let flip = |x: &mut f64| *x = f64::from_bits(x.to_bits() ^ 1);
        let mut sfe = gc.clone();
        flip(&mut sfe[1].nodes[2].sfe.0[4]);
        let mut centrality = gc.clone();
        flip(&mut centrality[0].nodes[1].centrality[2]);
        let mut value = gc.clone();
        flip(&mut value[1].edges[0].value);
        let mismatch = |changed: &[AddressGraph]| graphs_identical(&ga, changed).unwrap_err();
        assert!(mismatch(&sfe).starts_with("graph 1: node 2"));
        assert!(mismatch(&centrality).starts_with("graph 0: node 1"));
        assert!(mismatch(&value).starts_with("graph 1: edge 0"));
    }
}
