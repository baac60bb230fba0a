//! Stage 1 — original graph extraction (paper §III-A1): slice an address's
//! chronological transactions into groups of `slice_size` (the paper fixes
//! 100) and build one heterogeneous address/transaction graph per slice.

use crate::construction::address_graph::{AddressGraph, Edge, Node, NodeKind, Side};
use crate::construction::sfe::seed_sfe;
use btcsim::{Address, AddressRecord, TxView};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher, RandomState};

/// Stage 1's address → node map. Nodes are numbered in first-seen order,
/// so no bit of a slice depends on the hash.
pub(crate) type AddrNodes = HashMap<Address, usize, AddrKey>;

/// [`AddrNodes`]' hasher, in place of SipHash-1-3: one 64×64 → 128-bit
/// multiply folded to 64 bits (foldhash's core), from a key drawn per map
/// from std's `RandomState`.
#[derive(Clone, Debug)]
pub(crate) struct AddrKey(u64);

impl Default for AddrKey {
    fn default() -> Self {
        Self(RandomState::new().hash_one(0u64))
    }
}

impl BuildHasher for AddrKey {
    type Hasher = AddrKey;

    fn build_hasher(&self) -> AddrKey {
        self.clone()
    }
}

impl Hasher for AddrKey {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }

    fn write_u64(&mut self, x: u64) {
        // π's first fractional digits: odd, with bits spread over all 64.
        let full = u128::from(self.0 ^ x) * 0x243f_6a88_85a3_08d3;
        self.0 = full as u64 ^ (full >> 64) as u64;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Build the original (uncompressed) graph list for one address record.
///
/// Each graph contains up to `slice_size` consecutive transactions; the final
/// partial slice is retained (paper: "the final graph with less than 100
/// transactions will be retained"). Node 0 is always the focus address.
pub fn extract_original_graphs(record: &AddressRecord, slice_size: usize) -> Vec<AddressGraph> {
    let mut slices = raw_slices(AddrNodes::default(), record, slice_size);
    slices.iter_mut().for_each(seed_slice);
    slices
}

/// Stage 1 with the transfer values on the edges only: the fold of
/// [`push_tx`] over the history through `addr_node`, each slice's edges
/// sized once at its entry count, nothing seeded — what the derivation of
/// Stages 2–4 starts from.
pub(crate) fn raw_slices<S: BuildHasher>(
    mut addr_node: HashMap<Address, usize, S>,
    record: &AddressRecord,
    slice_size: usize,
) -> Vec<AddressGraph> {
    assert!(slice_size > 0, "slice_size must be positive");
    let (mut slices, focus) = (Vec::new(), record.address);
    for txs in record.txs.chunks(slice_size) {
        let entries = txs.iter().map(|t| t.inputs.len() + t.outputs.len()).sum();
        for tx in txs {
            push_tx(&mut slices, &mut addr_node, focus, slice_size, tx, entries);
        }
    }
    slices
}

/// Stage 1's one step, batch or incremental. Opens a slice when there is
/// none or the last holds `slice_size` transactions (`addr_node` restarts as
/// its address → node map; it is numbered after the last, so `slices` may be
/// a suffix of the history's, and has room for `entries` edges), then
/// appends the transaction's node, a node for every address the slice sees
/// for the first time (inputs before outputs) and an edge per entry.
/// Features wait for [`seed_slice`] or a derivation's seed pass.
pub(crate) fn push_tx<S: BuildHasher>(
    slices: &mut Vec<AddressGraph>,
    addr_node: &mut HashMap<Address, usize, S>,
    focus: Address,
    slice_size: usize,
    tx: &TxView,
    entries: usize,
) {
    if slices.last().is_none_or(|g| g.num_txs == slice_size) {
        addr_node.clear();
        addr_node.insert(focus, 0);
        slices.push(AddressGraph {
            focus,
            slice_index: slices.last().map_or(0, |g| g.slice_index + 1),
            start_timestamp: tx.timestamp,
            num_txs: 0,
            nodes: vec![Node::new(NodeKind::Focus, Some(focus))],
            edges: Vec::with_capacity(entries),
        });
    }
    let g = slices.last_mut().expect("opened above");
    let tx_node = g.nodes.len();
    g.nodes.push(Node::new(NodeKind::Transaction, None));
    for (side, entries) in [(Side::Input, &tx.inputs), (Side::Output, &tx.outputs)] {
        for &(addr, amount) in entries {
            let a = *addr_node.entry(addr).or_insert_with(|| {
                g.nodes.push(Node::new(NodeKind::Address, Some(addr)));
                g.nodes.len() - 1
            });
            g.edges.push(Edge {
                addr_node: a,
                tx_node,
                value: amount.btc(),
                side,
            });
        }
    }
    g.num_txs += 1;
    debug_assert_eq!(g.check_invariants(), Ok(()));
}

/// Seed every node's SFE from the slice's edge list, an edge's value counting
/// at both its endpoints, so the uncompressed graph has node features too.
pub(crate) fn seed_slice(g: &mut AddressGraph) {
    let at = |e: &Edge| [Some(e.addr_node), Some(e.tx_node)];
    seed_sfe(&mut g.nodes, &g.edges, at);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::incremental::graphs_identical;
    use crate::construction::sfe::{sfe, SfeFeatures};
    use btcsim::{Amount, Label, Txid};
    use proptest::{collection, prelude::*};

    fn view(ts: u64, inputs: &[(u64, f64)], outputs: &[(u64, f64)]) -> TxView {
        TxView {
            txid: Txid(ts * 31 + inputs.len() as u64),
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

    fn record(address: u64, txs: Vec<TxView>) -> AddressRecord {
        AddressRecord {
            address: Address(address),
            label: Label::Exchange,
            txs,
        }
    }

    #[test]
    fn slicing_respects_slice_size() {
        let txs: Vec<TxView> = (0..250)
            .map(|i| view(i, &[(0, 1.0)], &[(1000 + i, 0.9)]))
            .collect();
        let graphs = extract_original_graphs(&record(0, txs), 100);
        assert_eq!(graphs.len(), 3);
        assert_eq!(graphs[0].num_txs, 100);
        assert_eq!(graphs[1].num_txs, 100);
        assert_eq!(graphs[2].num_txs, 50); // partial final slice retained
        assert_eq!(graphs[2].slice_index, 2);
    }

    #[test]
    fn focus_is_node_zero_in_every_slice() {
        let txs: Vec<TxView> = (0..5)
            .map(|i| view(i, &[(7, 1.0)], &[(100 + i, 0.9)]))
            .collect();
        for g in extract_original_graphs(&record(7, txs), 2) {
            assert_eq!(g.nodes[0].kind, NodeKind::Focus);
            assert_eq!(g.nodes[0].address, Some(Address(7)));
        }
    }

    #[test]
    fn shared_addresses_are_single_nodes() {
        // Address 9 appears in both transactions: one node, two tx edges.
        let txs = vec![
            view(0, &[(0, 1.0), (9, 2.0)], &[(50, 2.9)]),
            view(1, &[(0, 1.0), (9, 3.0)], &[(51, 3.9)]),
        ];
        let g = &extract_original_graphs(&record(0, txs), 100)[0];
        // nodes: focus, tx0, 9, 50, tx1, 51
        assert_eq!(g.count_kind(NodeKind::Transaction), 2);
        let nine = g
            .nodes
            .iter()
            .position(|n| n.address == Some(Address(9)))
            .unwrap();
        let nine_edges = g.edges.iter().filter(|e| e.addr_node == nine).count();
        assert_eq!(nine_edges, 2);
        assert_eq!(g.nodes[nine].sfe.sum(), 5.0);
        assert_eq!(g.nodes[nine].sfe.count(), 2.0);
    }

    #[test]
    fn edge_sides_match_transaction_structure() {
        let txs = vec![view(0, &[(0, 1.5)], &[(5, 1.0), (6, 0.4)])];
        let g = &extract_original_graphs(&record(0, txs), 100)[0];
        let inputs: Vec<_> = g.edges.iter().filter(|e| e.side == Side::Input).collect();
        let outputs: Vec<_> = g.edges.iter().filter(|e| e.side == Side::Output).collect();
        assert_eq!(inputs.len(), 1);
        assert_eq!(outputs.len(), 2);
        assert!((inputs[0].value - 1.5).abs() < 1e-9);
    }

    #[test]
    fn sfe_is_seeded_on_extraction() {
        let txs = vec![view(0, &[(0, 2.0)], &[(5, 1.0), (6, 0.9)])];
        let g = &extract_original_graphs(&record(0, txs), 100)[0];
        // Transaction node saw values [2.0, 1.0, 0.9].
        let tx_node = g
            .nodes
            .iter()
            .position(|n| n.kind == NodeKind::Transaction)
            .unwrap();
        assert_eq!(g.nodes[tx_node].sfe.count(), 3.0);
        assert!((g.nodes[tx_node].sfe.max() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn start_timestamp_is_first_tx() {
        let txs: Vec<TxView> = (10..15)
            .map(|i| view(i, &[(0, 1.0)], &[(99, 0.5)]))
            .collect();
        let graphs = extract_original_graphs(&record(0, txs), 2);
        assert_eq!(graphs[0].start_timestamp, 10);
        assert_eq!(graphs[1].start_timestamp, 12);
        assert_eq!(graphs[2].start_timestamp, 14);
    }

    #[test]
    fn slices_do_not_depend_on_the_map_or_its_key() {
        // Inputs from addresses that differ only in their top 16 bits,
        // outputs from ones that differ only in their low bits; both pools
        // repeat, and 250 transactions make three slices and two restarts.
        let txs: Vec<TxView> = (0..250u64)
            .map(|t| {
                let high: Vec<(u64, f64)> =
                    (0..3).map(|k| (((t * 7 + k) % 61) << 48, 0.5)).collect();
                let low: Vec<(u64, f64)> = (0..4).map(|k| ((t * 5 + k * 3) % 97, 0.25)).collect();
                view(t, &high, &low)
            })
            .collect();
        let rec = record(1 << 48, txs);
        let std_map = raw_slices(HashMap::with_hasher(RandomState::new()), &rec, 100);
        for key in [AddrKey(0), AddrKey::default()] {
            let keyed = raw_slices(HashMap::with_hasher(key), &rec, 100);
            assert_eq!(graphs_identical(&keyed, &std_map), Ok(()));
        }
        assert_eq!(std_map.len(), 3);
    }

    #[test]
    fn empty_record_yields_no_graphs() {
        assert!(extract_original_graphs(&record(0, vec![]), 100).is_empty());
    }

    #[test]
    fn invariants_hold_on_extracted_graphs() {
        let txs: Vec<TxView> = (0..30)
            .map(|i| view(i, &[(0, 1.0), (i + 500, 0.2)], &[(1000 + i % 3, 0.9)]))
            .collect();
        for g in extract_original_graphs(&record(0, txs), 10) {
            assert_eq!(g.check_invariants(), Ok(()));
        }
    }

    proptest! {
        // Seeding against the naive reading of "SFE of the values incident
        // to the node". A pool of five addresses makes parallel edges and an
        // address on both sides of one transaction common; one node is added
        // with no edge, and every node starts with stale features, as on a
        // slice that grew since it was seeded.
        #[test]
        fn seeding_matches_sfe_of_each_nodes_incident_values(
            ins in collection::vec(collection::vec((0u64..5, 0u32..50), 0..4), 4),
            outs in collection::vec(collection::vec((0u64..5, 0u32..50), 1..4), 4),
        ) {
            let btc = |side: &[(u64, u32)]| -> Vec<(u64, f64)> {
                side.iter().map(|&(a, v)| (a, f64::from(v) / 8.0)).collect()
            };
            let views = ins.iter().zip(&outs).map(|(i, o)| view(0, &btc(i), &btc(o))).collect();
            let mut g = extract_original_graphs(&record(0, views), 9).remove(0);
            g.nodes.push(Node::new(NodeKind::Address, Some(Address(9))));
            g.nodes.iter_mut().for_each(|n| n.sfe = SfeFeatures([7.0; 15]));
            seed_slice(&mut g);
            for (i, node) in g.nodes.iter().enumerate() {
                let ends = |e: &Edge| [(e.addr_node, e.value), (e.tx_node, e.value)];
                let at_node = g.edges.iter().flat_map(ends).filter(|&(n, _)| n == i);
                let incident: Vec<f64> = at_node.map(|(_, v)| v).collect();
                let want = sfe(&incident).0.map(f64::to_bits);
                prop_assert_eq!(node.sfe.0.map(f64::to_bits), want, "node {}", i);
            }
        }
    }
}
