//! Node feature assembly: turn a constructed [`AddressGraph`] into the dense
//! tensors the graph models consume.
//!
//! Per-node layout (`NODE_FEAT_DIM` columns):
//! * 5 one-hot node-kind indicators (focus / transaction / address /
//!   single-hyper / multi-hyper);
//! * 15 SFE statistics, magnitude-compressed with signed `log1p` so
//!   heavy-tailed BTC values do not swamp training;
//! * 4 centralities (degree, closeness, betweenness, PageRank), also
//!   `log1p`-compressed.

use crate::construction::address_graph::{AddressGraph, Node, NodeKind};
use crate::construction::sfe::SFE_DIM;
use graphalgo::CsrMatrix;
use numnet::Matrix;

/// Total node feature width.
pub const NODE_FEAT_DIM: usize = 5 + SFE_DIM + 4;

/// Signed logarithmic compression: `sign(x) * ln(1 + |x|)`.
#[inline]
pub fn signed_log1p(x: f64) -> f32 {
    (x.signum() * x.abs().ln_1p()) as f32
}

/// Dense inputs for one graph: features, topology, degrees.
#[derive(Clone, Debug)]
pub struct GraphTensors {
    /// `n x NODE_FEAT_DIM` node features.
    pub x: Matrix,
    /// Normalised adjacency Ã (Eq. 12), sparse: every model path runs on it.
    pub adj: CsrMatrix,
    /// Raw node degrees (the `d` column GFN prepends, Eq. 13).
    pub degrees: Vec<f32>,
}

impl GraphTensors {
    pub fn num_nodes(&self) -> usize {
        self.x.rows()
    }
}

/// Feature vector of one node.
pub fn node_features(g: &AddressGraph, i: usize) -> [f32; NODE_FEAT_DIM] {
    let mut f = [0.0f32; NODE_FEAT_DIM];
    write_node_features(&g.nodes[i], &mut f);
    f
}

/// Fill one zeroed `NODE_FEAT_DIM`-wide row with a node's features.
pub(crate) fn write_node_features(n: &Node, f: &mut [f32]) {
    let kind_slot = match n.kind {
        NodeKind::Focus => 0,
        NodeKind::Transaction => 1,
        NodeKind::Address => 2,
        NodeKind::SingleHyper => 3,
        NodeKind::MultiHyper => 4,
    };
    f[kind_slot] = 1.0;
    for (j, &v) in n.sfe.as_array().iter().enumerate() {
        f[5 + j] = signed_log1p(v);
    }
    for (j, &c) in n.centrality.iter().enumerate() {
        f[5 + SFE_DIM + j] = signed_log1p(c);
    }
}

/// Build the dense tensors for one constructed graph.
pub fn graph_tensors(g: &AddressGraph) -> GraphTensors {
    let n = g.num_nodes();
    let mut x = Matrix::zeros(n, NODE_FEAT_DIM);
    for (i, node) in g.nodes.iter().enumerate() {
        write_node_features(node, x.row_mut(i));
    }
    let topo = g.topology();
    GraphTensors {
        x,
        adj: topo.normalized_adjacency(),
        degrees: (0..n).map(|i| topo.degree(i) as f32).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::extract::extract_original_graphs;
    use btcsim::{Address, AddressRecord, Amount, Label, TxView, Txid};

    fn sample_graph() -> AddressGraph {
        let txs = vec![TxView {
            txid: Txid(1),
            timestamp: 5,
            inputs: vec![(Address(0), Amount::from_btc(2.0))],
            outputs: vec![
                (Address(9), Amount::from_btc(1.5)),
                (Address(10), Amount::from_btc(0.4)),
            ],
        }];
        let record = AddressRecord {
            address: Address(0),
            label: Label::Service,
            txs,
        };
        let mut g = extract_original_graphs(&record, 100).remove(0);
        crate::construction::augment::augment_with_centralities(&mut g);
        g
    }

    #[test]
    fn feature_layout_one_hot_kind() {
        let g = sample_graph();
        let f_focus = node_features(&g, 0);
        assert_eq!(f_focus[0], 1.0);
        assert_eq!(f_focus[1..5], [0.0; 4]);
        let tx = g
            .nodes
            .iter()
            .position(|n| n.kind == NodeKind::Transaction)
            .unwrap();
        let f_tx = node_features(&g, tx);
        assert_eq!(f_tx[1], 1.0);
        assert_eq!(f_tx[0], 0.0);
    }

    #[test]
    fn features_are_finite_and_compressed() {
        let g = sample_graph();
        for i in 0..g.num_nodes() {
            let f = node_features(&g, i);
            assert!(f.iter().all(|v| v.is_finite()));
        }
        // Large raw sum (2.0 BTC) compresses below its raw value.
        let f = node_features(&g, 0);
        assert!(f[5 + 2] < 2.0 && f[5 + 2] > 0.0); // sum slot
    }

    #[test]
    fn signed_log1p_is_odd_and_monotone() {
        assert_eq!(signed_log1p(0.0), 0.0);
        assert!((signed_log1p(5.0) + signed_log1p(-5.0)).abs() < 1e-6);
        assert!(signed_log1p(10.0) > signed_log1p(5.0));
    }

    #[test]
    fn tensors_have_consistent_shapes() {
        let g = sample_graph();
        let t = graph_tensors(&g);
        let n = g.num_nodes();
        assert_eq!(t.x.shape(), (n, NODE_FEAT_DIM));
        assert_eq!(t.degrees.len(), n);
        assert_eq!(t.adj.n(), n);
        // Every node keeps its self-loop, and every entry is finite.
        for r in 0..n {
            assert!(t.adj.row(r).any(|(c, _)| c == r));
            assert!(t.adj.row(r).all(|(_, v)| v.is_finite() && v > 0.0));
        }
    }

    #[test]
    fn degrees_match_topology() {
        let g = sample_graph();
        let t = graph_tensors(&g);
        // tx node connects focus + 2 receivers = degree 3.
        let tx = g
            .nodes
            .iter()
            .position(|n| n.kind == NodeKind::Transaction)
            .unwrap();
        assert_eq!(t.degrees[tx], 3.0);
    }
}
