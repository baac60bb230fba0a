//! DiffPool (Ying et al. 2018) comparator for Table II / Fig. 5, in the
//! single-pooling-level form: a GNN embedding branch and a GNN assignment
//! branch produce a soft cluster assignment `S`; the graph is coarsened to
//! `X' = SᵀZ`, `A' = SᵀÃS`, convolved once more, and SUM-read out.

use crate::features::GraphTensors;
use crate::models::{GraphModel, PreparedGraph, NUM_CLASSES};
use numnet::layers::Linear;
use numnet::{Param, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One-level DiffPool.
pub struct DiffPool {
    embed_conv: Linear,
    assign_conv: Linear,
    post_conv: Linear,
    classifier: Linear,
    clusters: usize,
    embed_dim: usize,
}

impl DiffPool {
    pub fn new(
        feat_dim: usize,
        hidden: usize,
        clusters: usize,
        embed_dim: usize,
        seed: u64,
    ) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            embed_conv: Linear::new(feat_dim, hidden, &mut rng),
            assign_conv: Linear::new(feat_dim, clusters, &mut rng),
            post_conv: Linear::new(hidden, embed_dim, &mut rng),
            classifier: Linear::new(embed_dim, NUM_CLASSES, &mut rng),
            clusters,
            embed_dim,
        }
    }

    pub fn clusters(&self) -> usize {
        self.clusters
    }
}

impl GraphModel for DiffPool {
    fn name(&self) -> &'static str {
        "DiffPool"
    }

    fn prepare(&self, g: &GraphTensors) -> PreparedGraph {
        PreparedGraph::with_adjacency(g)
    }

    fn embed<'t>(&self, tape: &'t Tape, prep: &PreparedGraph) -> Var<'t> {
        let PreparedGraph::WithAdjacency { ax, adj, .. } = prep else {
            panic!("DiffPool requires adjacency-prepared input");
        };
        let axv = tape.constant(ax.clone());
        // Embedding and assignment branches share the cached Ã·X.
        let z = self.embed_conv.forward(tape, axv).relu(); // n x h
        let s = self.assign_conv.forward(tape, axv).softmax_rows(); // n x c
                                                                    // Coarsen: X' = SᵀZ, A' = SᵀÃS.
        let st = s.transpose();
        let x_pooled = st.matmul(z); // c x h
        let a_pooled = st.matmul_sp(adj).matmul(s); // c x c
                                                    // Post-pooling convolution + SUM readout.
        let h = self
            .post_conv
            .forward(tape, a_pooled.matmul(x_pooled))
            .relu(); // c x e
        h.sum_rows()
    }

    fn logits<'t>(&self, tape: &'t Tape, prep: &PreparedGraph) -> Var<'t> {
        let e = self.embed(tape, prep);
        self.classifier.forward(tape, e)
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.embed_conv.params();
        p.extend(self.assign_conv.params());
        p.extend(self.post_conv.params());
        p.extend(self.classifier.params());
        p
    }

    fn embed_dim(&self) -> usize {
        self.embed_dim
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::augment::augment_with_centralities;
    use crate::construction::extract::extract_original_graphs;
    use crate::features::{graph_tensors, NODE_FEAT_DIM};
    use btcsim::{Address, AddressRecord, Amount, Label, TxView, Txid};

    fn tensors() -> GraphTensors {
        let txs: Vec<TxView> = (0..4)
            .map(|i| TxView {
                txid: Txid(i),
                timestamp: i,
                inputs: vec![(Address(0), Amount::from_btc(1.0))],
                outputs: vec![(Address(10 + i), Amount::from_btc(0.9))],
            })
            .collect();
        let record = AddressRecord {
            address: Address(0),
            label: Label::Service,
            txs,
        };
        let mut g = extract_original_graphs(&record, 100).remove(0);
        augment_with_centralities(&mut g);
        graph_tensors(&g)
    }

    #[test]
    fn output_shapes_are_cluster_independent() {
        for clusters in [2, 4, 8] {
            let dp = DiffPool::new(NODE_FEAT_DIM, 16, clusters, 8, 0);
            let prep = dp.prepare(&tensors());
            let tape = Tape::new();
            assert_eq!(dp.embed(&tape, &prep).shape(), (1, 8));
            assert_eq!(dp.logits(&tape, &prep).shape(), (1, NUM_CLASSES));
        }
    }

    #[test]
    fn gradients_flow_through_pooling() {
        let dp = DiffPool::new(NODE_FEAT_DIM, 8, 3, 4, 2);
        let prep = dp.prepare(&tensors());
        let tape = Tape::new();
        let loss = dp.logits(&tape, &prep).softmax_cross_entropy(&[1]);
        // Assignment branch must receive gradient (it is upstream of pooling).
        let g = loss.backward(std::slice::from_ref(&dp.assign_conv.weight));
        assert!(g[0].as_slice().iter().any(|&g| g != 0.0));
    }

    #[test]
    fn works_on_graphs_smaller_than_cluster_count() {
        let dp = DiffPool::new(NODE_FEAT_DIM, 8, 16, 4, 2);
        let prep = dp.prepare(&tensors()); // graph has < 16 nodes
        let tape = Tape::new();
        assert_eq!(dp.embed(&tape, &prep).shape(), (1, 4));
    }
}
