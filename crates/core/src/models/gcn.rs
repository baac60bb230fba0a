//! Graph Convolutional Network (Kipf & Welling 2017) comparator for
//! Table II / Fig. 5: two spectral convolution layers
//! `H⁽ˡ⁺¹⁾ = σ(Ã H⁽ˡ⁾ W⁽ˡ⁾)` with SUM readout and a linear classifier.
//! Unlike GFN, the Ã·H product sits inside the autograd graph, so every
//! epoch pays for propagation — the runtime gap Fig. 5 measures.

use crate::features::GraphTensors;
use crate::models::{GraphModel, PreparedGraph, NUM_CLASSES};
use numnet::layers::Linear;
use numnet::{Param, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Two-layer GCN with SUM readout.
pub struct Gcn {
    conv1: Linear,
    conv2: Linear,
    classifier: Linear,
    embed_dim: usize,
}

impl Gcn {
    pub fn new(feat_dim: usize, hidden: usize, embed_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            conv1: Linear::new(feat_dim, hidden, &mut rng),
            conv2: Linear::new(hidden, embed_dim, &mut rng),
            classifier: Linear::new(embed_dim, NUM_CLASSES, &mut rng),
            embed_dim,
        }
    }
}

impl GraphModel for Gcn {
    fn name(&self) -> &'static str {
        "GCN"
    }

    fn prepare(&self, g: &GraphTensors) -> PreparedGraph {
        PreparedGraph::with_adjacency(g)
    }

    fn embed<'t>(&self, tape: &'t Tape, prep: &PreparedGraph) -> Var<'t> {
        let PreparedGraph::WithAdjacency { ax, adj, .. } = prep else {
            panic!("GCN requires adjacency-prepared input");
        };
        // Layer 1 consumes the cached gradient-free Ã·X; layer 2 runs the
        // adjacency product as a sparse tape op (O(nnz·d), not O(n²·d)).
        let h1 = self.conv1.forward(tape, tape.constant(ax.clone())).relu();
        let h2 = self.conv2.forward(tape, h1.spmm(adj)).relu();
        h2.sum_rows()
    }

    fn logits<'t>(&self, tape: &'t Tape, prep: &PreparedGraph) -> Var<'t> {
        let e = self.embed(tape, prep);
        self.classifier.forward(tape, e)
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.conv1.params();
        p.extend(self.conv2.params());
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
        let txs = vec![TxView {
            txid: Txid(3),
            timestamp: 0,
            inputs: vec![(Address(0), Amount::from_btc(2.0))],
            outputs: vec![
                (Address(7), Amount::from_btc(1.0)),
                (Address(8), Amount::from_btc(0.9)),
            ],
        }];
        let record = AddressRecord {
            address: Address(0),
            label: Label::Exchange,
            txs,
        };
        let mut g = extract_original_graphs(&record, 100).remove(0);
        augment_with_centralities(&mut g);
        graph_tensors(&g)
    }

    #[test]
    fn shapes_are_correct() {
        let gcn = Gcn::new(NODE_FEAT_DIM, 16, 8, 0);
        let prep = gcn.prepare(&tensors());
        let tape = Tape::new();
        assert_eq!(gcn.embed(&tape, &prep).shape(), (1, 8));
        assert_eq!(gcn.logits(&tape, &prep).shape(), (1, NUM_CLASSES));
    }

    #[test]
    fn training_step_reduces_loss() {
        use numnet::optim::Adam;
        let gcn = Gcn::new(NODE_FEAT_DIM, 16, 8, 1);
        let prep = gcn.prepare(&tensors());
        let params = gcn.params();
        let mut opt = Adam::new(params.clone(), 0.05);
        let first = {
            let tape = Tape::new();
            let loss = gcn.logits(&tape, &prep).softmax_cross_entropy(&[0]);
            let v = loss.value()[(0, 0)];
            opt.step(&loss.backward(&params));
            v
        };
        for _ in 0..20 {
            let tape = Tape::new();
            let loss = gcn.logits(&tape, &prep).softmax_cross_entropy(&[0]);
            opt.step(&loss.backward(&params));
        }
        let tape = Tape::new();
        let last = gcn.logits(&tape, &prep).softmax_cross_entropy(&[0]).value()[(0, 0)];
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    #[should_panic(expected = "adjacency")]
    fn rejects_wrong_preparation() {
        let gcn = Gcn::new(NODE_FEAT_DIM, 16, 8, 0);
        let tape = Tape::new();
        let bad = PreparedGraph::Features(numnet::Matrix::zeros(2, NODE_FEAT_DIM));
        let _ = gcn.embed(&tape, &bad);
    }
}
