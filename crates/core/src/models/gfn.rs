//! Graph Feature Network (Chen, Bian & Sun 2019), as adopted by the paper
//! (§III-B): instead of stacking graph convolutions, the node features are
//! augmented with the degree column and the propagated stack
//! `X^G = [d, X, ÃX, Ã²X, …, ÃᵏX]` (Eq. 13), after which a plain MLP + SUM
//! readout produces the graph representation (Eq. 14–15). Propagation is
//! gradient-free preprocessing, which is exactly why GFN trains faster than
//! GCN at the same quality (paper Fig. 5).

use crate::features::GraphTensors;
use crate::models::{GraphModel, PreparedGraph, NUM_CLASSES};
use graphalgo::propagate_features;
use numnet::layers::{Activation, Linear, Mlp};
use numnet::{Matrix, Param, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Graph-level readout (Eq. 15; the paper uses SUM).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Readout {
    /// Global sum pooling — the paper's choice.
    #[default]
    Sum,
    /// Mean pooling (size-invariant ablation).
    Mean,
    /// Max pooling (feature-salience ablation).
    Max,
}

/// The GFN model.
pub struct Gfn {
    /// Node transform MLP: augmented features -> embedding space.
    node_mlp: Mlp,
    /// Graph-level classifier head on the readout.
    classifier: Linear,
    k: usize,
    in_dim: usize,
    embed_dim: usize,
    readout: Readout,
}

impl Gfn {
    /// `feat_dim`: raw node feature width; `k`: propagation depth.
    pub fn new(feat_dim: usize, k: usize, hidden: usize, embed_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let in_dim = 1 + feat_dim * (k + 1);
        Self {
            node_mlp: Mlp::new(&[in_dim, hidden, embed_dim], Activation::Relu, &mut rng),
            classifier: Linear::new(embed_dim, NUM_CLASSES, &mut rng),
            k,
            in_dim,
            embed_dim,
            readout: Readout::Sum,
        }
    }

    /// Override the readout function (ablation; the paper uses SUM).
    pub fn with_readout(mut self, readout: Readout) -> Self {
        self.readout = readout;
        self
    }

    pub fn readout(&self) -> Readout {
        self.readout
    }

    pub fn k(&self) -> usize {
        self.k
    }

    pub fn augmented_dim(&self) -> usize {
        self.in_dim
    }

    /// The augmented feature matrix `[d, X, ÃX, …, ÃᵏX]` for one graph.
    pub fn augment(&self, g: &GraphTensors) -> Matrix {
        let n = g.x.rows();
        let d = g.x.cols();
        let stack = propagate_features(&g.adj, g.x.as_slice(), d, self.k);
        let mut out = Matrix::zeros(n, self.in_dim);
        for r in 0..n {
            let row = out.row_mut(r);
            row[0] = (1.0 + g.degrees[r]).ln();
            for (s, buf) in stack.iter().enumerate() {
                row[1 + s * d..1 + (s + 1) * d].copy_from_slice(&buf[r * d..(r + 1) * d]);
            }
        }
        out
    }
}

impl GraphModel for Gfn {
    fn name(&self) -> &'static str {
        "GFN"
    }

    fn prepare(&self, g: &GraphTensors) -> PreparedGraph {
        PreparedGraph::Features(self.augment(g))
    }

    fn embed<'t>(&self, tape: &'t Tape, prep: &PreparedGraph) -> Var<'t> {
        let x = match prep {
            PreparedGraph::Features(x) => x,
            PreparedGraph::WithAdjacency { x, .. } => x,
        };
        assert_eq!(
            x.cols(),
            self.in_dim,
            "prepared input width mismatch (wrong model?)"
        );
        let xv = tape.constant(x.clone());
        let h = self.node_mlp.forward(tape, xv);
        // Readout (Eq. 15); SUM is the paper's choice.
        match self.readout {
            Readout::Sum => h.sum_rows(),
            Readout::Mean => h.mean_rows(),
            Readout::Max => h.max_rows(),
        }
    }

    fn logits<'t>(&self, tape: &'t Tape, prep: &PreparedGraph) -> Var<'t> {
        let e = self.embed(tape, prep);
        self.classifier.forward(tape, e)
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.node_mlp.params();
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
        let txs = vec![
            TxView {
                txid: Txid(1),
                timestamp: 0,
                inputs: vec![(Address(0), Amount::from_btc(1.0))],
                outputs: vec![(Address(5), Amount::from_btc(0.9))],
            },
            TxView {
                txid: Txid(2),
                timestamp: 1,
                inputs: vec![(Address(5), Amount::from_btc(0.9))],
                outputs: vec![(Address(0), Amount::from_btc(0.8))],
            },
        ];
        let record = AddressRecord {
            address: Address(0),
            label: Label::Gambling,
            txs,
        };
        let mut g = extract_original_graphs(&record, 100).remove(0);
        augment_with_centralities(&mut g);
        graph_tensors(&g)
    }

    #[test]
    fn augmented_width_is_1_plus_f_times_k_plus_1() {
        let gfn = Gfn::new(NODE_FEAT_DIM, 3, 16, 8, 0);
        assert_eq!(gfn.augmented_dim(), 1 + NODE_FEAT_DIM * 4);
        let aug = gfn.augment(&tensors());
        assert_eq!(aug.cols(), gfn.augmented_dim());
    }

    #[test]
    fn embed_and_logits_shapes() {
        let gfn = Gfn::new(NODE_FEAT_DIM, 2, 16, 8, 0);
        let prep = gfn.prepare(&tensors());
        let tape = Tape::new();
        assert_eq!(gfn.embed(&tape, &prep).shape(), (1, 8));
        assert_eq!(gfn.logits(&tape, &prep).shape(), (1, NUM_CLASSES));
    }

    #[test]
    fn k_zero_reduces_to_degree_plus_raw_features() {
        let gfn = Gfn::new(NODE_FEAT_DIM, 0, 16, 8, 0);
        let t = tensors();
        let aug = gfn.augment(&t);
        assert_eq!(aug.cols(), 1 + NODE_FEAT_DIM);
        // Raw features preserved in columns 1..
        for r in 0..t.x.rows() {
            for c in 0..NODE_FEAT_DIM {
                assert!((aug[(r, 1 + c)] - t.x[(r, c)]).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn gradient_reaches_all_params() {
        let gfn = Gfn::new(NODE_FEAT_DIM, 1, 8, 4, 3);
        let prep = gfn.prepare(&tensors());
        let tape = Tape::new();
        let loss = gfn.logits(&tape, &prep).softmax_cross_entropy(&[2]);
        let touched = loss
            .backward(&gfn.params())
            .iter()
            .filter(|g| g.as_slice().iter().any(|&g| g != 0.0))
            .count();
        // All weight matrices get gradient (biases of dead ReLU rows may not).
        assert!(touched >= 4, "only {touched} params touched");
    }

    #[test]
    fn readout_variants_share_shapes_but_differ_in_value() {
        let t = tensors();
        let sum = Gfn::new(NODE_FEAT_DIM, 1, 8, 4, 3);
        let mean = Gfn::new(NODE_FEAT_DIM, 1, 8, 4, 3).with_readout(Readout::Mean);
        let max = Gfn::new(NODE_FEAT_DIM, 1, 8, 4, 3).with_readout(Readout::Max);
        let prep = sum.prepare(&t);
        let tape = Tape::new();
        let e_sum = sum.embed(&tape, &prep).value();
        let e_mean = mean.embed(&tape, &prep).value();
        let e_max = max.embed(&tape, &prep).value();
        assert_eq!(e_sum.shape(), (1, 4));
        assert_eq!(e_mean.shape(), (1, 4));
        assert_eq!(e_max.shape(), (1, 4));
        // Same weights (same seed): mean = sum / n, and max differs from both.
        let n = prep.num_nodes() as f32;
        for c in 0..4 {
            assert!((e_mean[(0, c)] - e_sum[(0, c)] / n).abs() < 1e-5);
        }
        assert_ne!(e_max, e_sum);
    }

    #[test]
    fn deterministic_init_per_seed() {
        let a = Gfn::new(NODE_FEAT_DIM, 1, 8, 4, 9);
        let b = Gfn::new(NODE_FEAT_DIM, 1, 8, 4, 9);
        let pa = a.params();
        let pb = b.params();
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(*x.value(), *y.value());
        }
    }
}
