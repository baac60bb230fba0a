//! Graph Feature Network (Chen, Bian & Sun 2019), as adopted by the paper
//! (§III-B): instead of stacking graph convolutions, the node features are
//! augmented with the degree column and the propagated stack
//! `X^G = [d, X, ÃX, Ã²X, …, ÃᵏX]` (Eq. 13), after which a plain MLP + SUM
//! readout produces the graph representation (Eq. 14–15). Propagation is
//! gradient-free preprocessing, which is exactly why GFN trains faster than
//! GCN at the same quality (paper Fig. 5).
//! Training runs on the tape; inference on the forward evaluator
//! ([`Gfn::embed_graphs`]), PyTorch Geometric's block-diagonal batch.

use crate::construction::AddressGraph;
use crate::features::{write_node_features, GraphTensors};
use crate::models::{GraphModel, PreparedGraph, NUM_CLASSES};
use crate::parallel::parallel_map;
use graphalgo::{propagate_in_place, CsrMatrix};
use numnet::layers::{Linear, Mlp};
use numnet::{Matrix, Param, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Most node rows one evaluator block stacks (a larger graph is a block
/// alone): it bounds the scratch, which unbounded cost `serve_hot` 20 % RSS.
pub const BLOCK_ROWS: usize = 256;

/// The GFN model.
pub struct Gfn {
    /// Node transform MLP: augmented features -> embedding space.
    node_mlp: Mlp,
    /// Graph-level classifier head on the readout.
    classifier: Linear,
    k: usize,
    in_dim: usize,
    embed_dim: usize,
}

impl Gfn {
    /// `feat_dim`: raw node feature width; `k`: propagation depth.
    pub fn new(feat_dim: usize, k: usize, hidden: usize, embed_dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let in_dim = 1 + feat_dim * (k + 1);
        Self {
            node_mlp: Mlp::new(&[in_dim, hidden, embed_dim], &mut rng),
            classifier: Linear::new(embed_dim, NUM_CLASSES, &mut rng),
            k,
            in_dim,
            embed_dim,
        }
    }

    pub fn k(&self) -> usize {
        self.k
    }

    pub fn augmented_dim(&self) -> usize {
        self.in_dim
    }

    /// The augmented feature matrix `[d, X, ÃX, …, ÃᵏX]` for one graph.
    pub fn augment(&self, g: &GraphTensors) -> Matrix {
        let mut out = Matrix::zeros(g.num_nodes(), self.in_dim);
        self.write_augmented(out.as_mut_slice(), &g.adj, |u, x| {
            x.copy_from_slice(g.x.row(u));
            g.degrees[u]
        });
        out
    }

    /// The one writer of GFN input rows (Eq. 13): `node(u, x)` writes node
    /// `u`'s features into its zeroed row and returns its degree `d` (column
    /// 0 gets `ln(1 + d)`), then each `ÃˢX` is propagated into its block.
    fn write_augmented(
        &self,
        rows: &mut [f32],
        adj: &CsrMatrix,
        mut node: impl FnMut(usize, &mut [f32]) -> f32,
    ) {
        let d = (self.in_dim - 1) / (self.k + 1);
        for (u, row) in rows.chunks_exact_mut(self.in_dim).enumerate() {
            row[0] = (1.0 + node(u, &mut row[1..1 + d])).ln();
        }
        propagate_in_place(adj, rows, self.in_dim, d, self.k);
    }

    /// The forward evaluator: embeddings of slice graphs, in order, the
    /// bits of [`GraphModel::embed`] on [`GraphModel::prepare`]. Contiguous
    /// chunks go to `threads` workers; each stacks consecutive graphs' rows
    /// (written from the nodes, Ã in a reused buffer) into blocks of at most
    /// [`BLOCK_ROWS`], runs the node MLP once a block and reads out each
    /// graph. Every kernel computes a row from that row alone, so blocking
    /// and threads change no bit; beyond a fixed scratch a call allocates
    /// the embeddings alone.
    pub fn embed_graphs(&self, graphs: &[AddressGraph], threads: usize) -> Vec<Matrix> {
        let parts: Vec<_> = graphs
            .chunks(graphs.len().div_ceil(threads.max(1)).max(1))
            .collect();
        let per_part = parallel_map(threads, &parts, |&part| {
            let (mut x, mut mlp, mut topo, mut adj) = Default::default();
            let mut out = Vec::with_capacity(part.len());
            let mut rest = part;
            while let Some(first) = rest.first() {
                let (mut len, mut rows) = (1, first.num_nodes());
                while len < rest.len() && rows + rest[len].num_nodes() <= BLOCK_ROWS {
                    rows += rest[len].num_nodes();
                    len += 1;
                }
                let (block, tail) = rest.split_at(len);
                Matrix::reset(&mut x, rows, self.in_dim);
                let mut free = x.as_mut_slice();
                for g in block {
                    let (own, next) =
                        std::mem::take(&mut free).split_at_mut(g.num_nodes() * self.in_dim);
                    free = next;
                    g.topology_into(&mut topo);
                    topo.normalized_adjacency_into(&mut adj);
                    self.write_augmented(own, &adj, |u, f| {
                        write_node_features(&g.nodes[u], f);
                        topo.degree(u) as f32
                    });
                }
                let h = self.node_mlp.eval(&x.view(), &mut mlp);
                let mut start = 0;
                for g in block {
                    out.push(self.read_out(h, start, start + g.num_nodes()));
                    start += g.num_nodes();
                }
                rest = tail;
            }
            out
        });
        let mut out = Vec::with_capacity(graphs.len());
        per_part.into_iter().for_each(|part| out.extend(part));
        out
    }

    /// Eq. 15, the paper's SUM, over node rows `[start, end)` of `h`, row
    /// by row as the tape's `sum_rows` reduces.
    fn read_out(&self, h: &Matrix, start: usize, end: usize) -> Matrix {
        let mut e = Matrix::zeros(1, h.cols());
        for r in start..end {
            for (o, &v) in e.as_mut_slice().iter_mut().zip(h.row(r)) {
                *o += v;
            }
        }
        e
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
        let x = prep.x();
        assert_eq!(
            x.cols(),
            self.in_dim,
            "prepared input width mismatch (wrong model?)"
        );
        let xv = tape.constant(x.clone());
        let h = self.node_mlp.forward(tape, xv);
        // Readout (Eq. 15): the paper's SUM.
        h.sum_rows()
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
