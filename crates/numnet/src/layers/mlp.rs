//! Multi-layer perceptron with ReLU hidden activations.

use crate::layers::linear::Linear;
use crate::matrix::{Matrix, MatrixView};
use crate::tape::{Param, Tape, Var};
use rand::rngs::StdRng;

/// An MLP: a chain of [`Linear`] layers with a ReLU between them.
/// The final layer has no activation (emit raw logits / embeddings).
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Build from a dims list `[in, h1, ..., out]` (at least two entries).
    pub fn new(dims: &[usize], rng: &mut StdRng) -> Self {
        assert!(dims.len() >= 2, "Mlp::new requires at least [in, out]");
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Self { layers }
    }

    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Forward over a batch `x: n x in`.
    pub fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        let mut h = x;
        for (i, layer) in self.layers.iter().enumerate() {
            h = layer.forward(tape, h);
            if i + 1 < self.layers.len() {
                h = h.relu();
            }
        }
        h
    }

    /// Tape-free [`Mlp::forward`]: each layer writes one of `bufs` from the
    /// other, activations in place; returns the buffer holding the output.
    /// Row `r` of the result is the tape's row `r`, bit for bit, for any
    /// number of rows.
    pub fn eval<'b>(&self, x: &MatrixView<'_>, bufs: &'b mut [Matrix; 2]) -> &'b mut Matrix {
        let [mut out, mut spare] = bufs.each_mut();
        self.layers[0].eval(x, out);
        for layer in &self.layers[1..] {
            out.map_assign(|x| x.max(0.0));
            layer.eval(&out.view(), spare);
            std::mem::swap(&mut out, &mut spare);
        }
        out
    }

    pub fn params(&self) -> Vec<Param> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;
    use crate::optim::Adam;
    use rand::SeedableRng;

    #[test]
    fn shapes_through_hidden_layers() {
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(&[5, 8, 8, 3], &mut rng);
        // Three layers, a weight and a bias each.
        assert_eq!(mlp.params().len(), 6);
        assert_eq!((mlp.in_dim(), mlp.out_dim()), (5, 3));
        let tape = Tape::new();
        let x = tape.constant(Matrix::zeros(7, 5));
        assert_eq!(mlp.forward(&tape, x).shape(), (7, 3));
    }

    #[test]
    fn eval_matches_the_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(3);
        let mlp = Mlp::new(&[5, 8, 7, 3], &mut rng);
        let mut bufs = Default::default();
        for rows in [1, 4, 40] {
            let x = Matrix::from_fn(rows, 5, |r, c| ((r * 5 + c) as f32 * 0.7).sin());
            let tape = Tape::new();
            let taped = mlp.forward(&tape, tape.constant(x.clone())).value();
            let eval = mlp.eval(&x.view(), &mut bufs);
            assert_eq!(eval.shape(), taped.shape());
            assert!(eval
                .as_slice()
                .iter()
                .zip(taped.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn single_dim_panics() {
        let mut rng = StdRng::seed_from_u64(2);
        let _ = Mlp::new(&[5], &mut rng);
    }

    #[test]
    fn learns_xor() {
        // Classic nonlinear separability check: a 2-layer MLP must fit XOR.
        let mut rng = StdRng::seed_from_u64(42);
        let mlp = Mlp::new(&[2, 8, 2], &mut rng);
        let params = mlp.params();
        let mut opt = Adam::new(params.clone(), 0.05);
        let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let y = vec![0usize, 1, 1, 0];
        let mut last = f32::MAX;
        for _ in 0..400 {
            let tape = Tape::new();
            let xv = tape.constant(x.clone());
            let logits = mlp.forward(&tape, xv);
            let loss = logits.softmax_cross_entropy(&y);
            last = loss.value()[(0, 0)];
            opt.step(&loss.backward(&params));
        }
        assert!(last < 0.05, "final XOR loss {last}");
        // All four points classified correctly.
        let tape = Tape::new();
        let logits = mlp.forward(&tape, tape.constant(x)).value();
        for (r, &t) in y.iter().enumerate() {
            assert_eq!(logits.row_argmax(r), t, "row {r}");
        }
    }
}
