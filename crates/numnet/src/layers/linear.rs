//! Fully-connected layer.

use crate::init;
use crate::matrix::{matmul_into, Matrix, MatrixView};
use crate::tape::{Param, Tape, Var};
use rand::rngs::StdRng;

/// `y = x W + b` with `W: in x out`, `b: 1 x out`.
pub struct Linear {
    pub weight: Param,
    pub bias: Param,
    in_dim: usize,
    out_dim: usize,
}

impl Linear {
    /// Xavier-initialised linear layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut StdRng) -> Self {
        Self {
            weight: Param::new(init::xavier_uniform(in_dim, out_dim, rng)),
            bias: Param::new(Matrix::zeros(1, out_dim)),
            in_dim,
            out_dim,
        }
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Forward over a batch `x: n x in`, returning `n x out`.
    pub fn forward<'t>(&self, tape: &'t Tape, x: Var<'t>) -> Var<'t> {
        let w = tape.param(&self.weight);
        let b = tape.param(&self.bias);
        x.matmul(w).add_row(b)
    }

    /// Tape-free [`Linear::forward`] into `out`, the bias added in place;
    /// the same bits, reading the parameters where they live.
    pub fn eval(&self, x: &MatrixView<'_>, out: &mut Matrix) {
        matmul_into(x, &self.weight.value().view(), out);
        out.add_row_assign(&self.bias.value());
    }

    /// Trainable parameters.
    pub fn params(&self) -> Vec<Param> {
        vec![self.weight.clone(), self.bias.clone()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new(3, 2, &mut rng);
        layer.bias.set_value(Matrix::row_vec(vec![10.0, 20.0]));
        let tape = Tape::new();
        let x = tape.constant(Matrix::zeros(4, 3));
        let y = layer.forward(&tape, x);
        assert_eq!(y.shape(), (4, 2));
        // zero input -> output equals bias broadcast
        let v = y.value();
        for r in 0..4 {
            assert_eq!(v.row(r), &[10.0, 20.0]);
        }
    }

    #[test]
    fn params_are_shared_handles() {
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new(2, 2, &mut rng);
        let params = layer.params();
        params[0].set_value(Matrix::eye(2));
        assert_eq!(*layer.weight.value(), Matrix::eye(2));
    }
}
