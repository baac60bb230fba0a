//! MLP/ANN baseline over flat features (the "MLP" row of Table II and the
//! ANN back-end of Lee et al. in Table IV), wrapping the `numnet` stack.

use crate::common::{Classifier, NUM_CLASSES};
use numnet::layers::Mlp;
use numnet::optim::Adam;
use numnet::{Matrix, Tape};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A feed-forward network classifier on flat features.
pub struct AnnClassifier {
    pub hidden: Vec<usize>,
    pub epochs: usize,
    pub learning_rate: f32,
    pub batch_size: usize,
    pub seed: u64,
    model: Option<Mlp>,
}

impl AnnClassifier {
    pub fn new(hidden: Vec<usize>, epochs: usize, seed: u64) -> Self {
        Self {
            hidden,
            epochs,
            learning_rate: 0.01,
            batch_size: 16,
            seed,
            model: None,
        }
    }
}

impl Default for AnnClassifier {
    fn default() -> Self {
        Self::new(vec![64, 32], 40, 5)
    }
}

fn to_matrix(rows: &[&[f64]]) -> Matrix {
    let r = rows.len();
    let c = rows.first().map_or(0, |x| x.len());
    Matrix::from_fn(r, c, |i, j| rows[i][j] as f32)
}

impl Classifier for AnnClassifier {
    fn name(&self) -> &'static str {
        "MLP"
    }

    fn fit(&mut self, x: &[Vec<f64>], y: &[usize]) {
        assert!(!x.is_empty() && x.len() == y.len(), "bad training data");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut dims = vec![x[0].len()];
        dims.extend(&self.hidden);
        dims.push(NUM_CLASSES);
        let mlp = Mlp::new(&dims, &mut rng);
        let params = mlp.params();
        let mut opt = Adam::new(params.clone(), self.learning_rate);
        let mut order: Vec<usize> = (0..x.len()).collect();
        for _ in 0..self.epochs {
            order.shuffle(&mut rng);
            for batch in order.chunks(self.batch_size) {
                let rows: Vec<&[f64]> = batch.iter().map(|&i| x[i].as_slice()).collect();
                let targets: Vec<usize> = batch.iter().map(|&i| y[i]).collect();
                let tape = Tape::new();
                let logits = mlp.forward(&tape, tape.constant(to_matrix(&rows)));
                opt.step(&logits.softmax_cross_entropy(&targets).backward(&params));
            }
        }
        self.model = Some(mlp);
    }

    fn predict(&self, row: &[f64]) -> usize {
        let mlp = self.model.as_ref().expect("predict before fit");
        let tape = Tape::new();
        let logits = mlp.forward(&tape, tape.constant(to_matrix(&[row])));
        logits.value().row_argmax(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::tests::blobs;

    #[test]
    fn ann_fits_blobs() {
        let (x, y) = blobs(20);
        let mut ann = AnnClassifier::new(vec![16], 40, 1);
        ann.fit(&x, &y);
        let correct = x
            .iter()
            .zip(&y)
            .filter(|(r, &t)| ann.predict(r) == t)
            .count();
        assert!(correct as f64 / x.len() as f64 > 0.95);
    }

    #[test]
    fn ann_is_deterministic_per_seed() {
        let (x, y) = blobs(8);
        let preds = |seed| {
            let mut ann = AnnClassifier::new(vec![8], 10, seed);
            ann.fit(&x, &y);
            x.iter().map(|r| ann.predict(r)).collect::<Vec<_>>()
        };
        assert_eq!(preds(3), preds(3));
    }
}
