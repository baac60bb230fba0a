//! Address classification heads (paper §III-C and Table III): given the
//! chronological list of slice-graph embeddings of one address, produce the
//! 4-way behavior logits. LSTM+MLP is the paper's choice (Eq. 22);
//! BiLSTM+MLP and the four pooling heads are the Table III comparators.

use crate::models::NUM_CLASSES;
use numnet::layers::{AttentionPool, BiLstm, Lstm, Mlp};
use numnet::{Matrix, Param, Tape, Var};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A sequence classifier over `1 x d` embedding rows. `Sync`: every thread
/// of a training or classification call reads the one head.
pub trait SequenceHead: Sync {
    fn name(&self) -> &'static str;

    /// Class logits (`1 x NUM_CLASSES`) for one embedding sequence.
    ///
    /// # Panics
    /// Panics on an empty sequence (an address always has ≥ 1 slice).
    fn logits<'t>(&self, tape: &'t Tape, seq: &[Matrix]) -> Var<'t>;

    fn params(&self) -> Vec<Param>;

    /// Predicted class of one sequence.
    fn predict(&self, seq: &[Matrix]) -> usize {
        let tape = Tape::new();
        self.logits(&tape, seq).value().row_argmax(0)
    }
}

fn seq_vars<'t>(tape: &'t Tape, seq: &[Matrix]) -> Vec<Var<'t>> {
    assert!(!seq.is_empty(), "empty embedding sequence");
    seq.iter().map(|m| tape.constant(m.clone())).collect()
}

/// The sequence as one `len x d` matrix on the tape.
fn seq_matrix<'t>(tape: &'t Tape, seq: &[Matrix]) -> Var<'t> {
    let vars = seq_vars(tape, seq);
    Var::concat_rows(&vars)
}

/// LSTM + MLP — the paper's selected head (Eq. 16–22).
pub struct LstmMlp {
    lstm: Lstm,
    mlp: Mlp,
}

impl LstmMlp {
    pub fn new(embed_dim: usize, hidden: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            lstm: Lstm::new(embed_dim, hidden, &mut rng),
            mlp: Mlp::new(&[hidden, hidden, NUM_CLASSES], &mut rng),
        }
    }

    /// Tape-free logits of a batch: the ragged LSTM evaluator, then one MLP
    /// pass over the final states; row `i` is the tape's `logits(seqs[i])`,
    /// bit for bit, reading the embeddings in place.
    pub fn eval_logits(&self, seqs: &[&[Matrix]]) -> Matrix {
        let h = self.lstm.eval_last_batch(seqs);
        let mut bufs = Default::default();
        std::mem::take(self.mlp.eval(&h.view(), &mut bufs))
    }
}

impl SequenceHead for LstmMlp {
    fn name(&self) -> &'static str {
        "LSTM+MLP"
    }

    fn logits<'t>(&self, tape: &'t Tape, seq: &[Matrix]) -> Var<'t> {
        let vars = seq_vars(tape, seq);
        let h = self.lstm.forward_last(tape, &vars);
        self.mlp.forward(tape, h)
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.lstm.params();
        p.extend(self.mlp.params());
        p
    }
}

/// BiLSTM + MLP comparator.
pub struct BiLstmMlp {
    lstm: BiLstm,
    mlp: Mlp,
}

impl BiLstmMlp {
    pub fn new(embed_dim: usize, hidden: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            lstm: BiLstm::new(embed_dim, hidden, &mut rng),
            mlp: Mlp::new(&[2 * hidden, hidden, NUM_CLASSES], &mut rng),
        }
    }
}

impl SequenceHead for BiLstmMlp {
    fn name(&self) -> &'static str {
        "BiLSTM+MLP"
    }

    fn logits<'t>(&self, tape: &'t Tape, seq: &[Matrix]) -> Var<'t> {
        let vars = seq_vars(tape, seq);
        let h = self.lstm.forward_last(tape, &vars);
        self.mlp.forward(tape, h)
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.lstm.params();
        p.extend(self.mlp.params());
        p
    }
}

/// Attention-pooling + MLP comparator.
pub struct AttentionMlp {
    pool: AttentionPool,
    mlp: Mlp,
}

impl AttentionMlp {
    pub fn new(embed_dim: usize, hidden: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            pool: AttentionPool::new(embed_dim, hidden, &mut rng),
            mlp: Mlp::new(&[embed_dim, hidden, NUM_CLASSES], &mut rng),
        }
    }
}

impl SequenceHead for AttentionMlp {
    fn name(&self) -> &'static str {
        "Attention+MLP"
    }

    fn logits<'t>(&self, tape: &'t Tape, seq: &[Matrix]) -> Var<'t> {
        let stacked = seq_matrix(tape, seq);
        let pooled = self.pool.forward(tape, stacked);
        self.mlp.forward(tape, pooled)
    }

    fn params(&self) -> Vec<Param> {
        let mut p = self.pool.params();
        p.extend(self.mlp.params());
        p
    }
}

/// Which order-insensitive pooling a [`PoolMlp`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pooling {
    Sum,
    Avg,
    Max,
}

impl Pooling {
    fn label(self) -> &'static str {
        match self {
            Pooling::Sum => "SUM+MLP",
            Pooling::Avg => "AVG+MLP",
            Pooling::Max => "MAX+MLP",
        }
    }
}

/// SUM/AVG/MAX pooling + MLP comparators.
pub struct PoolMlp {
    pooling: Pooling,
    mlp: Mlp,
}

impl PoolMlp {
    pub fn new(pooling: Pooling, embed_dim: usize, hidden: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self {
            pooling,
            mlp: Mlp::new(&[embed_dim, hidden, NUM_CLASSES], &mut rng),
        }
    }
}

impl SequenceHead for PoolMlp {
    fn name(&self) -> &'static str {
        self.pooling.label()
    }

    fn logits<'t>(&self, tape: &'t Tape, seq: &[Matrix]) -> Var<'t> {
        let stacked = seq_matrix(tape, seq);
        let pooled = match self.pooling {
            Pooling::Sum => stacked.sum_rows(),
            Pooling::Avg => stacked.mean_rows(),
            Pooling::Max => stacked.max_rows(),
        };
        self.mlp.forward(tape, pooled)
    }

    fn params(&self) -> Vec<Param> {
        self.mlp.params()
    }
}

/// Construct all six Table III heads with a common embedding width.
pub fn all_heads(embed_dim: usize, hidden: usize, seed: u64) -> Vec<Box<dyn SequenceHead>> {
    vec![
        Box::new(LstmMlp::new(embed_dim, hidden, seed)),
        Box::new(BiLstmMlp::new(embed_dim, hidden, seed.wrapping_add(1))),
        Box::new(AttentionMlp::new(embed_dim, hidden, seed.wrapping_add(2))),
        Box::new(PoolMlp::new(
            Pooling::Sum,
            embed_dim,
            hidden,
            seed.wrapping_add(3),
        )),
        Box::new(PoolMlp::new(
            Pooling::Avg,
            embed_dim,
            hidden,
            seed.wrapping_add(4),
        )),
        Box::new(PoolMlp::new(
            Pooling::Max,
            embed_dim,
            hidden,
            seed.wrapping_add(5),
        )),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(len: usize, dim: usize) -> Vec<Matrix> {
        (0..len)
            .map(|t| Matrix::from_fn(1, dim, |_, c| ((t * 7 + c) as f32 * 0.31).sin()))
            .collect()
    }

    #[test]
    fn all_heads_produce_class_logits() {
        for head in all_heads(6, 8, 0) {
            let tape = Tape::new();
            let logits = head.logits(&tape, &seq(4, 6));
            assert_eq!(logits.shape(), (1, NUM_CLASSES), "{}", head.name());
            assert!(logits.value().all_finite(), "{}", head.name());
        }
    }

    #[test]
    fn heads_handle_length_one_sequences() {
        for head in all_heads(6, 8, 1) {
            let tape = Tape::new();
            assert_eq!(head.logits(&tape, &seq(1, 6)).shape(), (1, NUM_CLASSES));
        }
    }

    #[test]
    fn lstm_head_is_order_sensitive_pooling_is_not() {
        let fwd = seq(5, 6);
        let mut rev = fwd.clone();
        rev.reverse();

        let sum_head = PoolMlp::new(Pooling::Sum, 6, 8, 3);
        let tape = Tape::new();
        let a = sum_head.logits(&tape, &fwd).value();
        let b = sum_head.logits(&tape, &rev).value();
        for c in 0..NUM_CLASSES {
            assert!(
                (a[(0, c)] - b[(0, c)]).abs() < 1e-4,
                "sum pooling must be order-invariant"
            );
        }

        let lstm_head = LstmMlp::new(6, 8, 3);
        let tape = Tape::new();
        let a = lstm_head.logits(&tape, &fwd).value();
        let b = lstm_head.logits(&tape, &rev).value();
        let diff: f32 = (0..NUM_CLASSES)
            .map(|c| (a[(0, c)] - b[(0, c)]).abs())
            .sum();
        assert!(diff > 1e-6, "LSTM output should depend on order");
    }

    #[test]
    fn predict_returns_valid_class() {
        for head in all_heads(4, 6, 2) {
            assert!(head.predict(&seq(3, 4)) < NUM_CLASSES);
        }
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sequence_panics() {
        let head = LstmMlp::new(4, 6, 0);
        let tape = Tape::new();
        let _ = head.logits(&tape, &[]);
    }

    #[test]
    fn heads_are_trainable() {
        use numnet::optim::Adam;
        // Each head should be able to fit two distinguishable sequences.
        let class0 = seq(3, 4);
        let class1: Vec<Matrix> = seq(3, 4).iter().map(|m| m.scale(-2.0)).collect();
        for head in all_heads(4, 8, 4) {
            let params = head.params();
            let mut opt = Adam::new(params.clone(), 0.03);
            for _ in 0..150 {
                let tape = Tape::new();
                let l0 = head.logits(&tape, &class0).softmax_cross_entropy(&[0]);
                let l1 = head.logits(&tape, &class1).softmax_cross_entropy(&[1]);
                opt.step(&l0.add(l1).scale(0.5).backward(&params));
            }
            assert_eq!(head.predict(&class0), 0, "{}", head.name());
            assert_eq!(head.predict(&class1), 1, "{}", head.name());
        }
    }
}
