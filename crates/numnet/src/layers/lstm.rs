//! LSTM (Hochreiter & Schmidhuber 1997) built from tape ops, exactly the
//! gate equations of the paper's §III-C (Eq. 16–21).

use crate::init;
use crate::matrix::{matmul_into, Matrix};
use crate::tape::{Param, Tape, Var};
use rand::rngs::StdRng;

/// One LSTM cell with fused gates: a single weight `(input+hidden) × 4·hidden`
/// whose column blocks `[forget | input | cell | output]` are applied to the
/// concatenation `[h_{t-1}, x_t]` in one matmul per step, plus a fused
/// `1 × 4·hidden` bias. Numerically (bitwise) identical to four separate
/// per-gate matmuls.
pub struct LstmCell {
    w: Param,
    b: Param,
    input_dim: usize,
    hidden_dim: usize,
}

/// Hidden and cell state handles during an unrolled forward pass.
pub struct LstmState<'t> {
    pub h: Var<'t>,
    pub c: Var<'t>,
}

impl LstmCell {
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut StdRng) -> Self {
        let d = input_dim + hidden_dim;
        // Draw the four gate weights as separate `d × h` Xavier matrices in
        // the historical order (f, i, c, o) and concatenate columns, so the
        // fused weight is value-identical to the old per-gate initialisation
        // for any given RNG state.
        let gates: Vec<Matrix> = (0..4)
            .map(|_| init::xavier_uniform(d, hidden_dim, rng))
            .collect();
        let refs: Vec<&Matrix> = gates.iter().collect();
        let w = Param::new(Matrix::concat_cols(&refs));
        // Forget-gate bias initialised to 1: standard trick so early training
        // does not forget everything. The other three bias blocks start at 0.
        let ones = Matrix::ones(1, hidden_dim);
        let zeros = Matrix::zeros(1, 3 * hidden_dim);
        let b = Param::new(Matrix::concat_cols(&[&ones, &zeros]));
        Self {
            w,
            b,
            input_dim,
            hidden_dim,
        }
    }

    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Initial all-zero state for a batch of `n` sequences.
    pub fn zero_state<'t>(&self, tape: &'t Tape, n: usize) -> LstmState<'t> {
        LstmState {
            h: tape.constant(Matrix::zeros(n, self.hidden_dim)),
            c: tape.constant(Matrix::zeros(n, self.hidden_dim)),
        }
    }

    /// One step: consume `x_t` (n x input) and the previous state. All four
    /// gate pre-activations come out of a single fused matmul.
    pub fn step<'t>(&self, _tape: &'t Tape, x: Var<'t>, state: &LstmState<'t>) -> LstmState<'t> {
        let h = self.hidden_dim;
        let hx = Var::concat_cols(&[state.h, x]);
        let gates = hx.lstm_gates(&self.w, &self.b, h);
        let f = gates.slice_cols(0, h);
        let i = gates.slice_cols(h, 2 * h);
        let c_tilde = gates.slice_cols(2 * h, 3 * h);
        let o = gates.slice_cols(3 * h, 4 * h);
        let c = f.mul_elem(state.c).add(i.mul_elem(c_tilde));
        let h = o.mul_elem(c.tanh());
        LstmState { h, c }
    }

    /// Final hidden states over `B` ragged sequences of `1 × input` rows,
    /// without a tape: one fused-gate matmul per *timestep* over the
    /// still-active prefix instead of one per sequence per timestep, the
    /// state updated in place. Row `i` of the result belongs to `seqs[i]`.
    ///
    /// Sequences are sorted longest-first so that at step `t` the sequences
    /// with `len > t` occupy rows `[0, Bt)`. Row `j` of one `[h | x]` buffer
    /// holds active sequence `j`'s state beside its next input, so a step is
    /// one matmul and no concat.
    ///
    /// **Bitwise identity:** every op in the step — the gate matmul, bias
    /// broadcast, activations, and the elementwise state update — computes
    /// each output row from its own input row with the same ascending-k
    /// summation order regardless of how many rows share the call, so row
    /// `i` is bitwise identical to unrolling `seqs[i]` alone on the tape
    /// with [`LstmCell::step`] at batch 1 (asserted by tests here and
    /// replayed at every layer above; DESIGN.md §15).
    ///
    /// # Panics
    /// Panics if the batch is empty, any sequence is empty, or any step is
    /// not a `1 × input` row.
    pub fn eval_last_batch(&self, seqs: &[&[Matrix]]) -> Matrix {
        let order = self.longest_first(seqs);
        let h = self.hidden_dim;
        let mut hx = Matrix::zeros(seqs.len(), h + self.input_dim);
        let mut c = Matrix::zeros(seqs.len(), h);
        let mut gates = Matrix::default();
        let mut finals = Matrix::zeros(seqs.len(), h);
        let (w, b) = (self.w.value(), self.b.value());
        for t in 0..seqs[order[0]].len() {
            let bt = order.iter().take_while(|&&i| seqs[i].len() > t).count();
            for (j, &i) in order[..bt].iter().enumerate() {
                hx.row_mut(j)[h..].copy_from_slice(seqs[i][t].row(0));
            }
            matmul_into(&hx.rows_view(0, bt), &w.view(), &mut gates);
            gates.add_row_assign(&b);
            activate_gates(&mut gates, h);
            for (j, &i) in order[..bt].iter().enumerate() {
                let (g, hj, cj) = (gates.row(j), &mut hx.row_mut(j)[..h], c.row_mut(j));
                for u in 0..h {
                    // c = f ⊙ c + i ⊙ c̃, h = o ⊙ tanh(c): the tape's ops.
                    cj[u] = g[u] * cj[u] + g[h + u] * g[2 * h + u];
                    hj[u] = g[3 * h + u] * cj[u].tanh();
                }
                if seqs[i].len() == t + 1 {
                    finals.row_mut(i).copy_from_slice(hj);
                }
            }
        }
        finals
    }

    /// Batch indices by `(length desc, index)`, once the batch is checked.
    fn longest_first(&self, seqs: &[&[Matrix]]) -> Vec<usize> {
        assert!(!seqs.is_empty(), "eval_last_batch: empty batch");
        for (i, s) in seqs.iter().enumerate() {
            assert!(!s.is_empty(), "eval_last_batch: empty sequence {i}");
            for m in *s {
                assert_eq!(
                    m.shape(),
                    (1, self.input_dim),
                    "eval_last_batch: sequence {i} step shape"
                );
            }
        }
        let mut order: Vec<usize> = (0..seqs.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(seqs[i].len()), i));
        order
    }

    pub fn params(&self) -> Vec<Param> {
        vec![self.w.clone(), self.b.clone()]
    }
}

/// The fused gate activations, in place on `x·W + b`: σ on the forget,
/// input and output blocks, tanh on the cell block.
pub(crate) fn activate_gates(v: &mut Matrix, hidden: usize) {
    let sigmoid = |x: f32| 1.0 / (1.0 + (-x).exp());
    for r in 0..v.rows() {
        for (c, pre) in v.row_mut(r).iter_mut().enumerate() {
            let cell = c >= 2 * hidden && c < 3 * hidden;
            *pre = if cell { pre.tanh() } else { sigmoid(*pre) };
        }
    }
}

/// Unidirectional LSTM over a sequence of `1 x input` rows; returns the final
/// hidden state (`1 x hidden`).
pub struct Lstm {
    cell: LstmCell,
}

impl Lstm {
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut StdRng) -> Self {
        Self {
            cell: LstmCell::new(input_dim, hidden_dim, rng),
        }
    }

    pub fn hidden_dim(&self) -> usize {
        self.cell.hidden_dim()
    }

    pub fn input_dim(&self) -> usize {
        self.cell.input_dim()
    }

    /// Run over `seq` (each element `1 x input`), returning the last hidden
    /// state. Panics on an empty sequence.
    pub fn forward_last<'t>(&self, tape: &'t Tape, seq: &[Var<'t>]) -> Var<'t> {
        assert!(!seq.is_empty(), "Lstm::forward_last: empty sequence");
        let mut state = self.cell.zero_state(tape, 1);
        for &x in seq {
            state = self.cell.step(tape, x, &state);
        }
        state.h
    }

    /// [`LstmCell::eval_last_batch`].
    pub fn eval_last_batch(&self, seqs: &[&[Matrix]]) -> Matrix {
        self.cell.eval_last_batch(seqs)
    }

    pub fn params(&self) -> Vec<Param> {
        self.cell.params()
    }
}

/// Bidirectional LSTM: forward and backward passes concatenated
/// (`1 x 2*hidden` output).
pub struct BiLstm {
    fwd: LstmCell,
    bwd: LstmCell,
}

impl BiLstm {
    pub fn new(input_dim: usize, hidden_dim: usize, rng: &mut StdRng) -> Self {
        Self {
            fwd: LstmCell::new(input_dim, hidden_dim, rng),
            bwd: LstmCell::new(input_dim, hidden_dim, rng),
        }
    }

    pub fn out_dim(&self) -> usize {
        2 * self.fwd.hidden_dim()
    }

    /// Final states of both directions, concatenated.
    pub fn forward_last<'t>(&self, tape: &'t Tape, seq: &[Var<'t>]) -> Var<'t> {
        assert!(!seq.is_empty(), "BiLstm::forward_last: empty sequence");
        let mut fs = self.fwd.zero_state(tape, 1);
        for &x in seq {
            fs = self.fwd.step(tape, x, &fs);
        }
        let mut bs = self.bwd.zero_state(tape, 1);
        for &x in seq.iter().rev() {
            bs = self.bwd.step(tape, x, &bs);
        }
        Var::concat_cols(&[fs.h, bs.h])
    }

    pub fn params(&self) -> Vec<Param> {
        let mut p = self.fwd.params();
        p.extend(self.bwd.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::SeedableRng;

    #[test]
    fn state_shapes() {
        let mut rng = StdRng::seed_from_u64(5);
        let cell = LstmCell::new(4, 6, &mut rng);
        let tape = Tape::new();
        let st = cell.zero_state(&tape, 2);
        let x = tape.constant(Matrix::zeros(2, 4));
        let next = cell.step(&tape, x, &st);
        assert_eq!(next.h.shape(), (2, 6));
        assert_eq!(next.c.shape(), (2, 6));
    }

    #[test]
    #[should_panic(expected = "empty sequence")]
    fn empty_sequence_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let lstm = Lstm::new(3, 4, &mut rng);
        let tape = Tape::new();
        let _ = lstm.forward_last(&tape, &[]);
    }

    #[test]
    fn bilstm_output_dim_doubles() {
        let mut rng = StdRng::seed_from_u64(5);
        let bi = BiLstm::new(3, 4, &mut rng);
        let tape = Tape::new();
        let seq: Vec<_> = (0..3).map(|_| tape.constant(Matrix::zeros(1, 3))).collect();
        assert_eq!(bi.forward_last(&tape, &seq).shape(), (1, 8));
    }

    fn bits_eq(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// The pre-fusion step: four separate matmul → add_row → activation
    /// chains in tape order f, i, c̃, o, fed by per-gate parameters.
    fn reference_step<'t>(
        tape: &'t Tape,
        w: &[Param],
        b: &[Param],
        x: Var<'t>,
        state: &LstmState<'t>,
    ) -> LstmState<'t> {
        let hx = Var::concat_cols(&[state.h, x]);
        let f = hx
            .matmul(tape.param(&w[0]))
            .add_row(tape.param(&b[0]))
            .sigmoid();
        let i = hx
            .matmul(tape.param(&w[1]))
            .add_row(tape.param(&b[1]))
            .sigmoid();
        let c_tilde = hx
            .matmul(tape.param(&w[2]))
            .add_row(tape.param(&b[2]))
            .tanh();
        let o = hx
            .matmul(tape.param(&w[3]))
            .add_row(tape.param(&b[3]))
            .sigmoid();
        let c = f.mul_elem(state.c).add(i.mul_elem(c_tilde));
        let h = o.mul_elem(c.tanh());
        LstmState { h, c }
    }

    #[test]
    fn fused_step_matches_four_matmul_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(77);
        let cell = LstmCell::new(3, 4, &mut rng);
        let h = cell.hidden_dim();
        let fused = cell.params();
        let (w_fused, b_fused) = (fused[0].value().clone(), fused[1].value().clone());
        // Per-gate reference params are slices of the fused buffers.
        let w_ref: Vec<Param> = (0..4)
            .map(|g| Param::new(w_fused.slice_cols(g * h, (g + 1) * h)))
            .collect();
        let b_ref: Vec<Param> = (0..4)
            .map(|g| Param::new(b_fused.slice_cols(g * h, (g + 1) * h)))
            .collect();

        let seq: Vec<Matrix> = (0..3)
            .map(|t| Matrix::from_fn(2, 3, |r, c| ((t * 6 + r * 3 + c) as f32 * 0.21).sin()))
            .collect();

        // Fused: unroll three steps and take a scalar loss over the last h.
        let tape = Tape::new();
        let mut st = cell.zero_state(&tape, 2);
        for m in &seq {
            st = cell.step(&tape, tape.constant(m.clone()), &st);
        }
        let h_fused = st.h.value();
        let c_fused = st.c.value();
        let g_fused =
            st.h.sum_rows()
                .matmul(tape.constant(Matrix::col_vec(vec![1.0; h])))
                .backward(&fused);

        // Reference: same unroll with the four-matmul step.
        let tape2 = Tape::new();
        let mut st2 = LstmState {
            h: tape2.constant(Matrix::zeros(2, h)),
            c: tape2.constant(Matrix::zeros(2, h)),
        };
        for m in &seq {
            st2 = reference_step(&tape2, &w_ref, &b_ref, tape2.constant(m.clone()), &st2);
        }
        assert!(bits_eq(&h_fused, &st2.h.value()), "h diverged");
        assert!(bits_eq(&c_fused, &st2.c.value()), "c diverged");
        let ref_params: Vec<Param> = w_ref.iter().chain(&b_ref).cloned().collect();
        let g_ref = st2
            .h
            .sum_rows()
            .matmul(tape2.constant(Matrix::col_vec(vec![1.0; h])))
            .backward(&ref_params);

        // Fused gradients block-match the per-gate reference gradients.
        for g in 0..4 {
            let wg = g_fused[0].slice_cols(g * h, (g + 1) * h);
            assert!(bits_eq(&wg, &g_ref[g]), "w grad gate {g}");
            let bg = g_fused[1].slice_cols(g * h, (g + 1) * h);
            assert!(bits_eq(&bg, &g_ref[4 + g]), "b grad gate {g}");
        }
    }

    #[test]
    fn eval_last_batch_matches_the_tape_bitwise() {
        let mut rng = StdRng::seed_from_u64(32);
        let lstm = Lstm::new(3, 5, &mut rng);
        for lens in [&[1usize][..], &[2, 5, 1, 5, 3], &[17, 1, 2]] {
            let seqs: Vec<Vec<Matrix>> = lens
                .iter()
                .enumerate()
                .map(|(i, &len)| {
                    (0..len)
                        .map(|t| Matrix::from_fn(1, 3, |_, c| ((i * 7 + t * 3 + c) as f32).cos()))
                        .collect()
                })
                .collect();
            let borrowed: Vec<&[Matrix]> = seqs.iter().map(Vec::as_slice).collect();
            let eval = lstm.eval_last_batch(&borrowed);
            assert_eq!(eval.shape(), (seqs.len(), 5));
            // Each row is its sequence unrolled alone on the training tape.
            for (i, seq) in seqs.iter().enumerate() {
                let tape = Tape::new();
                let vars: Vec<_> = seq.iter().map(|m| tape.constant(m.clone())).collect();
                let taped = lstm.forward_last(&tape, &vars).value();
                assert!(
                    bits_eq(&eval.slice_rows(i, i + 1), &taped),
                    "{lens:?} row {i}"
                );
            }
        }
    }

    #[test]
    fn lstm_learns_order_sensitive_task() {
        // Classify whether the "impulse" arrives in the first or the second
        // half of the sequence — impossible for a bag-of-steps model, easy
        // for an LSTM. Checks that gradients flow through the unrolled cell.
        let mut rng = StdRng::seed_from_u64(9);
        let lstm = Lstm::new(1, 8, &mut rng);
        let head = crate::layers::mlp::Mlp::new(&[8, 2], &mut rng);
        let mut params = lstm.params();
        params.extend(head.params());
        let mut opt = Adam::new(params.clone(), 0.02);

        let make_seq = |pos: usize| -> Vec<Matrix> {
            (0..6)
                .map(|t| Matrix::from_vec(1, 1, vec![if t == pos { 1.0 } else { 0.0 }]))
                .collect()
        };
        let data: Vec<(Vec<Matrix>, usize)> =
            (0..6).map(|p| (make_seq(p), usize::from(p >= 3))).collect();

        let mut last = f32::MAX;
        for _ in 0..150 {
            let tape = Tape::new();
            let mut losses = Vec::new();
            for (seq, label) in &data {
                let vars: Vec<_> = seq.iter().map(|m| tape.constant(m.clone())).collect();
                let h = lstm.forward_last(&tape, &vars);
                let logits = head.forward(&tape, h);
                losses.push(logits.softmax_cross_entropy(&[*label]));
            }
            let mut total = losses[0];
            for l in &losses[1..] {
                total = total.add(*l);
            }
            let loss = total.scale(1.0 / losses.len() as f32);
            last = loss.value()[(0, 0)];
            opt.step(&loss.backward(&params));
        }
        assert!(last < 0.1, "final loss {last}");
    }
}
