//! Reverse-mode automatic differentiation over [`Matrix`] values.
//!
//! A [`Tape`] records the forward computation as a flat list of nodes; calling
//! [`Var::backward`] walks the list in reverse and returns the gradients of
//! the parameters it is given. Trainable parameters are [`Param`]s: shared
//! *values* that outlive the tape and cross threads, so any number of tapes
//! on any number of threads read the same model while the one optimiser
//! updates it between batches. A pass writes nothing into a parameter.
//!
//! The backward pass is zero-clone: each node's gradient is taken by move,
//! mutated in place where the op allows it (activations, scales), and moved
//! into the last input of every fan-out instead of cloned. Subtrees with no
//! parameter underneath are skipped entirely; `tests/backward_allocs.rs`
//! caps the allocator calls a pass makes.

use crate::matrix::Matrix;
use graphalgo::CsrMatrix;
use std::cell::RefCell;
use std::sync::{Arc, RwLock, RwLockReadGuard};

/// A sparse square operand for tape products: a CSR matrix paired with its
/// precomputed transpose, both behind `Arc` so prepared graphs clone
/// cheaply. The transpose is built once up front because the backward pass
/// multiplies by it, and the CSR-transpose construction emits each row's
/// entries in ascending original-row order — the accumulation order that
/// keeps spmm gradients bitwise identical to the dense `matmul_at_b` path
/// (DESIGN.md §10).
#[derive(Clone, Debug)]
pub struct SparseAdj {
    fwd: Arc<CsrMatrix>,
    bwd: Arc<CsrMatrix>,
}

impl SparseAdj {
    pub fn new(m: CsrMatrix) -> Self {
        let t = m.transpose();
        Self {
            fwd: Arc::new(m),
            bwd: Arc::new(t),
        }
    }

    pub fn n(&self) -> usize {
        self.fwd.n()
    }

    pub fn nnz(&self) -> usize {
        self.fwd.nnz()
    }

    /// The forward operand.
    pub fn matrix(&self) -> &CsrMatrix {
        &self.fwd
    }

    /// Materialise the forward operand as a dense matrix, for consumers
    /// that still need the O(n²) form.
    pub fn to_dense(&self) -> Matrix {
        let n = self.fwd.n();
        let mut out = Matrix::zeros(n, n);
        for r in 0..n {
            for (c, v) in self.fwd.row(r) {
                out[(r, c)] = v;
            }
        }
        out
    }
}

/// A trainable parameter: a value matrix shared by every holder of a clone,
/// `Send + Sync`. It has no gradient slot — [`Var::backward`] returns the
/// gradients and [`crate::optim::Adam::step`] takes them.
///
/// A poisoned lock is **not** recovered: only a writer can poison it, a
/// writer is an optimiser step (or a weight load), and one that panicked
/// midway leaves a half-written matrix no reader should trust. A panicking
/// reader poisons nothing.
#[derive(Clone)]
pub struct Param {
    value: Arc<RwLock<Matrix>>,
}

const POISONED: &str =
    "parameter lock poisoned: a writer panicked mid-update and left a half-written matrix";

impl Param {
    pub fn new(value: Matrix) -> Self {
        Self {
            value: Arc::new(RwLock::new(value)),
        }
    }

    /// Read access to the value. Drop the guard before anything that could
    /// lock this parameter again.
    pub fn value(&self) -> RwLockReadGuard<'_, Matrix> {
        self.value.read().expect(POISONED)
    }

    /// Apply `f(value)` under the write lock — how optimisers step in place.
    pub fn update(&self, f: impl FnOnce(&mut Matrix)) {
        f(&mut self.value.write().expect(POISONED));
    }

    /// Shape of the parameter value.
    pub fn shape(&self) -> (usize, usize) {
        self.value().shape()
    }

    /// Replace the value (e.g. when loading a saved model).
    pub fn set_value(&self, value: Matrix) {
        assert_eq!(
            self.shape(),
            value.shape(),
            "Param::set_value shape mismatch"
        );
        self.update(|v| *v = value);
    }

    fn same(&self, other: &Param) -> bool {
        Arc::ptr_eq(&self.value, &other.value)
    }
}

enum Op {
    /// Constant input; no gradient flows out.
    Leaf,
    /// Parameter input; its gradient lands in the slot `backward` returns
    /// for it.
    ParamLeaf(Param),
    MatMul(usize, usize),
    Add(usize, usize),
    Sub(usize, usize),
    MulElem(usize, usize),
    /// X (n×d) + broadcast row b (1×d).
    AddRow(usize, usize),
    Scale(usize, f32),
    Relu(usize),
    Sigmoid(usize),
    Tanh(usize),
    Transpose(usize),
    ConcatCols(Vec<usize>),
    ConcatRows(Vec<usize>),
    SliceCols(usize, usize, usize),
    /// Sparse·dense product `A · x` with a CSR operand.
    Spmm {
        x: usize,
        adj: SparseAdj,
    },
    /// Dense·sparse product `x · A` with a CSR operand.
    SpmmRight {
        x: usize,
        adj: SparseAdj,
    },
    /// Fused LSTM gate block: `σ/σ/tanh/σ` column blocks of `x·W + b`,
    /// where W is `(d × 4h)` with column blocks `[forget|input|cell|output]`.
    /// `W` and `b` get their gradients as whole fused matrices.
    LstmGates {
        x: usize,
        w: Param,
        b: Param,
        hidden: usize,
    },
    /// Column-wise sum RxC -> 1xC.
    SumRows(usize),
    /// Column-wise mean RxC -> 1xC.
    MeanRows(usize),
    /// Column-wise max RxC -> 1xC, with saved argmax rows.
    MaxRows(usize, Vec<usize>),
    /// Row-wise softmax (saved output used in backward).
    SoftmaxRows(usize),
    /// Mean softmax cross-entropy over rows of logits against class indices.
    SoftmaxCrossEntropy(usize, Vec<usize>),
}

struct Node {
    op: Op,
    value: Matrix,
    grad: Option<Matrix>,
}

/// Records a forward computation for reverse-mode differentiation.
#[derive(Default)]
pub struct Tape {
    nodes: RefCell<Vec<Node>>,
}

/// A handle to a value on a [`Tape`].
#[derive(Clone, Copy)]
pub struct Var<'t> {
    tape: &'t Tape,
    idx: usize,
}

impl Tape {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded nodes.
    pub fn len(&self) -> usize {
        self.nodes.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.borrow().is_empty()
    }

    fn push(&self, op: Op, value: Matrix) -> Var<'_> {
        debug_assert!(value.all_finite(), "non-finite value pushed to tape");
        let mut nodes = self.nodes.borrow_mut();
        nodes.push(Node {
            op,
            value,
            grad: None,
        });
        Var {
            tape: self,
            idx: nodes.len() - 1,
        }
    }

    /// Record a constant (no gradient).
    pub fn constant(&self, value: Matrix) -> Var<'_> {
        self.push(Op::Leaf, value)
    }

    /// Record a parameter (a copy of its current value).
    pub fn param(&self, p: &Param) -> Var<'_> {
        let value = p.value().clone();
        self.push(Op::ParamLeaf(p.clone()), value)
    }

    fn value_of(&self, idx: usize) -> Matrix {
        self.nodes.borrow()[idx].value.clone()
    }
}

impl<'t> Var<'t> {
    /// Clone of the stored value.
    pub fn value(&self) -> Matrix {
        self.tape.value_of(self.idx)
    }

    /// `(rows, cols)` of the stored value.
    pub fn shape(&self) -> (usize, usize) {
        self.tape.nodes.borrow()[self.idx].value.shape()
    }

    fn binary(self, rhs: Var<'t>, value: Matrix, op: Op) -> Var<'t> {
        debug_assert!(
            std::ptr::eq(self.tape, rhs.tape),
            "vars from different tapes"
        );
        let _ = &op;
        self.tape.push(op, value)
    }

    /// Matrix product.
    pub fn matmul(self, rhs: Var<'t>) -> Var<'t> {
        let v = self.value().matmul(&rhs.value());
        self.binary(rhs, v, Op::MatMul(self.idx, rhs.idx))
    }

    // `add`/`sub` mirror the other tape-op names (`matmul`, `mul_elem`);
    // `std::ops` impls would hide the tape recording behind operators.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Var<'t>) -> Var<'t> {
        let v = self.value().add(&rhs.value());
        self.binary(rhs, v, Op::Add(self.idx, rhs.idx))
    }

    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Var<'t>) -> Var<'t> {
        let v = self.value().sub(&rhs.value());
        self.binary(rhs, v, Op::Sub(self.idx, rhs.idx))
    }

    pub fn mul_elem(self, rhs: Var<'t>) -> Var<'t> {
        let v = self.value().mul_elem(&rhs.value());
        self.binary(rhs, v, Op::MulElem(self.idx, rhs.idx))
    }

    /// Add a 1xC row vector to every row.
    pub fn add_row(self, row: Var<'t>) -> Var<'t> {
        let v = self.value().add_row_broadcast(&row.value());
        self.binary(row, v, Op::AddRow(self.idx, row.idx))
    }

    pub fn scale(self, s: f32) -> Var<'t> {
        let v = self.value().scale(s);
        self.tape.push(Op::Scale(self.idx, s), v)
    }

    pub fn relu(self) -> Var<'t> {
        let v = self.value().map(|x| x.max(0.0));
        self.tape.push(Op::Relu(self.idx), v)
    }

    pub fn sigmoid(self) -> Var<'t> {
        let v = self.value().map(|x| 1.0 / (1.0 + (-x).exp()));
        self.tape.push(Op::Sigmoid(self.idx), v)
    }

    pub fn tanh(self) -> Var<'t> {
        let v = self.value().map(f32::tanh);
        self.tape.push(Op::Tanh(self.idx), v)
    }

    pub fn transpose(self) -> Var<'t> {
        let v = self.value().transpose();
        self.tape.push(Op::Transpose(self.idx), v)
    }

    /// Column-wise sum to a 1xC row.
    pub fn sum_rows(self) -> Var<'t> {
        let v = self.value().sum_rows();
        self.tape.push(Op::SumRows(self.idx), v)
    }

    /// Column-wise mean to a 1xC row.
    pub fn mean_rows(self) -> Var<'t> {
        let v = self.value().mean_rows();
        self.tape.push(Op::MeanRows(self.idx), v)
    }

    /// Column-wise max to a 1xC row.
    pub fn max_rows(self) -> Var<'t> {
        let (v, args) = self.value().max_rows();
        self.tape.push(Op::MaxRows(self.idx, args), v)
    }

    /// Row-wise softmax.
    pub fn softmax_rows(self) -> Var<'t> {
        let v = self.value().softmax_rows();
        self.tape.push(Op::SoftmaxRows(self.idx), v)
    }

    /// Copy of columns `[start, end)`.
    pub fn slice_cols(self, start: usize, end: usize) -> Var<'t> {
        let v = self.value().slice_cols(start, end);
        self.tape.push(Op::SliceCols(self.idx, start, end), v)
    }

    /// Sparse·dense product `adj · self` where `adj` is an n×n CSR operand
    /// and `self` is n×d. Forward and backward only touch structural
    /// non-zeros, and both are bitwise identical to the dense
    /// `adj.matmul(x)` path on finite data (DESIGN.md §10).
    pub fn spmm(self, adj: &SparseAdj) -> Var<'t> {
        let x = self.value();
        assert_eq!(
            x.rows(),
            adj.n(),
            "spmm: {}x{} vs n={}",
            x.rows(),
            x.cols(),
            adj.n()
        );
        let d = x.cols();
        let v = Matrix::from_vec(x.rows(), d, adj.matrix().matmul_dense(x.as_slice(), d));
        self.tape.push(
            Op::Spmm {
                x: self.idx,
                adj: adj.clone(),
            },
            v,
        )
    }

    /// Dense·sparse product `self · adj` where `self` is m×n and `adj` is
    /// an n×n CSR operand. Same bitwise-equivalence contract as [`Var::spmm`].
    pub fn matmul_sp(self, adj: &SparseAdj) -> Var<'t> {
        let x = self.value();
        assert_eq!(
            x.cols(),
            adj.n(),
            "matmul_sp: {}x{} vs n={}",
            x.rows(),
            x.cols(),
            adj.n()
        );
        let m = x.rows();
        let v = Matrix::from_vec(m, adj.n(), adj.matrix().rmatmul_dense(x.as_slice(), m));
        self.tape.push(
            Op::SpmmRight {
                x: self.idx,
                adj: adj.clone(),
            },
            v,
        )
    }

    /// Fused LSTM gate block: one `(d × 4h)` matmul plus bias and per-block
    /// activation, producing `[σ(f) | σ(i) | tanh(c̃) | σ(o)]` (n×4h). The
    /// column blocks are bitwise identical to four separate per-gate
    /// `matmul → add_row → activation` chains over the corresponding weight
    /// columns, in both the forward and the backward pass.
    pub fn lstm_gates(self, w: &Param, b: &Param, hidden: usize) -> Var<'t> {
        let x = self.value();
        let mut v = {
            let w = w.value();
            assert_eq!(
                w.cols(),
                4 * hidden,
                "lstm_gates: W must have 4·hidden columns"
            );
            x.matmul(&w).add_row_broadcast(&b.value())
        };
        crate::layers::lstm::activate_gates(&mut v, hidden);
        self.tape.push(
            Op::LstmGates {
                x: self.idx,
                w: w.clone(),
                b: b.clone(),
                hidden,
            },
            v,
        )
    }

    /// Horizontal concatenation.
    pub fn concat_cols(parts: &[Var<'t>]) -> Var<'t> {
        assert!(!parts.is_empty(), "concat_cols: empty input");
        let tape = parts[0].tape;
        let values: Vec<Matrix> = parts.iter().map(|p| p.value()).collect();
        let refs: Vec<&Matrix> = values.iter().collect();
        let v = Matrix::concat_cols(&refs);
        tape.push(Op::ConcatCols(parts.iter().map(|p| p.idx).collect()), v)
    }

    /// Vertical concatenation.
    pub fn concat_rows(parts: &[Var<'t>]) -> Var<'t> {
        assert!(!parts.is_empty(), "concat_rows: empty input");
        let tape = parts[0].tape;
        let values: Vec<Matrix> = parts.iter().map(|p| p.value()).collect();
        let refs: Vec<&Matrix> = values.iter().collect();
        let v = Matrix::concat_rows(&refs);
        tape.push(Op::ConcatRows(parts.iter().map(|p| p.idx).collect()), v)
    }

    /// Mean softmax cross-entropy loss of `self` (logits, BxC) against class
    /// indices. Output is 1x1.
    pub fn softmax_cross_entropy(self, targets: &[usize]) -> Var<'t> {
        let logits = self.value();
        assert_eq!(
            logits.rows(),
            targets.len(),
            "cross_entropy: batch mismatch"
        );
        let probs = logits.softmax_rows();
        let mut nll = 0.0f64;
        for (r, &t) in targets.iter().enumerate() {
            assert!(
                t < logits.cols(),
                "cross_entropy: target class out of range"
            );
            nll -= (probs[(r, t)].max(1e-12) as f64).ln();
        }
        let loss = (nll / targets.len() as f64) as f32;
        self.tape.push(
            Op::SoftmaxCrossEntropy(self.idx, targets.to_vec()),
            Matrix::from_vec(1, 1, vec![loss]),
        )
    }

    /// Run the backward pass seeded with dL/dself = 1 (self must be 1x1) and
    /// return dL/dp for each of `params`, positionally.
    ///
    /// Every slot starts as zeros and receives its contributions in
    /// reverse-tape order, so a parameter used twice gets the sum and one the
    /// loss never reaches gets zeros. A parameter on the tape but absent
    /// from `params` receives nothing.
    ///
    /// Gradients are moved, not cloned: a node's gradient is taken out of
    /// the node, reused in place where the op's derivative allows it, and
    /// moved into the last gradient-requiring input of each fan-out.
    /// Subtrees that contain no parameter are skipped entirely, and interior
    /// gradients are consumed: the returned matrices are all that is left.
    pub fn backward(self, params: &[Param]) -> Vec<Matrix> {
        let mut out: Vec<Matrix> = params
            .iter()
            .map(|p| {
                let (r, c) = p.shape();
                Matrix::zeros(r, c)
            })
            .collect();
        let mut deliver = |p: &Param, g: &Matrix| {
            if let Some(slot) = params.iter().position(|q| q.same(p)) {
                out[slot].add_assign(g);
            }
        };
        let mut nodes = self.tape.nodes.borrow_mut();
        {
            let node = &mut nodes[self.idx];
            assert_eq!(
                node.value.shape(),
                (1, 1),
                "backward() must start from a scalar"
            );
            node.grad = Some(Matrix::ones(1, 1));
        }
        let needs = requires_grad(&nodes, self.idx);
        for i in (0..=self.idx).rev() {
            // Inputs always precede their consumer on the tape, so splitting
            // at `i` lets us hold the consumer and write into its inputs
            // without cloning anything.
            let (lower, upper) = nodes.split_at_mut(i);
            let node = &mut upper[0];
            let Some(mut grad) = node.grad.take() else {
                continue;
            };
            match &node.op {
                Op::Leaf => {}
                Op::ParamLeaf(p) => deliver(p, &grad),
                Op::MatMul(a, b) => {
                    if needs[*a] {
                        let ga = grad.matmul_a_bt(&lower[*b].value);
                        accumulate(lower, *a, ga);
                    }
                    if needs[*b] {
                        let gb = lower[*a].value.matmul_at_b(&grad);
                        accumulate(lower, *b, gb);
                    }
                }
                Op::Add(a, b) => match (needs[*a], needs[*b]) {
                    (true, true) => {
                        accumulate(lower, *a, grad.clone());
                        accumulate(lower, *b, grad);
                    }
                    (true, false) => accumulate(lower, *a, grad),
                    (false, true) => accumulate(lower, *b, grad),
                    (false, false) => {}
                },
                Op::Sub(a, b) => match (needs[*a], needs[*b]) {
                    (true, true) => {
                        let mut gb = grad.clone();
                        gb.map_assign(|v| -v);
                        accumulate(lower, *a, grad);
                        accumulate(lower, *b, gb);
                    }
                    (true, false) => accumulate(lower, *a, grad),
                    (false, true) => {
                        grad.map_assign(|v| -v);
                        accumulate(lower, *b, grad);
                    }
                    (false, false) => {}
                },
                Op::MulElem(a, b) => {
                    // `ga` must come from the un-mutated grad, so compute it
                    // before reusing the buffer for `gb`.
                    let ga = needs[*a].then(|| grad.mul_elem(&lower[*b].value));
                    if let Some(ga) = ga {
                        accumulate(lower, *a, ga);
                    }
                    if needs[*b] {
                        grad.zip_assign(&lower[*a].value, |g, x| g * x);
                        accumulate(lower, *b, grad);
                    }
                }
                Op::AddRow(a, b) => {
                    let gb = needs[*b].then(|| grad.sum_rows());
                    if needs[*a] {
                        accumulate(lower, *a, grad);
                    }
                    if let Some(gb) = gb {
                        accumulate(lower, *b, gb);
                    }
                }
                Op::Scale(a, s) => {
                    if needs[*a] {
                        let s = *s;
                        grad.map_assign(|v| v * s);
                        accumulate(lower, *a, grad);
                    }
                }
                Op::Relu(a) => {
                    if needs[*a] {
                        grad.zip_assign(&lower[*a].value, |g, x| if x > 0.0 { g } else { 0.0 });
                        accumulate(lower, *a, grad);
                    }
                }
                Op::Sigmoid(a) => {
                    if needs[*a] {
                        grad.zip_assign(&node.value, |g, y| g * y * (1.0 - y));
                        accumulate(lower, *a, grad);
                    }
                }
                Op::Tanh(a) => {
                    if needs[*a] {
                        grad.zip_assign(&node.value, |g, y| g * (1.0 - y * y));
                        accumulate(lower, *a, grad);
                    }
                }
                Op::Transpose(a) => {
                    if needs[*a] {
                        accumulate(lower, *a, grad.transpose());
                    }
                }
                Op::ConcatCols(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let w = lower[p].value.cols();
                        if needs[p] {
                            accumulate(lower, p, grad.slice_cols(off, off + w));
                        }
                        off += w;
                    }
                }
                Op::ConcatRows(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let h = lower[p].value.rows();
                        if needs[p] {
                            accumulate(lower, p, grad.slice_rows(off, off + h));
                        }
                        off += h;
                    }
                }
                Op::SliceCols(a, start, end) => {
                    if needs[*a] {
                        // Write straight into the parent's grad buffer: add
                        // into the column block if one exists, otherwise
                        // install a fresh scatter by copy.
                        let parent = &mut lower[*a];
                        match &mut parent.grad {
                            Some(existing) => existing.add_assign_cols(*start, &grad),
                            slot @ None => {
                                let mut g = Matrix::zeros(parent.value.rows(), parent.value.cols());
                                for r in 0..grad.rows() {
                                    g.row_mut(r)[*start..*end].copy_from_slice(grad.row(r));
                                }
                                *slot = Some(g);
                            }
                        }
                    }
                }
                Op::Spmm { x, adj } => {
                    if needs[*x] {
                        // dL/dx = Aᵀ · grad; the CSR transpose accumulates
                        // each output element's k-terms in ascending order,
                        // matching dense `matmul_at_b` bitwise.
                        let d = grad.cols();
                        let g = Matrix::from_vec(
                            grad.rows(),
                            d,
                            adj.bwd.matmul_dense(grad.as_slice(), d),
                        );
                        accumulate(lower, *x, g);
                    }
                }
                Op::SpmmRight { x, adj } => {
                    if needs[*x] {
                        // dL/dx = grad · Aᵀ.
                        let m = grad.rows();
                        let g =
                            Matrix::from_vec(m, adj.n(), adj.bwd.rmatmul_dense(grad.as_slice(), m));
                        accumulate(lower, *x, g);
                    }
                }
                Op::LstmGates { x, w, b, hidden } => {
                    let h = *hidden;
                    let (c_lo, c_hi) = (2 * h, 3 * h);
                    // grad → pre-activation grad in place, per column block:
                    // σ' for f/i/o, tanh' for c̃ — the same elementwise
                    // expressions as the standalone Sigmoid/Tanh ops.
                    let y = &node.value;
                    for r in 0..grad.rows() {
                        let yr = y.row(r);
                        for (c, g) in grad.row_mut(r).iter_mut().enumerate() {
                            let yv = yr[c];
                            *g = if c >= c_lo && c < c_hi {
                                *g * (1.0 - yv * yv)
                            } else {
                                *g * yv * (1.0 - yv)
                            };
                        }
                    }
                    let x_val = &lower[*x].value;
                    deliver(w, &x_val.matmul_at_b(&grad));
                    deliver(b, &grad.sum_rows());
                    if needs[*x] {
                        // Per-gate contributions added in reverse gate order
                        // (o, c̃, i, f) to reproduce the accumulation order
                        // of four separate matmul nodes walked in reverse.
                        // The gate blocks of W and of the pre-activation
                        // gradient are borrowed as column views — the a·bᵀ
                        // kernel is stride-oblivious, so nothing is copied
                        // out and the products stay bitwise identical to
                        // the sliced formulation.
                        let w_val = w.value();
                        let mut total: Option<Matrix> = None;
                        for gate in (0..4).rev() {
                            let wg = w_val.cols_view(gate * h, (gate + 1) * h);
                            let gp = grad.cols_view(gate * h, (gate + 1) * h);
                            let contrib = crate::matrix::matmul_a_bt_views(&gp, &wg);
                            match &mut total {
                                Some(t) => t.add_assign(&contrib),
                                None => total = Some(contrib),
                            }
                        }
                        drop(w_val);
                        accumulate(lower, *x, total.expect("four gate blocks"));
                    }
                }
                Op::SumRows(a) => {
                    if needs[*a] {
                        let n = lower[*a].value.rows();
                        let mut g = Matrix::zeros(n, grad.cols());
                        for r in 0..n {
                            g.row_mut(r).copy_from_slice(grad.row(0));
                        }
                        accumulate(lower, *a, g);
                    }
                }
                Op::MeanRows(a) => {
                    let n = lower[*a].value.rows();
                    if needs[*a] && n > 0 {
                        let inv = 1.0 / n as f32;
                        grad.map_assign(|v| v * inv);
                        let mut g = Matrix::zeros(n, grad.cols());
                        for r in 0..n {
                            g.row_mut(r).copy_from_slice(grad.row(0));
                        }
                        accumulate(lower, *a, g);
                    }
                }
                Op::MaxRows(a, args) => {
                    if needs[*a] {
                        let src = &lower[*a].value;
                        let mut g = Matrix::zeros(src.rows(), src.cols());
                        for (c, &r) in args.iter().enumerate() {
                            g[(r, c)] = grad[(0, c)];
                        }
                        accumulate(lower, *a, g);
                    }
                }
                Op::SoftmaxRows(a) => {
                    if needs[*a] {
                        // dL/dx = y ⊙ (g - rowsum(g ⊙ y))
                        let y = &node.value;
                        let mut g = Matrix::zeros(y.rows(), y.cols());
                        for r in 0..y.rows() {
                            let dot: f32 =
                                grad.row(r).iter().zip(y.row(r)).map(|(&g, &y)| g * y).sum();
                            for c in 0..y.cols() {
                                g[(r, c)] = y[(r, c)] * (grad[(r, c)] - dot);
                            }
                        }
                        accumulate(lower, *a, g);
                    }
                }
                Op::SoftmaxCrossEntropy(a, targets) => {
                    if needs[*a] {
                        let scale = grad[(0, 0)] / targets.len() as f32;
                        let mut g = lower[*a].value.softmax_rows();
                        for (r, &t) in targets.iter().enumerate() {
                            g[(r, t)] -= 1.0;
                        }
                        g.map_assign(|v| v * scale);
                        accumulate(lower, *a, g);
                    }
                }
            }
        }
        out
    }
}

/// Forward requires-grad analysis: a node needs a gradient iff a parameter
/// lives somewhere in its input cone. Constant subtrees (`needs == false`)
/// are skipped by the backward pass — no gradient is computed for or
/// propagated into them.
fn requires_grad(nodes: &[Node], upto: usize) -> Vec<bool> {
    let mut needs = vec![false; upto + 1];
    for i in 0..=upto {
        needs[i] = match &nodes[i].op {
            Op::Leaf => false,
            // Parameters sit either on a leaf or inside the fused LSTM op.
            Op::ParamLeaf(_) | Op::LstmGates { .. } => true,
            Op::MatMul(a, b)
            | Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::MulElem(a, b)
            | Op::AddRow(a, b) => needs[*a] || needs[*b],
            Op::Scale(a, _)
            | Op::Relu(a)
            | Op::Sigmoid(a)
            | Op::Tanh(a)
            | Op::Transpose(a)
            | Op::SliceCols(a, _, _)
            | Op::Spmm { x: a, .. }
            | Op::SpmmRight { x: a, .. }
            | Op::SumRows(a)
            | Op::MeanRows(a)
            | Op::MaxRows(a, _)
            | Op::SoftmaxRows(a)
            | Op::SoftmaxCrossEntropy(a, _) => needs[*a],
            Op::ConcatCols(parts) | Op::ConcatRows(parts) => parts.iter().any(|&p| needs[p]),
        };
    }
    needs
}

fn accumulate(nodes: &mut [Node], idx: usize, g: Matrix) {
    match &mut nodes[idx].grad {
        Some(existing) => existing.add_assign(&g),
        slot @ None => *slot = Some(g),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// dL/dp for the one parameter `p`.
    fn grad_of(loss: Var, p: &Param) -> Matrix {
        loss.backward(std::slice::from_ref(p)).remove(0)
    }

    /// Numerical gradient check: perturb each element of `p`, compare the
    /// finite-difference slope of `loss_fn` with the autograd gradient.
    fn grad_check(p: &Param, loss_fn: &dyn Fn(&Tape) -> f32, analytic: &Matrix, tol: f32) {
        let (rows, cols) = p.shape();
        let eps = 1e-2f32;
        for r in 0..rows {
            for c in 0..cols {
                let orig = p.value()[(r, c)];
                p.update(|v| v[(r, c)] = orig + eps);
                let up = loss_fn(&Tape::new());
                p.update(|v| v[(r, c)] = orig - eps);
                let down = loss_fn(&Tape::new());
                p.update(|v| v[(r, c)] = orig);
                let numeric = (up - down) / (2.0 * eps);
                let a = analytic[(r, c)];
                assert!(
                    (numeric - a).abs() <= tol * (1.0 + numeric.abs().max(a.abs())),
                    "grad mismatch at ({r},{c}): numeric {numeric} vs analytic {a}"
                );
            }
        }
    }

    #[test]
    fn matmul_gradients_match_finite_difference() {
        let w = Param::new(Matrix::from_vec(3, 2, vec![0.5, -0.2, 0.1, 0.7, -0.4, 0.3]));
        let x = Matrix::from_vec(2, 3, vec![1.0, 2.0, -1.0, 0.5, -0.5, 1.5]);
        let loss_fn = |tape: &Tape| -> f32 {
            let xv = tape.constant(x.clone());
            let wv = tape.param(&w);
            let y = xv.matmul(wv).tanh();
            y.sum_rows()
                .matmul(tape.constant(Matrix::col_vec(vec![1.0, 1.0])))
                .value()[(0, 0)]
        };
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let wv = tape.param(&w);
        let y = xv.matmul(wv).tanh();
        let loss = y
            .sum_rows()
            .matmul(tape.constant(Matrix::col_vec(vec![1.0, 1.0])));
        let g = grad_of(loss, &w);
        grad_check(&w, &loss_fn, &g, 1e-2);
    }

    #[test]
    fn cross_entropy_gradients_match_finite_difference() {
        let w = Param::new(Matrix::from_vec(
            4,
            3,
            vec![
                0.1, -0.3, 0.2, 0.4, 0.0, -0.1, -0.2, 0.3, 0.1, 0.2, -0.4, 0.5,
            ],
        ));
        let x = Matrix::from_fn(5, 4, |r, c| ((r * 3 + c) as f32 * 0.13).sin());
        let targets = vec![0usize, 2, 1, 1, 0];
        let loss_fn = |tape: &Tape| -> f32 {
            let xv = tape.constant(x.clone());
            let wv = tape.param(&w);
            xv.matmul(wv).softmax_cross_entropy(&targets).value()[(0, 0)]
        };
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let wv = tape.param(&w);
        let loss = xv.matmul(wv).softmax_cross_entropy(&targets);
        let g = grad_of(loss, &w);
        grad_check(&w, &loss_fn, &g, 2e-2);
    }

    #[test]
    fn sigmoid_tanh_chain_gradcheck() {
        let w = Param::new(Matrix::from_vec(2, 2, vec![0.3, -0.6, 0.9, 0.2]));
        let x = Matrix::from_vec(1, 2, vec![0.7, -1.2]);
        let loss_fn = |tape: &Tape| -> f32 {
            let xv = tape.constant(x.clone());
            let wv = tape.param(&w);
            xv.matmul(wv)
                .sigmoid()
                .tanh()
                .sum_rows()
                .matmul(tape.constant(Matrix::col_vec(vec![1.0, 1.0])))
                .value()[(0, 0)]
        };
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let wv = tape.param(&w);
        let loss = xv
            .matmul(wv)
            .sigmoid()
            .tanh()
            .sum_rows()
            .matmul(tape.constant(Matrix::col_vec(vec![1.0, 1.0])));
        let g = grad_of(loss, &w);
        grad_check(&w, &loss_fn, &g, 1e-2);
    }

    #[test]
    fn concat_and_slice_gradients_flow() {
        let a = Param::new(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let tape = Tape::new();
        let av = tape.param(&a);
        let bv = tape.constant(Matrix::from_vec(1, 2, vec![10.0, 20.0]));
        let cat = Var::concat_rows(&[av, bv]); // 3x2
        let sliced = cat.slice_cols(0, 1); // 3x1
        let loss = tape
            .constant(Matrix::from_vec(1, 3, vec![1.0, 2.0, 3.0]))
            .matmul(sliced);
        // Only the first column of `a` receives gradient: [1, 2].
        let g = grad_of(loss, &a);
        assert_eq!(g.as_slice(), &[1.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn max_rows_routes_gradient_to_argmax() {
        let a = Param::new(Matrix::from_vec(3, 2, vec![1.0, 9.0, 5.0, 2.0, 3.0, 4.0]));
        let tape = Tape::new();
        let av = tape.param(&a);
        let loss = av
            .max_rows()
            .matmul(tape.constant(Matrix::col_vec(vec![1.0, 1.0])));
        let g = grad_of(loss, &a);
        assert_eq!(g.as_slice(), &[0.0, 1.0, 1.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn grad_accumulates_across_reuse() {
        // y = w + w  => dy/dw = 2
        let w = Param::new(Matrix::from_vec(1, 1, vec![3.0]));
        let tape = Tape::new();
        let wv = tape.param(&w);
        let y = wv.add(wv);
        assert_eq!(grad_of(y, &w)[(0, 0)], 2.0);
    }

    #[test]
    fn backward_returns_zeros_for_unreached_and_skips_unlisted_params() {
        let used = Param::new(Matrix::from_vec(1, 1, vec![1.0]));
        let unreached = Param::new(Matrix::from_vec(2, 3, vec![1.0; 6]));
        let tape = Tape::new();
        let loss = tape.param(&used).scale(2.0);
        // `used` is on the tape but not asked for; `unreached` is asked for
        // but not on the tape.
        let g = loss.backward(std::slice::from_ref(&unreached));
        assert_eq!(g, vec![Matrix::zeros(2, 3)]);
        // A pass wrote nothing anywhere: asking again, for both, still works.
        let tape = Tape::new();
        let loss = tape.param(&used).scale(2.0);
        let g = loss.backward(&[unreached, used]);
        assert_eq!(g[0], Matrix::zeros(2, 3));
        assert_eq!(g[1][(0, 0)], 2.0);
    }

    #[test]
    fn poisoned_parameter_is_not_recovered() {
        let p = Param::new(Matrix::zeros(1, 1));
        let q = p.clone();
        let writer = std::thread::spawn(move || q.update(|_| panic!("step died midway")));
        assert!(writer.join().is_err());
        for read in [true, false] {
            let p = p.clone();
            let err = std::thread::spawn(move || {
                if read {
                    drop(p.value());
                } else {
                    p.update(|_| {});
                }
            })
            .join()
            .expect_err("a poisoned parameter must refuse access");
            let msg = err.downcast_ref::<String>().expect("panic message");
            assert!(msg.contains("half-written matrix"), "{msg}");
        }
    }

    #[test]
    fn panicking_reader_poisons_nothing() {
        let p = Param::new(Matrix::from_vec(1, 1, vec![7.0]));
        let q = p.clone();
        let reader = std::thread::spawn(move || {
            let _guard = q.value();
            panic!("reader died holding the guard");
        });
        assert!(reader.join().is_err());
        assert_eq!(p.value()[(0, 0)], 7.0);
        p.update(|v| v[(0, 0)] = 8.0);
        assert_eq!(p.value()[(0, 0)], 8.0);
    }

    #[test]
    fn softmax_rows_backward_matches_cross_entropy_shortcut() {
        // -log(softmax(x)[t]) via explicit ops should match the fused op.
        let w = Param::new(Matrix::from_vec(1, 3, vec![0.2, -0.1, 0.4]));
        let tape = Tape::new();
        let wv = tape.param(&w);
        let fused = wv.softmax_cross_entropy(&[2]);
        let g_fused = grad_of(fused, &w);

        let w2 = Param::new(Matrix::from_vec(1, 3, vec![0.2, -0.1, 0.4]));
        let tape2 = Tape::new();
        let wv2 = tape2.param(&w2);
        let probs = wv2.softmax_rows();
        // loss = -ln(p2): select p2 via matmul with e2, then d(-ln u)/du = -1/u.
        let p2 = probs.matmul(tape2.constant(Matrix::col_vec(vec![0.0, 0.0, 1.0])));
        let u = p2.value()[(0, 0)];
        // seed backward manually with -1/u through a scale
        let loss2 = p2.scale(-1.0 / u); // value = -1; gradient wrt p2 = -1/u
        let g_manual = grad_of(loss2, &w2);
        for c in 0..3 {
            assert!(
                (g_fused[(0, c)] - g_manual[(0, c)]).abs() < 1e-4,
                "col {c}: {} vs {}",
                g_fused[(0, c)],
                g_manual[(0, c)]
            );
        }
    }

    #[test]
    #[should_panic(expected = "scalar")]
    fn backward_from_non_scalar_panics() {
        let tape = Tape::new();
        let v = tape.constant(Matrix::zeros(2, 2));
        v.backward(&[]);
    }

    /// A small CSR operand and its dense twin for equivalence tests.
    fn test_adj() -> (SparseAdj, Matrix) {
        let csr = CsrMatrix::from_triplets(
            4,
            vec![
                (0, 0, 0.5),
                (0, 2, 0.25),
                (1, 1, 1.0),
                (2, 0, 0.25),
                (2, 3, 0.75),
                (3, 2, 0.75),
            ],
        );
        let adj = SparseAdj::new(csr);
        let dense = adj.to_dense();
        (adj, dense)
    }

    fn bits_eq(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.as_slice()
                .iter()
                .zip(b.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn spmm_forward_and_backward_match_dense_bitwise() {
        let (adj, dense) = test_adj();
        let w_init = Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) as f32 * 0.31).sin());
        let x = Matrix::from_fn(4, 3, |r, c| ((r + 2 * c) as f32 * 0.17).cos());

        // Sparse path: loss = sum(A · (x ⊙ broadcast-free w)).
        let w1 = Param::new(w_init.clone());
        let tape1 = Tape::new();
        let h1 = tape1.constant(x.clone()).mul_elem(tape1.param(&w1));
        let y1 = h1.spmm(&adj);
        let loss1 = y1
            .sum_rows()
            .matmul(tape1.constant(Matrix::col_vec(vec![1.0; 3])));
        let g1 = grad_of(loss1, &w1);

        // Dense path: same graph with A as a dense constant matmul.
        let w2 = Param::new(w_init);
        let tape2 = Tape::new();
        let h2 = tape2.constant(x).mul_elem(tape2.param(&w2));
        let y2 = tape2.constant(dense).matmul(h2);
        let loss2 = y2
            .sum_rows()
            .matmul(tape2.constant(Matrix::col_vec(vec![1.0; 3])));
        let g2 = grad_of(loss2, &w2);

        assert!(bits_eq(&y1.value(), &y2.value()), "forward diverged");
        assert!(bits_eq(&g1, &g2), "backward diverged");
    }

    #[test]
    fn matmul_sp_matches_dense_right_product_bitwise() {
        let (adj, dense) = test_adj();
        let w_init = Matrix::from_fn(2, 4, |r, c| ((r * 5 + c) as f32 * 0.23).sin());

        let w1 = Param::new(w_init.clone());
        let tape1 = Tape::new();
        let y1 = tape1.param(&w1).matmul_sp(&adj);
        let loss1 = y1
            .sum_rows()
            .matmul(tape1.constant(Matrix::col_vec(vec![1.0; 4])));
        let g1 = grad_of(loss1, &w1);

        let w2 = Param::new(w_init);
        let tape2 = Tape::new();
        let y2 = tape2.param(&w2).matmul(tape2.constant(dense));
        let loss2 = y2
            .sum_rows()
            .matmul(tape2.constant(Matrix::col_vec(vec![1.0; 4])));
        let g2 = grad_of(loss2, &w2);

        assert!(bits_eq(&y1.value(), &y2.value()), "forward diverged");
        assert!(bits_eq(&g1, &g2), "backward diverged");
    }

    #[test]
    fn spmm_gradients_match_finite_difference() {
        let (adj, _) = test_adj();
        let w = Param::new(Matrix::from_fn(4, 2, |r, c| {
            ((r * 2 + c) as f32 * 0.29).sin()
        }));
        let loss_fn = |tape: &Tape| -> f32 {
            let wv = tape.param(&w);
            wv.spmm(&adj)
                .tanh()
                .sum_rows()
                .matmul(tape.constant(Matrix::col_vec(vec![1.0; 2])))
                .value()[(0, 0)]
        };
        let tape = Tape::new();
        let wv = tape.param(&w);
        let loss = wv
            .spmm(&adj)
            .tanh()
            .sum_rows()
            .matmul(tape.constant(Matrix::col_vec(vec![1.0; 2])));
        let g = grad_of(loss, &w);
        grad_check(&w, &loss_fn, &g, 1e-2);
    }

    #[test]
    fn slice_cols_gradient_scatters_into_block() {
        let a = Param::new(Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        let tape = Tape::new();
        let av = tape.param(&a);
        let mid = av.slice_cols(1, 2); // middle column
        let loss = mid
            .sum_rows()
            .matmul(tape.constant(Matrix::col_vec(vec![1.0])));
        assert_eq!(grad_of(loss, &a).as_slice(), &[0., 1., 0., 0., 1., 0.]);
    }

    #[test]
    fn slice_cols_disjoint_blocks_accumulate() {
        // Two disjoint slices of the same node: both blocks get gradient.
        let a = Param::new(Matrix::from_vec(1, 4, vec![1., 2., 3., 4.]));
        let tape = Tape::new();
        let av = tape.param(&a);
        let left = av.slice_cols(0, 2).scale(2.0);
        let right = av.slice_cols(2, 4).scale(3.0);
        let joined = Var::concat_cols(&[left, right]);
        let loss = joined
            .sum_rows()
            .matmul(tape.constant(Matrix::col_vec(vec![1.0; 4])));
        assert_eq!(grad_of(loss, &a).as_slice(), &[2., 2., 3., 3.]);
    }

    #[test]
    fn lstm_gates_matches_four_matmul_reference_bitwise() {
        let (d, h, n) = (5, 3, 4);
        let w_init = Matrix::from_fn(d, 4 * h, |r, c| ((r * 13 + c * 7) as f32 * 0.083).sin());
        let b_init = Matrix::from_fn(1, 4 * h, |_, c| (c as f32 * 0.31).cos() * 0.1);
        let x = Matrix::from_fn(n, d, |r, c| ((r * 3 + c) as f32 * 0.19).cos());

        // Fused path.
        let w = Param::new(w_init.clone());
        let b = Param::new(b_init.clone());
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let gates = xv.lstm_gates(&w, &b, h);
        let fused = gates
            .sum_rows()
            .matmul(tape.constant(Matrix::col_vec(vec![1.0; 4 * h])))
            .backward(&[w, b]);

        // Reference: four separate matmul → add_row → activation chains over
        // the corresponding weight column blocks.
        let mut ref_parts = Vec::new();
        let mut ref_w: Vec<Param> = Vec::new();
        let mut ref_b: Vec<Param> = Vec::new();
        let tape2 = Tape::new();
        let xv2 = tape2.constant(x);
        for gate in 0..4 {
            let wp = Param::new(w_init.slice_cols(gate * h, (gate + 1) * h));
            let bp = Param::new(b_init.slice_cols(gate * h, (gate + 1) * h));
            let pre = xv2.matmul(tape2.param(&wp)).add_row(tape2.param(&bp));
            let act = if gate == 2 { pre.tanh() } else { pre.sigmoid() };
            ref_parts.push(act);
            ref_w.push(wp);
            ref_b.push(bp);
        }
        let joined = Var::concat_cols(&ref_parts);
        let loss2 = joined
            .sum_rows()
            .matmul(tape2.constant(Matrix::col_vec(vec![1.0; 4 * h])));
        ref_w.extend(ref_b);
        let reference = loss2.backward(&ref_w);

        assert!(bits_eq(&gates.value(), &joined.value()), "forward diverged");
        for gate in 0..4 {
            let wg = fused[0].slice_cols(gate * h, (gate + 1) * h);
            assert!(bits_eq(&wg, &reference[gate]), "w grad gate {gate}");
            let bg = fused[1].slice_cols(gate * h, (gate + 1) * h);
            assert!(bits_eq(&bg, &reference[4 + gate]), "b grad gate {gate}");
        }
    }

    #[test]
    fn lstm_gates_input_gradient_matches_reference_bitwise() {
        // Gradient flowing *through* the gate block into the input must
        // reproduce the reverse-tape-order accumulation of four matmuls.
        let (d, h, n) = (4, 2, 3);
        let w_init = Matrix::from_fn(d, 4 * h, |r, c| ((r * 11 + c * 5) as f32 * 0.107).sin());
        let b_init = Matrix::zeros(1, 4 * h);
        let x_init = Matrix::from_fn(n, d, |r, c| ((r * 7 + c) as f32 * 0.13).sin());

        let w = Param::new(w_init.clone());
        let b = Param::new(b_init.clone());
        let xp = Param::new(x_init.clone());
        let tape = Tape::new();
        let gates = tape.param(&xp).lstm_gates(&w, &b, h);
        let loss = gates
            .sum_rows()
            .matmul(tape.constant(Matrix::col_vec(vec![1.0; 4 * h])));
        let g = grad_of(loss, &xp);

        let w2: Vec<Param> = (0..4)
            .map(|g| Param::new(w_init.slice_cols(g * h, (g + 1) * h)))
            .collect();
        let b2: Vec<Param> = (0..4)
            .map(|g| Param::new(b_init.slice_cols(g * h, (g + 1) * h)))
            .collect();
        let xp2 = Param::new(x_init);
        let tape2 = Tape::new();
        let xv2 = tape2.param(&xp2);
        let parts: Vec<Var> = (0..4)
            .map(|g| {
                let pre = xv2.matmul(tape2.param(&w2[g])).add_row(tape2.param(&b2[g]));
                if g == 2 {
                    pre.tanh()
                } else {
                    pre.sigmoid()
                }
            })
            .collect();
        let loss2 = Var::concat_cols(&parts)
            .sum_rows()
            .matmul(tape2.constant(Matrix::col_vec(vec![1.0; 4 * h])));

        assert!(bits_eq(&g, &grad_of(loss2, &xp2)), "input grad diverged");
    }
}
