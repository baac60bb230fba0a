//! # numnet — minimal dense-tensor autograd and neural-network stack
//!
//! A from-scratch CPU substrate for the BAClassifier reproduction: the Rust
//! deep-learning ecosystem lacks the graph layers the paper needs, so this
//! crate supplies exactly the pieces the models use and nothing more:
//!
//! * [`Matrix`] — dense row-major `f32` matrix; `a·b`, `aᵀ·b` and `a·bᵀ`
//!   (also [`matmul_into`] / [`matmul_a_bt_views`] on [`MatrixView`]s) share
//!   one blocked loop nest and one runtime AVX2 dispatch;
//! * [`Tape`]/[`Var`]/[`Param`] — reverse-mode autograd over shared
//!   `Send + Sync` parameter values; a backward pass returns its gradients;
//! * layers — [`layers::Linear`], [`layers::Mlp`], [`layers::Lstm`],
//!   [`layers::BiLstm`], [`layers::AttentionPool`]; `Linear`, `Mlp` and
//!   `LstmCell` also have a forward evaluator (`eval*`): no tape, results
//!   written into reused matrices, the tape's bits (training is the tape's
//!   only job);
//! * optimiser — [`optim::Adam`];
//! * initialisers — [`init`].
//!
//! Everything is deterministic given a seeded `StdRng`.
//!
//! ## Example
//! ```
//! use numnet::{Matrix, Tape, layers::Mlp, optim::Adam};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let mlp = Mlp::new(&[2, 8, 2], &mut rng);
//! let params = mlp.params();
//! let mut opt = Adam::new(params.clone(), 0.01);
//! let x = Matrix::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
//! let y = [0usize, 1, 1, 0];
//! for _ in 0..10 {
//!     let tape = Tape::new();
//!     let logits = mlp.forward(&tape, tape.constant(x.clone()));
//!     let loss = logits.softmax_cross_entropy(&y);
//!     opt.step(&loss.backward(&params));
//! }
//! ```

pub mod init;
pub mod io;
pub mod matrix;
pub mod optim;
pub mod tape;

pub mod layers {
    //! Neural-network layers built on the autograd tape.
    pub mod attention;
    pub mod linear;
    pub mod lstm;
    pub mod mlp;

    pub use attention::AttentionPool;
    pub use linear::Linear;
    pub use lstm::{BiLstm, Lstm, LstmCell, LstmState};
    pub use mlp::Mlp;
}

pub use io::{assign_params, LoadError};
pub use matrix::{matmul_a_bt_views, matmul_into, Matrix, MatrixView};
pub use tape::{Param, SparseAdj, Tape, Var};
