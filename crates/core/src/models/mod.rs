//! Graph representation learning (paper §III-B): the Graph Feature Network
//! the paper adopts, plus the GCN and DiffPool comparators of Table II.

pub mod diffpool;
pub mod gcn;
pub mod gfn;

pub use diffpool::DiffPool;
pub use gcn::Gcn;
pub use gfn::{Gfn, BLOCK_ROWS};

use crate::features::GraphTensors;
use numnet::{Matrix, Param, SparseAdj, Tape, Var};

/// Number of behavior classes (paper Table I).
pub const NUM_CLASSES: usize = 4;

/// Model-specific preprocessed input for one graph. Computing this is
/// gradient-free, so training loops cache it per graph across epochs.
#[derive(Clone, Debug)]
pub enum PreparedGraph {
    /// Augmented feature matrix only (GFN: propagation already folded in).
    Features(Matrix),
    /// Features plus the sparse normalised adjacency (GCN / DiffPool).
    /// `ax` caches the gradient-free first propagation Ã·X so the first
    /// layer of either model skips its adjacency product entirely.
    WithAdjacency {
        x: Matrix,
        ax: Matrix,
        adj: SparseAdj,
    },
}

impl PreparedGraph {
    /// CSR-backed preparation shared by the convolutional models: wrap the
    /// sparse Ã (with its transpose for backward) and precompute Ã·X once.
    pub fn with_adjacency(g: &GraphTensors) -> PreparedGraph {
        let adj = SparseAdj::new(g.adj.clone());
        let d = g.x.cols();
        let ax = Matrix::from_vec(g.x.rows(), d, adj.matrix().matmul_dense(g.x.as_slice(), d));
        PreparedGraph::WithAdjacency {
            x: g.x.clone(),
            ax,
            adj,
        }
    }

    /// One row per node: GFN's augmented features, or the raw features.
    pub fn x(&self) -> &Matrix {
        match self {
            PreparedGraph::Features(x) | PreparedGraph::WithAdjacency { x, .. } => x,
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.x().rows()
    }
}

/// A graph-level model: prepare → embed → classify. `Sync`: every thread
/// of a training or embedding call reads the one model.
pub trait GraphModel: Sync {
    fn name(&self) -> &'static str;

    /// Gradient-free preprocessing (cacheable per graph).
    fn prepare(&self, g: &GraphTensors) -> PreparedGraph;

    /// Graph embedding (`1 x embed_dim`).
    fn embed<'t>(&self, tape: &'t Tape, prep: &PreparedGraph) -> Var<'t>;

    /// Class logits (`1 x NUM_CLASSES`).
    fn logits<'t>(&self, tape: &'t Tape, prep: &PreparedGraph) -> Var<'t>;

    /// Trainable parameters.
    fn params(&self) -> Vec<Param>;

    /// Embedding width.
    fn embed_dim(&self) -> usize;

    /// Predicted class of one prepared graph.
    fn predict(&self, prep: &PreparedGraph) -> usize {
        let tape = Tape::new();
        let logits = self.logits(&tape, prep);
        logits.value().row_argmax(0)
    }
}
