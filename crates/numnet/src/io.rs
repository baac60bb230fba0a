//! Installing persisted weights into a model. The bytes are
//! `baclassifier`'s BART artifact's business; numnet does no I/O.
//!
//! Parameters are identified positionally — models expose `params()` in a
//! stable order, so loading requires constructing the same architecture
//! first.
//!
//! # Stability guarantee
//!
//! Every layer and model in this workspace returns `params()` in
//! *declaration order* of its fields (and for composites, in the order the
//! sub-layers are listed). That order is part of the persistence contract:
//! two instances of the same architecture — regardless of seed or process —
//! always expose positionally-matching parameter lists, which is what makes
//! a positional list of saved matrices loadable into a freshly constructed
//! model ([`assign_params`]).

use crate::matrix::Matrix;
use crate::tape::Param;

/// Why saved weights do not fit a model.
#[derive(Debug)]
pub enum LoadError {
    /// The file has a different number of parameters than the model.
    ParamCountMismatch { file: usize, model: usize },
    /// Parameter `index` has a different shape in the file.
    ShapeMismatch {
        index: usize,
        file: (usize, usize),
        model: (usize, usize),
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::ParamCountMismatch { file, model } => {
                write!(f, "file has {file} params, model has {model}")
            }
            LoadError::ShapeMismatch { index, file, model } => {
                write!(
                    f,
                    "param {index}: file shape {file:?}, model shape {model:?}"
                )
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// Check `values` against `params` positionally and, only if *every* shape
/// matches, copy them in — all-or-nothing semantics.
pub fn assign_params(params: &[Param], values: Vec<Matrix>) -> Result<(), LoadError> {
    if values.len() != params.len() {
        return Err(LoadError::ParamCountMismatch {
            file: values.len(),
            model: params.len(),
        });
    }
    for (index, (p, v)) in params.iter().zip(&values).enumerate() {
        if v.shape() != p.shape() {
            return Err(LoadError::ShapeMismatch {
                index,
                file: v.shape(),
                model: p.shape(),
            });
        }
    }
    for (p, v) in params.iter().zip(values) {
        p.set_value(v);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Mlp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every parameter's value, in order: what a saved model holds.
    fn save_params(params: &[Param]) -> Vec<Matrix> {
        params.iter().map(|p| p.value().clone()).collect()
    }

    #[test]
    fn roundtrip_preserves_all_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Mlp::new(&[4, 8, 3], &mut rng);
        let saved = save_params(&a.params());

        let mut rng2 = StdRng::seed_from_u64(999);
        let b = Mlp::new(&[4, 8, 3], &mut rng2);
        assign_params(&b.params(), saved).unwrap();
        for (pa, pb) in a.params().iter().zip(b.params().iter()) {
            assert_eq!(*pa.value(), *pb.value());
        }
    }

    #[test]
    fn shape_mismatch_is_detected_and_nondestructive() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Mlp::new(&[4, 8, 3], &mut rng);
        let saved = save_params(&a.params());

        let b = Mlp::new(&[4, 6, 3], &mut rng);
        let before: Vec<_> = b.params().iter().map(|p| p.value().clone()).collect();
        let err = assign_params(&b.params(), saved).unwrap_err();
        assert!(matches!(err, LoadError::ShapeMismatch { .. }), "{err}");
        // No partial mutation.
        for (p, orig) in b.params().iter().zip(&before) {
            assert_eq!(*p.value(), *orig);
        }
    }

    #[test]
    fn param_count_mismatch_is_detected() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Mlp::new(&[4, 3], &mut rng);
        let saved = save_params(&a.params());
        let b = Mlp::new(&[4, 8, 3], &mut rng);
        let err = assign_params(&b.params(), saved).unwrap_err();
        assert!(matches!(err, LoadError::ParamCountMismatch { .. }));
    }

    #[test]
    fn params_order_is_stable_across_instances() {
        // Two models of the same architecture but different seeds must expose
        // positionally shape-identical parameter lists — the contract that
        // makes positional persistence valid.
        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(12345);
        let a = Mlp::new(&[5, 7, 3], &mut rng_a);
        let b = Mlp::new(&[5, 7, 3], &mut rng_b);
        let (pa, pb) = (a.params(), b.params());
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.shape(), y.shape());
        }
    }
}
