//! The positional `NNIO` weights stream — the weights section of
//! `baclassifier`'s BART artifact, the workspace's one on-disk model
//! format.
//!
//! Format (little-endian): magic `NNIO`, version u32, param count u32, then
//! per parameter: rows u32, cols u32, `rows*cols` f32 values. Parameters are
//! identified positionally — models expose `params()` in a stable order, so
//! loading requires constructing the same architecture first.
//!
//! # Stability guarantee
//!
//! Every layer and model in this workspace returns `params()` in
//! *declaration order* of its fields (and for composites, in the order the
//! sub-layers are listed). That order is part of the persistence contract:
//! two instances of the same architecture — regardless of seed or process —
//! always expose positionally-matching parameter lists, which is what makes
//! the positional `NNIO` stream loadable into a freshly constructed model
//! ([`assign_params`]).

use crate::matrix::Matrix;
use crate::tape::Param;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"NNIO";
const VERSION: u32 = 1;

/// Errors from reading a weights stream or installing it.
#[derive(Debug)]
pub enum LoadError {
    Io(io::Error),
    /// Not a weights stream / unsupported version.
    BadHeader,
    /// The stream has a different number of parameters than the model.
    ParamCountMismatch {
        file: usize,
        model: usize,
    },
    /// Parameter `index` has a different shape in the stream.
    ShapeMismatch {
        index: usize,
        file: (usize, usize),
        model: (usize, usize),
    },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "io error: {e}"),
            LoadError::BadHeader => write!(f, "not a numnet weights file"),
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

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Write a `NNIO` matrix stream (header + every matrix) to any writer.
pub fn write_matrices<W: Write>(w: &mut W, matrices: &[Matrix]) -> io::Result<()> {
    w.write_all(MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;
    w.write_all(&(matrices.len() as u32).to_le_bytes())?;
    for m in matrices {
        w.write_all(&(m.rows() as u32).to_le_bytes())?;
        w.write_all(&(m.cols() as u32).to_le_bytes())?;
        for &v in m.as_slice() {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    Ok(())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

/// Read a full `NNIO` matrix stream from any reader. No architecture is
/// needed; callers validate count/shapes against their model if they have
/// one (see [`assign_params`]).
pub fn read_matrices<R: Read>(r: &mut R) -> Result<Vec<Matrix>, LoadError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC || read_u32(r)? != VERSION {
        return Err(LoadError::BadHeader);
    }
    let count = read_u32(r)? as usize;
    let mut matrices = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let rows = read_u32(r)? as usize;
        let cols = read_u32(r)? as usize;
        let mut data = vec![0f32; rows * cols];
        let mut buf = [0u8; 4];
        for v in data.iter_mut() {
            r.read_exact(&mut buf)?;
            *v = f32::from_le_bytes(buf);
        }
        matrices.push(Matrix::from_vec(rows, cols, data));
    }
    Ok(matrices)
}

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
    use crate::layers::{Activation, Mlp};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every parameter value as one `NNIO` stream.
    fn save_params(params: &[Param]) -> Vec<u8> {
        let values: Vec<Matrix> = params.iter().map(|p| p.value().clone()).collect();
        let mut bytes = Vec::new();
        write_matrices(&mut bytes, &values).unwrap();
        bytes
    }

    fn load_params(mut bytes: &[u8], params: &[Param]) -> Result<(), LoadError> {
        assign_params(params, read_matrices(&mut bytes)?)
    }

    #[test]
    fn roundtrip_preserves_all_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Mlp::new(&[4, 8, 3], Activation::Relu, &mut rng);
        let bytes = save_params(&a.params());

        let mut rng2 = StdRng::seed_from_u64(999);
        let b = Mlp::new(&[4, 8, 3], Activation::Relu, &mut rng2);
        load_params(&bytes, &b.params()).unwrap();
        for (pa, pb) in a.params().iter().zip(b.params().iter()) {
            assert_eq!(*pa.value(), *pb.value());
        }
    }

    #[test]
    fn shape_mismatch_is_detected_and_nondestructive() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Mlp::new(&[4, 8, 3], Activation::Relu, &mut rng);
        let bytes = save_params(&a.params());

        let b = Mlp::new(&[4, 6, 3], Activation::Relu, &mut rng);
        let before: Vec<_> = b.params().iter().map(|p| p.value().clone()).collect();
        let err = load_params(&bytes, &b.params()).unwrap_err();
        assert!(matches!(err, LoadError::ShapeMismatch { .. }), "{err}");
        // No partial mutation.
        for (p, orig) in b.params().iter().zip(&before) {
            assert_eq!(*p.value(), *orig);
        }
    }

    #[test]
    fn param_count_mismatch_is_detected() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Mlp::new(&[4, 3], Activation::Relu, &mut rng);
        let bytes = save_params(&a.params());
        let b = Mlp::new(&[4, 8, 3], Activation::Relu, &mut rng);
        let err = load_params(&bytes, &b.params()).unwrap_err();
        assert!(matches!(err, LoadError::ParamCountMismatch { .. }));
    }

    #[test]
    fn garbage_file_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Mlp::new(&[2, 2], Activation::Relu, &mut rng);
        assert!(matches!(
            load_params(b"definitely not weights", &m.params()),
            Err(LoadError::BadHeader)
        ));
    }

    #[test]
    fn wrong_magic_is_bad_header() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Mlp::new(&[2, 2], Activation::Relu, &mut rng);
        let mut bytes = save_params(&m.params());
        bytes[..4].copy_from_slice(b"XNIO");
        assert!(matches!(
            load_params(&bytes, &m.params()),
            Err(LoadError::BadHeader)
        ));
    }

    #[test]
    fn wrong_version_is_bad_header() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Mlp::new(&[2, 2], Activation::Relu, &mut rng);
        let mut bytes = save_params(&m.params());
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            load_params(&bytes, &m.params()),
            Err(LoadError::BadHeader)
        ));
    }

    #[test]
    fn truncated_file_is_io_error_and_nondestructive() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Mlp::new(&[4, 8, 3], Activation::Relu, &mut rng);
        let bytes = save_params(&m.params());
        // Cut the stream mid-way through a parameter's float data.
        let bytes = &bytes[..bytes.len() / 2];
        let before: Vec<_> = m.params().iter().map(|p| p.value().clone()).collect();
        let err = load_params(bytes, &m.params()).unwrap_err();
        assert!(matches!(err, LoadError::Io(_)), "{err}");
        for (p, orig) in m.params().iter().zip(&before) {
            assert_eq!(*p.value(), *orig, "truncated load must not mutate");
        }
    }

    #[test]
    fn truncated_header_is_error_not_panic() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Mlp::new(&[2, 2], Activation::Relu, &mut rng);
        assert!(load_params(b"NN", &m.params()).is_err());
    }

    #[test]
    fn matrix_stream_roundtrips_through_memory() {
        let mats = vec![
            Matrix::from_fn(3, 2, |r, c| (r * 2 + c) as f32),
            Matrix::zeros(1, 5),
            Matrix::from_vec(2, 2, vec![1.5, -2.5, 3.5, -4.5]),
        ];
        let mut buf = Vec::new();
        write_matrices(&mut buf, &mats).unwrap();
        let back = read_matrices(&mut buf.as_slice()).unwrap();
        assert_eq!(mats, back);
    }

    #[test]
    fn params_order_is_stable_across_instances() {
        // Two models of the same architecture but different seeds must expose
        // positionally shape-identical parameter lists — the contract that
        // makes positional persistence valid.
        let mut rng_a = StdRng::seed_from_u64(1);
        let mut rng_b = StdRng::seed_from_u64(12345);
        let a = Mlp::new(&[5, 7, 3], Activation::Relu, &mut rng_a);
        let b = Mlp::new(&[5, 7, 3], Activation::Relu, &mut rng_b);
        let (pa, pb) = (a.params(), b.params());
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(&pb) {
            assert_eq!(x.shape(), y.shape());
        }
    }
}
