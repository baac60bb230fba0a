//! Weight initialisation schemes.

use crate::matrix::Matrix;
use rand::rngs::StdRng;
use rand::Rng;

/// Xavier/Glorot uniform initialisation: U(-a, a) with a = sqrt(6/(fan_in+fan_out)).
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    let a = (6.0 / (rows + cols) as f32).sqrt();
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-a..=a))
}

/// Uniform in a fixed range.
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut StdRng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(lo..=hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = xavier_uniform(64, 32, &mut rng);
        let a = (6.0f32 / 96.0).sqrt();
        assert!(m.as_slice().iter().all(|&v| v.abs() <= a));
        // Not all equal (sanity that the RNG was used).
        assert!(m.as_slice().iter().any(|&v| v != m.as_slice()[0]));
    }

    #[test]
    fn init_is_deterministic_per_seed() {
        let a = xavier_uniform(8, 8, &mut StdRng::seed_from_u64(3));
        let b = xavier_uniform(8, 8, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
        let c = xavier_uniform(8, 8, &mut StdRng::seed_from_u64(4));
        assert_ne!(a, c);
    }
}
