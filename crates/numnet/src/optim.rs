//! The optimiser: the one writer of shared [`Param`] values.

use crate::matrix::Matrix;
use crate::tape::Param;

/// Adam's first-moment decay.
const BETA1: f32 = 0.9;
/// Adam's second-moment decay.
const BETA2: f32 = 0.999;
/// Adam's denominator guard.
const EPS: f32 = 1e-8;

/// All-or-nothing precondition of [`Adam::step`].
fn check_grads(params: &[Param], grads: &[Matrix]) {
    assert_eq!(
        params.len(),
        grads.len(),
        "optimiser step: gradient count mismatch"
    );
    for (i, (p, g)) in params.iter().zip(grads).enumerate() {
        assert_eq!(
            p.shape(),
            g.shape(),
            "optimiser step: gradient {i} shape mismatch"
        );
    }
}

/// Adam (Kingma & Ba 2015) with bias correction.
pub struct Adam {
    params: Vec<Param>,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    lr: f32,
    t: u64,
}

impl Adam {
    pub fn new(params: Vec<Param>, lr: f32) -> Self {
        let zeros: Vec<Matrix> = params
            .iter()
            .map(|p| {
                let (r, c) = p.shape();
                Matrix::zeros(r, c)
            })
            .collect();
        Self {
            m: zeros.clone(),
            v: zeros,
            params,
            lr,
            t: 0,
        }
    }

    /// Apply one update step to the parameters this optimiser was
    /// constructed with; `grads[i]` belongs to parameter `i`.
    ///
    /// # Panics
    /// On a gradient count or shape mismatch, before any value is touched.
    pub fn step(&mut self, grads: &[Matrix]) {
        check_grads(&self.params, grads);
        self.t += 1;
        let bc1 = 1.0 - BETA1.powi(self.t as i32);
        let bc2 = 1.0 - BETA2.powi(self.t as i32);
        for (((p, m), v), grad) in self
            .params
            .iter()
            .zip(self.m.iter_mut())
            .zip(self.v.iter_mut())
            .zip(grads)
        {
            let lr = self.lr;
            p.update(|value| {
                for i in 0..value.len() {
                    let g = grad.as_slice()[i];
                    let mi = BETA1 * m.as_slice()[i] + (1.0 - BETA1) * g;
                    let vi = BETA2 * v.as_slice()[i] + (1.0 - BETA2) * g * g;
                    m.as_mut_slice()[i] = mi;
                    v.as_mut_slice()[i] = vi;
                    let m_hat = mi / bc1;
                    let v_hat = vi / bc2;
                    value.as_mut_slice()[i] -= lr * m_hat / (v_hat.sqrt() + EPS);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Minimise (w - 3)^2 and check convergence.
    #[test]
    fn adam_converges_on_quadratic() {
        let w = Param::new(Matrix::from_vec(1, 1, vec![0.0]));
        let mut opt = Adam::new(vec![w.clone()], 0.1);
        for _ in 0..300 {
            let tape = Tape::new();
            let wv = tape.param(&w);
            let target = tape.constant(Matrix::from_vec(1, 1, vec![3.0]));
            let diff = wv.sub(target);
            let loss = diff.mul_elem(diff);
            opt.step(&loss.backward(std::slice::from_ref(&w)));
        }
        let final_w = w.value()[(0, 0)];
        assert!((final_w - 3.0).abs() < 1e-2, "w = {final_w}");
    }

    /// Both refusals come before any value is written: the first parameter's
    /// gradient is fine, the fault is further along.
    #[test]
    fn step_refuses_wrong_gradients_before_touching_a_value() {
        let a = Param::new(Matrix::from_vec(1, 1, vec![1.0]));
        let b = Param::new(Matrix::from_vec(1, 2, vec![2.0, 3.0]));
        let good = Matrix::from_vec(1, 1, vec![5.0]);
        for (bad, want) in [
            (vec![good.clone()], "gradient count mismatch"),
            (
                vec![good.clone(), Matrix::zeros(2, 1)],
                "gradient 1 shape mismatch",
            ),
        ] {
            let mut opt = Adam::new(vec![a.clone(), b.clone()], 0.1);
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| opt.step(&bad)))
                .expect_err("step must refuse");
            let msg = err.downcast_ref::<String>().expect("panic message");
            assert!(msg.contains(want), "{msg}");
            assert_eq!(a.value()[(0, 0)], 1.0, "a was written before the refusal");
            assert_eq!(b.value().as_slice(), &[2.0, 3.0]);
        }
    }
}
