//! Optimisers: the one writer of shared [`Param`] values.

use crate::matrix::Matrix;
use crate::tape::Param;

/// Common optimiser interface: apply the gradients a backward pass returned.
pub trait Optimizer {
    /// Apply one update step to the parameters this optimiser was
    /// constructed with; `grads[i]` belongs to parameter `i`.
    ///
    /// # Panics
    /// On a gradient count or shape mismatch, before any value is touched.
    fn step(&mut self, grads: &[Matrix]);

    /// Current learning rate.
    fn learning_rate(&self) -> f32;

    /// Override the learning rate (e.g. for schedules).
    fn set_learning_rate(&mut self, lr: f32);
}

/// Clip the global gradient norm across all parameters to `max_norm`
/// (standard recipe for stabilising recurrent-model training). Returns the
/// pre-clip norm. Call between `backward()` and `step()`.
pub fn clip_grad_norm(grads: &mut [Matrix], max_norm: f32) -> f32 {
    assert!(max_norm > 0.0, "max_norm must be positive");
    let total: f32 = grads
        .iter()
        .map(|g| g.as_slice().iter().map(|g| g * g).sum::<f32>())
        .sum();
    let norm = total.sqrt();
    if norm > max_norm {
        let scale = max_norm / norm;
        for g in grads {
            g.map_assign(|v| v * scale);
        }
    }
    norm
}

/// All-or-nothing precondition of [`Optimizer::step`].
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

/// Step learning-rate schedule: multiply the optimiser's rate by `gamma`
/// every `step_every` epochs.
pub struct StepLr {
    base_lr: f32,
    gamma: f32,
    step_every: usize,
}

impl StepLr {
    pub fn new(base_lr: f32, gamma: f32, step_every: usize) -> Self {
        assert!(step_every > 0, "step_every must be positive");
        Self {
            base_lr,
            gamma,
            step_every,
        }
    }

    /// Learning rate for the given (0-based) epoch.
    pub fn lr_at(&self, epoch: usize) -> f32 {
        self.base_lr * self.gamma.powi((epoch / self.step_every) as i32)
    }

    /// Apply the schedule to an optimiser for the given epoch.
    pub fn apply(&self, opt: &mut dyn Optimizer, epoch: usize) {
        opt.set_learning_rate(self.lr_at(epoch));
    }
}

/// Plain SGD with optional momentum and L2 weight decay.
pub struct Sgd {
    params: Vec<Param>,
    velocity: Vec<Matrix>,
    lr: f32,
    momentum: f32,
    weight_decay: f32,
}

impl Sgd {
    pub fn new(params: Vec<Param>, lr: f32) -> Self {
        Self::with_momentum(params, lr, 0.0, 0.0)
    }

    pub fn with_momentum(params: Vec<Param>, lr: f32, momentum: f32, weight_decay: f32) -> Self {
        let velocity = params
            .iter()
            .map(|p| {
                let (r, c) = p.shape();
                Matrix::zeros(r, c)
            })
            .collect();
        Self {
            params,
            velocity,
            lr,
            momentum,
            weight_decay,
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, grads: &[Matrix]) {
        check_grads(&self.params, grads);
        for ((p, v), grad) in self.params.iter().zip(self.velocity.iter_mut()).zip(grads) {
            let lr = self.lr;
            let momentum = self.momentum;
            let wd = self.weight_decay;
            p.update(|value| {
                for i in 0..value.len() {
                    let g = grad.as_slice()[i] + wd * value.as_slice()[i];
                    let vel = momentum * v.as_slice()[i] + g;
                    v.as_mut_slice()[i] = vel;
                    value.as_mut_slice()[i] -= lr * vel;
                }
            });
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

/// Adam (Kingma & Ba 2015) with bias correction and L2 weight decay.
pub struct Adam {
    params: Vec<Param>,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    weight_decay: f32,
    t: u64,
}

impl Adam {
    pub fn new(params: Vec<Param>, lr: f32) -> Self {
        Self::with_config(params, lr, 0.9, 0.999, 1e-8, 0.0)
    }

    pub fn with_config(
        params: Vec<Param>,
        lr: f32,
        beta1: f32,
        beta2: f32,
        eps: f32,
        weight_decay: f32,
    ) -> Self {
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
            beta1,
            beta2,
            eps,
            weight_decay,
            t: 0,
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, grads: &[Matrix]) {
        check_grads(&self.params, grads);
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (((p, m), v), grad) in self
            .params
            .iter()
            .zip(self.m.iter_mut())
            .zip(self.v.iter_mut())
            .zip(grads)
        {
            let (lr, b1, b2, eps, wd) =
                (self.lr, self.beta1, self.beta2, self.eps, self.weight_decay);
            p.update(|value| {
                for i in 0..value.len() {
                    let g = grad.as_slice()[i] + wd * value.as_slice()[i];
                    let mi = b1 * m.as_slice()[i] + (1.0 - b1) * g;
                    let vi = b2 * v.as_slice()[i] + (1.0 - b2) * g * g;
                    m.as_mut_slice()[i] = mi;
                    v.as_mut_slice()[i] = vi;
                    let m_hat = mi / bc1;
                    let v_hat = vi / bc2;
                    value.as_mut_slice()[i] -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            });
        }
    }

    fn learning_rate(&self) -> f32 {
        self.lr
    }

    fn set_learning_rate(&mut self, lr: f32) {
        self.lr = lr;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Minimise (w - 3)^2 and check convergence.
    fn quadratic_descent(mut opt: impl Optimizer, w: &Param, steps: usize) -> f32 {
        for _ in 0..steps {
            let tape = Tape::new();
            let wv = tape.param(w);
            let target = tape.constant(Matrix::from_vec(1, 1, vec![3.0]));
            let diff = wv.sub(target);
            let loss = diff.mul_elem(diff);
            opt.step(&loss.backward(std::slice::from_ref(w)));
        }
        w.value()[(0, 0)]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let w = Param::new(Matrix::from_vec(1, 1, vec![0.0]));
        let final_w = quadratic_descent(Sgd::new(vec![w.clone()], 0.1), &w, 100);
        assert!((final_w - 3.0).abs() < 1e-3, "w = {final_w}");
    }

    #[test]
    fn sgd_momentum_converges() {
        let w = Param::new(Matrix::from_vec(1, 1, vec![0.0]));
        let opt = Sgd::with_momentum(vec![w.clone()], 0.05, 0.9, 0.0);
        let final_w = quadratic_descent(opt, &w, 200);
        assert!((final_w - 3.0).abs() < 1e-2, "w = {final_w}");
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let w = Param::new(Matrix::from_vec(1, 1, vec![0.0]));
        let final_w = quadratic_descent(Adam::new(vec![w.clone()], 0.1), &w, 300);
        assert!((final_w - 3.0).abs() < 1e-2, "w = {final_w}");
    }

    #[test]
    fn weight_decay_shrinks_weights() {
        // With zero data gradient, decay alone should shrink the weight.
        let w = Param::new(Matrix::from_vec(1, 1, vec![5.0]));
        let mut opt = Sgd::with_momentum(vec![w.clone()], 0.1, 0.0, 0.5);
        for _ in 0..10 {
            // zero data gradient: only decay applies
            opt.step(&[Matrix::zeros(1, 1)]);
        }
        assert!(w.value()[(0, 0)] < 5.0);
        assert!(w.value()[(0, 0)] > 0.0);
    }

    #[test]
    fn clip_grad_norm_bounds_global_norm() {
        let mut grads = [
            Matrix::from_vec(1, 2, vec![3.0, 4.0]), // norm 5
            Matrix::from_vec(1, 1, vec![12.0]),     // total 13
        ];
        let pre = clip_grad_norm(&mut grads, 1.0);
        assert!((pre - 13.0).abs() < 1e-5);
        let post: f32 = grads
            .iter()
            .flat_map(|g| g.as_slice())
            .map(|g| g * g)
            .sum::<f32>()
            .sqrt();
        assert!((post - 1.0).abs() < 1e-5, "post-clip norm {post}");
        // Direction preserved: components keep their ratios.
        assert!((grads[0][(0, 0)] / grads[0][(0, 1)] - 0.75).abs() < 1e-5);
    }

    #[test]
    fn clip_is_noop_below_threshold() {
        let mut grads = [Matrix::from_vec(1, 1, vec![0.5])];
        let pre = clip_grad_norm(&mut grads, 10.0);
        assert!((pre - 0.5).abs() < 1e-6);
        assert_eq!(grads[0][(0, 0)], 0.5);
    }

    #[test]
    fn step_lr_decays_on_schedule() {
        let sched = StepLr::new(0.1, 0.5, 10);
        assert_eq!(sched.lr_at(0), 0.1);
        assert_eq!(sched.lr_at(9), 0.1);
        assert!((sched.lr_at(10) - 0.05).abs() < 1e-9);
        assert!((sched.lr_at(25) - 0.025).abs() < 1e-9);
        let w = Param::new(Matrix::from_vec(1, 1, vec![0.0]));
        let mut opt = Sgd::new(vec![w], 0.1);
        sched.apply(&mut opt, 20);
        assert!((opt.learning_rate() - 0.025).abs() < 1e-9);
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
            for adam in [false, true] {
                let params = vec![a.clone(), b.clone()];
                let mut opt: Box<dyn Optimizer> = if adam {
                    Box::new(Adam::new(params, 0.1))
                } else {
                    Box::new(Sgd::new(params, 0.1))
                };
                let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| opt.step(&bad)))
                    .expect_err("step must refuse");
                let msg = err.downcast_ref::<String>().expect("panic message");
                assert!(msg.contains(want), "{msg}");
                assert_eq!(a.value()[(0, 0)], 1.0, "a was written before the refusal");
                assert_eq!(b.value().as_slice(), &[2.0, 3.0]);
            }
        }
    }
}
