//! Deterministic data-parallel execution on one shared model: an
//! order-preserving parallel map for embedding/preparation/construction and
//! a gradient pool for training.
//!
//! The paper flags GNN training as the dominant cost of the pipeline
//! (Table V, Fig. 5). Synchronous data-parallel minibatch SGD is usually
//! non-deterministic because gradient reduction order depends on thread
//! scheduling; here it is not:
//!
//! 1. **One model.** `numnet` parameters are `Send + Sync` values and a
//!    backward pass returns its gradients instead of writing them anywhere,
//!    so every worker reads the *same* parameters the optimiser steps.
//! 2. **Per-example gradients.** A minibatch's examples are fanned out
//!    across workers; an example's gradient is a function of the weights and
//!    the example alone, so it is the same bits on whichever thread runs it.
//! 3. **Fixed reduction.** The driver sums per-example gradients in
//!    example-index order — whatever the thread count, one included.
//! 4. **One writer between batches.** The driver steps the optimiser only
//!    after every result of a batch is in and before the next batch is
//!    handed out, so no read ever overlaps a write.
//!
//! The result: `threads = N` training produces byte-identical weights to
//! `threads = 1`.

use numnet::{Matrix, Param};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};

/// Install `values` into `params` positionally (loading trained weights into
/// a freshly built model), all or nothing, as [`numnet::assign_params`] does.
///
/// # Panics
/// Panics with the [`numnet::LoadError`] on count or shape mismatch, before
/// any parameter is changed.
pub fn install_values(params: &[Param], values: &[Matrix]) {
    if let Err(e) = numnet::assign_params(params, values.to_vec()) {
        panic!("install_values: {e}");
    }
}

/// Per-example losses and the index-order-reduced gradient sum of one
/// minibatch. `losses[i]` belongs to `indices[i]` of the submitted batch;
/// `grad_sum` is unscaled (callers divide by the batch length).
pub struct BatchGrads {
    pub losses: Vec<f32>,
    pub grad_sum: Vec<Matrix>,
}

fn reduce_in_order(per_example: impl Iterator<Item = (f32, Vec<Matrix>)>) -> BatchGrads {
    let mut losses = Vec::new();
    let mut grad_sum: Option<Vec<Matrix>> = None;
    for (loss, grads) in per_example {
        losses.push(loss);
        match &mut grad_sum {
            None => grad_sum = Some(grads),
            Some(acc) => {
                for (a, g) in acc.iter_mut().zip(&grads) {
                    a.add_assign(g);
                }
            }
        }
    }
    BatchGrads {
        losses,
        grad_sum: grad_sum.unwrap_or_default(),
    }
}

/// `(result slot, example index)` pairs for one worker.
type Job = Vec<(usize, usize)>;

/// Turns minibatches of example indices into [`BatchGrads`]; built by
/// [`with_grad_pool`].
pub struct GradPool<'a> {
    example_grad: &'a (dyn Fn(usize) -> (f32, Vec<Matrix>) + Sync),
    /// Empty when the driver computes inline.
    job_txs: Vec<Sender<Job>>,
    /// `(slot, loss, gradients)`, or the panic that ended a worker.
    results: Receiver<std::thread::Result<(usize, f32, Vec<Matrix>)>>,
}

impl GradPool<'_> {
    /// Per-example losses and the index-ordered gradient sum for one
    /// minibatch. Returns only once every example of the batch is done, so
    /// the caller may step the optimiser before the next call. A panic in
    /// `example_grad` on a worker resumes here, on the driver.
    pub fn batch_grads(&mut self, indices: &[usize]) -> BatchGrads {
        if self.job_txs.is_empty() {
            return reduce_in_order(indices.iter().map(|&i| (self.example_grad)(i)));
        }
        let chunk = indices.len().div_ceil(self.job_txs.len()).max(1);
        for (worker, part) in indices.chunks(chunk).enumerate() {
            let base = worker * chunk;
            let items = part
                .iter()
                .enumerate()
                .map(|(off, &idx)| (base + off, idx))
                .collect();
            self.job_txs[worker]
                .send(items)
                .expect("training worker exited early");
        }
        let mut slots: Vec<Option<(f32, Vec<Matrix>)>> = Vec::new();
        slots.resize_with(indices.len(), || None);
        for _ in 0..indices.len() {
            match self.results.recv().expect("workers outlive the pool") {
                Ok((slot, loss, grads)) => slots[slot] = Some((loss, grads)),
                Err(payload) => resume_unwind(payload),
            }
        }
        reduce_in_order(slots.into_iter().map(|s| s.expect("slot filled")))
    }
}

/// Run `drive` against a pool that computes `example_grad(idx)` — one
/// example's loss and per-parameter gradients — on `threads` workers that
/// live for the whole call (`threads <= 1`: inline on the driver, through
/// the same reduction). Workers are persistent because batches are small:
/// measured, a fresh `thread::scope` per 8-example batch made a 4-thread fit
/// 0.30–0.42 s against this pool's 0.23–0.31 s, slower in 6 runs of 6.
pub fn with_grad_pool<T>(
    threads: usize,
    example_grad: impl Fn(usize) -> (f32, Vec<Matrix>) + Sync,
    drive: impl FnOnce(&mut GradPool<'_>) -> T,
) -> T {
    let example_grad = &example_grad;
    std::thread::scope(|scope| {
        let (res_tx, results) = channel();
        let workers = if threads > 1 { threads } else { 0 };
        let job_txs = (0..workers)
            .map(|_| {
                let (tx, rx) = channel::<Job>();
                let res_tx = res_tx.clone();
                scope.spawn(move || {
                    for items in rx {
                        for (slot, idx) in items {
                            // Idle workers keep `res_tx` open, so a panic
                            // that only unwound this thread would leave the
                            // driver in `recv` forever: send it the payload.
                            let result = catch_unwind(AssertUnwindSafe(|| example_grad(idx)))
                                .map(|(loss, grads)| (slot, loss, grads));
                            let ended = result.is_err();
                            if res_tx.send(result).is_err() || ended {
                                return;
                            }
                        }
                    }
                });
                tx
            })
            .collect();
        drop(res_tx);
        // The pool is dropped when `drive` returns: job channels close, the
        // workers drain and exit, the scope joins them.
        drive(&mut GradPool {
            example_grad,
            job_txs,
            results,
        })
    })
}

/// Map `f` over `items` on up to `threads` scoped workers, preserving input
/// order in the output. Items are split into contiguous chunks, so as long
/// as each item's result depends only on that item (true for construction,
/// preparation and embedding — all forward-only), the output is
/// byte-identical for any thread count.
pub fn parallel_map<T, R>(threads: usize, items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| {
                let f = &f;
                scope.spawn(move || part.iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel_map worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use numnet::Tape;

    /// `loss(w) = idx * w` for a scalar parameter: grad is `idx`.
    fn scalar_grad(w: &Param, idx: usize) -> (f32, Vec<Matrix>) {
        let tape = Tape::new();
        let loss = tape.param(w).scale(idx as f32);
        (loss.value()[(0, 0)], loss.backward(std::slice::from_ref(w)))
    }

    #[test]
    fn pool_matches_serial_reduction_exactly() {
        let w = Param::new(Matrix::from_vec(1, 1, vec![2.0]));
        let run = |threads| {
            with_grad_pool(
                threads,
                |i| scalar_grad(&w, i),
                |pool| pool.batch_grads(&[3, 1, 4, 1, 5]),
            )
        };
        let (s, p) = (run(1), run(3));
        assert_eq!(s.losses, p.losses);
        assert_eq!(s.losses, vec![6.0, 2.0, 8.0, 2.0, 10.0]);
        assert_eq!(s.grad_sum, p.grad_sum);
        assert_eq!(s.grad_sum[0][(0, 0)], 14.0);
    }

    /// The broadcast is now the shared model itself: an update made between
    /// two batches is seen by every worker in the second.
    #[test]
    fn broadcast_is_applied_before_later_batches() {
        let w = Param::new(Matrix::from_vec(1, 1, vec![1.0]));
        let out = with_grad_pool(
            2,
            |i| scalar_grad(&w, i),
            |pool| {
                let before = pool.batch_grads(&[2, 2]);
                w.update(|v| v[(0, 0)] += 9.0); // w: 1 → 10
                let after = pool.batch_grads(&[2, 2]);
                (before.losses, after.losses)
            },
        );
        assert_eq!(out, (vec![2.0, 2.0], vec![20.0, 20.0]));
    }

    /// Example 5 of 8 panics on one of 4 workers while the other three idle
    /// on their job channels. Run on a helper thread and awaited with a
    /// timeout, so a driver left blocked in `recv` fails this test instead
    /// of hanging the suite.
    #[test]
    fn worker_panic_resumes_on_the_driver_instead_of_hanging() {
        let (done_tx, done_rx) = channel();
        std::thread::spawn(move || {
            let w = Param::new(Matrix::from_vec(1, 1, vec![2.0]));
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                with_grad_pool(
                    4,
                    |i| {
                        assert_ne!(i, 5, "example 5 is poisoned");
                        scalar_grad(&w, i)
                    },
                    |pool| pool.batch_grads(&[0, 1, 2, 3, 4, 5, 6, 7]).losses,
                )
            }));
            let _ = done_tx.send(outcome.map_err(|p| p.downcast_ref::<String>().cloned()));
        });
        let outcome = done_rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("batch_grads hung after a worker panicked");
        let message = outcome.expect_err("the worker's panic must reach the driver");
        assert!(
            message.is_some_and(|m| m.contains("example 5 is poisoned")),
            "the driver resumes the worker's own payload"
        );
    }

    #[test]
    fn parallel_map_preserves_order_for_any_thread_count() {
        let items: Vec<usize> = (0..23).collect();
        let expected: Vec<usize> = items.iter().map(|i| i * i).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = parallel_map(threads, &items, |&i| i * i);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn parallel_map_handles_empty_input() {
        let got: Vec<usize> = parallel_map(4, &[] as &[usize], |&i| i);
        assert!(got.is_empty());
    }

    /// A wrong-shaped value anywhere in the list panics with the
    /// `LoadError` before any parameter is written.
    #[test]
    fn install_values_rejects_a_shape_mismatch_and_changes_nothing() {
        let params = [
            Param::new(Matrix::from_vec(1, 2, vec![1.0, 2.0])),
            Param::new(Matrix::from_vec(2, 1, vec![3.0, 4.0])),
        ];
        let snapshot = || -> Vec<Matrix> { params.iter().map(|p| p.value().clone()).collect() };
        let before = snapshot();
        let values = [Matrix::full(1, 2, 9.0), Matrix::full(1, 2, 9.0)];
        let err = catch_unwind(AssertUnwindSafe(|| install_values(&params, &values)))
            .expect_err("a 1x2 value for a 2x1 parameter must panic");
        let msg = err.downcast_ref::<String>().expect("a formatted message");
        assert!(
            msg.contains("param 1: file shape (1, 2), model shape (2, 1)"),
            "{msg}"
        );
        assert_eq!(snapshot(), before);
    }
}
