//! Training loops with the per-epoch loss / F1 / wall-clock instrumentation
//! the paper's overhead evaluation plots (Fig. 5 and Fig. 6), data-parallel
//! over `threads` workers that all read the one model being trained (see
//! [`crate::parallel`]).
//!
//! Both loops share one engine: per-example forward/backward, gradients
//! reduced in example-index order, one Adam step. Because the reduction
//! order is fixed, any thread count gives the same final weights and the
//! same per-epoch losses, byte for byte. Reported `train_loss` is the
//! per-sample mean over the epoch (a ragged final batch contributes by its
//! size, not as a full batch).

use crate::classify::SequenceHead;
use crate::metrics::{ClassificationReport, ConfusionMatrix};
use crate::models::{GraphModel, PreparedGraph, NUM_CLASSES};
use crate::parallel::with_grad_pool;
use numnet::optim::Adam;
use numnet::{Matrix, Param, Tape, Var};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::{Duration, Instant};

/// One epoch's measurements.
#[derive(Clone, Debug)]
pub struct EpochPoint {
    pub epoch: usize,
    /// Cumulative training wall-clock up to the end of this epoch.
    pub elapsed: Duration,
    pub train_loss: f32,
    /// Weighted F1 on the held-out set after this epoch.
    pub test_f1: f64,
}

/// Per-epoch training curve of one model (a Fig. 5 / Fig. 6 series).
#[derive(Clone, Debug)]
pub struct TrainLog {
    pub model: String,
    pub points: Vec<EpochPoint>,
}

impl TrainLog {
    /// Final held-out weighted F1.
    pub fn final_f1(&self) -> f64 {
        self.points.last().map_or(0.0, |p| p.test_f1)
    }

    /// Total training time.
    pub fn total_time(&self) -> Duration {
        self.points.last().map_or(Duration::ZERO, |p| p.elapsed)
    }
}

/// Examples per Adam step, in both training loops.
const BATCH_SIZE: usize = 8;

/// Hyper-parameters shared by both training loops.
#[derive(Clone, Copy, Debug)]
pub struct TrainParams {
    pub epochs: usize,
    pub learning_rate: f32,
    pub seed: u64,
}

impl Default for TrainParams {
    fn default() -> Self {
        Self {
            epochs: 20,
            learning_rate: 0.01,
            seed: 0,
        }
    }
}

/// One example's loss and per-parameter gradients.
fn loss_and_grads(logits: Var<'_>, label: usize, params: &[Param]) -> (f32, Vec<Matrix>) {
    let loss = logits.softmax_cross_entropy(&[label]);
    (loss.value()[(0, 0)], loss.backward(params))
}

/// The shared epoch/batch engine. Per batch: fixed-order reduced gradients
/// of `example_grad` from the pool, scaled by `1/batch_len`, one Adam step
/// on `weights` — taken while no worker holds an example.
fn run_training(
    name: &str,
    n_examples: usize,
    weights: &[Param],
    threads: usize,
    example_grad: impl Fn(usize) -> (f32, Vec<Matrix>) + Sync,
    eval: impl Fn() -> f64,
    params: TrainParams,
) -> TrainLog {
    assert!(n_examples > 0, "empty training set");
    let mut opt = Adam::new(weights.to_vec(), params.learning_rate);
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut order: Vec<usize> = (0..n_examples).collect();
    let mut log = TrainLog {
        model: name.to_string(),
        points: Vec::new(),
    };
    let mut elapsed = Duration::ZERO;

    with_grad_pool(threads, example_grad, |pool| {
        for epoch in 0..params.epochs {
            let start = Instant::now();
            order.shuffle(&mut rng);
            let mut loss_sum = 0.0f32;
            for batch in order.chunks(BATCH_SIZE) {
                let mut bg = pool.batch_grads(batch);
                loss_sum += bg.losses.iter().sum::<f32>();
                let inv = 1.0 / batch.len() as f32;
                for g in &mut bg.grad_sum {
                    g.map_assign(|v| v * inv);
                }
                opt.step(&bg.grad_sum);
            }
            elapsed += start.elapsed();
            log.points.push(EpochPoint {
                epoch,
                elapsed,
                // Per-sample mean: every example appears exactly once per
                // epoch, so a ragged final batch is weighted by its size.
                train_loss: loss_sum / n_examples as f32,
                test_f1: eval(),
            });
        }
    });
    log
}

/// Train a graph model on labeled prepared graphs (graph-level
/// classification, paper Table II) on `threads` workers, measuring F1 on
/// `test` every epoch. Byte-identical for any thread count.
pub fn train_graph_model(
    model: &dyn GraphModel,
    train: &[(PreparedGraph, usize)],
    test: &[(PreparedGraph, usize)],
    params: TrainParams,
    threads: usize,
) -> TrainLog {
    let weights = model.params();
    run_training(
        model.name(),
        train.len(),
        &weights,
        threads,
        |idx| {
            let (prep, label) = &train[idx];
            let tape = Tape::new();
            loss_and_grads(model.logits(&tape, prep), *label, &weights)
        },
        || {
            if test.is_empty() {
                0.0
            } else {
                evaluate_graph_model(model, test).weighted_f1
            }
        },
        params,
    )
}

/// Evaluate a graph model on labeled prepared graphs.
pub fn evaluate_graph_model(
    model: &dyn GraphModel,
    set: &[(PreparedGraph, usize)],
) -> ClassificationReport {
    let y_true: Vec<usize> = set.iter().map(|(_, l)| *l).collect();
    let y_pred: Vec<usize> = set.iter().map(|(p, _)| model.predict(p)).collect();
    ConfusionMatrix::from_predictions(NUM_CLASSES, &y_true, &y_pred).report()
}

/// Train a sequence head on labeled embedding sequences (address-level
/// classification, paper Table III) on `threads` workers, measuring F1 on
/// `test` every epoch. Byte-identical for any thread count.
pub fn train_sequence_head(
    head: &dyn SequenceHead,
    train: &[(Vec<Matrix>, usize)],
    test: &[(Vec<Matrix>, usize)],
    params: TrainParams,
    threads: usize,
) -> TrainLog {
    let weights = head.params();
    run_training(
        head.name(),
        train.len(),
        &weights,
        threads,
        |idx| {
            let (seq, label) = &train[idx];
            let tape = Tape::new();
            loss_and_grads(head.logits(&tape, seq), *label, &weights)
        },
        || {
            if test.is_empty() {
                0.0
            } else {
                evaluate_sequence_head(head, test).weighted_f1
            }
        },
        params,
    )
}

/// Evaluate a sequence head on labeled embedding sequences.
pub fn evaluate_sequence_head(
    head: &dyn SequenceHead,
    set: &[(Vec<Matrix>, usize)],
) -> ClassificationReport {
    let y_true: Vec<usize> = set.iter().map(|(_, l)| *l).collect();
    let y_pred: Vec<usize> = set.iter().map(|(s, _)| head.predict(s)).collect();
    ConfusionMatrix::from_predictions(NUM_CLASSES, &y_true, &y_pred).report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::LstmMlp;
    use crate::models::Gfn;
    use numnet::Matrix;

    /// Synthetic prepared graphs: class c gets features centred at c.
    fn synthetic_graph_set(n_per_class: usize, model: &Gfn) -> Vec<(PreparedGraph, usize)> {
        let mut out = Vec::new();
        for c in 0..NUM_CLASSES {
            for i in 0..n_per_class {
                let x = Matrix::from_fn(3, model.augmented_dim(), |r, col| {
                    c as f32 * 0.8 + ((r + col + i) as f32 * 0.37).sin() * 0.1
                });
                out.push((PreparedGraph::Features(x), c));
            }
        }
        out
    }

    fn synthetic_seq_set(n_per_class: usize) -> Vec<(Vec<Matrix>, usize)> {
        let mut data: Vec<(Vec<Matrix>, usize)> = Vec::new();
        for c in 0..NUM_CLASSES {
            for i in 0..n_per_class {
                let seq: Vec<Matrix> = (0..3)
                    .map(|t| {
                        Matrix::from_fn(1, 4, |_, col| {
                            c as f32 - 1.5 + ((t + col + i) as f32 * 0.21).sin() * 0.1
                        })
                    })
                    .collect();
                data.push((seq, c));
            }
        }
        data
    }

    #[test]
    fn graph_training_learns_separable_classes() {
        let gfn = Gfn::new(4, 0, 16, 8, 3);
        // augmented_dim = 1 + 4 = 5
        let data = synthetic_graph_set(6, &gfn);
        let (train, test): (Vec<_>, Vec<_>) =
            data.into_iter().enumerate().partition(|(i, _)| i % 3 != 0);
        let train: Vec<_> = train.into_iter().map(|(_, d)| d).collect();
        let test: Vec<_> = test.into_iter().map(|(_, d)| d).collect();
        let log = train_graph_model(
            &gfn,
            &train,
            &test,
            TrainParams {
                epochs: 30,
                learning_rate: 0.02,
                ..Default::default()
            },
            1,
        );
        assert_eq!(log.points.len(), 30);
        assert!(log.final_f1() > 0.9, "final F1 {}", log.final_f1());
        // Elapsed time is monotone.
        assert!(log.points.windows(2).all(|w| w[0].elapsed <= w[1].elapsed));
    }

    #[test]
    fn sequence_training_learns_separable_classes() {
        let head = LstmMlp::new(4, 8, 1);
        let data = synthetic_seq_set(5);
        let (test, train): (Vec<_>, Vec<_>) =
            data.into_iter().enumerate().partition(|(i, _)| i % 5 == 0);
        let train: Vec<_> = train.into_iter().map(|(_, d)| d).collect();
        let test: Vec<_> = test.into_iter().map(|(_, d)| d).collect();
        let log = train_sequence_head(
            &head,
            &train,
            &test,
            TrainParams {
                epochs: 40,
                learning_rate: 0.02,
                ..Default::default()
            },
            1,
        );
        assert!(log.final_f1() > 0.9, "final F1 {}", log.final_f1());
    }

    #[test]
    fn loss_decreases_over_training() {
        let gfn = Gfn::new(4, 0, 16, 8, 5);
        let data = synthetic_graph_set(4, &gfn);
        let log = train_graph_model(
            &gfn,
            &data,
            &[],
            TrainParams {
                epochs: 15,
                learning_rate: 0.02,
                ..Default::default()
            },
            1,
        );
        let first = log.points.first().unwrap().train_loss;
        let last = log.points.last().unwrap().train_loss;
        assert!(last < first * 0.8, "loss {first} -> {last}");
    }

    #[test]
    fn training_is_deterministic_per_seed() {
        let run = || {
            let gfn = Gfn::new(4, 0, 8, 4, 11);
            let data: Vec<_> = synthetic_graph_set(3, &gfn).into_iter().take(11).collect();
            let log = train_graph_model(
                &gfn,
                &data,
                &data,
                TrainParams {
                    epochs: 5,
                    learning_rate: 0.02,
                    seed: 2,
                },
                1,
            );
            log.points.iter().map(|p| p.train_loss).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    /// Regression for the ragged-batch accounting bug: 11 examples in
    /// batches of 8 used to report `(mean(b1) + mean(b2)) / 2`,
    /// over-weighting the final 3-example batch. The reported loss must be
    /// the per-sample mean. With `learning_rate = 0` weights never move, so
    /// epoch 0's reported loss must equal the mean of the per-example
    /// losses at initialisation (shuffling cannot matter).
    #[test]
    fn reported_loss_is_per_sample_mean_on_ragged_batches() {
        let gfn = Gfn::new(4, 0, 8, 4, 7);
        let data: Vec<_> = synthetic_graph_set(3, &gfn).into_iter().take(11).collect();
        assert_eq!(data.len() % BATCH_SIZE, 3, "want a ragged final batch");
        let expected: f32 = data
            .iter()
            .map(|(prep, label)| {
                let tape = Tape::new();
                gfn.logits(&tape, prep)
                    .softmax_cross_entropy(&[*label])
                    .value()[(0, 0)]
            })
            .sum::<f32>()
            / data.len() as f32;
        let log = train_graph_model(
            &gfn,
            &data,
            &[],
            TrainParams {
                epochs: 1,
                learning_rate: 0.0,
                seed: 9,
            },
            1,
        );
        let got = log.points[0].train_loss;
        assert!(
            (got - expected).abs() <= 1e-6 * expected.abs().max(1.0),
            "per-sample mean {expected} vs reported {got}"
        );
    }

    #[test]
    fn ragged_batch_loss_is_per_sample_mean_for_sequence_head() {
        let head = LstmMlp::new(4, 6, 5);
        let data: Vec<_> = synthetic_seq_set(3).into_iter().take(11).collect();
        assert_eq!(data.len() % BATCH_SIZE, 3, "want a ragged final batch");
        let expected: f32 = data
            .iter()
            .map(|(seq, label)| {
                let tape = Tape::new();
                head.logits(&tape, seq)
                    .softmax_cross_entropy(&[*label])
                    .value()[(0, 0)]
            })
            .sum::<f32>()
            / data.len() as f32;
        let log = train_sequence_head(
            &head,
            &data,
            &[],
            TrainParams {
                epochs: 1,
                learning_rate: 0.0,
                seed: 3,
            },
            1,
        );
        let got = log.points[0].train_loss;
        assert!(
            (got - expected).abs() <= 1e-6 * expected.abs().max(1.0),
            "per-sample mean {expected} vs reported {got}"
        );
    }

    /// The determinism guarantee at the unit level: training on several
    /// threads is byte-identical to training on one — same per-epoch losses,
    /// same final weights.
    #[test]
    fn parallel_graph_training_is_byte_identical_to_serial() {
        let params = TrainParams {
            epochs: 4,
            learning_rate: 0.02,
            seed: 13,
        };
        let serial = Gfn::new(4, 0, 8, 4, 21);
        let data: Vec<_> = synthetic_graph_set(3, &serial)
            .into_iter()
            .take(11)
            .collect();
        let serial_log = train_graph_model(&serial, &data, &[], params, 1);

        let pooled = Gfn::new(4, 0, 8, 4, 21);
        let pooled_log = train_graph_model(&pooled, &data, &[], params, 3);

        let s_losses: Vec<f32> = serial_log.points.iter().map(|p| p.train_loss).collect();
        let p_losses: Vec<f32> = pooled_log.points.iter().map(|p| p.train_loss).collect();
        assert_eq!(s_losses, p_losses);
        for (a, b) in serial.params().iter().zip(&pooled.params()) {
            assert_eq!(*a.value(), *b.value(), "weights diverged");
        }
    }

    #[test]
    fn parallel_sequence_training_is_byte_identical_to_serial() {
        let params = TrainParams {
            epochs: 3,
            learning_rate: 0.02,
            seed: 8,
        };
        let data: Vec<_> = synthetic_seq_set(3).into_iter().take(11).collect();
        let serial = LstmMlp::new(4, 6, 17);
        let serial_log = train_sequence_head(&serial, &data, &[], params, 1);

        let pooled = LstmMlp::new(4, 6, 17);
        let pooled_log = train_sequence_head(&pooled, &data, &[], params, 4);

        let s_losses: Vec<f32> = serial_log.points.iter().map(|p| p.train_loss).collect();
        let p_losses: Vec<f32> = pooled_log.points.iter().map(|p| p.train_loss).collect();
        assert_eq!(s_losses, p_losses);
        for (a, b) in serial.params().iter().zip(&pooled.params()) {
            assert_eq!(*a.value(), *b.value(), "weights diverged");
        }
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_train_panics() {
        let gfn = Gfn::new(4, 0, 8, 4, 0);
        let _ = train_graph_model(&gfn, &[], &[], TrainParams::default(), 1);
    }
}
