//! Kernel-layer benchmark: blocked matmul, sparse adjacency spmm, fused
//! LSTM gates, and backward-pass allocation behavior. Written to
//! `results/kernel_bench.json`.
//!
//! ```text
//! kernel_bench [--min-speedup 2.0] [--out results/kernel_bench.json] [--smoke]
//! ```
//!
//! Four sections:
//!
//! 1. **Blocked matmul** — GFLOP/s of the production kernel vs the
//!    pre-blocking naive i-k-j kernel (with its historical zero-skip),
//!    at representative GNN shapes. Identity is asserted bitwise; the
//!    `--min-speedup` gate applies in full mode on multi-core hosts only
//!    (mirroring train_bench: CI smoke runs check correctness, not speed).
//! 2. **Sparse adjacency** — per-epoch forward+backward time of the GCN
//!    computation through the CSR spmm tape op vs the dense-adjacency
//!    formulation it replaced, on a synthetic slice-graph-shaped workload.
//!    Embeddings and parameter gradients must match bitwise.
//! 3. **Fused LSTM gates** — per-sequence forward+backward time of the
//!    fused `[W | b]` cell vs the four-matmul reference; final hidden
//!    state asserted bitwise.
//! 4. **Batched-sequence LSTM** — forward-only inference time of one
//!    ragged-batch `forward_last_batch` pass vs `B` serial single-sequence
//!    unrolls, at serving batch sizes. Every output row is asserted
//!    bitwise identical to its serial counterpart; the ≥2x gate applies at
//!    `B ≥ 8` in full mode on multi-core hosts.
//! 5. **Backward allocations** — gradient-buffer allocations per tape node
//!    for the GCN workload; the zero-clone backward must stay below one
//!    allocation per node (always asserted, even under `--smoke`).

use baserve::cli::{flag_parsed, flag_value, has_flag};
use graphalgo::{normalized_adjacency, Graph};
use numnet::layers::lstm::LstmCell;
use numnet::{backward_alloc_count, reset_backward_alloc_count, Matrix, Param, SparseAdj, Tape};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The pre-blocking production matmul: row-major i-k-j with the historical
/// `a == 0.0` skip, operating on slices exactly as the old kernel did.
fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let (m, kk) = a.shape();
    let n = b.cols();
    assert_eq!(kk, b.rows());
    let mut out = Matrix::zeros(m, n);
    let (a_s, b_s) = (a.as_slice(), b.as_slice());
    for i in 0..m {
        let out_row = out.row_mut(i);
        for k in 0..kk {
            let av = a_s[i * kk + k];
            if av == 0.0 {
                continue;
            }
            let b_row = &b_s[k * n..(k + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row) {
                *o += av * bv;
            }
        }
    }
    out
}

fn bits_eq(a: &Matrix, b: &Matrix) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Median wall-clock seconds of `reps` runs of `f`.
fn time_median<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn test_matrix(rows: usize, cols: usize, salt: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |r, c| {
        ((r * cols + c + salt * 7919) as f32 * 0.137).sin()
    })
}

/// A synthetic slice-graph topology: an n-node ring with chords, degree ~4.
fn synthetic_graph(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        g.add_edge(i, (i + 1) % n, 1.0);
        g.add_edge(i, (i + 7) % n, 1.0);
    }
    g
}

struct MatmulResult {
    shape: (usize, usize, usize),
    naive_gflops: f64,
    blocked_gflops: f64,
    speedup: f64,
}

fn bench_matmul(m: usize, k: usize, n: usize, reps: usize) -> MatmulResult {
    let a = test_matrix(m, k, 1);
    let b = test_matrix(k, n, 2);
    let blocked = a.matmul(&b);
    let naive = naive_matmul(&a, &b);
    assert!(
        bits_eq(&blocked, &naive),
        "blocked matmul diverged from naive at {m}x{k}x{n}"
    );
    let naive_s = time_median(reps, || {
        std::hint::black_box(naive_matmul(
            std::hint::black_box(&a),
            std::hint::black_box(&b),
        ));
    });
    let blocked_s = time_median(reps, || {
        std::hint::black_box(std::hint::black_box(&a).matmul(std::hint::black_box(&b)));
    });
    let flops = 2.0 * m as f64 * k as f64 * n as f64;
    let r = MatmulResult {
        shape: (m, k, n),
        naive_gflops: flops / naive_s / 1e9,
        blocked_gflops: flops / blocked_s / 1e9,
        speedup: naive_s / blocked_s,
    };
    eprintln!(
        "[kernel_bench] matmul {m}x{k}x{n}: naive {:.2} GFLOP/s, blocked {:.2} GFLOP/s ({:.2}x)",
        r.naive_gflops, r.blocked_gflops, r.speedup
    );
    r
}

/// One GCN epoch (forward + backward + grad reset) through the sparse path.
///
/// Both epoch formulations pool with `mean_rows` rather than the model's
/// `sum_rows`: summing over a large synthetic graph saturates the softmax,
/// and the backward pass then measures denormal-multiplication stalls
/// instead of kernel throughput.
fn gcn_sparse_epoch(ax: &Matrix, adj: &SparseAdj, params: &[Param]) -> Matrix {
    let tape = Tape::new();
    let h1 = tape
        .constant(ax.clone())
        .matmul(tape.param(&params[0]))
        .add_row(tape.param(&params[1]))
        .relu();
    let h2 = h1
        .spmm(adj)
        .matmul(tape.param(&params[2]))
        .add_row(tape.param(&params[3]))
        .relu();
    let e = h2.mean_rows();
    let out = e.value();
    e.softmax_cross_entropy(&[1]).backward();
    for p in params {
        p.zero_grad();
    }
    out
}

/// The same epoch through the dense-adjacency formulation it replaced.
fn gcn_dense_epoch(x: &Matrix, adj_dense: &Matrix, params: &[Param]) -> Matrix {
    let tape = Tape::new();
    let av = tape.constant(adj_dense.clone());
    let h1 = av
        .matmul(tape.constant(x.clone()))
        .matmul(tape.param(&params[0]))
        .add_row(tape.param(&params[1]))
        .relu();
    let h2 = av
        .matmul(h1)
        .matmul(tape.param(&params[2]))
        .add_row(tape.param(&params[3]))
        .relu();
    let e = h2.mean_rows();
    let out = e.value();
    e.softmax_cross_entropy(&[1]).backward();
    for p in params {
        p.zero_grad();
    }
    out
}

/// One sequence pass (forward + backward + grad reset) of the fused cell.
fn lstm_fused_pass(cell: &LstmCell, seq: &[Matrix]) -> Matrix {
    let tape = Tape::new();
    let mut st = cell.zero_state(&tape, seq[0].rows());
    for m in seq {
        st = cell.step(&tape, tape.constant(m.clone()), &st);
    }
    let h = st.h.value();
    st.h.sum_rows()
        .matmul(tape.constant(Matrix::col_vec(vec![1.0; h.cols()])))
        .slice_rows(0, 1)
        .backward();
    for p in cell.params() {
        p.zero_grad();
    }
    h
}

/// The same pass through the pre-fusion four-matmul formulation, driven by
/// per-gate parameter slices of the fused `[W | b]`.
fn lstm_reference_pass(w: &[Param], b: &[Param], hidden: usize, seq: &[Matrix]) -> Matrix {
    let tape = Tape::new();
    let batch = seq[0].rows();
    let mut h = tape.constant(Matrix::zeros(batch, hidden));
    let mut c = tape.constant(Matrix::zeros(batch, hidden));
    for m in seq {
        let hx = numnet::Var::concat_cols(&[h, tape.constant(m.clone())]);
        let f = hx
            .matmul(tape.param(&w[0]))
            .add_row(tape.param(&b[0]))
            .sigmoid();
        let i = hx
            .matmul(tape.param(&w[1]))
            .add_row(tape.param(&b[1]))
            .sigmoid();
        let c_tilde = hx
            .matmul(tape.param(&w[2]))
            .add_row(tape.param(&b[2]))
            .tanh();
        let o = hx
            .matmul(tape.param(&w[3]))
            .add_row(tape.param(&b[3]))
            .sigmoid();
        c = f.mul_elem(c).add(i.mul_elem(c_tilde));
        h = o.mul_elem(c.tanh());
    }
    let out = h.value();
    h.sum_rows()
        .matmul(tape.constant(Matrix::col_vec(vec![1.0; hidden])))
        .slice_rows(0, 1)
        .backward();
    for p in w.iter().chain(b) {
        p.zero_grad();
    }
    out
}

/// Forward-only serial serving path: one tape and one unrolled pass per
/// sequence — exactly what per-request classification did before batching.
fn lstm_serial_last(cell: &LstmCell, seqs: &[Vec<Matrix>]) -> Vec<Matrix> {
    seqs.iter()
        .map(|seq| {
            let tape = Tape::new();
            let mut st = cell.zero_state(&tape, 1);
            for m in seq {
                st = cell.step(&tape, tape.constant(m.clone()), &st);
            }
            st.h.value()
        })
        .collect()
}

/// Ragged batch of `b` sequences with deterministic mixed lengths.
fn ragged_seqs(b: usize, d: usize, max_len: usize) -> Vec<Vec<Matrix>> {
    (0..b)
        .map(|i| {
            let len = 1 + (i * 17 + 3) % max_len;
            (0..len).map(|t| test_matrix(1, d, i * 131 + t)).collect()
        })
        .collect()
}

struct LstmBatchedResult {
    b: usize,
    serial_ms: f64,
    batched_ms: f64,
    speedup: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = has_flag(&args, "--smoke");
    let min_speedup: f64 = flag_parsed(&args, "--min-speedup", 2.0);
    let out = flag_value(&args, "--out").unwrap_or_else(|| "results/kernel_bench.json".into());
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gated = !smoke && cores >= 2;
    let reps = if smoke { 3 } else { 9 };

    // 1. Blocked matmul at representative GNN shapes: node-feature × weight
    // products (tall-skinny), hidden-layer products, and a square panel.
    let shapes: &[(usize, usize, usize)] = if smoke {
        &[(128, 85, 64), (96, 96, 96)]
    } else {
        &[(512, 85, 64), (256, 256, 256), (1024, 128, 128)]
    };
    let matmuls: Vec<MatmulResult> = shapes
        .iter()
        .map(|&(m, k, n)| bench_matmul(m, k, n, reps))
        .collect();
    if gated {
        for r in &matmuls {
            assert!(
                r.speedup >= min_speedup,
                "blocked matmul must be >= {min_speedup:.1}x naive at {:?} (got {:.2}x)",
                r.shape,
                r.speedup
            );
        }
    } else {
        eprintln!("[kernel_bench] matmul speedup gate skipped (smoke={smoke}, cores={cores})");
    }

    // 2. Sparse adjacency spmm vs dense-adjacency tape epochs.
    let n_nodes = if smoke { 200 } else { 1500 };
    let (feat, hidden, embed) = (24, 64, 32);
    let csr = normalized_adjacency(&synthetic_graph(n_nodes));
    let adj = SparseAdj::new(csr);
    let x = test_matrix(n_nodes, feat, 3);
    let ax = Matrix::from_vec(n_nodes, feat, adj.matrix().matmul_dense(x.as_slice(), feat));
    let adj_dense = adj.to_dense();
    let mut rng = StdRng::seed_from_u64(7);
    let params = vec![
        Param::new(numnet::init::xavier_uniform(feat, hidden, &mut rng)),
        Param::new(Matrix::zeros(1, hidden)),
        Param::new(numnet::init::xavier_uniform(hidden, embed, &mut rng)),
        Param::new(Matrix::zeros(1, embed)),
    ];
    let e_sparse = gcn_sparse_epoch(&ax, &adj, &params);
    let e_dense = gcn_dense_epoch(&x, &adj_dense, &params);
    assert!(
        bits_eq(&e_sparse, &e_dense),
        "sparse GCN epoch diverged from the dense formulation"
    );
    let sparse_s = time_median(reps, || {
        std::hint::black_box(gcn_sparse_epoch(&ax, &adj, &params));
    });
    let dense_s = time_median(reps, || {
        std::hint::black_box(gcn_dense_epoch(&x, &adj_dense, &params));
    });
    let spmm_speedup = dense_s / sparse_s;
    eprintln!(
        "[kernel_bench] gcn epoch n={n_nodes}: dense {:.2}ms, sparse {:.2}ms ({spmm_speedup:.2}x)",
        dense_s * 1e3,
        sparse_s * 1e3
    );
    if gated {
        assert!(
            spmm_speedup >= min_speedup,
            "sparse epoch must be >= {min_speedup:.1}x faster than dense (got {spmm_speedup:.2}x)"
        );
    }

    // 3. Fused LSTM gates vs the four-matmul reference.
    let (batch, d, h, steps) = if smoke {
        (4, 32, 32, 8)
    } else {
        (8, 64, 64, 20)
    };
    let mut rng = StdRng::seed_from_u64(11);
    let cell = LstmCell::new(d, h, &mut rng);
    let fused = cell.params();
    let (wf, bf) = (fused[0].value().clone(), fused[1].value().clone());
    let w_ref: Vec<Param> = (0..4)
        .map(|g| Param::new(wf.slice_cols(g * h, (g + 1) * h)))
        .collect();
    let b_ref: Vec<Param> = (0..4)
        .map(|g| Param::new(bf.slice_cols(g * h, (g + 1) * h)))
        .collect();
    let seq: Vec<Matrix> = (0..steps).map(|t| test_matrix(batch, d, t + 5)).collect();
    let h_fused = lstm_fused_pass(&cell, &seq);
    let h_ref = lstm_reference_pass(&w_ref, &b_ref, h, &seq);
    assert!(
        bits_eq(&h_fused, &h_ref),
        "fused LSTM diverged from the four-matmul reference"
    );
    let fused_s = time_median(reps, || {
        std::hint::black_box(lstm_fused_pass(&cell, &seq));
    });
    let ref_s = time_median(reps, || {
        std::hint::black_box(lstm_reference_pass(&w_ref, &b_ref, h, &seq));
    });
    let lstm_speedup = ref_s / fused_s;
    let lstm_step_us = fused_s / steps as f64 * 1e6;
    eprintln!(
        "[kernel_bench] lstm {steps}-step pass: four-matmul {:.2}ms, fused {:.2}ms ({lstm_speedup:.2}x, {lstm_step_us:.1}us/step)",
        ref_s * 1e3,
        fused_s * 1e3
    );

    // 4. Batched ragged-sequence LSTM inference vs B serial unrolls.
    let max_len = if smoke { 12 } else { 40 };
    let lstm_batched: Vec<LstmBatchedResult> = [1usize, 8, 32]
        .iter()
        .map(|&b| {
            let seqs = ragged_seqs(b, d, max_len);
            let borrowed: Vec<&[Matrix]> = seqs.iter().map(Vec::as_slice).collect();
            let serial = lstm_serial_last(&cell, &seqs);
            let batched = {
                let tape = Tape::new();
                cell.forward_last_batch(&tape, &borrowed).value()
            };
            for (i, s) in serial.iter().enumerate() {
                assert!(
                    s.as_slice()
                        .iter()
                        .zip(batched.row(i))
                        .all(|(x, y)| x.to_bits() == y.to_bits()),
                    "batched LSTM row {i} diverged from the serial pass at B={b}"
                );
            }
            let serial_s = time_median(reps, || {
                std::hint::black_box(lstm_serial_last(&cell, std::hint::black_box(&seqs)));
            });
            let batched_s = time_median(reps, || {
                let tape = Tape::new();
                std::hint::black_box(
                    cell.forward_last_batch(&tape, std::hint::black_box(&borrowed))
                        .value(),
                );
            });
            let r = LstmBatchedResult {
                b,
                serial_ms: serial_s * 1e3,
                batched_ms: batched_s * 1e3,
                speedup: serial_s / batched_s,
            };
            eprintln!(
                "[kernel_bench] lstm_batched B={b}: serial {:.3}ms, batched {:.3}ms ({:.2}x)",
                r.serial_ms, r.batched_ms, r.speedup
            );
            r
        })
        .collect();
    if gated {
        for r in lstm_batched.iter().filter(|r| r.b >= 8) {
            assert!(
                r.speedup >= min_speedup,
                "batched LSTM must be >= {min_speedup:.1}x serial at B={} (got {:.2}x)",
                r.b,
                r.speedup
            );
        }
    } else {
        eprintln!(
            "[kernel_bench] lstm_batched speedup gate skipped (smoke={smoke}, cores={cores})"
        );
    }

    // 5. Backward allocation count on the GCN workload.
    let allocs;
    let nodes;
    {
        let tape = Tape::new();
        let h1 = tape
            .constant(ax.clone())
            .matmul(tape.param(&params[0]))
            .add_row(tape.param(&params[1]))
            .relu();
        let h2 = h1
            .spmm(&adj)
            .matmul(tape.param(&params[2]))
            .add_row(tape.param(&params[3]))
            .relu();
        let loss = h2.sum_rows().softmax_cross_entropy(&[1]);
        nodes = tape.len();
        reset_backward_alloc_count();
        loss.backward();
        allocs = backward_alloc_count();
        for p in &params {
            p.zero_grad();
        }
    }
    let allocs_per_node = allocs as f64 / nodes as f64;
    eprintln!(
        "[kernel_bench] backward: {allocs} gradient allocations over {nodes} tape nodes \
         ({allocs_per_node:.2}/node)"
    );
    assert!(
        allocs < nodes,
        "zero-clone backward must allocate less than one buffer per node \
         ({allocs} allocs, {nodes} nodes)"
    );

    let matmul_json: Vec<String> = matmuls
        .iter()
        .map(|r| {
            format!(
                "{{\"m\":{},\"k\":{},\"n\":{},\"naive_gflops\":{:.3},\
                 \"blocked_gflops\":{:.3},\"speedup\":{:.3}}}",
                r.shape.0, r.shape.1, r.shape.2, r.naive_gflops, r.blocked_gflops, r.speedup
            )
        })
        .collect();
    let lstm_batched_json: Vec<String> = lstm_batched
        .iter()
        .map(|r| {
            format!(
                "{{\"b\":{},\"serial_ms\":{:.3},\"batched_ms\":{:.3},\"speedup\":{:.3}}}",
                r.b, r.serial_ms, r.batched_ms, r.speedup
            )
        })
        .collect();
    let json = format!(
        "{{\"smoke\":{smoke},\"cores\":{cores},\"speedup_gated\":{gated},\
         \"min_speedup\":{min_speedup},\"matmul\":[{}],\
         \"gcn_epoch\":{{\"nodes\":{n_nodes},\"dense_ms\":{:.3},\"sparse_ms\":{:.3},\
         \"speedup\":{:.3}}},\
         \"lstm\":{{\"steps\":{steps},\"four_matmul_ms\":{:.3},\"fused_ms\":{:.3},\
         \"speedup\":{:.3},\"fused_step_us\":{:.2}}},\
         \"lstm_batched\":[{}],\
         \"backward\":{{\"tape_nodes\":{nodes},\"grad_allocs\":{allocs},\
         \"allocs_per_node\":{allocs_per_node:.3}}},\"identity\":true}}",
        matmul_json.join(","),
        dense_s * 1e3,
        sparse_s * 1e3,
        spmm_speedup,
        ref_s * 1e3,
        fused_s * 1e3,
        lstm_speedup,
        lstm_step_us,
        lstm_batched_json.join(","),
    );
    bac_bench::write_results_atomic(&out, &json);
    println!("wrote {out}");
}
