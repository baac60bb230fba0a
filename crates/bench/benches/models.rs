//! Criterion microbenchmarks of the learning stack: GFN/GCN/DiffPool
//! forward+backward per graph (the per-epoch cost behind Fig. 5) and the
//! sequence heads per address (behind Fig. 6), and `numnet`'s dense
//! products at the shapes inference and training run them (`matmul_shapes`).

use baclassifier::classify::{all_heads, SequenceHead};
use baclassifier::config::ConstructionConfig;
use baclassifier::construction::construct_address_graphs;
use baclassifier::features::{graph_tensors, NODE_FEAT_DIM};
use baclassifier::models::{DiffPool, Gcn, Gfn, GraphModel};
use btcsim::{Dataset, SimConfig, Simulator};
use criterion::{criterion_group, criterion_main, Criterion};
use numnet::{matmul_into, Matrix, Tape};
use std::hint::black_box;

fn sample_tensors() -> baclassifier::features::GraphTensors {
    let sim = Simulator::run_to_completion(SimConfig::tiny(99));
    let ds = Dataset::from_simulator(&sim, 3);
    let record = ds
        .records
        .iter()
        .max_by_key(|r| r.num_txs())
        .expect("non-empty")
        .clone();
    let graphs = construct_address_graphs(&record, &ConstructionConfig::default());
    graph_tensors(&graphs[0])
}

fn bench_gnn_forward_backward(c: &mut Criterion) {
    let tensors = sample_tensors();
    let models: Vec<Box<dyn GraphModel>> = vec![
        Box::new(Gfn::new(NODE_FEAT_DIM, 2, 64, 32, 0)),
        Box::new(Gcn::new(NODE_FEAT_DIM, 64, 32, 0)),
        Box::new(DiffPool::new(NODE_FEAT_DIM, 64, 8, 32, 0)),
    ];
    let mut group = c.benchmark_group("gnn_step");
    for model in &models {
        let prep = model.prepare(&tensors);
        let params = model.params();
        group.bench_function(format!("{}_fwd_bwd", model.name()), |b| {
            b.iter(|| {
                let tape = Tape::new();
                let loss = model
                    .logits(&tape, black_box(&prep))
                    .softmax_cross_entropy(&[1]);
                black_box(loss.backward(&params))
            })
        });
        group.bench_function(format!("{}_prepare", model.name()), |b| {
            b.iter(|| black_box(model.prepare(&tensors)))
        });
    }
    group.finish();
}

fn bench_heads(c: &mut Criterion) {
    let seq: Vec<Matrix> = (0..8)
        .map(|t| Matrix::from_fn(1, 32, |_, c| ((t * 13 + c) as f32 * 0.17).sin()))
        .collect();
    let mut group = c.benchmark_group("head_step");
    for head in all_heads(32, 32, 0) {
        let head: Box<dyn SequenceHead> = head;
        let params = head.params();
        group.bench_function(format!("{}_fwd_bwd", head.name()), |b| {
            b.iter(|| {
                let tape = Tape::new();
                let loss = head
                    .logits(&tape, black_box(&seq))
                    .softmax_cross_entropy(&[2]);
                black_box(loss.backward(&params))
            })
        });
    }
    group.finish();
}

/// One dense product per sample, output buffer reused as the forward
/// evaluator reuses it. `a·b` at the shapes inference runs: the GFN node
/// MLP (73→64→32) over a thin slice, a 25-node slice and a full 256-row
/// block; the head's fused gate product (96×256) at batch 1, 16 and 51; a
/// 512×85·85×64 block. Plus one `aᵀ·b` training shape, the node MLP's
/// weight gradient over a 256-row block.
fn bench_matmul_shapes(c: &mut Criterion) {
    let fill = |r, k| Matrix::from_fn(r, k, |i, j| (((i * 31 + j * 7) % 97) as f32 - 48.0) * 0.013);
    let mut group = c.benchmark_group("matmul_shapes");
    for &(m, k, n) in &[
        (6, 73, 64),
        (6, 64, 32),
        (25, 73, 64),
        (25, 64, 32),
        (256, 73, 64),
        (256, 64, 32),
        (1, 96, 256),
        (16, 96, 256),
        (51, 96, 256),
        (512, 85, 64),
    ] {
        let (a, b) = (fill(m, k), fill(k, n));
        let mut out = Matrix::default();
        group.bench_function(format!("ab_{m}x{k}x{n}"), |bch| {
            bch.iter(|| {
                matmul_into(&black_box(&a).view(), &black_box(&b).view(), &mut out);
                black_box(out.as_slice()[0])
            })
        });
    }
    let (x, g) = (fill(256, 73), fill(256, 64));
    group.bench_function("atb_256x73t_256x64", |bch| {
        bch.iter(|| black_box(black_box(&x).matmul_at_b(black_box(&g))))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_gnn_forward_backward, bench_heads
}

criterion_group! {
    name = products;
    config = Criterion::default().sample_size(3000);
    targets = bench_matmul_shapes
}
criterion_main!(benches, products);
