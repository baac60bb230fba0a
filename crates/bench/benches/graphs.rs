//! Criterion microbenchmarks of the graph-algorithm substrate: SFE, the
//! four Stage 4 measures and normalised adjacency one by one, and the UTXO
//! simulator itself.

use baclassifier::construction::sfe::sfe;
use btcsim::{SimConfig, Simulator};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use graphalgo::{propagate_in_place, Topology};
use std::hint::black_box;

/// A bipartite star of stars on `n` nodes, the shape of a compressed slice:
/// node 0 (the focus) funds every transaction, one node in five is a
/// transaction, every other node is paid by one transaction and every
/// seventh of them by the next one as well — so most nodes have degree 1.
/// A transaction's payees are numbered together, as Stage 1's first-seen
/// order numbers them, so consecutive leaves share a hub.
fn star_of_stars(n: usize) -> Vec<(usize, usize)> {
    let txs = n / 5;
    let payees = n - 1 - txs;
    let mut edges: Vec<(usize, usize)> = (1..=txs).map(|tx| (0, tx)).collect();
    for (i, addr) in (txs + 1..n).enumerate() {
        let tx = i * txs / payees;
        edges.push((addr, 1 + tx));
        if i % 7 == 0 {
            edges.push((addr, 1 + (tx + 1) % txs));
        }
    }
    edges
}

fn topology(n: usize, edges: &[(usize, usize)]) -> Topology {
    Topology::from_edges(n, edges.iter().copied())
}

fn bench_sfe(c: &mut Criterion) {
    let mut group = c.benchmark_group("sfe");
    for n in [10usize, 100, 1000] {
        let values: Vec<f64> = (0..n)
            .map(|i| ((i * 31) % 97) as f64 * 0.37 + 0.01)
            .collect();
        group.bench_with_input(BenchmarkId::from_parameter(n), &values, |b, v| {
            b.iter(|| black_box(sfe(v)))
        });
    }
    group.finish();
}

/// Stage 4 split into its measures, and Ã, at a thin, a typical dense and
/// a payout-cohort slice size.
fn bench_centralities(c: &mut Criterion) {
    let mut group = c.benchmark_group("centralities");
    for n in [25usize, 120, 450] {
        let edges = star_of_stars(n);
        let t = topology(n, &edges);
        let (mut first, mut second) = (vec![0.0; n], vec![0.0; n]);
        group.bench_with_input(
            BenchmarkId::new("csr_build_and_degree", n),
            &edges,
            |b, e| {
                b.iter(|| {
                    let t = topology(n, e);
                    (0..n).for_each(|v| first[v] = t.degree(v) as f64);
                    black_box(&mut first);
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("closeness_betweenness", n), &t, |b, t| {
            b.iter(|| t.closeness_betweenness(black_box(&mut first), black_box(&mut second)))
        });
        group.bench_with_input(BenchmarkId::new("pagerank", n), &t, |b, t| {
            b.iter(|| t.pagerank(black_box(&mut first), 0.85, 1e-9, 100))
        });
        group.bench_with_input(BenchmarkId::new("normalized_adjacency", n), &t, |b, t| {
            b.iter(|| black_box(t.normalized_adjacency()))
        });
    }
    group.finish();
}

fn bench_propagation(c: &mut Criterion) {
    let adj = topology(200, &star_of_stars(200)).normalized_adjacency();
    // GFN's layout: X at column 1 of 1 + 24 × 4 columns a row.
    let mut rows: Vec<f32> = (0..200 * 97).map(|i| (i as f32 * 0.01).sin()).collect();
    c.bench_function("propagate_k3_200x24", |b| {
        b.iter(|| propagate_in_place(&adj, black_box(&mut rows), 97, 24, 3))
    });
}

fn bench_simulator(c: &mut Criterion) {
    c.bench_function("simulate_60_blocks", |b| {
        b.iter(|| {
            let sim = Simulator::run_to_completion(SimConfig::tiny(5));
            black_box(sim.chain().num_transactions())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sfe, bench_centralities, bench_propagation, bench_simulator
}
criterion_main!(benches);
