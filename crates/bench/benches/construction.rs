//! Criterion microbenchmarks of the four construction stages (Table V) and
//! the slice-size / threshold ablations called out in DESIGN.md §4.

use baclassifier::config::ConstructionConfig;
use baclassifier::construction::{
    augment_with_centralities, compress_multi_tx, compress_single_tx, construct_address_graphs,
    extract_original_graphs, MultiCompressParams,
};
use btcsim::{Address, AddressRecord, Amount, Dataset, Label, SimConfig, Simulator, TxView, Txid};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_dataset() -> Dataset {
    let sim = Simulator::run_to_completion(SimConfig::tiny(77));
    Dataset::from_simulator(&sim, 3)
}

/// The busiest record (most transactions) — worst-case construction input.
fn busiest(ds: &Dataset) -> btcsim::AddressRecord {
    ds.records
        .iter()
        .max_by_key(|r| r.num_txs())
        .expect("non-empty dataset")
        .clone()
}

/// A mining-pool payee's slice: 32 payouts, each paying the focus and ~130
/// of a pool of 400 other payees — the densest co-membership a chain has,
/// and the input on which Stage 3 is all-pairs over ~400 candidates.
fn payout_cohort() -> AddressRecord {
    let mut rng = StdRng::seed_from_u64(400);
    let txs = (0..32u64)
        .map(|t| {
            let mut outputs = vec![(Address(0), Amount::from_sats(2_500_000))];
            for _ in 0..rng.gen_range(120..=140) {
                let payee = Address(rng.gen_range(1..=400u64));
                outputs.push((
                    payee,
                    Amount::from_sats(rng.gen_range(50_000..5_000_000u64)),
                ));
            }
            TxView {
                txid: Txid(t),
                timestamp: t * 600,
                inputs: vec![(Address(1_000), Amount::from_sats(700_000_000))],
                outputs,
            }
        })
        .collect();
    AddressRecord {
        address: Address(0),
        label: Label::Mining,
        txs,
    }
}

fn bench_stages(c: &mut Criterion) {
    let ds = bench_dataset();
    let record = busiest(&ds);
    let mut group = c.benchmark_group("construction_stages");

    let payouts = payout_cohort();
    group.bench_function("stage1_extract/payout_cohort", |b| {
        b.iter(|| extract_original_graphs(black_box(&payouts), 100))
    });
    // The four stages as `predict` runs them: one rebuild, one seed pass.
    group.bench_function("derive/payout_cohort", |b| {
        b.iter(|| construct_address_graphs(black_box(&payouts), &ConstructionConfig::default()))
    });
    let cohort = extract_original_graphs(&payouts, 100);
    group.bench_function("stage2_single_compress/payout_cohort", |b| {
        b.iter(|| {
            for g in &cohort {
                black_box(compress_single_tx(g));
            }
        })
    });
    let cohort: Vec<_> = cohort.iter().map(compress_single_tx).collect();
    group.bench_function("stage3_multi_compress/payout_cohort", |b| {
        b.iter(|| {
            for g in &cohort {
                black_box(compress_multi_tx(g, MultiCompressParams::default()));
            }
        })
    });

    group.bench_function("stage1_extract", |b| {
        b.iter(|| extract_original_graphs(black_box(&record), 100))
    });

    let originals = extract_original_graphs(&record, 100);
    group.bench_function("stage2_single_compress", |b| {
        b.iter(|| {
            for g in &originals {
                black_box(compress_single_tx(g));
            }
        })
    });

    let singles: Vec<_> = originals.iter().map(compress_single_tx).collect();
    group.bench_function("stage3_multi_compress", |b| {
        b.iter(|| {
            for g in &singles {
                black_box(compress_multi_tx(g, MultiCompressParams::default()));
            }
        })
    });

    let compressed: Vec<_> = singles
        .iter()
        .map(|g| compress_multi_tx(g, MultiCompressParams::default()))
        .collect();
    group.bench_function("stage4_augment", |b| {
        b.iter(|| {
            for g in &compressed {
                let mut g = g.clone();
                augment_with_centralities(&mut g);
                black_box(g);
            }
        })
    });

    group.bench_function("full_pipeline", |b| {
        b.iter(|| construct_address_graphs(black_box(&record), &ConstructionConfig::default()))
    });
    group.finish();
}

fn bench_slice_size_ablation(c: &mut Criterion) {
    let ds = bench_dataset();
    let record = busiest(&ds);
    let mut group = c.benchmark_group("ablation_slice_size");
    for slice in [25usize, 50, 100, 200] {
        let cfg = ConstructionConfig {
            slice_size: slice,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(slice), &cfg, |b, cfg| {
            b.iter(|| construct_address_graphs(black_box(&record), cfg))
        });
    }
    group.finish();
}

fn bench_psi_ablation(c: &mut Criterion) {
    let ds = bench_dataset();
    let record = busiest(&ds);
    let mut group = c.benchmark_group("ablation_psi");
    for psi in [0.3f64, 0.5, 0.8] {
        let cfg = ConstructionConfig {
            psi,
            ..Default::default()
        };
        group.bench_with_input(BenchmarkId::from_parameter(psi), &cfg, |b, cfg| {
            b.iter(|| construct_address_graphs(black_box(&record), cfg))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_stages, bench_slice_size_ablation, bench_psi_ablation
}
criterion_main!(benches);
