//! Table V — runtime overhead of the four address-graph construction
//! stages: single-core per-address CPU time and the per-stage share, timed
//! around the four public stage calls (`bac_bench::timed_stage_chain`), plus
//! the fused derivation `predict` runs (`construct_address_graphs`), at the
//! default construction configuration. `ablations` varies Ψ, σ and the
//! slice size.

use bac_bench::{build_split, print_rows, timed_stage_chain, ExpScale};
use baclassifier::config::ConstructionConfig;
use baclassifier::construction::construct_address_graphs;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn main() {
    let scale = ExpScale::from_args();
    let cfg = ConstructionConfig::default();
    println!(
        "# Table V — construction stage runtime (slice={}, psi={}, sigma={})",
        cfg.slice_size, cfg.psi, cfg.sigma
    );

    let (train, test) = build_split(&scale);
    let mut records = train.records;
    records.extend(test.records);
    println!(
        "constructing graphs for {} addresses on a single core…",
        records.len()
    );

    // Single-threaded, as the paper reports single-core CPU time. Each
    // record runs the timed chain, then the fused derivation, so host drift
    // reaches both alike.
    let mut stages = [Duration::ZERO; 4];
    let mut fused = Duration::ZERO;
    let mut slices = 0;
    for r in &records {
        slices += timed_stage_chain(r, &cfg, &mut stages).len();
        let start = Instant::now();
        black_box(construct_address_graphs(black_box(r), &cfg));
        fused += start.elapsed();
    }
    let total: Duration = stages.iter().sum();
    let n = records.len().max(1) as f64;
    let row = |name: &str, d: Duration| {
        vec![
            name.to_string(),
            format!("{:.2} µs", d.as_secs_f64() * 1e6 / n),
            format!("{:.2}%", 100.0 * d.as_secs_f64() / total.as_secs_f64()),
        ]
    };
    let names = [
        "Stage 1 (extract)",
        "Stage 2 (single-compress)",
        "Stage 3 (multi-compress)",
        "Stage 4 (augment)",
    ];
    let mut rows: Vec<Vec<String>> = names.iter().zip(stages).map(|(s, d)| row(s, d)).collect();
    rows.push(row("Total (four stage calls)", total));
    rows.push(row("Fused derivation (predict)", fused));
    print_rows(
        "Table V: per-address single-core CPU time per stage",
        &["Stage", "CPU time/addr", "Share"],
        &rows,
    );
    println!(
        "\n{slices} slice graphs; Stage 3 share — paper: 62.44%, ours: {:.2}%",
        100.0 * stages[2].as_secs_f64() / total.as_secs_f64()
    );
}
