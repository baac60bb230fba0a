//! Table V — runtime overhead of the four address-graph construction
//! stages: single-core per-address CPU time and the per-stage share.
//!
//! Ablation flags: `--psi F`, `--sigma N`, `--slice-size N`.

use bac_bench::{build_split, print_rows, ExpScale};
use baclassifier::config::ConstructionConfig;
use baclassifier::construction::construct_dataset_graphs;
use baserve::cli::flag_value;

fn main() {
    let scale = ExpScale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = ConstructionConfig::default();
    if let Some(psi) = flag_value(&args, "--psi").and_then(|v| v.parse().ok()) {
        cfg.psi = psi;
    }
    if let Some(sigma) = flag_value(&args, "--sigma").and_then(|v| v.parse().ok()) {
        cfg.sigma = sigma;
    }
    if let Some(s) = flag_value(&args, "--slice-size").and_then(|v| v.parse().ok()) {
        cfg.slice_size = s;
    }
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

    // Single-threaded, as the paper reports single-core CPU time.
    let (graphs, timings) = construct_dataset_graphs(&records, &cfg, 1);
    let n = records.len().max(1) as f64;
    let per_addr = |d: std::time::Duration| d.as_secs_f64() / n;
    let ratios = timings.ratios();

    let stages = [
        ("Stage 1 (extract)", per_addr(timings.extract), ratios[0]),
        (
            "Stage 2 (single-compress)",
            per_addr(timings.single_compress),
            ratios[1],
        ),
        (
            "Stage 3 (multi-compress)",
            per_addr(timings.multi_compress),
            ratios[2],
        ),
        ("Stage 4 (augment)", per_addr(timings.augment), ratios[3]),
    ];
    let mut rows: Vec<Vec<String>> = stages
        .iter()
        .map(|(name, secs, ratio)| {
            vec![
                name.to_string(),
                format!("{:.6}s", secs),
                format!("{:.2}%", ratio * 100.0),
            ]
        })
        .collect();
    rows.push(vec![
        "Total".into(),
        format!("{:.6}s", per_addr(timings.total())),
        "100.00%".into(),
    ]);
    print_rows(
        "Table V: per-address single-core CPU time per stage",
        &["Stage", "CPU time/addr", "Share"],
        &rows,
    );

    let total_graphs: usize = graphs.iter().map(Vec::len).sum();
    println!(
        "\n{total_graphs} slice graphs; Stage 3 share — paper: 62.44%, ours: {:.2}%",
        ratios[2] * 100.0
    );
}
