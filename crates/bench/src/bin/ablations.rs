//! Ablations of the design choices DESIGN.md §4 calls out: slice size,
//! multi-compression thresholds Ψ/σ, GFN propagation depth k, and the
//! compression/augmentation stages themselves. Each configuration reports
//! held-out weighted F1, construction cost, and graph size.

use bac_bench::{build_split, f4, prepared_graph_set, print_rows, ExpScale};
use baclassifier::config::ConstructionConfig;
use baclassifier::construction::construct_address_graphs;
use baclassifier::features::NODE_FEAT_DIM;
use baclassifier::models::Gfn;
use baclassifier::train::{evaluate_graph_model, train_graph_model, TrainParams};
use baserve::cli::flag_parsed;
use btcsim::Dataset;
use std::time::Instant;

struct Outcome {
    f1: f64,
    construct_secs: f64,
    mean_nodes: f64,
}

fn run_config(
    scale: &ExpScale,
    train: &Dataset,
    test: &Dataset,
    cfg: &ConstructionConfig,
    gfn_k: usize,
    epochs: usize,
) -> Outcome {
    // Construction cost (the serial loop's wall time) + graph size.
    let start = Instant::now();
    let graphs: Vec<_> = train
        .records
        .iter()
        .map(|r| construct_address_graphs(r, cfg))
        .collect();
    let construct_secs = start.elapsed().as_secs_f64();
    let n_graphs: usize = graphs.iter().map(Vec::len).sum();
    let total_nodes: usize = graphs.iter().flatten().map(|g| g.num_nodes()).sum();

    let gfn = Gfn::new(NODE_FEAT_DIM, gfn_k, 64, 32, scale.seed);
    let train_set = prepared_graph_set(&gfn, &train.records, cfg, scale.max_slices_per_address);
    let test_set = prepared_graph_set(&gfn, &test.records, cfg, scale.max_slices_per_address);
    train_graph_model(
        &gfn,
        &train_set,
        &[],
        TrainParams {
            epochs,
            learning_rate: 0.01,
            seed: scale.seed,
        },
        1,
    );
    let report = evaluate_graph_model(&gfn, &test_set);
    Outcome {
        f1: report.weighted_f1,
        construct_secs,
        mean_nodes: total_nodes as f64 / n_graphs.max(1) as f64,
    }
}

fn main() {
    let scale = ExpScale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let epochs: usize = flag_parsed(&args, "--epochs", 12);
    println!("# Ablations (GFN, {epochs} epochs per configuration)");
    let (train, test) = build_split(&scale);
    println!("train {} / test {}", train.len(), test.len());

    let base = ConstructionConfig::default();
    let row = |name: &str, o: &Outcome| -> Vec<String> {
        vec![
            name.to_string(),
            f4(o.f1),
            format!("{:.2}s", o.construct_secs),
            format!("{:.1}", o.mean_nodes),
        ]
    };
    let header = ["Configuration", "F1", "Construct", "Nodes/graph"];

    // 1) Slice size.
    let mut rows = Vec::new();
    for slice in [25usize, 50, 100, 200] {
        let cfg = ConstructionConfig {
            slice_size: slice,
            ..base.clone()
        };
        eprintln!("[ablations] slice_size={slice}…");
        let o = run_config(&scale, &train, &test, &cfg, 2, epochs);
        rows.push(row(&format!("slice_size={slice}"), &o));
    }
    print_rows("Ablation: slice size (paper fixes 100)", &header, &rows);

    // 2) Compression thresholds Ψ / σ.
    let mut rows = Vec::new();
    for (psi, sigma) in [(0.3, 0), (0.5, 1), (0.8, 2), (0.95, 5)] {
        let cfg = ConstructionConfig {
            psi,
            sigma,
            ..base.clone()
        };
        eprintln!("[ablations] psi={psi} sigma={sigma}…");
        let o = run_config(&scale, &train, &test, &cfg, 2, epochs);
        rows.push(row(&format!("psi={psi} sigma={sigma}"), &o));
    }
    print_rows(
        "Ablation: multi-compression thresholds (Eq. 5–6)",
        &header,
        &rows,
    );

    // 3) Stages on/off.
    let mut rows = Vec::new();
    for (name, compress, augment) in [
        ("full pipeline", true, true),
        ("no augmentation", true, false),
        ("no compression", false, true),
        ("neither", false, false),
    ] {
        let cfg = ConstructionConfig {
            compress,
            augment,
            ..base.clone()
        };
        eprintln!("[ablations] {name}…");
        let o = run_config(&scale, &train, &test, &cfg, 2, epochs);
        rows.push(row(name, &o));
    }
    print_rows("Ablation: pipeline stages", &header, &rows);

    // 4) GFN propagation depth k (Eq. 13).
    let mut rows = Vec::new();
    for k in [0usize, 1, 2, 4] {
        eprintln!("[ablations] gfn_k={k}…");
        let o = run_config(&scale, &train, &test, &base, k, epochs);
        rows.push(row(&format!("gfn_k={k}"), &o));
    }
    print_rows("Ablation: GFN propagation depth k", &header, &rows);
}
