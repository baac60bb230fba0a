//! Fig. 5 — graph-representation-learning overhead: held-out weighted F1 of
//! GFN / DiffPool / GCN per training epoch (left panel) and per unit of
//! training wall-clock (right panel).

use bac_bench::{build_split, f4, prepared_graph_set, print_rows, ExpScale};
use baclassifier::config::ConstructionConfig;
use baclassifier::features::NODE_FEAT_DIM;
use baclassifier::models::{DiffPool, Gcn, Gfn, GraphModel};
use baclassifier::train::{train_graph_model, TrainLog, TrainParams};

/// Training epochs of each GNN.
const EPOCHS: usize = 20;

fn main() {
    let scale = ExpScale::from_args();
    println!("# Fig. 5 — GNN training curves over {EPOCHS} epochs");

    let cfg = ConstructionConfig::default();
    let (train, test) = build_split(&scale);
    let gnns: Vec<Box<dyn GraphModel>> = vec![
        Box::new(Gfn::new(NODE_FEAT_DIM, 2, 64, 32, scale.seed)),
        Box::new(DiffPool::new(NODE_FEAT_DIM, 64, 8, 32, scale.seed)),
        Box::new(Gcn::new(NODE_FEAT_DIM, 64, 32, scale.seed)),
    ];
    let mut logs: Vec<TrainLog> = Vec::new();
    for model in &gnns {
        eprintln!("[fig5] training {}…", model.name());
        let train_set = prepared_graph_set(
            model.as_ref(),
            &train.records,
            &cfg,
            scale.max_slices_per_address,
        );
        let test_set = prepared_graph_set(
            model.as_ref(),
            &test.records,
            &cfg,
            scale.max_slices_per_address,
        );
        logs.push(train_graph_model(
            model.as_ref(),
            &train_set,
            &test_set,
            TrainParams {
                epochs: EPOCHS,
                learning_rate: 0.01,
                seed: scale.seed,
            },
            1,
        ));
    }

    // Left panel: F1 per epoch.
    let mut rows = Vec::new();
    for e in 0..EPOCHS {
        let mut row = vec![e.to_string()];
        for log in &logs {
            row.push(f4(log.points[e].test_f1));
        }
        rows.push(row);
    }
    print_rows(
        "Fig. 5 (left): test weighted F1 vs epoch",
        &["Epoch", "GFN", "DiffPool", "GCN"],
        &rows,
    );

    // Right panel: F1 vs wall-clock.
    let mut rows = Vec::new();
    for log in &logs {
        for p in &log.points {
            rows.push(vec![
                log.model.clone(),
                format!("{:.2}", p.elapsed.as_secs_f64()),
                f4(p.test_f1),
            ]);
        }
    }
    print_rows(
        "Fig. 5 (right): test weighted F1 vs training seconds",
        &["Model", "Seconds", "F1"],
        &rows,
    );

    for log in &logs {
        println!(
            "{:>9}: final F1 {} in {:.2}s ({} epochs)",
            log.model,
            f4(log.final_f1()),
            log.total_time().as_secs_f64(),
            log.points.len()
        );
    }
    println!("\nthe paper's shape, not checked here: GFN reaches the highest F1 and needs less wall-clock per epoch than GCN/DiffPool");
}
