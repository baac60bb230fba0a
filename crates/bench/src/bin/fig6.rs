//! Fig. 6 — address-classification overhead: held-out weighted F1 of the
//! six classification heads per training epoch and per unit of wall-clock.

use bac_bench::{build_split, embedded_split, f4, print_rows, ExpScale};
use baclassifier::classify::all_heads;
use baclassifier::config::ConstructionConfig;
use baclassifier::train::{train_sequence_head, TrainLog, TrainParams};
use baserve::cli::flag_parsed;

fn main() {
    let scale = ExpScale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let epochs: usize = flag_parsed(&args, "--epochs", 25);
    let gnn_epochs: usize = flag_parsed(&args, "--gnn-epochs", 12);
    println!("# Fig. 6 — classification-head training curves over {epochs} epochs");

    let cfg = ConstructionConfig::default();
    let (train, test) = build_split(&scale);
    eprintln!("[fig6] training GFN + embedding…");
    let split = embedded_split(&scale, &train, &test, &cfg, gnn_epochs);

    let mut logs: Vec<TrainLog> = Vec::new();
    for head in all_heads(32, 32, scale.seed) {
        eprintln!("[fig6] training {}…", head.name());
        logs.push(train_sequence_head(
            head.as_ref(),
            &split.train,
            &split.test,
            TrainParams {
                epochs,
                learning_rate: 0.01,
                seed: scale.seed,
            },
            1,
        ));
    }

    let names: Vec<&str> = logs.iter().map(|l| l.model.as_str()).collect();
    let mut header = vec!["Epoch"];
    header.extend(&names);
    let mut rows = Vec::new();
    for e in 0..epochs {
        let mut row = vec![e.to_string()];
        for log in &logs {
            row.push(f4(log.points[e].test_f1));
        }
        rows.push(row);
    }
    print_rows("Fig. 6 (left): test weighted F1 vs epoch", &header, &rows);

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
        "Fig. 6 (right): test weighted F1 vs training seconds",
        &["Model", "Seconds", "F1"],
        &rows,
    );

    for log in &logs {
        println!(
            "{:>14}: final F1 {} in {:.2}s",
            log.model,
            f4(log.final_f1()),
            log.total_time().as_secs_f64()
        );
    }
    println!("\nthe paper's shape, not checked here: LSTM+MLP consistently best across epochs; pooling heads trail");
}
