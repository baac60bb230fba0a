//! Table III — address classification model comparison: LSTM+MLP (ours),
//! BiLSTM+MLP, Attention+MLP, SUM+MLP, AVG+MLP, MAX+MLP over the same GFN
//! slice-embedding sequences, with per-class precision/recall/F1 and the
//! weighted average.

use bac_bench::{build_split, embedded_split, f4, print_rows, ExpScale};
use baclassifier::classify::all_heads;
use baclassifier::config::ConstructionConfig;
use baclassifier::train::{evaluate_sequence_head, train_sequence_head, TrainParams};
use btcsim::Label;

// Training epochs of each classification head, and of the GFN embedding.
const EPOCHS: usize = 25;
const GNN_EPOCHS: usize = 12;

fn main() {
    let scale = ExpScale::from_args();
    println!("# Table III — address classification heads (head epochs={EPOCHS}, gnn epochs={GNN_EPOCHS})");

    let cfg = ConstructionConfig::default();
    let (train, test) = build_split(&scale);
    eprintln!(
        "[table3] training GFN and embedding {} train / {} test addresses…",
        train.len(),
        test.len()
    );
    let split = embedded_split(&scale, &train, &test, &cfg, GNN_EPOCHS);

    let mut rows: Vec<Vec<String>> = Vec::new();
    for head in all_heads(32, 32, scale.seed) {
        eprintln!("[table3] training {}…", head.name());
        let log = train_sequence_head(
            head.as_ref(),
            &split.train,
            &[],
            TrainParams {
                epochs: EPOCHS,
                learning_rate: 0.01,
                seed: scale.seed,
            },
            1,
        );
        let report = evaluate_sequence_head(head.as_ref(), &split.test);
        eprintln!(
            "[table3] {} finished in {:?}",
            head.name(),
            log.total_time()
        );
        for label in Label::ALL {
            let m = report.per_class[label.index()];
            rows.push(vec![
                head.name().to_string(),
                label.name().to_string(),
                f4(m.precision),
                f4(m.recall),
                f4(m.f1),
            ]);
        }
        rows.push(vec![
            head.name().to_string(),
            "Weighted Avg".into(),
            f4(report.weighted_precision),
            f4(report.weighted_recall),
            f4(report.weighted_f1),
        ]);
    }
    print_rows(
        "Table III: per-class metrics per classification head",
        &["Model", "Type", "Precision", "Recall", "F1-score"],
        &rows,
    );
    println!("\nthe paper's shape, not checked here: LSTM+MLP best weighted F1 (0.9497); Service hardest class for every head");
}
