//! Table IV — BAClassifier vs prior bitcoin address classifiers: BitScope
//! (multi-resolution clustering), Lee et al. with Random Forest, and Lee et
//! al. with ANN, with per-class precision/recall/F1.

use bac_bench::{build_split, f4, print_rows, ExpScale};
use baclassifier::metrics::ConfusionMatrix;
use baclassifier::models::NUM_CLASSES;
use baclassifier::{BaClassifier, BacConfig};
use baselines::{BitScope, LeeClassifier};
use baserve::cli::flag_parsed;
use btcsim::{AddressRecord, Label};

fn report_rows(rows: &mut Vec<Vec<String>>, name: &str, y_true: &[usize], y_pred: &[usize]) {
    let report = ConfusionMatrix::from_predictions(NUM_CLASSES, y_true, y_pred).report();
    for label in Label::ALL {
        let m = report.per_class[label.index()];
        rows.push(vec![
            name.to_string(),
            label.name().to_string(),
            f4(m.precision),
            f4(m.recall),
            f4(m.f1),
        ]);
    }
    rows.push(vec![
        name.to_string(),
        "Weighted Avg".into(),
        f4(report.weighted_precision),
        f4(report.weighted_recall),
        f4(report.weighted_f1),
    ]);
}

fn main() {
    let scale = ExpScale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let (train, test) = build_split(&scale);
    println!(
        "# Table IV — classifier comparison (train {} / test {})",
        train.len(),
        test.len()
    );
    let y_true: Vec<usize> = test.records.iter().map(|r| r.label.index()).collect();
    let mut rows: Vec<Vec<String>> = Vec::new();

    // BAClassifier (full pipeline).
    let mut cfg = BacConfig::default();
    cfg.model.gnn_epochs = flag_parsed(&args, "--gnn-epochs", 12);
    cfg.model.head_epochs = flag_parsed(&args, "--head-epochs", 25);
    cfg.model.max_slices = scale.max_slices_per_address;
    eprintln!("[table4] fitting BAClassifier…");
    let mut bac = BaClassifier::new(cfg);
    let fit = bac.fit(&train);
    eprintln!(
        "[table4] BAClassifier fitted: {} graphs, gnn {:?}, head {:?}",
        fit.num_graphs,
        fit.gnn_log.total_time(),
        fit.head_log.total_time()
    );
    let pred: Vec<usize> = test
        .records
        .iter()
        .map(|r| bac.predict(r).expect("fitted model").index())
        .collect();
    report_rows(&mut rows, "BAClassifier", &y_true, &pred);

    // BitScope.
    eprintln!("[table4] fitting BitScope…");
    let mut bitscope = BitScope::new(scale.seed);
    bitscope.fit_records(&train.records);
    let pred: Vec<usize> = test
        .records
        .iter()
        .map(|r: &AddressRecord| bitscope.predict_record(r))
        .collect();
    report_rows(&mut rows, "BitScope", &y_true, &pred);

    // Lee et al. with both back-ends.
    for mut lee in [
        LeeClassifier::random_forest(scale.seed),
        LeeClassifier::ann(scale.seed),
    ] {
        eprintln!("[table4] fitting {}…", lee.name());
        lee.fit_records(&train.records);
        let pred: Vec<usize> = test.records.iter().map(|r| lee.predict_record(r)).collect();
        let name = lee.name().to_string();
        report_rows(&mut rows, &name, &y_true, &pred);
    }

    print_rows(
        "Table IV: BAClassifier vs prior address classifiers",
        &["Classifier", "Type", "Precision", "Recall", "F1-score"],
        &rows,
    );
    println!("\nthe paper's shape, not checked here: BAClassifier ≫ BitScope ≳ Lee-RF ≫ Lee-ANN; Service the hardest class");
}
