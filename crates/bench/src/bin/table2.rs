//! Table II — graph representation model comparison: GFN vs DiffPool vs GCN
//! (graph-level classification of compressed slice graphs) against the nine
//! traditional ML models on flattened features.
//!
//! Ablation flags: `--gfn-k N`, `--slice-size N`, `--no-augment`,
//! `--no-compress`, `--epochs N`; `--per-class` prints per-class metrics
//! under the weighted-average table.

use bac_bench::{build_split, f4, prepared_graph_set, print_rows, ExpScale};
use baclassifier::config::ConstructionConfig;
use baclassifier::features::NODE_FEAT_DIM;
use baclassifier::models::{DiffPool, Gcn, Gfn, GraphModel};
use baclassifier::train::{evaluate_graph_model, train_graph_model, TrainParams};
use baselines::{
    flat_dataset, AnnClassifier, BernoulliNb, Classifier, DecisionTree, GaussianNb, Gbdt, Knn,
    LinearSvm, LogisticRegression, Scaler, XgBoost,
};
use baserve::cli::{flag_parsed, flag_value, has_flag};

fn main() {
    let scale = ExpScale::from_args();
    let args: Vec<String> = std::env::args().collect();
    let gfn_k: usize = flag_parsed(&args, "--gfn-k", 2);
    let epochs: usize = flag_parsed(&args, "--epochs", 15);
    let mut cfg = ConstructionConfig::default();
    if let Some(s) = flag_value(&args, "--slice-size").and_then(|v| v.parse().ok()) {
        cfg.slice_size = s;
    }
    cfg.augment = !has_flag(&args, "--no-augment");
    cfg.compress = !has_flag(&args, "--no-compress");
    println!(
        "# Table II — graph representation models (k={gfn_k}, slice={}, augment={}, compress={}, epochs={epochs})",
        cfg.slice_size, cfg.augment, cfg.compress
    );

    let per_class = has_flag(&args, "--per-class");
    let (train, test) = build_split(&scale);
    println!("train {} / test {} addresses", train.len(), test.len());

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut class_rows: Vec<Vec<String>> = Vec::new();
    let class_names = ["Exchange", "Mining", "Gambling", "Service"];
    let mut push_class_rows = |name: &str, report: &baclassifier::metrics::ClassificationReport| {
        for (i, m) in report.per_class.iter().enumerate() {
            class_rows.push(vec![
                name.to_string(),
                class_names[i].to_string(),
                f4(m.precision),
                f4(m.recall),
                f4(m.f1),
            ]);
        }
    };

    // --- GNNs on slice graphs ---
    let gnns: Vec<Box<dyn GraphModel>> = vec![
        Box::new(Gfn::new(NODE_FEAT_DIM, gfn_k, 64, 32, scale.seed)),
        Box::new(DiffPool::new(NODE_FEAT_DIM, 64, 8, 32, scale.seed)),
        Box::new(Gcn::new(NODE_FEAT_DIM, 64, 32, scale.seed)),
    ];
    for model in &gnns {
        eprintln!("[table2] preparing graphs for {}…", model.name());
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
        eprintln!(
            "[table2] training {} on {} graphs ({} test)…",
            model.name(),
            train_set.len(),
            test_set.len()
        );
        let log = train_graph_model(
            model.as_ref(),
            &train_set,
            &[],
            TrainParams {
                epochs,
                learning_rate: 0.01,
                seed: scale.seed,
            },
            1,
        );
        let report = evaluate_graph_model(model.as_ref(), &test_set);
        eprintln!("[table2] {} done in {:?}", model.name(), log.total_time());
        push_class_rows(model.name(), &report);
        rows.push(vec![
            format!("GNN {}", model.name()),
            f4(report.weighted_precision),
            f4(report.weighted_recall),
            f4(report.weighted_f1),
        ]);
    }

    // --- Traditional ML on flattened features ---
    let (x_train_raw, y_train) = flat_dataset(&train.records);
    let (x_test_raw, y_test) = flat_dataset(&test.records);
    let scaler = Scaler::fit(&x_train_raw);
    let x_train = scaler.transform(&x_train_raw);
    let x_test = scaler.transform(&x_test_raw);

    let mut models: Vec<Box<dyn Classifier>> = vec![
        Box::new(LogisticRegression::default()),
        Box::new(AnnClassifier::default()),
        Box::new(LinearSvm::default()),
        Box::new(BernoulliNb::default()),
        Box::new(GaussianNb::default()),
        Box::new(Knn::default()),
        Box::new(DecisionTree::default()),
        Box::new(Gbdt::default()),
        Box::new(XgBoost::default()),
    ];
    for model in models.iter_mut() {
        eprintln!("[table2] fitting {}…", model.name());
        model.fit(&x_train, &y_train);
        let report = baselines::evaluate(model.as_ref(), &x_test, &y_test);
        push_class_rows(model.name(), &report);
        rows.push(vec![
            format!("ML  {}", model.name()),
            f4(report.weighted_precision),
            f4(report.weighted_recall),
            f4(report.weighted_f1),
        ]);
    }

    print_rows(
        "Table II: model comparison (weighted avg over classes)",
        &["Model", "Precision", "Recall", "F1-score"],
        &rows,
    );
    if per_class {
        print_rows(
            "Table II (detail): per-class metrics",
            &["Model", "Type", "Precision", "Recall", "F1-score"],
            &class_rows,
        );
    }
    println!("\nthe paper's shape, not checked here: GFN best (0.9769), GCN > DiffPool, GBDT best ML (0.9585), LR/NB weakest");
}
