//! Table II — graph representation model comparison: GFN vs DiffPool vs GCN
//! (graph-level classification of compressed slice graphs) against the nine
//! traditional ML models on flattened features, at the default construction
//! configuration. `ablations` varies the slice size, the stages and GFN k.

use bac_bench::{build_split, f4, prepared_graph_set, print_rows, ExpScale};
use baclassifier::config::ConstructionConfig;
use baclassifier::features::NODE_FEAT_DIM;
use baclassifier::models::{DiffPool, Gcn, Gfn, GraphModel};
use baclassifier::train::{evaluate_graph_model, train_graph_model, TrainParams};
use baselines::{
    flat_dataset, AnnClassifier, BernoulliNb, Classifier, DecisionTree, GaussianNb, Gbdt, Knn,
    LinearSvm, LogisticRegression, Scaler, XgBoost,
};

// GFN propagation depth k (Eq. 13), and training epochs of each GNN.
const GFN_K: usize = 2;
const EPOCHS: usize = 15;

fn main() {
    let scale = ExpScale::from_args();
    let cfg = ConstructionConfig::default();
    println!(
        "# Table II — graph representation models (k={GFN_K}, slice={}, augment={}, compress={}, epochs={EPOCHS})",
        cfg.slice_size, cfg.augment, cfg.compress
    );

    let (train, test) = build_split(&scale);
    println!("train {} / test {} addresses", train.len(), test.len());

    let mut rows: Vec<Vec<String>> = Vec::new();

    // --- GNNs on slice graphs ---
    let gnns: Vec<Box<dyn GraphModel>> = vec![
        Box::new(Gfn::new(NODE_FEAT_DIM, GFN_K, 64, 32, scale.seed)),
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
                epochs: EPOCHS,
                learning_rate: 0.01,
                seed: scale.seed,
            },
            1,
        );
        let report = evaluate_graph_model(model.as_ref(), &test_set);
        eprintln!("[table2] {} done in {:?}", model.name(), log.total_time());
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
    println!("\nthe paper's shape, not checked here: GFN best (0.9769), GCN > DiffPool, GBDT best ML (0.9585), LR/NB weakest");
}
