//! Production-deployment workflow: train once, persist the model artifact,
//! load it in a fresh process and classify a held-out batch.
//!
//! ```sh
//! cargo run --release -p bac-examples --bin deploy_workflow
//! ```

use baclassifier::metrics::ConfusionMatrix;
use baclassifier::models::NUM_CLASSES;
use baclassifier::{BaClassifier, BacConfig};
use btcsim::{Dataset, SimConfig, Simulator};

fn main() {
    // --- Training side ---
    println!("training…");
    let sim = Simulator::run_to_completion(SimConfig {
        blocks: 150,
        ..SimConfig::tiny(61)
    });
    let (train, test) = Dataset::from_simulator(&sim, 2).stratified_split(0.25, 4);
    let mut trainer = BaClassifier::new(BacConfig::fast());
    trainer.fit(&train);
    let artifact = std::env::temp_dir().join("baclassifier_demo.bart");
    trainer.save_artifact(&artifact).expect("save artifact");
    println!("saved the trained model to {}", artifact.display());

    // --- Serving side (fresh process in real life) ---
    let server = BaClassifier::load_artifact(&artifact).expect("load artifact");
    println!(
        "restored classifier from disk; classifying {} addresses…",
        test.len()
    );

    let y_true: Vec<usize> = test.records.iter().map(|r| r.label.index()).collect();
    let y_pred: Vec<usize> = test
        .records
        .iter()
        .map(|r| server.predict(r).expect("fitted model").index())
        .collect();
    let f1 = ConfusionMatrix::from_predictions(NUM_CLASSES, &y_true, &y_pred)
        .report()
        .weighted_f1;
    println!("weighted F1: {f1:.4}");
    std::fs::remove_file(artifact).ok();
}
