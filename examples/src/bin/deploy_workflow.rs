//! Production-deployment workflow: train once, persist the model artifact,
//! load it in a fresh process, classify a batch, then apply neighborhood label
//! refinement (the paper's §V future-work idea: "nodes of the same type
//! often cluster together").
//!
//! ```sh
//! cargo run --release -p bac-examples --bin deploy_workflow
//! ```

use baclassifier::metrics::ConfusionMatrix;
use baclassifier::models::NUM_CLASSES;
use baclassifier::refine::{one_hot, refine_predictions, RefineParams};
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
    let raw: Vec<usize> = test
        .records
        .iter()
        .map(|r| server.predict(r).expect("fitted model").index())
        .collect();
    let raw_f1 = ConfusionMatrix::from_predictions(NUM_CLASSES, &y_true, &raw)
        .report()
        .weighted_f1;

    // --- Post-processing: neighborhood label refinement ---
    let refined = refine_predictions(
        &test.records,
        &one_hot(&raw),
        RefineParams {
            alpha: 0.7,
            iterations: 3,
        },
    );
    let refined_f1 = ConfusionMatrix::from_predictions(NUM_CLASSES, &y_true, &refined)
        .report()
        .weighted_f1;

    let changed = raw.iter().zip(&refined).filter(|(a, b)| a != b).count();
    println!("model-only weighted F1:  {raw_f1:.4}");
    println!("with refinement:         {refined_f1:.4}  ({changed} predictions revised)");
    println!(
        "refinement {} the model on this batch",
        if refined_f1 >= raw_f1 {
            "matched or improved"
        } else {
            "slightly hurt"
        }
    );
    std::fs::remove_file(artifact).ok();
}
