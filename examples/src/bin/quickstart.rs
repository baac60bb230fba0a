//! Quickstart: simulate a bitcoin economy, train BAClassifier, classify
//! addresses.
//!
//! ```sh
//! cargo run --release -p bac-examples --bin quickstart
//! ```

use baclassifier::{BaClassifier, BacConfig};
use btcsim::{Dataset, Label, SimConfig, Simulator};

fn main() {
    // 1. Simulate a bitcoin economy with labeled actors (the paper's
    //    dataset substitute — see DESIGN.md).
    println!("simulating blockchain…");
    let sim = Simulator::run_to_completion(SimConfig {
        blocks: 150,
        ..SimConfig::tiny(7)
    });
    println!(
        "  {} blocks, {} transactions, {} addresses",
        sim.chain().height(),
        sim.chain().num_transactions(),
        sim.chain().num_addresses()
    );

    // 2. Extract the labeled per-address dataset and split 80/20.
    let dataset = Dataset::from_simulator(&sim, 2);
    let counts = dataset.class_counts();
    for label in Label::ALL {
        println!("  {:>9}: {} addresses", label.name(), counts[label.index()]);
    }
    let (train, test) = dataset.stratified_split(0.2, 99);

    // 3. Train the full pipeline: graph construction -> GFN -> LSTM+MLP.
    println!("\ntraining BAClassifier on {} addresses…", train.len());
    let mut clf = BaClassifier::new(BacConfig::fast());
    let fit = clf.fit(&train);
    println!("  constructed {} slice graphs", fit.num_graphs);
    println!(
        "  GFN:      {} epochs, final train loss {:.4}",
        fit.gnn_log.points.len(),
        fit.gnn_log
            .points
            .last()
            .map(|p| p.train_loss)
            .unwrap_or(f32::NAN)
    );
    println!(
        "  LSTM+MLP: {} epochs, final train loss {:.4}",
        fit.head_log.points.len(),
        fit.head_log
            .points
            .last()
            .map(|p| p.train_loss)
            .unwrap_or(f32::NAN)
    );

    // 4. Evaluate on held-out addresses (the paper's Table IV layout).
    println!("\nevaluating on {} held-out addresses:", test.len());
    let report = clf.evaluate(&test);
    println!(
        "{}",
        report.to_table(&["Exchange", "Mining", "Gambling", "Service"])
    );

    // 5. Classify one specific address.
    let sample = &test.records[0];
    println!(
        "address {} ({} txs): predicted {}, actual {}",
        sample.address,
        sample.num_txs(),
        clf.predict(sample).expect("fitted model"),
        sample.label
    );
}
