//! Train a BAClassifier on a simulated dataset and save it as a `.bart`
//! model artifact for `basharded` / `baserve-loadgen` to serve.
//!
//! ```text
//! baserve-fit --out model.bart [--seed 42] [--min-txs 3] [--threads N]
//! ```
//!
//! Trains with the quick `BacConfig::fast()` preset. `--threads N` pins the
//! training worker count (0 = auto); any count produces byte-identical
//! weights. The simulation seed doubles as the dataset identity: serving
//! binaries rebuild the same dataset from the same `--seed`, so address ids
//! line up across processes.

use baclassifier::{BaClassifier, BacConfig};
use baserve::cli::Args;
use btcsim::{Dataset, SimConfig, Simulator};
use std::time::Instant;

fn main() {
    let mut args = Args::from_env();
    let out: String = args.get("--out").unwrap_or_else(|| "model.bart".into());
    let seed = args.get("--seed").unwrap_or(42u64);
    let min_txs = args.get("--min-txs").unwrap_or(3usize);
    let threads = args.get("--threads").unwrap_or(0usize);
    args.finish();

    eprintln!("[baserve-fit] simulating chain (seed {seed})…");
    let sim = Simulator::run_to_completion(SimConfig::tiny(seed));
    let dataset = Dataset::from_simulator(&sim, min_txs);
    eprintln!("[baserve-fit] dataset: {} labeled addresses", dataset.len());

    let mut cfg = BacConfig::fast();
    cfg.threads = threads;
    eprintln!(
        "[baserve-fit] training on {} thread(s)",
        cfg.effective_threads()
    );
    let mut clf = BaClassifier::new(cfg);
    let start = Instant::now();
    let report = clf.fit(&dataset);
    eprintln!(
        "[baserve-fit] fitted in {:.1}s ({} slice graphs)",
        start.elapsed().as_secs_f64(),
        report.num_graphs
    );

    let path = std::path::Path::new(&out);
    if let Err(e) = clf.save_artifact(path) {
        eprintln!("error: could not save artifact to {out}: {e}");
        std::process::exit(1);
    }
    let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    println!("saved {out} ({bytes} bytes, seed {seed}, min-txs {min_txs})");
}
