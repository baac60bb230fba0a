//! Single- vs multi-thread training benchmark, written to
//! `results/train_bench.json`.
//!
//! ```text
//! train_bench [--seed 42] [--threads 4] [--min-speedup 2.0]
//!             [--out results/train_bench.json] [--smoke]
//! ```
//!
//! Runs the same `fit()` twice — `threads = 1` and `threads = N` — on one
//! workload and reports both wall-clocks. Two assertions:
//!
//! 1. **Byte-identity** (always): the two fits must produce byte-identical
//!    artifacts and identical held-out predictions. This is the
//!    deterministic-reduction guarantee of `baclassifier::parallel`.
//! 2. **Speedup** (full mode, hosts with at least `--threads` cores only):
//!    the parallel fit must be at least `--min-speedup` times faster.
//!    Skipped under `--smoke` and whenever `cores < threads` — N threads on
//!    fewer than N cores cannot reach a default tuned for N even with zero
//!    overhead; the JSON records `cores`, `threads` and `speedup_gated` so
//!    readers can tell a skipped gate from a passed one.
//!
//! `--smoke` shrinks the workload to CI scale (a few seconds) and checks
//! only byte-identity.

use bac_bench::ExpScale;
use baclassifier::{BaClassifier, BacConfig};
use baserve::cli::Args;
use btcsim::{Dataset, SimConfig, Simulator};
use std::time::Instant;

fn fit_once(cfg: BacConfig, train: &Dataset) -> (BaClassifier, f64) {
    let threads = cfg.effective_threads();
    let mut clf = BaClassifier::new(cfg);
    let t = Instant::now();
    clf.fit(train);
    let secs = t.elapsed().as_secs_f64();
    eprintln!("[train_bench] fit with {threads} thread(s): {secs:.2}s");
    (clf, secs)
}

/// `save_artifact` bytes. `threads` is not persisted, so equal bytes mean
/// equal models.
fn artifact_bytes(clf: &BaClassifier, tag: &str) -> Vec<u8> {
    let path = std::env::temp_dir().join(format!("train_bench_{tag}_{}", std::process::id()));
    clf.save_artifact(&path).expect("save artifact");
    let bytes = std::fs::read(&path).expect("read artifact back");
    std::fs::remove_file(&path).ok();
    bytes
}

fn main() {
    let mut args = Args::from_env();
    let smoke = args.flag("--smoke");
    let seed: u64 = args.get("--seed").unwrap_or(42);
    let threads: usize = args.get("--threads").unwrap_or(4);
    let min_speedup: f64 = args.get("--min-speedup").unwrap_or(2.0);
    let out: String = args
        .get("--out")
        .unwrap_or_else(|| "results/train_bench.json".into());
    args.finish();
    assert!(threads >= 2, "--threads must be >= 2 to compare against 1");

    let (train, test) = if smoke {
        let sim = Simulator::run_to_completion(SimConfig::tiny(seed));
        Dataset::from_simulator(&sim, 3).stratified_split(0.25, seed ^ 0x7e57)
    } else {
        let mut scale = ExpScale::small();
        scale.seed = seed;
        bac_bench::build_split(&scale)
    };
    eprintln!(
        "[train_bench] workload: {} train / {} test addresses ({})",
        train.len(),
        test.len(),
        if smoke { "smoke" } else { "full" }
    );

    let mut cfg = BacConfig::fast();
    if smoke {
        cfg.model.gnn_epochs = 2;
        cfg.model.head_epochs = 3;
    }
    cfg.threads = 1;
    let (serial, serial_s) = fit_once(cfg.clone(), &train);
    cfg.threads = threads;
    let (pooled, parallel_s) = fit_once(cfg, &train);

    let identical = artifact_bytes(&serial, "serial") == artifact_bytes(&pooled, "pooled");
    assert!(
        identical,
        "threads={threads} fit must be byte-identical to threads=1"
    );
    let mut compared = 0usize;
    for r in &test.records {
        let a = serial.predict(r);
        let b = pooled.predict(r);
        assert_eq!(a, b, "prediction diverged for address {}", r.address.0);
        compared += 1;
    }
    eprintln!("[train_bench] byte-identical weights, {compared} identical predictions");

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = serial_s / parallel_s.max(1e-9);
    let speedup_gated = !smoke && cores >= threads;
    eprintln!(
        "[train_bench] serial {serial_s:.2}s, parallel {parallel_s:.2}s, \
         speedup {speedup:.2}x on {cores} core(s)"
    );
    if speedup_gated {
        assert!(
            speedup >= min_speedup,
            "parallel fit must be >= {min_speedup:.1}x faster (got {speedup:.2}x on {cores} cores)"
        );
    } else {
        eprintln!(
            "[train_bench] speedup gate skipped (smoke={smoke}, cores={cores}, threads={threads})"
        );
    }

    let json = format!(
        "{{\"seed\":{seed},\"smoke\":{smoke},\"cores\":{cores},\"threads\":{threads},\
         \"train_addresses\":{},\"test_addresses\":{},\
         \"fit_serial_s\":{serial_s:.3},\"fit_parallel_s\":{parallel_s:.3},\
         \"speedup\":{speedup:.3},\"speedup_gated\":{speedup_gated},\
         \"min_speedup\":{min_speedup},\"byte_identical\":true,\
         \"predictions_compared\":{compared}}}",
        train.len(),
        test.len(),
    );
    bac_bench::write_results_atomic(&out, &json);
    println!("wrote {out}");
}
