//! Serving benchmark: cold vs cache-warm single-query latency and batched
//! throughput for the `baserve` engine, written to `results/serve_bench.json`.
//!
//! ```text
//! serve_bench [--seed 42] [--min-txs 3] [--requests 2000] [--zipf 1.1]
//!             [--workers N] [--out results/serve_bench.json]
//! ```
//!
//! The cold phase queries every address once through an empty cache (each
//! query pays graph construction + GFN embedding); the warm phase repeats
//! the same queries against the now-populated cache (only the LSTM head
//! runs). The throughput phase pushes a zipf-distributed burst through a
//! fresh engine, 64 requests in flight. The engine has no batching window:
//! a free worker takes what is queued, so warm latency is the head plus a
//! thread hand-off and the batch sizes reported are the ones the load formed.

use baclassifier::{BaClassifier, BacConfig};
use baserve::cli::{flag_parsed, flag_value};
use baserve::metrics::Histogram;
use baserve::{Engine, EngineConfig, Ticket};
use btcsim::dist::ZipfSampler;
use btcsim::{Dataset, SimConfig, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

fn json_phase(name: &str, h: &Histogram) -> String {
    format!(
        "\"{name}\":{{\"queries\":{},\"mean_us\":{:.1},\"p50_us\":{},\"p95_us\":{}}}",
        h.count(),
        h.mean(),
        h.quantile(0.50),
        h.quantile(0.95)
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = flag_parsed(&args, "--seed", 42);
    let min_txs: usize = flag_parsed(&args, "--min-txs", 3);
    let requests: usize = flag_parsed(&args, "--requests", 2000);
    let zipf_s: f64 = flag_parsed(&args, "--zipf", 1.1);
    let out = flag_value(&args, "--out").unwrap_or_else(|| "results/serve_bench.json".into());

    eprintln!("[serve_bench] fitting a fast model (seed {seed})…");
    let sim = Simulator::run_to_completion(SimConfig::tiny(seed));
    let dataset = Dataset::from_simulator(&sim, min_txs);
    let mut clf = BaClassifier::new(BacConfig::fast());
    clf.fit(&dataset);
    let artifact = Arc::new(clf.to_artifact().expect("fitted classifier exports"));

    let mut config = EngineConfig::default();
    if let Some(w) = flag_value(&args, "--workers").and_then(|v| v.parse().ok()) {
        config.workers = w;
    }

    // Phase 1+2: cold then warm single-query latency, same engine, so the
    // warm pass replays the identical key set against a populated cache.
    let engine =
        Engine::new(Arc::clone(&artifact), config.clone()).expect("artifact matches its own model");
    let mut cold = Histogram::default();
    for record in &dataset.records {
        let t = Instant::now();
        let r = engine.classify(record.clone()).expect("classify succeeds");
        cold.record(t.elapsed().as_micros() as u64);
        assert!(!r.cache_hit, "first touch of an address must miss");
    }
    let mut warm = Histogram::default();
    for record in &dataset.records {
        let t = Instant::now();
        let r = engine.classify(record.clone()).expect("classify succeeds");
        warm.record(t.elapsed().as_micros() as u64);
        assert!(r.cache_hit, "second touch of an address must hit");
    }
    engine.shutdown();
    let (cold_p50, warm_p50) = (cold.quantile(0.50), warm.quantile(0.50));
    eprintln!(
        "[serve_bench] cold p50 {cold_p50}µs vs warm p50 {warm_p50}µs ({:.1}x)",
        cold_p50 as f64 / warm_p50.max(1) as f64
    );

    // Phase 3: batched zipf burst through a fresh engine.
    let engine = Engine::new(artifact, config.clone()).expect("artifact matches its own model");
    let sampler = ZipfSampler::new(dataset.len(), zipf_s);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10ad);
    let window = config.queue_depth.min(64);
    let mut in_flight: Vec<Ticket> = Vec::with_capacity(window);
    let t = Instant::now();
    for _ in 0..requests {
        let idx = sampler.sample(&mut rng);
        match engine.submit(dataset.records[idx].clone()) {
            Ok(ticket) => in_flight.push(ticket),
            Err(e) => panic!("burst submission failed: {e}"),
        }
        if in_flight.len() >= window {
            for ticket in in_flight.drain(..) {
                ticket.wait().expect("burst request succeeds");
            }
        }
    }
    for ticket in in_flight.drain(..) {
        ticket.wait().expect("burst request succeeds");
    }
    let elapsed = t.elapsed();
    let snapshot = engine.metrics();
    engine.shutdown();
    let qps = requests as f64 / elapsed.as_secs_f64();
    eprintln!(
        "[serve_bench] burst: {requests} requests in {:.2}s = {:.0} req/s, \
         hit rate {:.1}%, mean batch {:.1}",
        elapsed.as_secs_f64(),
        qps,
        snapshot.cache_hit_rate() * 100.0,
        snapshot.batch_sizes.mean()
    );

    let json = format!(
        "{{\"seed\":{seed},\"addresses\":{},\"workers\":{},{},{},\
         \"throughput\":{{\"requests\":{requests},\"zipf_s\":{zipf_s},\
         \"elapsed_s\":{:.3},\"qps\":{:.1},\"metrics\":{}}}}}",
        dataset.len(),
        config.workers,
        json_phase("cold", &cold),
        json_phase("warm", &warm),
        elapsed.as_secs_f64(),
        qps,
        snapshot.to_json()
    );
    bac_bench::write_results_atomic(&out, &json);
    println!("wrote {out}");
}
