//! Chaos benchmark: what resilience costs, written to
//! `results/chaos_bench.json`.
//!
//! ```text
//! chaos_bench [--seed 42] [--min-txs 3] [--requests 2000] [--zipf 1.1]
//!             [--panics 5] [--out results/chaos_bench.json]
//! ```
//!
//! Two phases, both driven by a deterministic [`ScriptedFaultPlan`]:
//!
//! 1. **Recovery latency** — panics are injected into a single-worker pool
//!    at known batch numbers during steady traffic; each sample is the time
//!    from observing the `WorkerFailed` outcome to the next successful
//!    model-path response (supervisor unwind + backoff + replica rebuild).
//! 2. **Degraded-mode throughput** — the circuit breaker is tripped by a
//!    scripted panic, then a zipf burst is pushed through the
//!    nearest-centroid fallback; the figure is how much capacity survives
//!    when the model path is down.

use baclassifier::{BaClassifier, BacConfig};
use baserve::cli::{flag_parsed, flag_value};
use baserve::metrics::Histogram;
use baserve::{
    Engine, EngineConfig, EngineHooks, Fallback, FaultPlan, FeatureFallback, ScriptedFaultPlan,
    ServeError, Ticket,
};
use btcsim::dist::ZipfSampler;
use btcsim::{Dataset, SimConfig, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = flag_parsed(&args, "--seed", 42);
    let min_txs: usize = flag_parsed(&args, "--min-txs", 3);
    let requests: usize = flag_parsed(&args, "--requests", 2000);
    let zipf_s: f64 = flag_parsed(&args, "--zipf", 1.1);
    let panics: usize = flag_parsed(&args, "--panics", 5);
    let out = flag_value(&args, "--out").unwrap_or_else(|| "results/chaos_bench.json".into());

    eprintln!("[chaos_bench] fitting a fast model (seed {seed})…");
    let sim = Simulator::run_to_completion(SimConfig::tiny(seed));
    let dataset = Dataset::from_simulator(&sim, min_txs);
    let mut clf = BaClassifier::new(BacConfig::fast());
    clf.fit(&dataset);
    let artifact = Arc::new(clf.to_artifact().expect("fitted classifier exports"));
    let fallback = Arc::new(FeatureFallback::fit(&dataset.records));

    // Phase 1: recovery latency. Single worker, sequential traffic, so
    // batch numbers equal request numbers and the panic points are exact.
    let panic_batches: Vec<u64> = (0..panics as u64).map(|i| 10 + 25 * i).collect();
    let plan = Arc::new(ScriptedFaultPlan::panics(0, &panic_batches));
    let engine = Engine::with_hooks(
        Arc::clone(&artifact),
        EngineConfig {
            workers: 1,
            breaker_threshold: 0, // keep the breaker out of the measurement
            restart_backoff: Duration::from_millis(2),
            ..EngineConfig::default()
        },
        EngineHooks {
            fault_plan: Arc::clone(&plan) as Arc<dyn FaultPlan>,
            ..EngineHooks::default()
        },
    )
    .expect("artifact matches its own model");
    let sampler = ZipfSampler::new(dataset.len(), zipf_s);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc4a0);
    let steady = *panic_batches.last().unwrap() as usize + 25;
    let mut recovery_us = Histogram::default();
    let mut failed_at: Option<Instant> = None;
    for _ in 0..steady {
        let idx = sampler.sample(&mut rng);
        match engine.classify(dataset.records[idx].clone()) {
            Ok(_) => {
                if let Some(t0) = failed_at.take() {
                    recovery_us.record(t0.elapsed().as_micros() as u64);
                }
            }
            Err(ServeError::WorkerFailed) => failed_at = Some(Instant::now()),
            Err(e) => panic!("unexpected outcome during recovery phase: {e}"),
        }
    }
    engine.shutdown();
    assert_eq!(plan.injected() as usize, panics, "script must fully fire");
    assert_eq!(
        recovery_us.count(),
        panics as u64,
        "each panic must be recovered"
    );
    let mean_us = recovery_us.mean();
    let p50_us = recovery_us.quantile(0.50);
    let max_us = recovery_us.quantile(1.0);
    eprintln!(
        "[chaos_bench] recovery over {panics} panics: mean {mean_us:.0}µs, \
         p50 {p50_us}µs, max {max_us}µs"
    );

    // Phase 2: degraded-mode throughput. One scripted panic trips the
    // breaker (threshold 1, cooldown far beyond the run), then the whole
    // burst is answered by the fallback.
    let engine = Engine::with_hooks(
        artifact,
        EngineConfig {
            workers: 1,
            breaker_threshold: 1,
            breaker_cooldown: Duration::from_secs(3600),
            restart_backoff: Duration::from_millis(1),
            ..EngineConfig::default()
        },
        EngineHooks {
            fault_plan: Arc::new(ScriptedFaultPlan::panics(0, &[1])) as Arc<dyn FaultPlan>,
            fallback: Some(fallback as Arc<dyn Fallback>),
        },
    )
    .expect("artifact matches its own model");
    let trip = engine.classify(dataset.records[0].clone());
    assert!(
        matches!(trip, Err(ServeError::WorkerFailed)),
        "scripted panic must trip the breaker, got {trip:?}"
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xde5);
    let window = 64usize;
    let mut in_flight: Vec<Ticket> = Vec::with_capacity(window);
    let t = Instant::now();
    let mut degraded = 0usize;
    for _ in 0..requests {
        let idx = sampler.sample(&mut rng);
        match engine.submit(dataset.records[idx].clone()) {
            Ok(ticket) => in_flight.push(ticket),
            Err(e) => panic!("degraded burst submission failed: {e}"),
        }
        if in_flight.len() >= window {
            for ticket in in_flight.drain(..) {
                let r = ticket.wait().expect("degraded request succeeds");
                assert!(r.degraded, "breaker open: every answer is fallback-served");
                degraded += 1;
            }
        }
    }
    for ticket in in_flight.drain(..) {
        let r = ticket.wait().expect("degraded request succeeds");
        assert!(r.degraded);
        degraded += 1;
    }
    let elapsed = t.elapsed();
    let snapshot = engine.metrics();
    engine.shutdown();
    let qps = degraded as f64 / elapsed.as_secs_f64();
    eprintln!(
        "[chaos_bench] degraded burst: {degraded} requests in {:.2}s = {qps:.0} req/s",
        elapsed.as_secs_f64()
    );

    let json = format!(
        "{{\"seed\":{seed},\"addresses\":{},\
         \"recovery\":{{\"panics\":{panics},\"mean_us\":{mean_us:.1},\
         \"p50_us\":{p50_us},\"max_us\":{max_us}}},\
         \"degraded\":{{\"requests\":{degraded},\"zipf_s\":{zipf_s},\
         \"elapsed_s\":{:.3},\"qps\":{qps:.1},\"metrics\":{}}}}}",
        dataset.len(),
        elapsed.as_secs_f64(),
        snapshot.to_json()
    );
    bac_bench::write_results_atomic(&out, &json);
    println!("wrote {out}");
}
