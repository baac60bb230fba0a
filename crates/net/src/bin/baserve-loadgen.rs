//! Replay zipf-distributed query traffic against a serving engine — local
//! or remote — and report throughput, latency, and cache behavior.
//!
//! ```text
//! baserve-loadgen --artifact model.bart [--seed 42] [--min-txs 3]
//!                 [--requests 2000] [--qps 0] [--check] [--retry N]
//!                 [--connect HOST:PORT] [engine knobs]
//! ```
//!
//! Queries pick addresses from the rebuilt dataset with a zipf(1.1)
//! popularity distribution drawn from traffic seed 1 — the skew that makes
//! an answer LRU worthwhile. Up to 64 requests (no more than
//! `--queue-depth`) ride in flight, settled FIFO. `--qps 0`
//! (the default) runs unthrottled; a positive value paces submissions to
//! that target rate. With `--check`, every served label is compared against
//! a direct in-process replica of the same artifact and any mismatch makes
//! the run exit non-zero — the byte-identical-serving acceptance gate.
//!
//! `--retry N` resubmits a request up to N times when the engine sheds it
//! (queue full or circuit breaker open), backing off exponentially with
//! deterministic jitter between attempts.
//!
//! `--connect HOST:PORT` swaps the in-process engine for a BANET
//! connection to a running server (`basharded --listen`, or a worker).
//! Everything else — pacing, retries, the FIFO window, `--check`, the
//! client-side percentiles — is identical, because both paths sit behind
//! the same `ShardLane` surface; the client percentiles then include real
//! network round-trips.

use baclassifier::BaClassifier;
use banet::{RemoteShard, RemoteShardConfig};
use baserve::cli::{engine_config_from_args, Args, ServingInputs};
use baserve::metrics::Histogram;
use baserve::{splitmix64, Engine, ServeError, ShardLane, Ticket};
use btcsim::dist::ZipfSampler;
use btcsim::Label;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// The zipf exponent of address popularity.
const ZIPF_S: f64 = 1.1;
/// Seeds which addresses are asked for, and the retry jitter.
const TRAFFIC_SEED: u64 = 1;
/// Requests in flight (fewer if `--queue-depth` is smaller).
const MAX_WINDOW: usize = 64;

fn main() {
    let mut args = Args::from_env();
    let requests = args.get("--requests").unwrap_or(2000usize);
    let qps = args.get("--qps").unwrap_or(0.0f64);
    let check = args.flag("--check");
    let retry_max = args.get("--retry").unwrap_or(0u32);
    let connect: Option<String> = args.get("--connect");
    let config = engine_config_from_args(&mut args);
    let window = config.queue_depth.min(MAX_WINDOW);

    let ServingInputs { artifact, records } = ServingInputs::load(
        "loadgen",
        "baserve-loadgen --artifact model.bart [--requests N] [--qps N] …",
        args,
    );
    assert!(!records.is_empty(), "rebuilt dataset is empty");
    eprintln!(
        "[loadgen] {} addresses, {} requests, zipf s={ZIPF_S}, target qps={}",
        records.len(),
        requests,
        if qps > 0.0 {
            qps.to_string()
        } else {
            "unthrottled".into()
        }
    );

    let direct = if check {
        Some(BaClassifier::from_artifact(&artifact).expect("artifact loads in-process"))
    } else {
        None
    };

    let lane: Box<dyn ShardLane> = match &connect {
        Some(addr) => {
            let remote = RemoteShard::connect(
                addr,
                RemoteShardConfig {
                    max_in_flight: config.queue_depth,
                    ..RemoteShardConfig::default()
                },
                None,
            );
            if !remote.wait_connected(Duration::from_secs(5)) {
                eprintln!("error: could not connect to {addr} within 5s");
                std::process::exit(1);
            }
            eprintln!("[loadgen] connected to {addr}");
            Box::new(remote)
        }
        None => {
            Box::new(Engine::new(artifact, config).expect("engine starts from a valid artifact"))
        }
    };
    let sampler = ZipfSampler::new(records.len(), ZIPF_S);
    let mut rng = StdRng::seed_from_u64(TRAFFIC_SEED);

    // Direct-replica labels, memoized per address (computed lazily so
    // `--check` only pays for addresses the traffic actually touches).
    let mut expected: HashMap<usize, Label> = HashMap::new();
    let mut in_flight: Vec<(usize, Ticket, Instant)> = Vec::new();
    let mut served = 0usize;
    let mut rejected = 0usize;
    let mut mismatches = 0usize;
    let mut failed = 0usize;
    let mut retries = 0usize;
    let mut jitter_state = TRAFFIC_SEED ^ 0x9e37_79b9_7f4a_7c15;

    // Client-observed latency (submit → response), in µs. This includes
    // queue wait, ticket settling, and (with `--connect`) the network
    // round-trip, so it upper-bounds the engine's own histogram and is
    // what a remote caller actually sees.
    let mut latencies_us = Histogram::default();
    // Wait for each ticket in `batch`, oldest first; returns the failures.
    let mut settle = |batch: Vec<(usize, Ticket, Instant)>| {
        let mut failed = 0;
        for (idx, ticket, submitted_at) in batch {
            match ticket.wait() {
                Ok(response) => {
                    served += 1;
                    latencies_us.record(submitted_at.elapsed().as_micros() as u64);
                    if let Some(direct) = &direct {
                        let want = *expected.entry(idx).or_insert_with(|| {
                            direct
                                .predict(&records[idx])
                                .expect("records have transactions")
                        });
                        if response.label != want {
                            mismatches += 1;
                            eprintln!(
                                "[loadgen] MISMATCH address {}: served {} direct {}",
                                records[idx].address.0,
                                response.label.name(),
                                want.name()
                            );
                        }
                    }
                }
                Err(e) => {
                    failed += 1;
                    eprintln!("[loadgen] request failed: {e}");
                }
            }
        }
        failed
    };

    let start = Instant::now();
    for i in 0..requests {
        if qps > 0.0 {
            let due = start + Duration::from_secs_f64(i as f64 / qps);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let idx = sampler.sample(&mut rng);
        // Shed submissions (queue full, breaker open) are transient: with
        // `--retry N` they get up to N more attempts under exponential
        // backoff with deterministic jitter before counting as rejected.
        let mut attempt = 0u32;
        let outcome = loop {
            match lane.submit(records[idx].clone()) {
                Err(ServeError::QueueFull | ServeError::BreakerOpen) if attempt < retry_max => {
                    attempt += 1;
                    retries += 1;
                    let base_us = 200u64 << (attempt - 1).min(6);
                    let jitter_us = splitmix64(&mut jitter_state) % (base_us / 2 + 1);
                    std::thread::sleep(Duration::from_micros(base_us + jitter_us));
                }
                other => break other,
            }
        };
        match outcome {
            Ok(ticket) => in_flight.push((idx, ticket, Instant::now())),
            Err(ServeError::QueueFull | ServeError::BreakerOpen) => rejected += 1,
            Err(e) => {
                eprintln!("[loadgen] submit failed: {e}");
                failed += 1;
            }
        }
        if in_flight.len() >= window {
            failed += settle(std::mem::take(&mut in_flight));
        }
    }
    failed += settle(in_flight);
    let elapsed = start.elapsed();

    let snapshot = lane.metrics();
    lane.shutdown_lane();
    println!(
        "served {served}/{requests} in {:.2}s ({:.0} req/s), {rejected} rejected, \
         {failed} failed, {retries} retries",
        elapsed.as_secs_f64(),
        served as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    println!(
        "cache hit rate {:.1}% | mean batch {:.2} (max {}) | engine p50/p95/p99 latency {}/{}/{} µs",
        snapshot.cache_hit_rate() * 100.0,
        snapshot.batch_sizes.mean(),
        snapshot.batch_sizes.quantile(1.0),
        snapshot.latency_us.quantile(0.50),
        snapshot.latency_us.quantile(0.95),
        snapshot.latency_us.quantile(0.99),
    );
    println!(
        "client  p50/p95/p99 latency {}/{}/{} µs (submit → response, over {} samples)",
        latencies_us.quantile(0.50),
        latencies_us.quantile(0.95),
        latencies_us.quantile(0.99),
        latencies_us.count(),
    );
    println!("metrics {}", snapshot.to_json());
    if check {
        if mismatches > 0 {
            eprintln!("[loadgen] FAIL: {mismatches} served labels differ from the direct model");
            std::process::exit(1);
        }
        println!("check passed: all {served} served labels match the direct model");
    }
}
