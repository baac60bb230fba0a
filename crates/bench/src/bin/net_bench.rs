//! Network fleet benchmark: real `basharded --worker` *processes* behind
//! real TCP sockets, driven by a `remote_router` frontend — the full
//! multi-process deployment, measured and fault-injected, with results
//! written to `results/net_bench.json`.
//!
//! ```text
//! net_bench [--smoke] [--seed 42] [--shards 2] [--requests N]
//!           [--zipf 1.1] [--min-txs 3] [--out results/net_bench.json]
//! ```
//!
//! Four phases against one spawned fleet:
//!
//! * **Identity** — every dataset address classified through the remote
//!   fleet must match an in-process engine over the same artifact, label
//!   for label (the byte-identical-serving gate, now across process
//!   boundaries).
//! * **Burst** — a zipf-distributed request burst through the fleet;
//!   client-observed p50/p95/p99 (submit → response, network included)
//!   and throughput.
//! * **Kill** — SIGKILL one worker mid-traffic: every in-flight and
//!   subsequent request must settle in bounded time (degraded through the
//!   fallback or a clean shed — `requests_lost` counts hangs and must be
//!   zero), while the surviving shard keeps answering at full fidelity.
//! * **Recover** — respawn the worker on the same port; the lane
//!   reconnects under backoff and the time back to a full-fidelity answer
//!   is recorded.
//!
//! The workers are the production binary run exactly as an operator would
//! run it; the bench finds `basharded` next to its own executable, so
//! `cargo build --release` then `./target/release/net_bench --smoke` is
//! the whole recipe.

use bac_bench::write_results_atomic;
use baclassifier::{BaClassifier, BacConfig, ModelArtifact, ShardMap};
use banet::RemoteShardConfig;
use baserve::cli::{flag_parsed, flag_value, has_flag};
use baserve::metrics::Histogram;
use baserve::{Fallback, FeatureFallback, ServeError};
use bashard::{remote_router, wait_fleet_up, ShardRouter};
use btcsim::dist::ZipfSampler;
use btcsim::AddressRecord;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::BufRead;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Freshly initialized weights exported through the NNIO stream — a valid
/// fitted-state artifact; identity needs determinism, not accuracy.
fn untrained_artifact() -> Arc<ModelArtifact> {
    let cfg = BacConfig::fast();
    let clf = BaClassifier::new(cfg.clone());
    let path = std::env::temp_dir().join(format!("net_bench_weights_{}", std::process::id()));
    clf.save_weights(&path).expect("write weights");
    let weights = numnet::read_matrices(&mut std::fs::File::open(&path).expect("reopen weights"))
        .expect("read weights");
    std::fs::remove_file(&path).ok();
    Arc::new(ModelArtifact {
        config: cfg,
        weights,
    })
}

/// A free loopback port: bind ephemeral, read the assignment, release.
/// The worker re-binds it with `SO_REUSEADDR` and a short retry, so the
/// tiny race window is harmless.
fn free_port() -> u16 {
    TcpListener::bind("127.0.0.1:0")
        .expect("bind ephemeral")
        .local_addr()
        .expect("bound addr")
        .port()
}

/// Spawn one `basharded --worker` process and wait for its
/// `listening <addr>` line; returns the child and the address it serves.
fn spawn_worker(
    basharded: &Path,
    artifact_path: &Path,
    index: u32,
    shards: u32,
    port: u16,
    seed: u64,
    min_txs: usize,
) -> (Child, String) {
    let addr = format!("127.0.0.1:{port}");
    let mut child = Command::new(basharded)
        .arg("--artifact")
        .arg(artifact_path)
        .args(["--worker", &index.to_string()])
        .args(["--shards", &shards.to_string()])
        .args(["--listen", &addr])
        .args(["--seed", &seed.to_string()])
        .args(["--min-txs", &min_txs.to_string()])
        .arg("--no-fallback")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn basharded worker");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut line = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read worker banner");
    let bound = line
        .strip_prefix("listening ")
        .unwrap_or_else(|| panic!("unexpected worker banner: {line:?}"))
        .trim()
        .to_string();
    (child, bound)
}

/// Drive `n` zipf requests through the router with a FIFO in-flight
/// window; returns (client latencies µs, settled count, shed count).
fn burst(
    router: &ShardRouter,
    records: &[AddressRecord],
    n: usize,
    zipf_s: f64,
    traffic_seed: u64,
    window: usize,
) -> (Histogram, usize, usize) {
    let sampler = ZipfSampler::new(records.len(), zipf_s);
    let mut rng = StdRng::seed_from_u64(traffic_seed);
    let mut in_flight = std::collections::VecDeque::new();
    let mut latencies = Histogram::default();
    let mut settled = 0usize;
    let mut shed = 0usize;
    let settle_one = |(ticket, at): (baserve::Ticket, Instant),
                      latencies: &mut Histogram,
                      settled: &mut usize,
                      shed: &mut usize| {
        match ticket.wait() {
            Ok(_) => {
                *settled += 1;
                latencies.record(at.elapsed().as_micros() as u64);
            }
            Err(_) => *shed += 1,
        }
    };
    for _ in 0..n {
        let idx = sampler.sample(&mut rng);
        match router.submit(records[idx].clone()) {
            Ok(ticket) => in_flight.push_back((ticket, Instant::now())),
            Err(_) => shed += 1,
        }
        if in_flight.len() >= window {
            let head = in_flight.pop_front().unwrap();
            settle_one(head, &mut latencies, &mut settled, &mut shed);
        }
    }
    for head in in_flight {
        settle_one(head, &mut latencies, &mut settled, &mut shed);
    }
    (latencies, settled, shed)
}

/// Poll until the fleet answers `record` at full fidelity; panics past
/// `timeout` (a hang here is the failure the bench exists to catch).
fn wait_full_fidelity(
    router: &ShardRouter,
    record: &AddressRecord,
    timeout: Duration,
    what: &str,
) -> Duration {
    let start = Instant::now();
    loop {
        assert!(
            start.elapsed() < timeout,
            "{what}: no recovery within {timeout:?}"
        );
        if let Ok(ticket) = router.submit(record.clone()) {
            if let Ok(response) = ticket.wait() {
                if !response.degraded {
                    return start.elapsed();
                }
            }
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = has_flag(&args, "--smoke");
    let seed: u64 = flag_parsed(&args, "--seed", 42);
    let shards: u32 = flag_parsed(&args, "--shards", 2);
    let requests: usize = flag_parsed(&args, "--requests", if smoke { 400 } else { 5000 });
    let zipf_s: f64 = flag_parsed(&args, "--zipf", 1.1);
    let min_txs: usize = flag_parsed(&args, "--min-txs", 3);
    let out = flag_value(&args, "--out").unwrap_or_else(|| "results/net_bench.json".into());

    let basharded: PathBuf = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .join("basharded");
    assert!(
        basharded.exists(),
        "{} not found — build the workspace first",
        basharded.display()
    );

    let artifact = untrained_artifact();
    let artifact_path = std::env::temp_dir().join(format!("net_bench_{}.bart", std::process::id()));
    artifact.save(&artifact_path).expect("save artifact");

    let mut records: Vec<AddressRecord> = baserve::cli::rebuild_records(seed, min_txs);
    records.sort_by_key(|r| r.address.0);
    assert!(
        !records.is_empty(),
        "dataset rebuilt from seed {seed} is empty"
    );
    eprintln!(
        "[net_bench] {} addresses, {shards} workers, {requests} requests",
        records.len()
    );

    // --- spawn the fleet -------------------------------------------------
    let ports: Vec<u16> = (0..shards).map(|_| free_port()).collect();
    let spawn_at = |i: u32| {
        spawn_worker(
            &basharded,
            &artifact_path,
            i,
            shards,
            ports[i as usize],
            seed,
            min_txs,
        )
    };
    let t_spawn = Instant::now();
    let mut fleet: Vec<Child> = Vec::new();
    let mut addrs: Vec<String> = Vec::new();
    for i in 0..shards {
        let (child, addr) = spawn_at(i);
        fleet.push(child);
        addrs.push(addr);
    }
    let fallback: Arc<dyn Fallback> = Arc::new(FeatureFallback::fit(&records));
    let config = RemoteShardConfig {
        max_in_flight: 4096,
        backoff: Duration::from_millis(20),
        backoff_max: Duration::from_millis(500),
        probe_interval: Duration::from_millis(25),
        ..RemoteShardConfig::default()
    };
    let (router, health) = remote_router(&addrs, config, Some(fallback));
    assert!(
        wait_fleet_up(&health, Duration::from_secs(30)),
        "fleet never converged"
    );
    let spawn_s = t_spawn.elapsed().as_secs_f64();
    eprintln!(
        "[net_bench] fleet of {shards} up in {spawn_s:.2}s: {}",
        addrs.join(", ")
    );

    // --- phase 1: identity across process boundaries ---------------------
    let direct = BaClassifier::from_artifact(&artifact).expect("artifact loads in-process");
    let identity_sample = if smoke {
        records.len().min(64)
    } else {
        records.len()
    };
    let responses = router.classify_batch(&records[..identity_sample]);
    let mut checked = 0usize;
    for (record, response) in records[..identity_sample].iter().zip(responses) {
        let response = response.expect("identity batch within admission budget");
        let want = direct.predict(record).expect("records have transactions");
        assert_eq!(
            response.label, want,
            "remote fleet diverged from the in-process engine on address {}",
            record.address.0
        );
        checked += 1;
    }
    eprintln!("[net_bench] identity: {checked}/{checked} labels match in-process");

    // --- phase 2: zipf burst ---------------------------------------------
    let t_burst = Instant::now();
    let (latencies, settled, shed) = burst(&router, &records, requests, zipf_s, 1, 64);
    let burst_s = t_burst.elapsed().as_secs_f64();
    let rps = settled as f64 / burst_s.max(1e-9);
    let (p50, p95, p99) = (
        latencies.quantile(0.50),
        latencies.quantile(0.95),
        latencies.quantile(0.99),
    );
    eprintln!(
        "[net_bench] burst: {settled} served ({shed} shed) in {burst_s:.2}s = {rps:.0} rps, \
         p50 {p50}µs p95 {p95}µs p99 {p99}µs"
    );

    // --- phase 3: SIGKILL a worker mid-traffic ---------------------------
    let map = ShardMap::new(shards);
    let victim_shard = 0u32;
    let victim_record = records
        .iter()
        .find(|r| map.shard_of(r.address) == victim_shard)
        .expect("some address lands on the victim shard")
        .clone();
    let survivor_record = records
        .iter()
        .find(|r| map.shard_of(r.address) != victim_shard)
        .expect("some address lands elsewhere")
        .clone();

    fleet[victim_shard as usize].kill().expect("kill worker");
    fleet[victim_shard as usize].wait().expect("reap worker");
    let t_kill = Instant::now();

    // Every request in the outage window must settle — degraded, shed, or
    // (while the lane flaps) a clean error. A hang would stall this loop
    // and trip the deadline; `requests_lost` stays 0 iff nothing hangs.
    let outage_requests = if smoke { 100 } else { 500 };
    let mut degraded_answers = 0usize;
    let mut outage_settled = 0usize;
    let deadline = Duration::from_secs(30);
    for _ in 0..outage_requests {
        assert!(
            t_kill.elapsed() < deadline,
            "outage traffic did not settle within {deadline:?} of the kill"
        );
        match router.submit(victim_record.clone()) {
            Ok(ticket) => match ticket.wait() {
                Ok(response) => {
                    outage_settled += 1;
                    if response.degraded {
                        degraded_answers += 1;
                    }
                }
                Err(
                    ServeError::WorkerFailed | ServeError::DeadlineExceeded | ServeError::QueueFull,
                ) => outage_settled += 1,
                Err(e) => panic!("unexpected outage error: {e}"),
            },
            Err(ServeError::QueueFull | ServeError::WorkerFailed) => outage_settled += 1,
            Err(e) => panic!("unexpected outage admission error: {e}"),
        }
    }
    let requests_lost = outage_requests - outage_settled;
    assert_eq!(requests_lost, 0, "requests hung during the outage");
    assert!(
        degraded_answers > 0,
        "fallback never engaged during the outage"
    );
    let survivor = router
        .submit(survivor_record.clone())
        .expect("survivor admits")
        .wait()
        .expect("survivor answers");
    assert!(!survivor.degraded, "surviving shard answered degraded");
    let down_detect_s = t_kill.elapsed().as_secs_f64();
    eprintln!(
        "[net_bench] kill: {outage_settled}/{outage_requests} settled, \
         {degraded_answers} degraded, 0 lost ({down_detect_s:.2}s outage window)"
    );

    // --- phase 4: respawn on the same port, measure recovery -------------
    let t_respawn = Instant::now();
    let (revived, revived_addr) = spawn_at(victim_shard);
    assert_eq!(
        revived_addr, addrs[victim_shard as usize],
        "respawn moved ports"
    );
    fleet[victim_shard as usize] = revived;
    assert!(
        wait_fleet_up(&health, Duration::from_secs(30)),
        "fleet never re-converged after respawn"
    );
    let recovery = wait_full_fidelity(
        &router,
        &victim_record,
        Duration::from_secs(30),
        "post-respawn",
    );
    let recovery_s = t_respawn.elapsed().as_secs_f64();
    let merged = router.metrics();
    assert!(merged.reconnects_total >= 1, "recovery did not reconnect");
    eprintln!(
        "[net_bench] recover: full fidelity {recovery:?} after respawn \
         ({} reconnects, {} degraded-routed total)",
        merged.reconnects_total,
        router.degraded_routed()
    );

    // --- teardown + report ----------------------------------------------
    let degraded_routed = router.degraded_routed();
    let json = format!(
        "{{\"smoke\":{smoke},\"seed\":{seed},\"shards\":{shards},\"addresses\":{},\
         \"fleet_spawn_s\":{spawn_s:.3},\"identity_checked\":{checked},\
         \"burst\":{{\"requests\":{requests},\"settled\":{settled},\"shed\":{shed},\
         \"wall_s\":{burst_s:.3},\"rps\":{rps:.1},\"p50_us\":{p50},\"p95_us\":{p95},\
         \"p99_us\":{p99}}},\
         \"kill\":{{\"outage_requests\":{outage_requests},\"settled\":{outage_settled},\
         \"degraded_answers\":{degraded_answers},\"requests_lost\":{requests_lost},\
         \"outage_window_s\":{down_detect_s:.3}}},\
         \"recover\":{{\"recovery_s\":{recovery_s:.3},\
         \"reconnects_total\":{},\"degraded_routed\":{degraded_routed}}}}}",
        records.len(),
        merged.reconnects_total,
    );
    router.shutdown();
    for child in &mut fleet {
        child.kill().ok();
        child.wait().ok();
    }
    std::fs::remove_file(&artifact_path).ok();
    write_results_atomic(&out, &json);
    eprintln!("[net_bench] wrote {out}");
}
