//! The deployment no in-process test reaches: real `basharded --worker`
//! *processes* behind TCP, one of them SIGKILLed mid-traffic.
//! `tests/tests/net.rs` proves the same contract against `NetServer`s on
//! threads of the test process; here the workers are the production binary
//! started the way an operator starts it, so the `listening <addr>` banner,
//! the artifact + seed preamble, rebinding the same port after a process
//! death (std's listener sets `SO_REUSEADDR` on unix) and a connection torn
//! down by the kernel (not by `stop()`) are all on the path.

use baclassifier::{BaClassifier, BacConfig, ModelArtifact, ShardMap};
use banet::RemoteShardConfig;
use baserve::{Fallback, Response, ServeError};
use bashard::{remote_router, wait_fleet_up, ShardRouter};
use btcsim::AddressRecord;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SEED: u64 = 42;
const MIN_TXS: usize = 3;
const SHARDS: u32 = 2;
/// Generous for a debug build on a shared one-core host; a healthy run
/// never comes near it.
const PATIENCE: Duration = Duration::from_secs(30);

/// Everything the test leaves outside its own process: the worker children
/// and the artifact file they load. Dropped on every exit path, a failed
/// assert included, so no orphan `basharded` outlives the test.
struct Fleet {
    artifact: PathBuf,
    workers: Vec<Option<Child>>,
}

impl Fleet {
    /// Start worker `index` on `listen` and return the address it bound,
    /// parsed from its `listening <addr>` banner.
    fn spawn(&mut self, index: u32, listen: &str) -> String {
        let mut child = Command::new(env!("CARGO_BIN_EXE_basharded"))
            .arg("--artifact")
            .arg(&self.artifact)
            .args(["--worker", &index.to_string()])
            .args(["--shards", &SHARDS.to_string()])
            .args(["--listen", listen])
            .args(["--seed", &SEED.to_string()])
            .args(["--min-txs", &MIN_TXS.to_string()])
            .arg("--no-fallback")
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn basharded --worker");
        let stdout = child.stdout.take().expect("piped stdout");
        // Owned by the guard before anything below can panic.
        self.workers[index as usize] = Some(child);
        let mut banner = String::new();
        BufReader::new(stdout)
            .read_line(&mut banner)
            .expect("read worker banner");
        banner
            .strip_prefix("listening ")
            .unwrap_or_else(|| panic!("worker {index} printed {banner:?}, not its banner"))
            .trim()
            .to_string()
    }

    /// SIGKILL worker `index` and reap it.
    fn kill(&mut self, index: u32) {
        if let Some(mut child) = self.workers[index as usize].take() {
            child.kill().ok();
            child.wait().ok();
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for index in 0..self.workers.len() as u32 {
            self.kill(index);
        }
        std::fs::remove_file(&self.artifact).ok();
    }
}

/// One request, settled: a reply or a clean error. A ticket still pending
/// after `PATIENCE` is the hang this test exists to catch.
fn settle(router: &ShardRouter, record: &AddressRecord) -> Result<Response, ServeError> {
    router
        .submit(record.clone())?
        .wait_timeout(PATIENCE)
        .unwrap_or_else(|_| panic!("request for {:?} hung", record.address))
}

#[test]
fn killed_worker_process_degrades_then_recovers_on_the_same_port() {
    let artifact = ModelArtifact::untrained(BacConfig::fast());
    let mut fleet = Fleet {
        artifact: std::env::temp_dir().join(format!("worker_fleet_{}.bart", std::process::id())),
        workers: (0..SHARDS).map(|_| None).collect(),
    };
    artifact.save(&fleet.artifact).expect("save artifact");
    let addrs: Vec<String> = (0..SHARDS).map(|i| fleet.spawn(i, "127.0.0.1:0")).collect();

    // The workers rebuilt this dataset from the same seed.
    let records = baserve::cli::rebuild_records(SEED, MIN_TXS);
    let fallback = Arc::new(Fallback::fit(&records));
    let config = RemoteShardConfig {
        max_in_flight: 4096,
        ..RemoteShardConfig::default()
    };
    let (router, lanes) = remote_router(&addrs, config, Some(fallback));
    assert!(wait_fleet_up(&lanes, PATIENCE), "fleet never converged");

    // Identity across the process boundary.
    let direct = BaClassifier::from_artifact(&artifact).expect("artifact loads in-process");
    let sample = &records[..records.len().min(64)];
    assert!(sample.len() >= 32, "only {} addresses", sample.len());
    for (record, response) in sample.iter().zip(router.classify_batch(sample)) {
        let response = response.expect("batch within the admission budget");
        assert!(!response.degraded, "healthy fleet answered degraded");
        assert_eq!(
            response.label,
            direct.predict(record).expect("record has transactions"),
            "worker processes diverged from predict on {:?}",
            record.address
        );
    }

    // SIGKILL shard 0. Every request for one of its addresses must settle:
    // degraded through the fallback once the lane notices, a clean error in
    // the window before it does.
    let map = ShardMap::new(SHARDS);
    let on_shard = |shard: u32| {
        let found = records.iter().find(|r| map.shard_of(r.address) == shard);
        found.expect("every shard owns an address").clone()
    };
    let (victim, survivor) = (on_shard(0), on_shard(1));
    fleet.kill(0);
    let mut degraded = 0;
    for _ in 0..100 {
        match settle(&router, &victim) {
            Ok(response) => {
                assert!(response.degraded, "a dead worker answered at full fidelity");
                degraded += 1;
            }
            Err(
                ServeError::WorkerFailed | ServeError::DeadlineExceeded | ServeError::QueueFull,
            ) => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("unexpected error during the outage: {e}"),
        }
    }
    assert!(degraded > 0, "fallback never engaged during the outage");
    assert!(lanes[0].degraded.load(Relaxed) > 0);
    assert_eq!(
        lanes[0].connections_open.load(Relaxed),
        0,
        "the victim's lane still reads connected"
    );
    let response = settle(&router, &survivor).expect("survivor answers");
    assert!(!response.degraded, "surviving shard answered degraded");

    // Respawn on the same port: the lane reconnects under backoff and the
    // victim's address is served by the model again.
    assert_eq!(fleet.spawn(0, &addrs[0]), addrs[0], "respawn moved ports");
    assert!(
        wait_fleet_up(&lanes, PATIENCE),
        "fleet never re-converged after the respawn"
    );
    let respawned = Instant::now();
    let recovered = loop {
        assert!(
            respawned.elapsed() < PATIENCE,
            "no full-fidelity answer after the respawn"
        );
        match settle(&router, &victim) {
            Ok(response) if !response.degraded => break response,
            _ => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    assert_eq!(recovered.label, direct.predict(&victim).unwrap());
    assert!(
        router.metrics().reconnects_total >= 1,
        "recovery did not count as a reconnect"
    );
    router.shutdown();
}
