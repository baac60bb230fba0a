//! The daemon. Serving: one [`NetBackend`] — a single shard's engine, or a
//! [`ShardRouter`] over in-process engines or remote TCP workers — behind
//! one front: the stdin line protocol, or a BANET listener. Following
//! (`--follow`): a supervised [`ShardedFollower`] fleet over a live chain.
//!
//! ```text
//! # N in-process shard engines, line protocol on stdin (or --input FILE);
//! # --shards 1 is the unsharded daemon
//! basharded --artifact model.bart [--shards N] [--seed 42] [--min-txs 3]
//!           [--input FILE] [--window N] [--per-shard-metrics]
//!           [--no-fallback] [engine knobs]
//! # shard worker process: serve shard I of N over TCP
//! basharded --artifact model.bart --worker I --shards N --listen HOST:PORT
//! # TCP frontend: serve the whole router over BANET
//! basharded --artifact model.bart --shards N --listen HOST:PORT
//! # remote frontend: route over TCP shard workers (either front)
//! basharded --artifact model.bart --connect HOST:P0,HOST:P1[,…]
//! # chain follower: N supervised shard followers over a simulated chain;
//! # --shards 1 is the unsharded follower
//! basharded --follow --artifact model.bart [--shards N] [--seed 42]
//!           [--blocks 200] [--users 40] [--min-txs 3]
//!           [--reclass-every 1] [--reclass-threads 0]
//!           [--snapshot base.bsnap [--snapshot-every 50]]
//!           [--journal follower.bjrnl]
//!           [--stall-timeout-ms 10000] [--progress-every 25]
//! ```
//!
//! The engine knobs (`baserve::cli::engine_config_from_args`) are the
//! **total** budget; each of the `--shards N` engines gets its
//! `EngineConfig::for_shard` slice. Requests fan out to the shard owning
//! the address; line-protocol responses print **in request order** (up to
//! `--window` requests ride in flight, drained FIFO; when no request line is
//! waiting, each owed reply is written and flushed as soon as it settles, so
//! an interactive client sees its answer without sending more), a bad
//! request line gets `err <reason>` and the session keeps serving, and a
//! final `metrics <json>` line is printed at EOF, `quit`, or SIGINT. Unless
//! `--no-fallback` is given, a nearest-centroid fallback fitted on the
//! rebuilt dataset answers (tagged `degraded`) while a circuit breaker is
//! open or a remote worker is down.
//!
//! A `--listen` front prints `listening <addr>` on stdout once bound (a
//! parent spawning a fleet parses that line), retries a busy port for ~2 s
//! (so a respawned worker can reclaim its old address), and exits on SIGINT
//! only: nothing a peer sends stops it.
//!
//! `--follow` starts through recovery whatever is on disk: each shard
//! restores the newest valid generation of its own snapshot
//! (`base.{i}of{N}`, corrupt ones quarantined) and replays the tail of the
//! shared write-ahead journal, fsynced every block, so killing the process
//! at any point loses no blocks; what the driver does while it runs is
//! `bashard::stream`'s module doc. `--snapshot-every` without `--snapshot`
//! is a bad invocation (exit 2), as are `--shards 0` and `--users 0`.
//! SIGINT, a drained feed, a producer silent for `--stall-timeout-ms`
//! (exit 3), a producer that died and a failed journal write (exit 1)
//! all end the same way: final reclassification and snapshot on every
//! shard, journal flushed, one line of metrics JSON on stdout.

use baclassifier::ShardAssignment;
use banet::{NetServer, NetServerConfig, RemoteShardConfig, Role};
use baserve::cli::{engine_config_from_args, flag_parsed, flag_value, has_flag, ServingInputs};
use baserve::{run_line_session, Engine, NetBackend};
use bashard::{FeedEnd, RouterBackend, ShardRouter, ShardedFollower, WorkerBackend};
use bstream::{BlockFeed, FollowerConfig};
use btcsim::{Label, SimConfig};
use std::io::{BufRead, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const NAME: &str = "basharded";
const USAGE: &str = "basharded --artifact model.bart [--shards N] [--input FILE] \
                     [--worker I --listen ADDR] [--connect ADDRS] [--follow] …";
/// Blocks the simulated chain's producer may run ahead of the fleet.
const FEED_CAPACITY: usize = 16;

/// Bind `addr`, retrying `AddrInUse` for ~2 s in case the previous process
/// is still listening while it drains. std sets `SO_REUSEADDR` on unix
/// listeners, so a respawned worker reclaims a port still in TIME_WAIT.
fn bind_with_retry(addr: &str) -> std::io::Result<TcpListener> {
    let start = Instant::now();
    loop {
        match TcpListener::bind(addr) {
            Ok(l) => return Ok(l),
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                if start.elapsed() > Duration::from_secs(2) {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Print `what: e` and exit with `code` (2 = bad invocation, 1 = runtime).
fn die(code: i32, what: &str, e: impl std::fmt::Display) -> ! {
    eprintln!("error: {what}: {e}");
    std::process::exit(code)
}

/// `--follow`: drive `shards` supervised followers over the simulated chain
/// until it drains, stalls, fails or SIGINT arrives; returns the exit code.
fn follow(args: &[String], shards: u32) -> i32 {
    let default = FollowerConfig::default();
    let cfg = FollowerConfig {
        min_txs: flag_parsed(args, "--min-txs", default.min_txs),
        reclass_every: flag_parsed(args, "--reclass-every", default.reclass_every),
        reclass_threads: flag_parsed(args, "--reclass-threads", default.reclass_threads),
        snapshot_path: flag_value(args, "--snapshot").map(PathBuf::from),
        snapshot_every: flag_parsed(args, "--snapshot-every", default.snapshot_every),
        journal_path: flag_value(args, "--journal").map(PathBuf::from),
        ..default
    };
    if cfg.snapshot_every > 0 && cfg.snapshot_path.is_none() {
        die(2, "--snapshot-every", "requires --snapshot PATH");
    }
    let users = flag_parsed(args, "--users", 40usize);
    if users == 0 {
        die(2, "--users", "must be at least 1");
    }
    let artifact = baserve::cli::load_artifact(NAME, USAGE, args);
    let blocks = flag_parsed(args, "--blocks", 200u64);
    let mut sim = SimConfig {
        blocks,
        ..SimConfig::tiny(flag_parsed(args, "--seed", 42u64))
    };
    sim.retail.num_users = users;
    // Recovery covers every startup shape: nothing on disk, snapshots only,
    // a journal tail after a crash, a corrupt generation to fall back from.
    let fleet = ShardedFollower::recover(artifact, cfg, shards)
        .unwrap_or_else(|e| die(1, "recovery failed", e));
    baserve::shutdown::install_sigint_handler();
    let start = fleet.next_height();
    let feed = BlockFeed::follow_sim(sim, start, FEED_CAPACITY);
    eprintln!(
        "[{NAME}] following {} blocks from height {start} on {shards} shards \
         (capacity {FEED_CAPACITY})",
        (blocks + 1).saturating_sub(start)
    );
    let t = Instant::now();
    let stall_timeout = Duration::from_millis(flag_parsed(args, "--stall-timeout-ms", 10_000u64));
    let progress_every = flag_parsed(args, "--progress-every", 25u64);
    let followed = fleet
        .follow(&feed, stall_timeout, progress_every)
        .unwrap_or_else(|e| die(1, "final flush failed", e));
    match &followed.end {
        FeedEnd::Drained => {}
        FeedEnd::Interrupted => eprintln!("[{NAME}] SIGINT: journal flushed, fleet snapshotted"),
        FeedEnd::Stalled(stall) => eprintln!("error: {stall}"),
        FeedEnd::Failed(e) => eprintln!("error: {e}"),
        FeedEnd::ProducerDied(why) => eprintln!("error: block producer died: {why}"),
    }
    let mut histogram = [0usize; 4];
    for label in followed.followers.iter().flat_map(|f| f.labels().values()) {
        histogram[label.index()] += 1;
    }
    let height = followed.followers.iter().map(|f| f.next_height()).max();
    eprintln!(
        "[{NAME}] done at height {} in {:.1}s: {}",
        height.unwrap_or_default(),
        t.elapsed().as_secs_f64(),
        Label::ALL
            .iter()
            .map(|l| format!("{} {}", l.name(), histogram[l.index()]))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("{}", followed.metrics.to_json());
    followed.end.exit_code()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let shards = flag_parsed(&args, "--shards", 2u32);
    if shards == 0 {
        die(2, "--shards", "must be at least 1");
    }
    if has_flag(&args, "--follow") {
        std::process::exit(follow(&args, shards));
    }
    let config = engine_config_from_args(&args);
    let window = flag_parsed(&args, "--window", config.queue_depth.min(64)).max(1);
    let worker = has_flag(&args, "--worker").then(|| flag_parsed(&args, "--worker", 0u32));
    let listen = flag_value(&args, "--listen");
    let connect = flag_value(&args, "--connect");
    match worker {
        Some(_) if listen.is_none() => die(2, "--worker", "requires --listen HOST:PORT"),
        Some(w) if w >= shards => die(2, "--worker", "must be below --shards"),
        _ => {}
    }

    let inputs = ServingInputs::load(NAME, USAGE, &args);
    let hooks = inputs.hooks(NAME, &args);
    let artifact = Arc::clone(&inputs.artifact);
    let by_id = inputs.into_by_id();

    // --- the backend: one shard's engine, or a router over N lanes --------
    const MISMATCH: &str = "artifact does not match the model architecture";
    let backend: Arc<dyn NetBackend> = if let Some(index) = worker {
        let engine = Engine::with_hooks(artifact, config.for_shard(shards as usize), hooks)
            .unwrap_or_else(|e| die(1, MISMATCH, e));
        let assignment = ShardAssignment {
            index,
            count: shards,
        };
        Arc::new(WorkerBackend::new(engine, by_id, assignment))
    } else {
        let router = if let Some(connect) = connect {
            let addrs: Vec<String> = connect
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if addrs.is_empty() {
                die(2, "--connect", "needs at least one HOST:PORT");
            }
            eprintln!("[{NAME}] routing over remote workers {}", addrs.join(", "));
            let lane_config = RemoteShardConfig {
                max_in_flight: config.queue_depth.max(window),
                ..RemoteShardConfig::default()
            };
            bashard::remote_router(&addrs, lane_config, hooks.fallback).0
        } else {
            eprintln!(
                "[{NAME}] {shards} in-process shards sharing {} workers, queue {}, cache {}; \
                 batch ≤{}",
                config.workers, config.queue_depth, config.cache_capacity, config.max_batch,
            );
            ShardRouter::with_hooks(artifact, config, hooks, shards)
                .unwrap_or_else(|e| die(1, MISMATCH, e))
        };
        Arc::new(RouterBackend::new(router, by_id))
    };

    // --- the front: a BANET listener, or the stdin line session -----------
    baserve::shutdown::install_sigint_handler();
    if let Some(listen) = listen {
        let listener = bind_with_retry(&listen)
            .unwrap_or_else(|e| die(1, &format!("could not bind {listen}"), e));
        let server_config = match worker {
            Some(index) => NetServerConfig::for_shard(index, shards),
            // A frontend answers for every address: shard 0 of 1.
            None => {
                let mut config = NetServerConfig::unsharded();
                config.hello.role = Role::Frontend;
                config
            }
        };
        let server = NetServer::spawn(listener, Arc::clone(&backend), server_config)
            .expect("server spawns on a bound listener");
        // A parent spawning the fleet parses this line for the bound port.
        println!("listening {}", server.local_addr());
        std::io::stdout().flush().expect("stdout");
        eprintln!("[{NAME}] serving BANET on {}", server.local_addr());
        server.run_to_stop();
    } else {
        let input: Box<dyn BufRead + Send> = match flag_value(&args, "--input") {
            Some(path) => match std::fs::File::open(&path) {
                Ok(f) => Box::new(std::io::BufReader::new(f)),
                Err(e) => die(1, &format!("could not open {path}"), e),
            },
            None => Box::new(std::io::BufReader::new(std::io::stdin())),
        };
        let per_shard = has_flag(&args, "--per-shard-metrics");
        let stdout = std::io::stdout().lock();
        if let Err(e) = run_line_session(NAME, &*backend, input, stdout, window, per_shard) {
            die(1, "writing responses", e);
        }
    }
    let served = backend.metrics();
    eprintln!(
        "[{NAME}] stopped: {} completed, {} degraded, {} failed",
        served.completed, served.degraded, served.failed
    );
    // Dropping the last handle shuts the engines (or remote lanes) down
    // gracefully: admitted work finishes, worker threads are joined.
}
