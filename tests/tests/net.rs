//! Network acceptance: a fleet of shard workers behind real TCP sockets
//! must be indistinguishable from the in-process router it replaces —
//! same labels in the same order — and must degrade (never hang) when a
//! worker dies, then converge back once it returns.
//!
//! Eight properties:
//!
//! 1. **Remote identity** — a `ShardRouter` whose lanes are `RemoteShard`
//!    connections to N worker servers answers every classification with
//!    the same label, in the same order, as the in-process N-shard router
//!    and the unsharded engine.
//! 2. **Kill / degrade / recover** — stopping a worker mid-traffic flips
//!    its requests to explicit degraded fallback answers (bounded wait,
//!    no hangs); restarting it on the same port reconnects with backoff
//!    and the fleet converges back to full-fidelity answers.
//! 3. **Offline rebalance** — `rebalance_snapshots` re-splitting a
//!    2-shard checkpoint set to 4 shards produces files byte-identical to
//!    what a fresh 4-shard follower run would have written, and 2 → 4 → 2
//!    gives back the original files.
//! 4. **Layout handshake** — a client expecting the wrong shard index or
//!    count never connects; misconfiguration is a refused handshake, not
//!    a silently-misrouted fleet. A peer speaking BANET v1 is refused at
//!    the magic, and one that never handshakes is cut off at the deadline.
//! 5. **No wire kill switch** — a peer that completes the handshake and
//!    sends a retired message type (remote metrics, shutdown, cache
//!    invalidation) loses its own connection; the server keeps serving and
//!    its engine's cache is untouched.
//! 6. **The lane's own guarantees** — against a hand-rolled fake worker, a
//!    request the worker never answers settles `DeadlineExceeded` on the
//!    client's clock while pings keep the lane up; a worker that goes
//!    silent is declared stale and its pending request fails; a worker
//!    slow to greet is still connected on the first dial; and `shutdown`
//!    returns only after the lane's thread has let go of its counters.
//! 7. **Whole-frame deadline** — a peer trickling a frame one byte at a
//!    time is cut once it has been arriving for the stall timeout, and
//!    cannot keep `NetServer::stop` from returning.
//! 8. **Each lane answers for itself** — a lane whose worker is
//!    unreachable answers from its fallback (or fails fast without one),
//!    and a worker's degraded replies are counted once, so the fleet's
//!    `terminal_total == submitted` holds.

use baclassifier::durable::put_frame;
use baclassifier::{BacConfig, ModelArtifact, ShardAssignment, ShardMap, SHARD_HASH_VERSION};
use banet::frame::{encode_frame, write_magic, write_message, MAGIC};
use banet::server::NetBackend;
use banet::{
    FrameError, FrameReader, Hello, Message, NetServer, NetServerConfig, RemoteShard,
    RemoteShardConfig, ReplyOutcome, Role, MAX_FRAME_LEN,
};
use baserve::{Engine, EngineConfig, EngineHooks, Fallback, ScriptedFaultPlan, ServeError};
use bashard::{
    rebalance_snapshots, remote_router, shard_snapshot_path, wait_fleet_up, ShardRouter,
    ShardedFollower, WorkerBackend,
};
use bstream::FollowerConfig;
use btcsim::{Address, AddressRecord, Block, BlockCursor, Dataset, Label, SimConfig, Simulator};
use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

fn dataset(seed: u64) -> (Vec<AddressRecord>, HashMap<u64, AddressRecord>) {
    let sim = Simulator::run_to_completion(SimConfig::tiny(seed));
    let dataset = Dataset::from_simulator(&sim, 3);
    assert!(dataset.len() >= 10, "sim too small: {}", dataset.len());
    let by_id = dataset
        .records
        .iter()
        .map(|r| (r.address.0, r.clone()))
        .collect();
    (dataset.records, by_id)
}

/// One in-process worker "process": shard `index` of `count` behind a
/// real TCP listener. `addr` pins the port (respawn case); `None` binds
/// an ephemeral one.
fn spawn_worker(
    artifact: &Arc<ModelArtifact>,
    by_id: &HashMap<u64, AddressRecord>,
    index: u32,
    count: u32,
    addr: Option<SocketAddr>,
) -> (NetServer, SocketAddr) {
    let config = EngineConfig::default().for_shard(count as usize);
    let engine = Engine::new(Arc::clone(artifact), config).unwrap();
    let backend = Arc::new(WorkerBackend::new(
        engine,
        by_id.clone(),
        ShardAssignment { index, count },
    ));
    let listener =
        TcpListener::bind(addr.unwrap_or_else(|| "127.0.0.1:0".parse().unwrap())).unwrap();
    let bound = listener.local_addr().unwrap();
    let server = NetServer::spawn(listener, backend, NetServerConfig::for_shard(index, count))
        .expect("worker server spawns");
    (server, bound)
}

/// A remote-lane config with room for a whole batch in flight; the lane's
/// backoff, ping and deadline timings are module constants.
fn fast_config() -> RemoteShardConfig {
    RemoteShardConfig {
        max_in_flight: 4096,
        ..RemoteShardConfig::default()
    }
}

#[test]
fn remote_fleet_matches_in_process_router_and_single_engine() {
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let (records, by_id) = dataset(227);

    // Unsharded reference labels.
    let single = Engine::new(Arc::clone(&artifact), EngineConfig::default()).unwrap();
    let want: Vec<_> = records
        .iter()
        .map(|r| single.classify(r.clone()).unwrap().label)
        .collect();
    single.shutdown();

    for shards in [2u32, 4] {
        // In-process N-shard router.
        let local =
            ShardRouter::new(Arc::clone(&artifact), EngineConfig::default(), shards).unwrap();
        let local_labels: Vec<_> = local
            .classify_batch(&records)
            .into_iter()
            .map(|r| r.unwrap().label)
            .collect();
        local.shutdown();
        assert_eq!(local_labels, want, "{shards}-shard in-process diverged");

        // The same router shape over real TCP workers.
        let fleet: Vec<_> = (0..shards)
            .map(|i| spawn_worker(&artifact, &by_id, i, shards, None))
            .collect();
        let addrs: Vec<String> = fleet.iter().map(|(_, a)| a.to_string()).collect();
        let (router, lanes) = remote_router(&addrs, fast_config(), None);
        assert!(
            wait_fleet_up(&lanes, Duration::from_secs(5)),
            "fleet never converged"
        );

        let remote_labels: Vec<_> = router
            .classify_batch(&records)
            .into_iter()
            .map(|r| r.expect("remote batch within admission budget").label)
            .collect();
        assert_eq!(remote_labels, want, "{shards}-shard remote fleet diverged");

        let merged = router.metrics();
        assert_eq!(merged.submitted, records.len() as u64);
        assert_eq!(merged.completed + merged.degraded, merged.submitted);
        assert_eq!(merged.connections_open, shards as u64);
        assert_eq!(merged.reconnects_total, 0);

        router.shutdown();
        for (server, _) in fleet {
            server.stop();
        }
    }
}

#[test]
fn killed_worker_degrades_then_recovers_on_the_same_port() {
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let (records, by_id) = dataset(229);
    let shards = 2u32;
    let map = ShardMap::new(shards);
    let victim_shard = 1u32;
    let victim_record = records
        .iter()
        .find(|r| map.shard_of(r.address) == victim_shard)
        .expect("some address lands on shard 1")
        .clone();

    let fallback = Arc::new(Fallback::fit(&records));
    let fleet: Vec<_> = (0..shards)
        .map(|i| spawn_worker(&artifact, &by_id, i, shards, None))
        .collect();
    let addrs: Vec<String> = fleet.iter().map(|(_, a)| a.to_string()).collect();
    let victim_addr: SocketAddr = addrs[victim_shard as usize].parse().unwrap();
    let (router, lanes) = remote_router(&addrs, fast_config(), Some(fallback));
    assert!(
        wait_fleet_up(&lanes, Duration::from_secs(5)),
        "fleet never converged"
    );

    // Healthy baseline for the victim's address.
    let healthy = router
        .submit(victim_record.clone())
        .unwrap()
        .wait()
        .unwrap();
    assert!(!healthy.degraded);

    // Kill the worker mid-traffic. Every subsequent request must settle in
    // bounded time — degraded through the fallback once the lane notices
    // it lost its connection, a clean error in the brief window before it
    // does, but never a hang.
    let mut fleet = fleet;
    let (victim_server, _) = fleet.remove(victim_shard as usize);
    victim_server.stop();

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(
            Instant::now() < deadline,
            "no degraded answer within 10s of the kill"
        );
        match router.submit(victim_record.clone()) {
            Ok(ticket) => match ticket.wait() {
                Ok(response) if response.degraded => break,
                Ok(_) => {}
                Err(ServeError::WorkerFailed | ServeError::DeadlineExceeded) => {}
                Err(e) => panic!("unexpected error while worker down: {e}"),
            },
            // The admission window can reject while the lane flaps.
            Err(ServeError::QueueFull | ServeError::WorkerFailed) => {}
            Err(e) => panic!("unexpected admission error while worker down: {e}"),
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        lanes[victim_shard as usize].degraded.load(Relaxed) > 0,
        "degraded routing never engaged"
    );
    assert_eq!(
        lanes[victim_shard as usize].connections_open.load(Relaxed),
        0,
        "the victim's lane missed the kill"
    );

    // The other shard keeps answering at full fidelity throughout.
    let other = records
        .iter()
        .find(|r| map.shard_of(r.address) != victim_shard)
        .unwrap();
    let response = router.submit(other.clone()).unwrap().wait().unwrap();
    assert!(!response.degraded, "healthy shard answered degraded");

    // Respawn on the same port; the lane reconnects with backoff and the
    // fleet converges back.
    let (revived, bound) = spawn_worker(&artifact, &by_id, victim_shard, shards, Some(victim_addr));
    assert_eq!(bound, victim_addr, "respawn moved ports");
    assert!(
        wait_fleet_up(&lanes, Duration::from_secs(10)),
        "fleet never re-converged after respawn"
    );

    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(
            Instant::now() < deadline,
            "no full-fidelity answer within 10s of the respawn"
        );
        if let Ok(ticket) = router.submit(victim_record.clone()) {
            if let Ok(response) = ticket.wait() {
                if !response.degraded {
                    break;
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        router.metrics().reconnects_total >= 1,
        "recovery did not count as a reconnect"
    );

    router.shutdown();
    revived.stop();
    for (server, _) in fleet {
        server.stop();
    }
}

#[test]
fn rebalance_2_to_4_is_byte_identical_to_a_fresh_4_shard_run() {
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let blocks: Vec<Block> = BlockCursor::new(SimConfig {
        blocks: 36,
        ..SimConfig::tiny(233)
    })
    .collect();
    let dir = std::env::temp_dir().join(format!("net_rebalance_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // Checkpoint the same chain at 2 and at 4 shards.
    let snapshot_at = |shards: u32, base_name: &str| {
        let base = dir.join(base_name);
        let cfg = FollowerConfig {
            snapshot_path: Some(base.clone()),
            ..FollowerConfig::default()
        };
        let mut fleet = ShardedFollower::recover(Arc::clone(&artifact), cfg, shards).unwrap();
        for b in &blocks {
            fleet.step(b.clone()).unwrap();
        }
        fleet.snapshot().unwrap();
        fleet.finish().unwrap();
        base
    };
    let two = snapshot_at(2, "two.bsnap");
    let four = snapshot_at(4, "four.bsnap");

    // Offline re-split 2 → 4 and compare against the fresh 4-shard files,
    // byte for byte.
    let rebased = dir.join("rebased.bsnap");
    let report = rebalance_snapshots(&two, 2, &rebased, 4).unwrap();
    assert_eq!(report.old_count, 2);
    assert_eq!(report.new_count, 4);
    assert_eq!(report.outputs.len(), 4);
    for j in 0..4u32 {
        let got = std::fs::read(shard_snapshot_path(&rebased, j, 4)).unwrap();
        let fresh = std::fs::read(shard_snapshot_path(&four, j, 4)).unwrap();
        assert_eq!(
            got, fresh,
            "rebalanced shard {j} differs from a fresh 4-shard run"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The re-split is a pure routing of verbatim records, so it composes:
/// 2 → 4 → 2 gives back the original 2-shard files, byte for byte.
#[test]
fn rebalance_2_to_4_to_2_gives_back_the_original_files() {
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let dir = std::env::temp_dir().join(format!("net_rebalance_back_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let two = dir.join("two.bsnap");
    let cfg = FollowerConfig {
        snapshot_path: Some(two.clone()),
        ..FollowerConfig::default()
    };
    let mut fleet = ShardedFollower::recover(Arc::clone(&artifact), cfg, 2).unwrap();
    for b in BlockCursor::new(SimConfig {
        blocks: 36,
        ..SimConfig::tiny(233)
    }) {
        fleet.step(b).unwrap();
    }
    fleet.snapshot().unwrap();
    fleet.finish().unwrap();

    let four = dir.join("four.bsnap");
    let back = dir.join("back.bsnap");
    rebalance_snapshots(&two, 2, &four, 4).unwrap();
    let report = rebalance_snapshots(&four, 4, &back, 2).unwrap();
    assert!(report.addresses > 0);
    for j in 0..2u32 {
        assert_eq!(
            std::fs::read(shard_snapshot_path(&back, j, 2)).unwrap(),
            std::fs::read(shard_snapshot_path(&two, j, 2)).unwrap(),
            "shard {j} of 2 → 4 → 2 differs from the original"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn layout_handshake_refuses_a_misconfigured_client() {
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let (records, by_id) = dataset(239);
    let (server, addr) = spawn_worker(&artifact, &by_id, 0, 2, None);
    let addr = addr.to_string();

    // Wrong shard index and wrong shard count both refuse to connect.
    for expect in [
        ShardAssignment { index: 1, count: 2 },
        ShardAssignment { index: 0, count: 3 },
    ] {
        let lane = RemoteShard::connect(
            &addr,
            RemoteShardConfig {
                expect: Some(expect),
                ..fast_config()
            },
            None,
        );
        assert!(
            !lane.wait_connected(Duration::from_millis(500)),
            "client expecting shard {}/{} connected to worker 0/2",
            expect.index,
            expect.count
        );
        lane.shutdown();
    }

    // The correctly-configured client connects and classifies.
    let lane = RemoteShard::connect(
        &addr,
        RemoteShardConfig {
            expect: Some(ShardAssignment { index: 0, count: 2 }),
            ..fast_config()
        },
        None,
    );
    assert!(lane.wait_connected(Duration::from_secs(5)));
    let map = ShardMap::new(2);
    let owned = records
        .iter()
        .find(|r| map.shard_of(r.address) == 0)
        .unwrap();
    let response = baserve::ShardLane::submit(&lane, owned.clone())
        .unwrap()
        .wait()
        .unwrap();
    assert!(!response.degraded);
    lane.shutdown();
    server.stop();
}

/// A hand-rolled BANET client past the handshake: the write half and a
/// reader that has consumed the server's `Hello`.
fn raw_client(addr: SocketAddr) -> (TcpStream, FrameReader<TcpStream>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    write_magic(&mut stream).unwrap();
    let hello = Message::Hello(Hello {
        role: Role::Frontend,
        shard_index: 0,
        shard_count: 1,
        hash_version: SHARD_HASH_VERSION,
    });
    write_message(&mut stream, &hello).unwrap();
    let mut reader = FrameReader::new(stream.try_clone().unwrap());
    assert!(matches!(reader.read_message(), Ok(Some(Message::Hello(_)))));
    (stream, reader)
}

/// Classify `id` on a fresh connection: `(label_index, cache_hit)`.
fn raw_classify(addr: SocketAddr, id: u64) -> (u8, bool) {
    let (mut stream, mut reader) = raw_client(addr);
    let request = Message::Classify {
        req_id: 1,
        address: id,
    };
    write_message(&mut stream, &request).unwrap();
    match reader.read_message() {
        Ok(Some(Message::Reply {
            req_id: 1,
            outcome:
                ReplyOutcome::Ok {
                    label_index,
                    cache_hit,
                    ..
                },
        })) => (label_index, cache_hit),
        other => panic!("classify {id} answered {other:?}"),
    }
}

#[test]
fn retired_message_types_cut_the_connection_and_nothing_else() {
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let (records, by_id) = dataset(241);
    let id = records[0].address.0;
    let engine = Engine::new(Arc::clone(&artifact), EngineConfig::default()).unwrap();
    let backend = Arc::new(WorkerBackend::new(
        engine,
        by_id,
        ShardAssignment { index: 0, count: 1 },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = NetServer::spawn(
        listener,
        Arc::clone(&backend) as Arc<dyn NetBackend>,
        NetServerConfig::unsharded(),
    )
    .unwrap();

    let (label, hit) = raw_classify(addr, id);
    assert!(!hit);
    assert_eq!(raw_classify(addr, id), (label, true));

    // Each retired type as the parent encoded it — MetricsReq,
    // MetricsReply, Shutdown, Invalidate (of the cached address),
    // InvalidateReply — well-formed and CRC-valid, on its own connection.
    let u64s = |a: u64, b: u64| [a.to_le_bytes(), b.to_le_bytes()].concat();
    let retired: [(u8, Vec<u8>); 5] = [
        (4, 3u64.to_le_bytes().to_vec()),
        (
            5,
            [&3u64.to_le_bytes()[..], &2u32.to_le_bytes(), b"{}"].concat(),
        ),
        (8, Vec::new()),
        (9, u64s(4, id)),
        (10, u64s(4, 5)),
    ];
    for (ty, body) in retired {
        let (mut stream, mut reader) = raw_client(addr);
        let payload = [&[ty][..], &body].concat();
        let mut frame = Vec::new();
        put_frame(&mut frame, &payload, MAX_FRAME_LEN).unwrap();
        stream.write_all(&frame).unwrap();
        // The server's answer is to hang up: EOF or a reset, never a frame.
        match reader.read_message() {
            Ok(None) => {}
            Err(e) if !e.is_timeout() => {}
            other => panic!("type {ty}: connection still open, read {other:?}"),
        }
        assert!(!server.stop_requested(), "type {ty} stopped the server");
    }

    // Same label, still from the cache under the same generation.
    assert_eq!(backend.engine().metrics().invalidations, 0);
    assert_eq!(raw_classify(addr, id), (label, true));
    server.stop();
}

/// A peer that opens with the v1 magic is refused at the magic — the
/// reader's `BadMagic` — and loses only its own connection: the server
/// keeps serving v2 clients.
#[test]
fn a_banet_v1_peer_is_refused_and_the_server_keeps_serving() {
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let (records, by_id) = dataset(243);
    let id = records[0].address.0;
    let (server, addr) = spawn_worker(&artifact, &by_id, 0, 1, None);
    let (label, _) = raw_classify(addr, id);

    let hello = Message::Hello(Hello {
        role: Role::Frontend,
        shard_index: 0,
        shard_count: 1,
        hash_version: SHARD_HASH_VERSION,
    });
    let opening = [&b"BANET v1"[..], &encode_frame(&hello)].concat();
    assert!(matches!(
        FrameReader::new(&opening[..]).read_message(),
        Err(FrameError::BadMagic)
    ));

    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(&opening).unwrap();
    // The server's own magic and Hello go out first; then it hangs up.
    let mut reader = FrameReader::new(stream.try_clone().unwrap());
    assert!(matches!(reader.read_message(), Ok(Some(Message::Hello(_)))));
    match reader.read_message() {
        Ok(None) => {}
        Err(e) if !e.is_timeout() => {}
        other => panic!("v1 peer still connected, read {other:?}"),
    }
    assert!(!server.stop_requested());
    assert_eq!(raw_classify(addr, id), (label, true));
    server.stop();
}

/// `banet`'s connection cap, and its handshake and whole-frame deadline.
const SERVER_MAX_CONNECTIONS: usize = 64;
const SERVER_STALL_TIMEOUT: Duration = Duration::from_secs(5);

/// Peers that connect and never handshake are cut off once the handshake
/// deadline passes, so a full house of them cannot lock real clients out.
#[test]
fn silent_peers_are_cut_at_the_handshake_deadline() {
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let (records, by_id) = dataset(247);
    let id = records[0].address.0;
    let (server, addr) = spawn_worker(&artifact, &by_id, 0, 1, None);
    let silent: Vec<TcpStream> = (0..SERVER_MAX_CONNECTIONS)
        .map(|_| TcpStream::connect(addr).unwrap())
        .collect();
    std::thread::sleep(SERVER_STALL_TIMEOUT + Duration::from_secs(1));
    for (i, mut stream) in silent.into_iter().enumerate() {
        stream
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        // The server's magic and Hello, then EOF — or a reset.
        match std::io::Read::read_to_end(&mut stream, &mut Vec::new()) {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            Err(e) => panic!("silent peer {i} still connected: {e}"),
        }
    }
    raw_classify(addr, id);
    server.stop();
}

/// Connect to `addr` and send the magic and the header of a 60,000-byte
/// frame, then one byte every 30 ms until the server hangs up or `stop` is
/// set. Returns the stream and when its first byte went out.
fn trickle(addr: SocketAddr, stop: &Arc<AtomicBool>) -> (TcpStream, Instant) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut opening = MAGIC.to_vec();
    opening.extend_from_slice(&60_000u32.to_le_bytes());
    opening.extend_from_slice(&0u32.to_le_bytes());
    let first = Instant::now();
    stream.write_all(&opening).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let stop = Arc::clone(stop);
    std::thread::spawn(move || {
        while !stop.load(Relaxed) && writer.write_all(&[0]).is_ok() {
            std::thread::sleep(Duration::from_millis(30));
        }
    });
    (stream, first)
}

/// A peer that trickles a frame one byte at a time, each byte inside the
/// server's read tick, is cut once the frame has been arriving for the
/// stall timeout, and cannot keep `stop` from returning.
#[test]
fn a_trickling_peer_is_cut_and_cannot_block_stop() {
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let (_, by_id) = dataset(251);
    let (server, addr) = spawn_worker(&artifact, &by_id, 0, 1, None);
    let stop = Arc::new(AtomicBool::new(false));

    let (mut stream, first) = trickle(addr, &stop);
    stream
        .set_read_timeout(Some(SERVER_STALL_TIMEOUT + Duration::from_secs(2)))
        .unwrap();
    // The server's magic and Hello, then EOF — or a reset.
    let cut = match std::io::Read::read_to_end(&mut stream, &mut Vec::new()) {
        Ok(_) => true,
        Err(e) => e.kind() == std::io::ErrorKind::ConnectionReset,
    };
    let held = first.elapsed();
    assert!(
        cut && held <= SERVER_STALL_TIMEOUT + Duration::from_secs(1),
        "trickling peer held its connection for {held:?} (cut: {cut})"
    );

    // A second trickler is mid-frame while the server stops.
    let (_second, _) = trickle(addr, &stop);
    std::thread::sleep(Duration::from_millis(300));
    let (done, stopped) = mpsc::channel();
    let asked = Instant::now();
    std::thread::spawn(move || {
        server.stop();
        done.send(()).ok();
    });
    let returned = stopped.recv_timeout(Duration::from_secs(1)).is_ok();
    let waited = asked.elapsed();
    stop.store(true, Relaxed);
    assert!(returned, "stop() still blocked after {waited:?}");
}

/// A lane whose worker is unreachable answers for itself, at once: from
/// its fallback (tagged `degraded`, with the fallback's label) when it has
/// one, `WorkerFailed` when it has none — each counted once in the
/// router's roll-up.
#[test]
fn a_disconnected_lane_answers_for_itself() {
    let (records, _) = dataset(253);
    let fallback = Arc::new(Fallback::fit(&records));
    let records = &records[..10];
    // A port nothing listens on.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let dead = [listener.local_addr().unwrap().to_string()];
    drop(listener);
    for fallback in [Some(fallback), None] {
        let (router, lanes) = remote_router(&dead, fast_config(), fallback.clone());
        assert_eq!(lanes[0].connections_open.load(Relaxed), 0);
        for record in records {
            match (&fallback, router.classify(record.clone())) {
                (Some(fallback), Ok(response)) => {
                    assert!(response.degraded);
                    assert_eq!(response.label, fallback.classify(record));
                }
                (None, Err(ServeError::WorkerFailed)) => {}
                (_, other) => panic!("disconnected lane answered {other:?}"),
            }
        }
        let snap = router.metrics();
        let n = records.len() as u64;
        let (degraded, failed) = if fallback.is_some() { (n, 0) } else { (0, n) };
        assert_eq!(snap.submitted, n);
        assert_eq!((snap.degraded, snap.failed), (degraded, failed));
        assert_eq!(snap.terminal_total(), snap.submitted, "{snap:?}");
        router.shutdown();
    }
}

/// A worker whose engine has retired its only worker answers every request
/// degraded from its own fallback; the remote lane counts each such reply
/// once, in `degraded`, so the fleet's accounting still balances.
#[test]
fn degraded_worker_replies_are_counted_once() {
    let artifact = Arc::new(ModelArtifact::untrained(BacConfig::fast()));
    let (records, by_id) = dataset(257);
    let fallback = Arc::new(Fallback::fit(&records));
    let engine = Engine::with_hooks(
        Arc::clone(&artifact),
        EngineConfig {
            workers: 1,
            ..EngineConfig::default()
        },
        EngineHooks {
            fault_plan: Arc::new(ScriptedFaultPlan::panics(0, &[1, 2, 3, 4, 5])),
            fallback: Some(fallback),
        },
    )
    .unwrap();
    // Five panics spend the restart budget and retire the only worker.
    for _ in 0..5 {
        assert!(engine.classify(records[0].clone()).is_err());
    }
    let retired = Instant::now() + Duration::from_secs(5);
    while engine.live_workers() > 0 && Instant::now() < retired {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(engine.live_workers(), 0, "the worker never retired");
    let backend = Arc::new(WorkerBackend::new(
        engine,
        by_id,
        ShardAssignment { index: 0, count: 1 },
    ));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let server = NetServer::spawn(listener, backend, NetServerConfig::unsharded()).unwrap();
    let (router, lanes) = remote_router(&[addr], fast_config(), None);
    assert!(wait_fleet_up(&lanes, Duration::from_secs(5)));

    for response in router.classify_batch(&records) {
        assert!(response.expect("the worker answers").degraded);
    }
    let snap = router.metrics();
    assert_eq!(snap.submitted, records.len() as u64);
    assert_eq!(snap.degraded, snap.submitted);
    assert_eq!(snap.completed, 0, "{snap:?}");
    assert_eq!(snap.terminal_total(), snap.submitted, "{snap:?}");
    router.shutdown();
    server.stop();
}

/// How a [`fake_worker`] behaves once the handshake is done.
#[derive(Clone, Copy)]
enum Fake {
    /// Answer every ping, never a classify.
    PongOnly,
    /// Say nothing more; hold the connection open.
    Silent,
}

/// A one-connection BANET worker built from the frame helpers: it accepts
/// one client, completes the handshake as worker 0 of 1 — its magic
/// `greet_after` accept, its `Hello` in a second write — then behaves as
/// `mode` says until the client goes away. The listener closes after that
/// one accept, so a lane that tears the connection down cannot dial back.
fn fake_worker(mode: Fake, greet_after: Duration) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let accepted = Instant::now();
        drop(listener);
        stream.set_nodelay(true).unwrap();
        let mut reader = FrameReader::new(stream.try_clone().unwrap());
        assert!(matches!(reader.read_message(), Ok(Some(Message::Hello(_)))));
        std::thread::sleep(greet_after.saturating_sub(accepted.elapsed()));
        write_magic(&mut stream).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let hello = Message::Hello(Hello {
            role: Role::Worker,
            shard_index: 0,
            shard_count: 1,
            hash_version: SHARD_HASH_VERSION,
        });
        write_message(&mut stream, &hello).unwrap();
        while let Ok(Some(msg)) = reader.read_message() {
            if let (Fake::PongOnly, Message::Ping { nonce }) = (mode, msg) {
                if write_message(&mut stream, &Message::Pong { nonce }).is_err() {
                    break;
                }
            }
        }
    });
    addr
}

fn any_record() -> AddressRecord {
    AddressRecord {
        address: Address(7),
        label: Label::Mining,
        txs: Vec::new(),
    }
}

/// A connected lane to a fake worker, and the time it was connected.
fn lane_to(mode: Fake) -> (RemoteShard, Instant) {
    let worker = fake_worker(mode, Duration::ZERO);
    let lane = RemoteShard::connect(&worker.to_string(), fast_config(), None);
    assert!(lane.wait_connected(Duration::from_secs(5)));
    (lane, Instant::now())
}

/// `banet`'s client dial timeout, which also bounds its handshake.
const CLIENT_CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// A worker whose greeting reaches the lane later than one read tick after
/// accept, magic and `Hello` in separate writes, is still connected on the
/// first dial, within the client's connect timeout.
#[test]
fn a_worker_slow_to_greet_is_connected() {
    let worker = fake_worker(Fake::PongOnly, Duration::from_millis(80));
    let start = Instant::now();
    let lane = RemoteShard::connect(&worker.to_string(), fast_config(), None);
    let connected = lane.wait_connected(CLIENT_CONNECT_TIMEOUT.saturating_sub(start.elapsed()));
    assert!(
        connected,
        "lane to a worker greeting 80 ms after accept not connected after {:?}",
        start.elapsed()
    );
    lane.shutdown();
}

#[test]
fn an_unanswered_request_meets_its_deadline_and_the_lane_stays_up() {
    let (lane, _) = lane_to(Fake::PongOnly);
    let counters = lane.counters();
    let start = Instant::now();
    let ticket = baserve::ShardLane::submit(&lane, any_record()).unwrap();
    assert!(matches!(ticket.wait(), Err(ServeError::DeadlineExceeded)));
    let waited = start.elapsed();
    assert!(
        waited >= Duration::from_millis(4900) && waited < Duration::from_secs(7),
        "deadline settled after {waited:?}, want ~5 s"
    );
    assert_eq!(counters.timed_out.load(Relaxed), 1);
    assert_eq!(counters.failed.load(Relaxed), 0);
    assert!(
        lane.is_connected(),
        "pongs kept coming; the lane must stay up"
    );
    lane.shutdown();
}

#[test]
fn a_silent_worker_is_declared_stale_and_its_request_fails() {
    let (lane, connected) = lane_to(Fake::Silent);
    let counters = lane.counters();
    let ticket = baserve::ShardLane::submit(&lane, any_record()).unwrap();
    assert!(matches!(ticket.wait(), Err(ServeError::WorkerFailed)));
    let waited = connected.elapsed();
    assert!(
        waited >= Duration::from_millis(1900) && waited < Duration::from_secs(4),
        "stale connection torn down after {waited:?}, want ~2 s"
    );
    assert_eq!(counters.connections_open.load(Relaxed), 0);
    assert_eq!(counters.failed.load(Relaxed), 1);
    lane.shutdown();
}

#[test]
fn shutdown_returns_after_the_lane_thread_lets_go() {
    let (lane, _) = lane_to(Fake::PongOnly);
    let counters = lane.counters();
    lane.shutdown();
    assert_eq!(Arc::strong_count(&counters), 1);
}
