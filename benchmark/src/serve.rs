//! The serving paths: an in-process `Engine` (`serve_hot`) and the same
//! requests through `remote_router` over loopback TCP to two in-process
//! `NetServer` + `WorkerBackend` shards (`serve_wire`).
//!
//! Closed loop, like the repository's own clients: a pass is a solo phase
//! (one request in flight) followed by a loaded phase (`WINDOW` in
//! flight, FIFO). Every address is classified once before timing, so
//! every timed request is a cache hit and construction and the GFN do no
//! work here — queue, batch window, cache, record clone and the batched
//! head do all of it.

use crate::alloc;
use crate::cold::digest_labels;
use crate::inputs;
use crate::metrics::Values;
use crate::run::Pass;
use crate::shared::{percentile, self_times, Fnv, SlotClock, Tracer};
use baclassifier::{BaClassifier, ModelArtifact, ShardMap};
use banet::frame::{decode_frame, encode_frame};
use banet::server::NetBackend;
use banet::{Message, NetServer, NetServerConfig, RemoteShardConfig, ReplyOutcome};
use baserve::{Engine, EngineConfig, LruCache, MetricsSnapshot, ServeError, Ticket};
use bashard::{remote_router, wait_fleet_up, ShardRouter, WorkerBackend};
use btcsim::{AddressRecord, Label};
use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests in flight during the loaded phase (= the engine's `max_batch`).
pub const WINDOW: usize = 16;
const SHARDS: u32 = 2;

/// Default engine policy (batch 16, 2 ms window, 1 024-entry cache) on one
/// worker: the single compute thread every workload is pinned to.
fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: 1,
        ..EngineConfig::default()
    }
}

/// Two shard workers behind TCP, and the router that fronts them.
pub struct Fleet {
    router: ShardRouter,
    servers: Vec<NetServer>,
    backends: Vec<Arc<WorkerBackend>>,
    /// `remote_router` call to every lane connected and handshaken.
    pub connect_ms: f64,
}

impl Fleet {
    pub fn start(artifact: &Arc<ModelArtifact>, records: &[AddressRecord]) -> Fleet {
        let by_id: HashMap<u64, AddressRecord> =
            records.iter().map(|r| (r.address.0, r.clone())).collect();
        let map = ShardMap::new(SHARDS);
        let mut servers = Vec::new();
        let mut backends = Vec::new();
        let mut addrs = Vec::new();
        for i in 0..SHARDS {
            let engine =
                Engine::new(Arc::clone(artifact), engine_config()).expect("artifact loads");
            let backend = Arc::new(WorkerBackend::new(engine, by_id.clone(), map.assignment(i)));
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
            let server = NetServer::spawn(
                listener,
                Arc::clone(&backend) as Arc<dyn NetBackend>,
                NetServerConfig::for_shard(i, SHARDS),
            )
            .expect("spawn shard server");
            addrs.push(server.local_addr().to_string());
            servers.push(server);
            backends.push(backend);
        }
        let start = Instant::now();
        let (router, health) = remote_router(&addrs, RemoteShardConfig::default(), None);
        assert!(
            wait_fleet_up(&health, Duration::from_secs(10)),
            "loopback fleet did not come up"
        );
        Fleet {
            router,
            servers,
            backends,
            connect_ms: start.elapsed().as_secs_f64() * 1e3,
        }
    }

    /// Server-side engine metrics, one per shard.
    fn engine_metrics(&self) -> Vec<MetricsSnapshot> {
        self.backends.iter().map(|b| b.engine().metrics()).collect()
    }

    /// Close the connections, stop the servers (joining their threads);
    /// the engines shut down as their last handle drops.
    pub fn stop(self) {
        self.router.shutdown();
        self.servers.into_iter().for_each(NetServer::stop);
    }
}

/// What the load generator talks to.
pub enum Target {
    Hot(Engine),
    Wire(Fleet),
}

impl Target {
    fn submit(&self, record: AddressRecord) -> Result<Ticket, ServeError> {
        match self {
            Target::Hot(engine) => engine.submit(record),
            Target::Wire(fleet) => fleet.router.submit(record),
        }
    }

    /// Metrics of the engines doing the work (merged across shards).
    fn engine_metrics(&self) -> MetricsSnapshot {
        match self {
            Target::Hot(engine) => engine.metrics(),
            Target::Wire(fleet) => MetricsSnapshot::merge(&fleet.engine_metrics()),
        }
    }

    /// Requests the system refused, failed, timed out or answered degraded
    /// — counted where they would be counted in production: the engines,
    /// plus the router's client-side lanes over the wire.
    pub fn unserved(&self) -> u64 {
        let bad = |m: &MetricsSnapshot| m.rejected + m.failed + m.timed_out + m.degraded;
        match self {
            Target::Hot(engine) => bad(&engine.metrics()),
            Target::Wire(fleet) => {
                bad(&MetricsSnapshot::merge(&fleet.engine_metrics())) + bad(&fleet.router.metrics())
            }
        }
    }

    pub fn stop(self) {
        match self {
            Target::Hot(engine) => engine.shutdown(),
            Target::Wire(fleet) => fleet.stop(),
        }
    }
}

/// A serve workload ready to run.
pub struct Serve {
    pub target: Target,
    records: Arc<[AddressRecord]>,
    /// Index into `records` of each request: the first `solo` go one at a
    /// time, the rest `WINDOW` at a time in an order drawn by the seed.
    order: Vec<u32>,
    solo: usize,
    /// Reference labels (`BaClassifier::predict`), filled by `warm`.
    expected: Vec<Label>,
}

/// Latencies of one or more passes, nanoseconds.
#[derive(Default)]
pub struct Latencies {
    pub solo: Vec<u64>,
    pub loaded: Vec<u64>,
}

fn leaf<R>(t: &mut Option<&mut Tracer>, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
    match t {
        Some(t) => t.leaf(name, id, f),
        None => f(),
    }
}

impl Serve {
    /// `wire` picks the target; set-up cost (engine or fleet start) is the
    /// caller's to time.
    pub fn start(
        artifact: &Arc<ModelArtifact>,
        records: Arc<[AddressRecord]>,
        wire: bool,
        solo: usize,
        loaded: usize,
        seed: u64,
    ) -> Serve {
        let target = if wire {
            Target::Wire(Fleet::start(artifact, &records))
        } else {
            Target::Hot(Engine::new(Arc::clone(artifact), engine_config()).expect("artifact loads"))
        };
        // Every address is requested equally often, in an order drawn by
        // the seed. The 22 largest records (2 400–6 900 inputs and outputs
        // each, against a median of 30) are 95 % of what a pass clones;
        // with requests drawn independently they came up more or less
        // often from seed to seed and throughput followed (121 k–157 k
        // requests/s over ten seeds, each seed repeating itself).
        let n = records.len();
        let mut order: Vec<u32> = (0..solo + loaded).map(|i| (i % n) as u32).collect();
        let mut state = seed ^ 0x7365_7276;
        inputs::shuffle(&mut order[solo..], &mut state);
        Serve {
            target,
            records,
            order,
            solo,
            expected: Vec::new(),
        }
    }

    /// Compute the reference labels, then classify every address once so
    /// its embedding is cached. Returns requests that failed or disagreed
    /// with the reference.
    pub fn warm(&mut self, artifact: &ModelArtifact) -> u64 {
        let clf = BaClassifier::from_artifact(artifact).expect("artifact loads");
        self.expected = self
            .records
            .iter()
            .map(|r| clf.predict(r).expect("serve set is classifiable"))
            .collect();
        let all: Vec<u32> = (0..self.records.len() as u32).collect();
        let mut sink = Vec::new();
        self.drive(&all, WINDOW, false, &mut sink, &mut None).failed
    }

    /// Closed loop over `order` with at most `window` requests in flight,
    /// settled first-in first-out. Latency runs from just before `submit`
    /// to the return of `Ticket::wait`; the generator's own record clone
    /// is outside it.
    fn drive(
        &self,
        order: &[u32],
        window: usize,
        require_hit: bool,
        lat_ns: &mut Vec<u64>,
        t: &mut Option<&mut Tracer>,
    ) -> Pass {
        // The same generator-side calls carry different names per target,
        // so one trace can hold a pass against each.
        let (clone_span, submit_span, wait_span) = match self.target {
            Target::Hot(_) => ("serve.clone", "serve.submit", "serve.wait"),
            Target::Wire(_) => ("wire.clone", "wire.submit", "wire.wait"),
        };
        // The latency of one settled request and its accepted label, or
        // `None`.
        let settle = |(ticket, sent, idx): (Ticket, Instant, u32), t: &mut Option<&mut Tracer>| {
            let reply = leaf(t, wait_span, u64::from(idx), || ticket.wait());
            let ns = sent.elapsed().as_nanos() as u64;
            let label = reply.ok().and_then(|r| {
                let accepted = !r.degraded
                    && (r.cache_hit || !require_hit)
                    && r.label == self.expected[idx as usize];
                accepted.then_some(r.label)
            });
            (ns, label)
        };
        let mut in_flight: VecDeque<(Ticket, Instant, u32)> = VecDeque::with_capacity(window);
        let mut labels: Vec<Option<Label>> = Vec::with_capacity(order.len());
        // Every request is timed, refused ones too, so every pass times
        // the same number.
        let mut done = |(ns, label): (u64, Option<Label>)| {
            lat_ns.push(ns);
            labels.push(label);
        };
        let mut clock = SlotClock::start(order.len());
        for (i, &idx) in order.iter().enumerate() {
            let id = u64::from(idx);
            let record = leaf(t, clone_span, id, || self.records[idx as usize].clone());
            let sent = Instant::now();
            match leaf(t, submit_span, id, || self.target.submit(record)) {
                Ok(ticket) => in_flight.push_back((ticket, sent, idx)),
                Err(_) => done((sent.elapsed().as_nanos() as u64, None)),
            }
            if in_flight.len() >= window {
                let head = in_flight.pop_front().expect("window is non-empty");
                done(settle(head, t));
            }
            clock.op_done(i + 1);
        }
        for head in in_flight {
            done(settle(head, t));
        }
        let slot_ns = clock.finish();
        let failed = labels.iter().filter(|l| l.is_none()).count() as u64;
        Pass {
            ops: order.len() as u64,
            slot_ns,
            failed,
            digest: digest_labels(labels.iter().flatten()),
        }
    }

    /// The first `solo` requests, one in flight.
    fn solo_phase(&self, lat_ns: &mut Vec<u64>, t: &mut Option<&mut Tracer>) -> Pass {
        self.drive(&self.order[..self.solo], 1, true, lat_ns, t)
    }

    /// The remaining requests, `WINDOW` in flight.
    fn loaded_phase(&self, lat_ns: &mut Vec<u64>, t: &mut Option<&mut Tracer>) -> Pass {
        self.drive(&self.order[self.solo..], WINDOW, true, lat_ns, t)
    }

    /// One pass: the solo phase, then the loaded phase, whose throughput
    /// is the pass's.
    pub fn pass(&self, lat: &mut Latencies) -> Pass {
        let a = self.solo_phase(&mut lat.solo, &mut None);
        let b = self.loaded_phase(&mut lat.loaded, &mut None);
        Pass {
            failed: a.failed + b.failed,
            digest: Fnv::of([a.digest, b.digest]),
            ..b
        }
    }
}

fn sorted_percentile_us(mut ns: Vec<u64>, q: f64) -> f64 {
    ns.sort_unstable();
    percentile(&ns, q) as f64 / 1e3
}

/// Figures of one traced pass against one target.
struct Traced {
    solo_p50_us: f64,
    loaded_p99_us: f64,
    wall_secs: f64,
    failed: u64,
    /// Engine-side counter movement over the solo and the loaded phase.
    solo: MetricsSnapshot,
    loaded: MetricsSnapshot,
    allocs_per_req: f64,
}

fn delta(after: &MetricsSnapshot, before: &MetricsSnapshot) -> MetricsSnapshot {
    let mut d = after.clone();
    d.completed -= before.completed;
    d.batches -= before.batches;
    d.cache_hits -= before.cache_hits;
    d.cache_misses -= before.cache_misses;
    d.batch_dedup_hits -= before.batch_dedup_hits;
    d.queue_wait_us_total -= before.queue_wait_us_total;
    d.model_time_us_total -= before.model_time_us_total;
    d
}

fn traced_pass(serve: &Serve, t: &mut Tracer) -> Traced {
    let mut lat = Latencies::default();
    let start = Instant::now();
    let m0 = serve.target.engine_metrics();
    let a = serve.solo_phase(&mut lat.solo, &mut Some(&mut *t));
    let m1 = serve.target.engine_metrics();
    let allocs0 = alloc::totals().0;
    let b = serve.loaded_phase(&mut lat.loaded, &mut Some(&mut *t));
    let allocs1 = alloc::totals().0;
    let m2 = serve.target.engine_metrics();
    Traced {
        solo_p50_us: sorted_percentile_us(lat.solo, 0.5),
        loaded_p99_us: sorted_percentile_us(lat.loaded, 0.99),
        wall_secs: start.elapsed().as_secs_f64(),
        failed: a.failed + b.failed,
        solo: delta(&m1, &m0),
        loaded: delta(&m2, &m1),
        allocs_per_req: (allocs1 - allocs0) as f64 / b.ops as f64,
    }
}

/// Wall seconds of the traced pass against each target, and requests that
/// failed, disagreed with the reference or were reported unserved.
pub struct ProbeOutcome {
    pub hot_secs: f64,
    pub wire_secs: f64,
    pub failed: u64,
}

/// Traced pass through both targets over `records`, then the micro-probes
/// of the serving stack. Fills every `serve.*`, `net.*` and `shard.*`
/// metric.
pub fn probe(
    artifact: &Arc<ModelArtifact>,
    records: &Arc<[AddressRecord]>,
    solo: usize,
    loaded: usize,
    seed: u64,
    t: &mut Tracer,
    out: &mut Values,
) -> ProbeOutcome {
    let mut failed = 0;

    let mut hot = Serve::start(artifact, Arc::clone(records), false, solo, loaded, seed);
    failed += hot.warm(artifact);
    let h = traced_pass(&hot, t);
    failed += h.failed + hot.target.unserved();
    let m = hot.target.engine_metrics();
    let Target::Hot(engine) = &hot.target else {
        unreachable!("started in-process")
    };
    // Last, because it supersedes the cached embeddings it touches.
    let start = Instant::now();
    for r in records.iter() {
        black_box(engine.invalidate_address(r.address));
    }
    out.set_ratio(
        "serve.invalidate_us",
        start.elapsed().as_secs_f64() * 1e6,
        records.len() as f64,
    );
    hot.target.stop();

    let loaded_reqs = h.loaded.completed as f64;
    out.set_ratio(
        "serve.solo_queue_wait_us",
        h.solo.queue_wait_us_total as f64,
        h.solo.completed as f64,
    );
    for (metric, total) in [
        ("serve.queue_wait_us_per_req", h.loaded.queue_wait_us_total),
        ("serve.model_us_per_req", h.loaded.model_time_us_total),
        ("serve.dedup_ratio", h.loaded.batch_dedup_hits),
    ] {
        out.set_ratio(metric, total as f64, loaded_reqs);
    }
    out.set_ratio(
        "serve.mean_batch_size",
        loaded_reqs,
        h.loaded.batches as f64,
    );
    out.set_ratio(
        "serve.cache_hit_ratio",
        h.loaded.cache_hits as f64,
        (h.loaded.cache_hits + h.loaded.cache_misses) as f64,
    );
    out.set("serve.allocs_per_req", h.allocs_per_req);
    out.set("serve.p99_us", h.loaded_p99_us);
    out.set("serve.rejected", m.rejected as f64);
    out.set("serve.failed", m.failed as f64);
    out.set("serve.timed_out", m.timed_out as f64);
    out.set("serve.degraded", m.degraded as f64);

    let mut wire = Serve::start(artifact, Arc::clone(records), true, solo, loaded, seed);
    failed += wire.warm(artifact);
    let w = traced_pass(&wire, t);
    failed += w.failed + wire.target.unserved();
    let Target::Wire(fleet) = &wire.target else {
        unreachable!("started over the wire")
    };
    out.set("net.connect_ms", fleet.connect_ms);
    out.set("net.wire_added_us", w.solo_p50_us - h.solo_p50_us);
    out.set("net.p99_us", w.loaded_p99_us);
    let client = fleet.router.metrics();
    out.set("net.reconnects", client.reconnects_total as f64);
    out.set("net.shed", client.rejected as f64);
    let lanes: Vec<f64> = fleet
        .router
        .per_shard_metrics()
        .iter()
        .map(|m| m.completed as f64)
        .collect();
    let mean = lanes.iter().sum::<f64>() / lanes.len() as f64;
    out.set_ratio(
        "shard.lane_skew",
        lanes.iter().copied().fold(0.0, f64::max),
        mean,
    );
    out.set_ratio(
        "shard.batch_fill",
        w.loaded.completed as f64,
        w.loaded.batches as f64,
    );
    wire.target.stop();

    // Generator-side spans of the in-process pass: what `submit` and the
    // record clone cost the caller per request.
    let agg = self_times(t.spans());
    for (metric, span) in [
        ("serve.submit_us_per_req", "serve.submit"),
        ("serve.clone_us_per_req", "serve.clone"),
    ] {
        let s = agg[span];
        out.set_ratio(metric, s.total_ns as f64 / 1e3, s.count as f64);
    }

    micro_probes(records, out);
    ProbeOutcome {
        hot_secs: h.wall_secs,
        wire_secs: w.wall_secs,
        failed,
    }
}

/// Mean nanoseconds per call of `f` over `iters` calls.
fn ns_per_call(iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..iters {
        f(i);
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Codec, routing and cache costs in isolation, on this workload's ids.
fn micro_probes(records: &[AddressRecord], out: &mut Values) {
    const ITERS: u64 = 100_000;
    let ids: Vec<u64> = records.iter().map(|r| r.address.0).collect();
    let id_of = |i: u64| ids[i as usize % ids.len()];

    let request = |i: u64| Message::Classify {
        req_id: i,
        address: id_of(i),
    };
    let reply = |i: u64| Message::Reply {
        req_id: i,
        outcome: ReplyOutcome::Ok {
            label_index: (i % 4) as u8,
            cache_hit: true,
            degraded: false,
            latency_us: 2000 + i % 512,
        },
    };
    let (req_frame, reply_frame) = (encode_frame(&request(0)), encode_frame(&reply(0)));
    out.set("net.bytes_per_req", req_frame.len() as f64);
    out.set("net.bytes_per_reply", reply_frame.len() as f64);
    let encode = ns_per_call(ITERS, |i| {
        black_box(encode_frame(&request(i)));
        black_box(encode_frame(&reply(i)));
    });
    out.set("net.encode_ns_per_msg", encode / 2.0);
    let decode = ns_per_call(ITERS, |_| {
        black_box(decode_frame(black_box(&req_frame)).expect("own frame decodes"));
        black_box(decode_frame(black_box(&reply_frame)).expect("own frame decodes"));
    });
    out.set("net.decode_ns_per_msg", decode / 2.0);

    let map = ShardMap::new(SHARDS);
    out.set(
        "shard.route_ns_per_req",
        ns_per_call(ITERS, |i| {
            black_box(map.shard_of(btcsim::Address(black_box(id_of(i)))));
        }),
    );

    // The engine's cache shape: (address, history length, generation) →
    // shared embedding sequence, at the default capacity.
    const CAPACITY: u64 = 1024;
    let value = Arc::new(vec![numnet::Matrix::zeros(1, 32)]);
    let mut cache: LruCache<(u64, u64, u64), Arc<Vec<numnet::Matrix>>> =
        LruCache::new(CAPACITY as usize);
    for k in 0..CAPACITY {
        cache.insert((k, 0, 0), Arc::clone(&value));
    }
    out.set(
        "serve.lru_get_ns",
        ns_per_call(ITERS, |i| {
            // A stride walk, so hits land all over the recency list.
            black_box(cache.get(&((i * 389) % CAPACITY, 0, 0)).is_some());
        }),
    );
    out.set(
        "serve.lru_insert_evict_ns",
        ns_per_call(ITERS, |i| {
            black_box(cache.insert((CAPACITY + i, 0, 0), Arc::clone(&value)));
        }),
    );
}
