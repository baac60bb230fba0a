//! Sharding benchmark: proves the shared-nothing partition is *free* —
//! N shards produce byte-identical output to 1 shard — and records the
//! per-shard scaling curves, written to `results/shard_bench.json`.
//!
//! ```text
//! shard_bench [--smoke] [--seed 42] [--blocks N] [--users N] [--p2p F]
//!             [--growth F] [--shards 1,2,4] [--min-txs 3]
//!             [--requests N] [--zipf 1.1] [--out results/shard_bench.json]
//! ```
//!
//! Two phases over one simulated chain:
//!
//! * **Stream** — an unsharded [`Follower`] drains the chain as the
//!   reference; then a [`ShardedFollower`] at each shard count drains the
//!   same blocks and the disjoint union of its shards' label tables,
//!   histories, and embedding bytes is asserted equal to the reference,
//!   byte for byte, while wall time per shard count gives the scaling
//!   curve.
//! * **Serve** — a single [`Engine`] labels a record sample as the
//!   reference; a [`ShardRouter`] at each shard count must return the
//!   same labels in request order, then a zipf burst measures fleet
//!   throughput per shard count.
//!
//! The default (non-`--smoke`) configuration sizes the simulation past
//! 100k distinct addresses so the identity claim is exercised at serving
//! scale, not toy scale. `--smoke` shrinks everything for CI.

use baclassifier::{BaClassifier, BacConfig, ModelArtifact};
use baserve::cli::{flag_parsed, flag_value, has_flag};
use baserve::{Engine, EngineConfig, Ticket};
use bashard::{MergedReport, ShardReport, ShardRouter, ShardedFollower};
use bstream::{BlockFeed, Follower, FollowerConfig};
use btcsim::dist::ZipfSampler;
use btcsim::{Block, Dataset, SimConfig, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Freshly initialized weights exported through the NNIO stream — a valid
/// fitted-state artifact without paying for `fit()` on a 100k-address
/// dataset. Identity only needs determinism, not accuracy.
fn untrained_artifact() -> Arc<ModelArtifact> {
    let cfg = BacConfig::fast();
    let clf = BaClassifier::new(cfg.clone());
    let path = std::env::temp_dir().join(format!("shard_bench_artifact_{}", std::process::id()));
    clf.save_weights(&path).expect("write weights");
    let weights = numnet::read_matrices(&mut std::fs::File::open(&path).expect("reopen weights"))
        .expect("read weights");
    std::fs::remove_file(&path).ok();
    Arc::new(ModelArtifact {
        config: cfg,
        weights,
    })
}

/// Assert the merged shard state equals the unsharded reference, byte for
/// byte: labels, history lengths, tracked count, and every embedding
/// matrix. Panics (failing the bench) on any divergence.
fn assert_identical(merged: &MergedReport, reference: &Follower, shards: u32) {
    assert_eq!(
        merged.num_tracked,
        reference.num_tracked(),
        "{shards}-shard union tracks a different address set"
    );
    assert_eq!(merged.next_height, reference.next_height());
    assert_eq!(
        &merged.labels,
        reference.labels(),
        "{shards}-shard label table diverged"
    );
    assert_eq!(merged.history_lens, reference.history_lens());
    assert_eq!(merged.embeddings.len(), reference.export_embeddings().len());
    for (addr, embeds) in &merged.embeddings {
        let want = reference
            .embeddings(*addr)
            .unwrap_or_else(|| panic!("{addr:?} embedded by shards but not the reference"));
        assert_eq!(embeds.len(), want.len(), "slice count for {addr:?}");
        for (got, want) in embeds.iter().zip(want) {
            assert_eq!(
                got.as_slice(),
                want.as_slice(),
                "{shards}-shard embedding bytes diverged for {addr:?}"
            );
        }
    }
}

fn per_shard_json(reports: &[ShardReport]) -> String {
    let entries: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "{{\"shard\":{},\"tracked\":{},\"ingest_s\":{:.3},\"reclass_s\":{:.3},\
                 \"reclassifications\":{},\"tx_applications\":{}}}",
                r.shard.index,
                r.num_tracked,
                r.metrics.ingest_time.as_secs_f64(),
                r.metrics.reclass_time.as_secs_f64(),
                r.metrics.reclassifications,
                r.metrics.tx_applications
            )
        })
        .collect();
    format!("[{}]", entries.join(","))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = has_flag(&args, "--smoke");
    let seed: u64 = flag_parsed(&args, "--seed", 42);
    let blocks: u64 = flag_parsed(&args, "--blocks", if smoke { 60 } else { 2200 });
    let users: usize = flag_parsed(&args, "--users", if smoke { 40 } else { 400 });
    let p2p: f64 = flag_value(&args, "--p2p")
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 8.0 } else { 30.0 });
    let growth: f64 = flag_parsed(&args, "--growth", if smoke { 0.0 } else { 2.0 });
    let min_txs: usize = flag_parsed(&args, "--min-txs", 3);
    let requests: usize = flag_parsed(&args, "--requests", if smoke { 300 } else { 2000 });
    let zipf_s: f64 = flag_parsed(&args, "--zipf", 1.1);
    let shard_counts: Vec<u32> = flag_value(&args, "--shards")
        .unwrap_or_else(|| "1,2,4".into())
        .split(',')
        .map(|s| s.trim().parse().expect("--shards takes e.g. 1,2,4"))
        .filter(|&n| n > 0)
        .collect();
    let out = flag_value(&args, "--out").unwrap_or_else(|| "results/shard_bench.json".into());
    // The identity floor: a full run must exercise the partition at
    // serving scale (ISSUE 6 acceptance: 100k+ distinct addresses).
    let address_floor: usize = if smoke { 0 } else { 100_000 };

    let mut sim_cfg = SimConfig {
        blocks,
        ..SimConfig::tiny(seed)
    };
    sim_cfg.retail.num_users = users;
    sim_cfg.retail.p2p_per_block = p2p;
    sim_cfg.retail.growth_per_block = growth;

    eprintln!("[shard_bench] mining {blocks} blocks (seed {seed}, {users} users)…");
    let t = Instant::now();
    let sim = Simulator::run_to_completion(sim_cfg);
    let chain_blocks: Vec<Block> = sim.chain().blocks().to_vec();
    let num_addresses = sim.chain().num_addresses();
    let num_txs = sim.chain().num_transactions();
    eprintln!(
        "[shard_bench] chain ready in {:.1}s: {} blocks, {} txs, {} addresses",
        t.elapsed().as_secs_f64(),
        chain_blocks.len(),
        num_txs,
        num_addresses
    );
    assert!(
        num_addresses >= address_floor,
        "chain has only {num_addresses} addresses (< {address_floor}); raise --blocks/--users/--p2p"
    );

    let artifact = untrained_artifact();
    let follower_cfg = FollowerConfig {
        min_txs,
        reclass_every: 0, // one classification pass at the tip, like finish()
        ..FollowerConfig::default()
    };

    // ── Stream phase: reference, then each shard count against it. ──────
    eprintln!("[shard_bench] stream reference: unsharded follower…");
    let t = Instant::now();
    let mut reference = Follower::new(&artifact, follower_cfg.clone()).expect("config matches");
    for b in &chain_blocks {
        reference.step(b);
    }
    let reclassified = reference.reclassify_dirty();
    let ref_elapsed = t.elapsed().as_secs_f64();
    eprintln!(
        "[shard_bench] reference: {} tracked, {reclassified} classified in {ref_elapsed:.1}s",
        reference.num_tracked()
    );
    assert!(
        reference.num_tracked() >= address_floor,
        "follower tracks only {} addresses (< {address_floor})",
        reference.num_tracked()
    );

    let mut stream_curves = Vec::new();
    for &shards in &shard_counts {
        eprintln!("[shard_bench] stream {shards}-shard run…");
        let mut sharded = ShardedFollower::new(Arc::clone(&artifact), follower_cfg.clone(), shards)
            .expect("shard fleet starts");
        let feed = BlockFeed::from_blocks(chain_blocks.clone());
        let t = Instant::now();
        sharded.run(&feed).expect("fleet drains the feed");
        let reports = sharded.finish().expect("fleet finishes");
        let elapsed = t.elapsed().as_secs_f64();
        let per_shard = per_shard_json(&reports);
        let merged = ShardReport::merge(reports);
        assert_identical(&merged, &reference, shards);
        let bps = chain_blocks.len() as f64 / elapsed;
        eprintln!(
            "[shard_bench]   {shards}-shard: {elapsed:.1}s = {bps:.1} blocks/s \
             (x{:.2} vs reference), identity OK",
            ref_elapsed / elapsed
        );
        stream_curves.push(format!(
            "{{\"shards\":{shards},\"elapsed_s\":{elapsed:.3},\"blocks_per_sec\":{bps:.2},\
             \"speedup_vs_reference\":{:.3},\"per_shard\":{per_shard}}}",
            ref_elapsed / elapsed
        ));
    }
    let tracked = reference.num_tracked();
    drop(reference);

    // ── Serve phase: router identity + zipf throughput per shard count. ─
    eprintln!("[shard_bench] building dataset for the serve phase…");
    let dataset = Dataset::from_simulator(&sim, min_txs);
    drop(sim);
    assert!(dataset.len() >= 10, "dataset too small: {}", dataset.len());
    // Identity over a bounded sample keeps the full run's serve phase
    // proportionate; the burst then exercises the whole record set.
    let identity_sample = dataset.len().min(2000);
    eprintln!(
        "[shard_bench] serve reference: single engine over {identity_sample} of {} records…",
        dataset.len()
    );
    let engine_cfg = EngineConfig::default();
    let single = Engine::new(Arc::clone(&artifact), engine_cfg.clone()).expect("engine starts");
    let want: Vec<_> = dataset.records[..identity_sample]
        .iter()
        .map(|r| single.classify(r.clone()).expect("classify succeeds").label)
        .collect();
    single.shutdown();

    let mut serve_curves = Vec::new();
    for &shards in &shard_counts {
        eprintln!("[shard_bench] serve {shards}-shard run…");
        let router = ShardRouter::new(Arc::clone(&artifact), engine_cfg.clone(), shards)
            .expect("router starts");
        let responses = router.classify_batch(&dataset.records[..identity_sample]);
        for (i, response) in responses.into_iter().enumerate() {
            let response = response.expect("batch submission within queue budget");
            assert_eq!(
                response.label, want[i],
                "{shards}-shard router diverged from the single engine at index {i}"
            );
        }

        let sampler = ZipfSampler::new(dataset.len(), zipf_s);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5a4d);
        let window = engine_cfg.queue_depth.clamp(1, 64);
        let mut in_flight: Vec<Ticket> = Vec::with_capacity(window);
        let t = Instant::now();
        for _ in 0..requests {
            let idx = sampler.sample(&mut rng);
            match router.submit(dataset.records[idx].clone()) {
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
        let elapsed = t.elapsed().as_secs_f64();
        let merged = router.metrics();
        router.shutdown();
        let qps = requests as f64 / elapsed;
        eprintln!(
            "[shard_bench]   {shards}-shard: {requests} requests in {elapsed:.2}s \
             = {qps:.0} req/s, hit rate {:.1}%, identity OK",
            merged.cache_hit_rate() * 100.0
        );
        serve_curves.push(format!(
            "{{\"shards\":{shards},\"identity_checked\":{identity_sample},\
             \"requests\":{requests},\"elapsed_s\":{elapsed:.3},\"qps\":{qps:.1},\
             \"metrics\":{}}}",
            merged.to_json()
        ));
    }

    // Shards are real threads, so the scaling a curve can show is bounded
    // by the host's cores — record them so a flat curve on a 1-core box
    // reads as "no parallel hardware", not "sharding doesn't scale".
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\"seed\":{seed},\"smoke\":{smoke},\"cores\":{cores},\"blocks\":{},\
         \"txs\":{num_txs},\
         \"addresses\":{num_addresses},\"tracked\":{tracked},\"min_txs\":{min_txs},\
         \"identity\":\"byte-identical labels, histories, and embeddings at every \
         shard count\",\"stream\":{{\"reference_elapsed_s\":{ref_elapsed:.3},\
         \"reclassified\":{reclassified},\"curves\":[{}]}},\
         \"serve\":{{\"dataset\":{},\"zipf_s\":{zipf_s},\"curves\":[{}]}}}}",
        chain_blocks.len(),
        stream_curves.join(","),
        dataset.len(),
        serve_curves.join(",")
    );
    bac_bench::write_results_atomic(&out, &json);
    println!("wrote {out}");
}
