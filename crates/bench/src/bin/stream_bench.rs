//! Streaming ingestion benchmark, written to `results/stream_bench.json`.
//!
//! ```text
//! stream_bench [--seed 42] [--blocks 1000] [--users 40] [--capacity 16]
//!              [--reclass-every 5] [--min-txs 3] [--reclass-threads 0]
//!              [--reclass-batch 128] [--smoke]
//!              [--out results/stream_bench.json]
//! ```
//!
//! Three phases:
//!
//! 1. **Follow** — a `bstream` follower drains a live feed over the whole
//!    chain, reporting ingest throughput (blocks/s), per-address
//!    reclassification latency (p50/p99), and steady-state lag behind the
//!    producer (mean of the second half of the lag samples). The
//!    `follow_vs_ingest` ratio (pure ingest blocks/s over end-to-end
//!    follow blocks/s) is gated at ≤ 2.0x when at least two cores are
//!    available and `--smoke` is not set — batched reclassification must
//!    keep live labeling within 2x of ingest-only speed (mirroring the
//!    `kernel_bench` speedup gates: CI smoke runs check correctness, not
//!    speed).
//! 2. **Batched vs serial identity** — two followers replay the same
//!    sub-chain, one with `reclass_threads = 1` (the serial per-address
//!    path) and one with `reclass_threads = 4`; final labels and every
//!    cached embedding matrix are asserted byte-identical (always, even
//!    under `--smoke`).
//! 3. **Incremental vs reconstruction** — for the busiest address, the cost
//!    of extending graphs by one transaction (`apply_tx` + re-deriving the
//!    dirty slice) is compared against rebuilding every slice from scratch
//!    with `construct_address_graphs`, sampled along the history. The two
//!    paths are asserted byte-identical at the final state, and the bench
//!    fails if incremental maintenance is not strictly faster.
//!
//! Classification timing uses untrained weights of the `fast` preset —
//! label *values* are meaningless here, but every code path (embed, head,
//! cache maintenance) runs exactly as it would with a trained model.

use baclassifier::construction::{construct_address_graphs, graphs_identical, IncrementalGraphs};
use baclassifier::{BaClassifier, BacConfig, ModelArtifact};
use baserve::cli::{flag_parsed, flag_value, has_flag};
use bstream::{BlockFeed, Follower, FollowerConfig};
use btcsim::{AddressRecord, BlockCursor, Dataset, SimConfig, Simulator};
use std::time::{Duration, Instant};

/// Untrained weights of the `fast` preset (no fit: benchmark, not model).
fn untrained_artifact() -> ModelArtifact {
    let cfg = BacConfig::fast();
    let clf = BaClassifier::new(cfg.clone());
    let path = std::env::temp_dir().join(format!("stream_bench_artifact_{}", std::process::id()));
    clf.save_weights(&path).expect("write weights");
    let weights = numnet::read_matrices(&mut std::fs::File::open(&path).expect("reopen weights"))
        .expect("read weights");
    std::fs::remove_file(&path).ok();
    ModelArtifact {
        config: cfg,
        weights,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed: u64 = flag_parsed(&args, "--seed", 42);
    let blocks: u64 = flag_parsed(&args, "--blocks", 1000);
    let users: usize = flag_parsed(&args, "--users", 40);
    let capacity: usize = flag_parsed(&args, "--capacity", 16);
    let reclass_every: u64 = flag_parsed(&args, "--reclass-every", 5);
    let min_txs: usize = flag_parsed(&args, "--min-txs", 3);
    let reclass_threads: usize = flag_parsed(&args, "--reclass-threads", 0);
    let reclass_batch: usize = flag_parsed(&args, "--reclass-batch", 128);
    let smoke = has_flag(&args, "--smoke");
    let out = flag_value(&args, "--out").unwrap_or_else(|| "results/stream_bench.json".into());

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let gated = !smoke && cores >= 2;

    let mut sim_cfg = SimConfig {
        blocks,
        ..SimConfig::tiny(seed)
    };
    sim_cfg.retail.num_users = users;
    let artifact = untrained_artifact();

    // Phase 1: follow the live chain end to end.
    eprintln!(
        "[stream_bench] following {} blocks (seed {seed}, reclass_threads {reclass_threads}, batch {reclass_batch})…",
        blocks + 1
    );
    let mut follower = Follower::new(
        &artifact,
        FollowerConfig {
            min_txs,
            reclass_every,
            reclass_threads,
            reclass_batch,
            ..FollowerConfig::default()
        },
    )
    .expect("untrained artifact matches its own config");
    let feed = BlockFeed::follow_sim(sim_cfg.clone(), 0, capacity);
    let t = Instant::now();
    follower.run(&feed);
    let follow_elapsed = t.elapsed();
    let m = follower.metrics().clone();
    let blocks_per_sec = m.blocks_ingested as f64 / follow_elapsed.as_secs_f64();
    // Pure-ingest speed over end-to-end follow speed: 1.0 would mean
    // reclassification is free; the gate below requires ≤ 2.0.
    let ingest_bps = m.ingest_blocks_per_sec();
    let follow_vs_ingest = if blocks_per_sec > 0.0 {
        ingest_bps / blocks_per_sec
    } else {
        f64::INFINITY
    };
    eprintln!(
        "[stream_bench] {} blocks in {:.2}s = {:.1} blocks/s ({} tracked, p50 {}µs, p99 {}µs, steady lag {:.2})",
        m.blocks_ingested,
        follow_elapsed.as_secs_f64(),
        blocks_per_sec,
        follower.num_tracked(),
        m.reclass_percentile_us(0.50),
        m.reclass_percentile_us(0.99),
        m.steady_lag(),
    );
    eprintln!(
        "[stream_bench] ingest-only {ingest_bps:.1} blocks/s, follow_vs_ingest {follow_vs_ingest:.2}x \
         ({} batches, mean {:.1} addrs/batch, {} coalesced flips)",
        m.reclass_batches,
        m.mean_batch_addrs(),
        m.coalesced_flips,
    );
    if gated {
        assert!(
            follow_vs_ingest <= 2.0,
            "follow throughput must stay within 2x of pure ingest \
             (got {follow_vs_ingest:.2}x: ingest {ingest_bps:.1} vs follow {blocks_per_sec:.1} blocks/s)"
        );
    } else {
        eprintln!("[stream_bench] follow_vs_ingest gate skipped (smoke={smoke}, cores={cores})");
    }

    // Phase 2: batched reclassification must be byte-identical to the
    // serial per-address path. Always asserted, even under --smoke.
    let identity_blocks = blocks.min(200);
    let identity_cfg = SimConfig {
        blocks: identity_blocks,
        ..sim_cfg.clone()
    };
    eprintln!("[stream_bench] batched-vs-serial identity over {identity_blocks} blocks…");
    let mut serial = Follower::new(
        &artifact,
        FollowerConfig {
            min_txs,
            reclass_every,
            reclass_threads: 1,
            reclass_batch,
            ..FollowerConfig::default()
        },
    )
    .expect("serial follower");
    let mut batched = Follower::new(
        &artifact,
        FollowerConfig {
            min_txs,
            reclass_every,
            reclass_threads: 4,
            reclass_batch,
            ..FollowerConfig::default()
        },
    )
    .expect("batched follower");
    for block in BlockCursor::new(identity_cfg) {
        serial.step(&block);
        batched.step(&block);
    }
    serial.reclassify_dirty();
    batched.reclassify_dirty();
    assert_eq!(
        serial.labels(),
        batched.labels(),
        "labels must not depend on reclass_threads"
    );
    let serial_embeds = serial.export_embeddings();
    let batched_embeds = batched.export_embeddings();
    assert_eq!(serial_embeds.len(), batched_embeds.len());
    for (addr, embeds) in &serial_embeds {
        let other = &batched_embeds[addr];
        assert_eq!(embeds.len(), other.len(), "embedding count for {addr:?}");
        for (x, y) in embeds.iter().zip(other) {
            assert_eq!(
                x.as_slice(),
                y.as_slice(),
                "embeddings for {addr:?} must be byte-identical"
            );
        }
    }
    eprintln!(
        "[stream_bench] identity OK: {} labels, {} embedded addresses bit-equal at threads 1 vs 4",
        serial.labels().len(),
        serial_embeds.len()
    );

    // Phase 3: incremental update vs full reconstruction, busiest address.
    let sim = Simulator::run_to_completion(sim_cfg);
    let ds = Dataset::from_simulator(&sim, 1);
    let record = ds
        .records
        .iter()
        .max_by_key(|r| r.txs.len())
        .expect("non-empty dataset");
    let construction = artifact.config.construction.clone();
    let stride = (record.txs.len() / 200).max(1);
    eprintln!(
        "[stream_bench] incremental vs reconstruction on {:?} ({} txs, sampling every {stride})…",
        record.address,
        record.txs.len()
    );

    let mut inc = IncrementalGraphs::new(record.address, construction.clone());
    let mut inc_time = Duration::ZERO;
    let mut batch_time = Duration::ZERO;
    let mut samples = 0usize;
    for (i, tx) in record.txs.iter().enumerate() {
        let sampled = i % stride == 0 || i + 1 == record.txs.len();
        if sampled {
            // Incremental path: extend by one tx, re-derive the dirty slice.
            let t = Instant::now();
            inc.apply_tx(tx);
            let _ = inc.graphs();
            inc_time += t.elapsed();

            // Batch path: rebuild every slice from the same prefix.
            let prefix = AddressRecord {
                address: record.address,
                label: record.label,
                txs: record.txs[..=i].to_vec(),
            };
            let t = Instant::now();
            let (batch_graphs, _) = construct_address_graphs(&prefix, &construction);
            batch_time += t.elapsed();
            samples += 1;

            if i + 1 == record.txs.len() {
                graphs_identical(inc.graphs(), &batch_graphs)
                    .expect("incremental and batch graphs must be byte-identical");
            }
        } else {
            inc.apply_tx(tx);
        }
    }
    let speedup = batch_time.as_secs_f64() / inc_time.as_secs_f64();
    eprintln!(
        "[stream_bench] {} samples: incremental {:.1}ms, reconstruction {:.1}ms, speedup {:.1}x",
        samples,
        inc_time.as_secs_f64() * 1e3,
        batch_time.as_secs_f64() * 1e3,
        speedup
    );
    assert!(
        speedup > 1.0,
        "incremental update must beat full reconstruction (got {speedup:.2}x)"
    );

    let json = format!(
        "{{\"seed\":{seed},\"blocks\":{},\"tracked\":{},\"labeled\":{},\
         \"smoke\":{smoke},\"cores\":{cores},\"follow_vs_ingest_gated\":{gated},\
         \"reclass_threads\":{reclass_threads},\"reclass_batch\":{reclass_batch},\
         \"follow\":{{\"elapsed_s\":{:.3},\"blocks_per_sec\":{blocks_per_sec:.1},\
         \"follow_vs_ingest\":{follow_vs_ingest:.3},\
         \"reclass_p50_us\":{},\"reclass_p99_us\":{},\"mean_lag\":{:.3},\
         \"steady_lag\":{:.3},\"metrics\":{}}},\
         \"identity\":{{\"blocks\":{identity_blocks},\"labels\":{},\"addresses\":{}}},\
         \"incremental_vs_batch\":{{\"address\":{},\"num_txs\":{},\"samples\":{samples},\
         \"incremental_ms\":{:.3},\"batch_ms\":{:.3},\"speedup\":{speedup:.2}}}}}",
        m.blocks_ingested,
        follower.num_tracked(),
        follower.labels().len(),
        follow_elapsed.as_secs_f64(),
        m.reclass_percentile_us(0.50),
        m.reclass_percentile_us(0.99),
        m.mean_lag(),
        m.steady_lag(),
        m.to_json(),
        serial.labels().len(),
        serial_embeds.len(),
        record.address.0,
        record.txs.len(),
        inc_time.as_secs_f64() * 1e3,
        batch_time.as_secs_f64() * 1e3,
    );
    bac_bench::write_results_atomic(&out, &json);
    println!("wrote {out}");
}
