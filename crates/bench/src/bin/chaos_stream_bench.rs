//! Streaming chaos benchmark: measure what crash recovery costs and prove
//! it loses nothing. Written to `results/chaos_stream_bench.json`.
//!
//! ```text
//! chaos_stream_bench [--seed 42] [--blocks 240] [--smoke]
//!                    [--out results/chaos_stream_bench.json]
//! ```
//!
//! Three phases, all against an uninterrupted reference follower over the
//! same chain:
//!
//! 1. **Kill mid-ingest** — a journaling follower is dropped cold at 60%
//!    of the chain; `Follower::recover` restores the newest snapshot and
//!    replays the journal tail. Reported: recovery wall time, journal
//!    replay throughput (blocks/s), and `blocks_lost` — the gap between
//!    the crash height and the recovered height, which must be **zero**.
//! 2. **Corrupt snapshot fallback** — same crash, but the newest snapshot
//!    generation is bit-flipped first. Recovery must quarantine it, fall
//!    back a generation, replay a longer tail, and still lose zero
//!    blocks.
//! 3. **Sharded respawn** — a 4-shard `ShardedFollower` takes a scripted
//!    worker panic mid-stream; the supervisor respawns the shard from
//!    snapshot + journal. Reported: end-to-end wall time, respawn count,
//!    and the merged fleet's `blocks_lost` (zero) with the label table
//!    asserted identical to the unsharded reference.
//!
//! The bench *fails* (non-zero exit) if any phase loses a block or
//! diverges from the reference — it is an acceptance gate first and a
//! stopwatch second. `--smoke` shrinks the chain for CI.

use bac_bench::write_results_atomic;
use baclassifier::{BaClassifier, BacConfig, ModelArtifact};
use baserve::cli::{flag_parsed, flag_value, has_flag};
use baserve::{FaultPlan, ScriptedFaultPlan};
use bashard::{
    shard_snapshot_path, ShardReport, ShardedFollower, SpawnMode, StreamHooks, SupervisionConfig,
};
use bstream::{quarantine_path, Follower, FollowerConfig};
use btcsim::{Block, BlockCursor, SimConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Untrained weights of the `fast` preset (no fit: benchmark, not model).
fn untrained_artifact() -> ModelArtifact {
    let cfg = BacConfig::fast();
    let clf = BaClassifier::new(cfg.clone());
    let path = std::env::temp_dir().join(format!("chaos_stream_artifact_{}", std::process::id()));
    clf.save_weights(&path).expect("write weights");
    let weights = numnet::read_matrices(&mut std::fs::File::open(&path).expect("reopen weights"))
        .expect("read weights");
    std::fs::remove_file(&path).ok();
    ModelArtifact {
        config: cfg,
        weights,
    }
}

struct Paths {
    base: PathBuf,
    journal: PathBuf,
}

fn paths(tag: &str) -> Paths {
    let dir = std::env::temp_dir();
    Paths {
        base: dir.join(format!("chaos_stream_{tag}_{}.bsnap", std::process::id())),
        journal: dir.join(format!("chaos_stream_{tag}_{}.bjrnl", std::process::id())),
    }
}

impl Paths {
    fn cfg(&self, snapshot_every: u64) -> FollowerConfig {
        FollowerConfig {
            snapshot_every,
            snapshot_path: Some(self.base.clone()),
            journal_path: Some(self.journal.clone()),
            ..FollowerConfig::default()
        }
    }

    fn cleanup(&self, shards: u32) {
        std::fs::remove_file(&self.journal).ok();
        let bases: Vec<PathBuf> = if shards <= 1 {
            vec![self.base.clone()]
        } else {
            (0..shards)
                .map(|i| shard_snapshot_path(&self.base, i, shards))
                .collect()
        };
        for base in bases {
            for k in 0..4 {
                let p = bstream::generation_path(&base, k);
                std::fs::remove_file(quarantine_path(&p)).ok();
                std::fs::remove_file(p).ok();
            }
        }
    }
}

/// Identity gate: recovered labels, histories, and height must equal the
/// reference's at the same point of the chain.
fn assert_identical(recovered: &Follower, reference: &Follower, phase: &str) {
    assert_eq!(
        recovered.next_height(),
        reference.next_height(),
        "{phase}: height diverged"
    );
    assert_eq!(
        recovered.num_tracked(),
        reference.num_tracked(),
        "{phase}: tracked set diverged"
    );
    assert_eq!(
        recovered.labels(),
        reference.labels(),
        "{phase}: label table diverged"
    );
    assert_eq!(
        recovered.history_lens(),
        reference.history_lens(),
        "{phase}: histories diverged"
    );
}

/// Phase 1 + 2 share this harness; `corrupt_newest` is the only
/// difference. Returns the phase's JSON object.
fn crashed_follower_phase(
    artifact: &ModelArtifact,
    blocks: &[Block],
    tag: &str,
    corrupt_newest: bool,
) -> String {
    let p = paths(tag);
    p.cleanup(1);
    let split = blocks.len() * 3 / 5;
    let crash_height = blocks[split - 1].height + 1;

    // Ingest 60% of the chain, snapshotting periodically, then "crash":
    // drop everything without a final snapshot or journal sync beyond the
    // per-append cadence.
    let mut live = Follower::recover(artifact, p.cfg(10))
        .expect("fresh recover")
        .follower;
    for b in &blocks[..split] {
        live.step(b);
    }
    drop(live);

    if corrupt_newest {
        let mut bytes = std::fs::read(&p.base).expect("newest snapshot exists");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&p.base, bytes).expect("corrupt snapshot");
    }

    let t = Instant::now();
    let recovery = Follower::recover(artifact, p.cfg(10)).expect("recovery succeeds");
    let recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    let replayed = recovery.replayed_blocks;
    let replay_bps = if recovery_ms > 0.0 {
        replayed as f64 / (recovery_ms / 1e3)
    } else {
        0.0
    };
    let mut recovered = recovery.follower;
    let blocks_lost = crash_height - recovered.next_height();
    assert_eq!(
        blocks_lost, 0,
        "{tag}: journal replay must reach the crash height"
    );
    if corrupt_newest {
        assert!(
            !recovery.quarantined.is_empty(),
            "{tag}: the corrupted generation must be quarantined"
        );
        assert!(
            quarantine_path(&p.base).exists(),
            "{tag}: quarantine file must exist"
        );
    }

    // Reference at the crash height: byte-equal state, no interruption.
    let mut reference = Follower::new(artifact, FollowerConfig::default()).expect("reference");
    for b in &blocks[..split] {
        reference.step(b);
    }
    reference.reclassify_dirty();
    recovered.mark_all_dirty();
    recovered.reclassify_dirty();
    assert_identical(&recovered, &reference, tag);

    eprintln!(
        "[chaos_stream_bench] {tag}: recovered in {recovery_ms:.1}ms, {replayed} blocks \
         replayed ({replay_bps:.0}/s), {} quarantined, 0 lost",
        recovery.quarantined.len()
    );
    let result = format!(
        "{{\"recovery_ms\":{recovery_ms:.3},\"replayed_blocks\":{replayed},\
         \"replay_blocks_per_sec\":{replay_bps:.1},\"blocks_lost\":{blocks_lost},\
         \"quarantined\":{},\"restored_generation\":{},\"crash_height\":{crash_height}}}",
        recovery.quarantined.len(),
        recovery
            .restored_generation
            .map_or("null".to_string(), |g| g.to_string()),
    );
    p.cleanup(1);
    result
}

fn sharded_respawn_phase(artifact: &Arc<ModelArtifact>, blocks: &[Block]) -> String {
    let shards = 4u32;
    let p = paths("sharded");
    p.cleanup(shards);

    // Reference: the unsharded tip.
    let mut reference = Follower::new(artifact, FollowerConfig::default()).expect("reference");
    for b in blocks {
        reference.step(b);
    }
    reference.reclassify_dirty();

    let victim = 2usize;
    let fault_height = (blocks.len() as u64) / 2;
    let plan = Arc::new(ScriptedFaultPlan::panics(victim, &[fault_height + 1]));
    let hooks = StreamHooks {
        fault_plan: Arc::clone(&plan) as Arc<dyn FaultPlan>,
    };
    let t = Instant::now();
    let mut fleet = ShardedFollower::with_hooks(
        Arc::clone(artifact),
        p.cfg(20),
        shards,
        hooks,
        SupervisionConfig {
            restart_backoff: Duration::from_millis(1),
            ..SupervisionConfig::default()
        },
        SpawnMode::Fresh,
    )
    .expect("fleet starts");
    let health = fleet.health();
    for b in blocks {
        fleet.step(b.clone()).expect("fleet ingests");
    }
    let reports = fleet.finish().expect("fleet finishes");
    let elapsed = t.elapsed().as_secs_f64();

    assert_eq!(plan.injected(), 1, "the scripted panic must fire");
    let respawns = health.total_respawns();
    assert!(respawns >= 1, "the killed shard must be respawned");
    let merged = ShardReport::merge(reports);
    let blocks_lost = reference.next_height() - merged.next_height;
    assert_eq!(blocks_lost, 0, "sharded respawn must lose nothing");
    assert_eq!(
        &merged.labels,
        reference.labels(),
        "sharded: label table diverged from the unsharded reference"
    );
    assert_eq!(merged.history_lens, reference.history_lens());

    let bps = blocks.len() as f64 / elapsed;
    eprintln!(
        "[chaos_stream_bench] sharded: {} blocks through a worker kill in {elapsed:.2}s \
         ({bps:.0}/s), {respawns} respawn(s), 0 lost",
        blocks.len()
    );
    let result = format!(
        "{{\"shards\":{shards},\"elapsed_s\":{elapsed:.3},\"blocks_per_sec\":{bps:.1},\
         \"respawns\":{respawns},\"faults_injected\":{},\"blocks_lost\":{blocks_lost}}}",
        plan.injected(),
    );
    p.cleanup(shards);
    result
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = has_flag(&args, "--smoke");
    let seed: u64 = flag_parsed(&args, "--seed", 42);
    let blocks: u64 = flag_parsed(&args, "--blocks", if smoke { 60 } else { 240 });
    let out =
        flag_value(&args, "--out").unwrap_or_else(|| "results/chaos_stream_bench.json".into());

    let chain: Vec<Block> = BlockCursor::new(SimConfig {
        blocks,
        ..SimConfig::tiny(seed)
    })
    .collect();
    let artifact = Arc::new(untrained_artifact());
    eprintln!(
        "[chaos_stream_bench] {} blocks (seed {seed}{})",
        chain.len(),
        if smoke { ", smoke" } else { "" }
    );

    let kill = crashed_follower_phase(&artifact, &chain, "kill_mid_ingest", false);
    let fallback = crashed_follower_phase(&artifact, &chain, "snapshot_fallback", true);
    let sharded = sharded_respawn_phase(&artifact, &chain);

    let json = format!(
        "{{\n  \"seed\": {seed},\n  \"blocks\": {},\n  \"smoke\": {smoke},\n  \
         \"kill_mid_ingest\": {kill},\n  \"snapshot_fallback\": {fallback},\n  \
         \"sharded_respawn\": {sharded},\n  \"blocks_lost_total\": 0\n}}\n",
        chain.len(),
    );
    write_results_atomic(&out, &json);
    eprintln!("[chaos_stream_bench] wrote {out}");
}
