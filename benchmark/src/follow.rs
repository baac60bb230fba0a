//! The streaming path: `Follower::step` over a pre-generated chain.
//!
//! `follow_reclass` reads the follower's state (dirty scan, re-derive,
//! embed, batched head — 98 % of its wall time is reclassification);
//! `follow_ingest` only writes it (`apply_tx`, history and aggregate
//! maps). No journal or snapshot is attached in a timed pass, so disk
//! noise stays out of the end-to-end numbers; the traced probe measures
//! both on the side.

use crate::alloc;
use crate::cold::digest_labels;
use crate::host::{rss_kb, trim_heap};
use crate::inputs::FOLLOW_MIN_TXS;
use crate::metrics::Values;
use crate::run::Pass;
use crate::shared::{self_times, Fnv, SlotClock, Tracer};
use baclassifier::{BaClassifier, ModelArtifact};
use bstream::{BlockJournal, Follower, FollowerConfig};
use btcsim::{Address, AddressRecord, Block};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Reclassify every this many blocks in `follow_reclass` and in the probe.
pub const RECLASS_EVERY: u64 = 5;

fn config(
    reclass_every: u64,
    min_txs: usize,
    tracked: Option<BTreeSet<Address>>,
) -> FollowerConfig {
    FollowerConfig {
        min_txs,
        reclass_every,
        reclass_threads: 1,
        tracked,
        ..FollowerConfig::default()
    }
}

fn follower(artifact: &ModelArtifact, cfg: FollowerConfig) -> Follower {
    Follower::new(artifact, cfg).expect("artifact loads")
}

/// One pass: a new follower steps through every block; with `reclassify`
/// it reclassifies every `RECLASS_EVERY` blocks and once more at the tip.
/// Returns the pass and the follower at the tip (for the reference check).
pub fn pass(
    artifact: &ModelArtifact,
    blocks: &[Block],
    tracked: &BTreeSet<Address>,
    reclassify: bool,
    lat_ns: &mut Vec<u64>,
) -> (Pass, Follower) {
    let every = if reclassify { RECLASS_EVERY } else { 0 };
    let cfg = config(every, FOLLOW_MIN_TXS, Some(tracked.clone()));
    let mut f = follower(artifact, cfg);
    let mut clock = SlotClock::start(blocks.len());
    for (i, b) in blocks.iter().enumerate() {
        let t = Instant::now();
        f.step(black_box(b));
        lat_ns.push(t.elapsed().as_nanos() as u64);
        clock.op_done(i + 1);
    }
    if reclassify {
        f.reclassify_dirty();
    }
    let slot_ns = clock.finish();
    // Labels where the pass produces them; otherwise the state it wrote.
    let digest = if reclassify {
        digest_labels(f.labels().values())
    } else {
        Fnv::of(
            f.history_lens()
                .into_iter()
                .flat_map(|(a, n)| [a.0, n as u64]),
        )
    };
    let pass = Pass {
        ops: blocks.len() as u64,
        slot_ns,
        failed: 0,
        digest,
    };
    (pass, f)
}

/// The follower at the tip against batch processing of the same chain:
/// for each reference record (extracted from the finished chain), the
/// follower must hold the same history length and — where it classifies —
/// the label `predict` gives the batch-extracted record. Returns the
/// number of addresses that differ.
pub fn reference_mismatches(
    artifact: &ModelArtifact,
    tip: &Follower,
    reference: &[AddressRecord],
    labels_expected: bool,
) -> u64 {
    let clf = BaClassifier::from_artifact(artifact).expect("artifact loads");
    reference
        .iter()
        .filter(|r| {
            let history_ok = tip.history_len(r.address) == r.txs.len();
            let label_ok =
                !labels_expected || tip.labels().get(&r.address).copied() == clf.predict(r).ok();
            !(history_ok && label_ok)
        })
        .count() as u64
}

/// What the probe's followers track and where its reclassification phase
/// stops: after `reclass_blocks` blocks, or (for address sets whose every
/// reclassification is a Stage-3 rebuild) once `max_reclassifications`
/// are done. Both are counts, so the probe's own counters repeat exactly
/// for a seed.
pub struct ProbePlan {
    /// `None` tracks every address on the chain.
    pub tracked: Option<BTreeSet<Address>>,
    pub min_txs: usize,
    pub reclass_blocks: usize,
    pub max_reclassifications: u64,
}

impl ProbePlan {
    /// The follow workloads' own follower over their own chain.
    pub fn own(tracked: &BTreeSet<Address>, reclass_blocks: usize) -> ProbePlan {
        ProbePlan {
            tracked: Some(tracked.clone()),
            min_txs: FOLLOW_MIN_TXS,
            reclass_blocks,
            max_reclassifications: u64::MAX,
        }
    }

    /// A follower over another workload's chain, tracking only a sample of
    /// that workload's addresses. Thin samples are mostly two-transaction
    /// addresses, so everything with a history is classified.
    pub fn sample(addresses: &[AddressRecord], reclass_blocks: usize) -> ProbePlan {
        ProbePlan {
            tracked: Some(addresses.iter().map(|r| r.address).collect()),
            min_txs: 1,
            reclass_blocks,
            max_reclassifications: 128,
        }
    }
}

/// Traced follower runs over `blocks`: an ingest-only follower, then a
/// second one with `ingest_block` and `reclassify_dirty` driven
/// separately, then journal and snapshot costs in `scratch`. Fills every
/// `stream.*` metric; returns (wall seconds of the ingest phase, wall
/// seconds of the reclassify phase).
pub fn probe(
    artifact: &ModelArtifact,
    blocks: &[Block],
    plan: ProbePlan,
    scratch: &Path,
    t: &mut Tracer,
    out: &mut Values,
) -> (f64, f64) {
    // Phase 1: writes only.
    let mut f = follower(artifact, config(0, plan.min_txs, plan.tracked.clone()));
    // Earlier followers' freed heap would otherwise absorb this one's growth.
    trim_heap();
    let rss0 = rss_kb();
    let allocs0 = alloc::totals().0;
    let start = Instant::now();
    for b in blocks {
        t.leaf("stream.ingest_block", b.height, || f.ingest_block(b));
    }
    let ingest_secs = start.elapsed().as_secs_f64();
    let allocs1 = alloc::totals().0;
    let rss1 = rss_kb();
    let m = f.metrics();
    out.set_ratio(
        "stream.ingest_us_per_block",
        m.ingest_time.as_secs_f64() * 1e6,
        m.blocks_ingested as f64,
    );
    out.set_ratio(
        "stream.ingest_ns_per_tx_app",
        m.ingest_time.as_secs_f64() * 1e9,
        m.tx_applications as f64,
    );
    out.set_ratio(
        "stream.allocs_per_tx_app",
        (allocs1 - allocs0) as f64,
        m.tx_applications as f64,
    );
    out.set_ratio(
        "stream.rss_kb_per_addr",
        (rss1 - rss0).max(0.0),
        f.num_tracked() as f64,
    );
    drop(f);

    // Phase 2: the same blocks with reclassification on a cadence.
    let mut f = follower(artifact, config(0, plan.min_txs, plan.tracked));
    let start = Instant::now();
    let mut ticks = 0u64;
    for b in blocks.iter().take(plan.reclass_blocks) {
        t.leaf("stream.ingest_block", b.height, || f.ingest_block(b));
        if (b.height + 1) % RECLASS_EVERY == 0 {
            t.leaf("stream.reclassify_dirty", b.height, || f.reclassify_dirty());
            ticks += 1;
            if f.metrics().reclassifications >= plan.max_reclassifications {
                break;
            }
        }
    }
    t.leaf("stream.reclassify_dirty", u64::MAX, || f.reclassify_dirty());
    ticks += 1;
    let reclass_secs = start.elapsed().as_secs_f64();
    // Nothing is dirty now: what remains is the walk that finds that out.
    const IDLE_TICKS: u32 = 20;
    let start = Instant::now();
    for _ in 0..IDLE_TICKS {
        black_box(f.reclassify_dirty());
    }
    out.set(
        "stream.idle_tick_us",
        start.elapsed().as_secs_f64() * 1e6 / f64::from(IDLE_TICKS),
    );
    let m = f.metrics();
    // The idle ticks above also added to `reclass_time`; the spans did not.
    let reclass_ns = self_times(t.spans())["stream.reclassify_dirty"].total_ns as f64;
    let done = m.reclassifications as f64;
    out.set_ratio("stream.reclass_us_per_addr", reclass_ns / 1e3, done);
    out.set_ratio("stream.reclass_ms_per_tick", reclass_ns / 1e6, ticks as f64);
    out.set_ratio("stream.reclass_addrs_per_tick", done, ticks as f64);
    out.set_ratio(
        "stream.slices_per_reclass",
        m.reclass_batch_slices as f64,
        done,
    );
    out.set("stream.coalesced_flips", m.coalesced_flips as f64);
    out.set("stream.label_flips", m.label_flips as f64);
    let ingest_ns = m.ingest_time.as_nanos() as f64;
    out.set_ratio("stream.follow_vs_ingest", ingest_ns + reclass_ns, ingest_ns);

    // Durability, off every end-to-end path.
    std::fs::create_dir_all(scratch).expect("create scratch dir");
    let journal_path = scratch.join(format!("probe_{}.bjrnl", std::process::id()));
    let snapshot_path = scratch.join(format!("probe_{}.bsnap", std::process::id()));
    let mut journal = BlockJournal::create(&journal_path, 0).expect("create journal");
    let mut bytes = 0u64;
    let start = Instant::now();
    for b in blocks {
        bytes += journal.append(b).expect("append to journal").0;
    }
    out.set_ratio(
        "stream.journal_append_us_per_block",
        start.elapsed().as_secs_f64() * 1e6,
        blocks.len() as f64,
    );
    out.set_ratio(
        "stream.journal_bytes_per_block",
        bytes as f64,
        blocks.len() as f64,
    );
    let start = Instant::now();
    journal.sync().expect("sync journal");
    out.set(
        "stream.journal_sync_ms",
        start.elapsed().as_secs_f64() * 1e3,
    );
    drop(journal);

    let start = Instant::now();
    f.snapshot_to(&snapshot_path).expect("write snapshot");
    out.set(
        "stream.snapshot_write_ms",
        start.elapsed().as_secs_f64() * 1e3,
    );
    let snapshot_kb = std::fs::metadata(&snapshot_path).map_or(0.0, |m| m.len() as f64 / 1024.0);
    out.set_ratio(
        "stream.snapshot_kb_per_addr",
        snapshot_kb,
        f.num_tracked() as f64,
    );
    let cfg = f.config().clone();
    let start = Instant::now();
    let restored = Follower::restore(artifact, cfg, &snapshot_path).expect("restore snapshot");
    out.set("stream.restore_ms", start.elapsed().as_secs_f64() * 1e3);
    assert_eq!(
        restored.next_height(),
        f.next_height(),
        "restore lost blocks"
    );
    std::fs::remove_file(&journal_path).ok();
    std::fs::remove_file(&snapshot_path).ok();

    (ingest_secs, reclass_secs)
}
