//! Follow a live simulated chain, keeping a continuously updated label
//! table, with crash-safe journaling, periodic snapshots, and progress
//! reporting.
//!
//! ```text
//! bstream-follow [--seed 42] [--blocks 200] [--users 40] [--capacity 16]
//!                [--artifact model.bart] [--min-txs 3] [--reclass-every 1]
//!                [--snapshot follower.bsnap] [--snapshot-every 50]
//!                [--generations 2] [--journal follower.bjrnl]
//!                [--journal-sync-every 1] [--stall-timeout-ms 10000]
//!                [--progress-every 25] [--reclass-threads 0]
//!                [--reclass-batch 128]
//! ```
//!
//! `--reclass-threads` sizes the batched reclassification stage (0 = all
//! cores); any value produces byte-identical labels and embeddings.
//! `--reclass-batch` caps addresses per re-embed micro-batch.
//!
//! Without `--artifact`, a quick model is fitted on a batch dataset built
//! from the same simulation config before following starts. With
//! `--snapshot`/`--journal`, startup goes through `Follower::recover`:
//! the newest valid snapshot generation is restored (corrupt ones are
//! quarantined), the journal tail is replayed, and following resumes at
//! the recovered height — killing this process at any point loses no
//! blocks. SIGINT (Ctrl-C) exits gracefully: the journal is flushed and a
//! final snapshot written before the process ends. A producer that goes
//! silent for `--stall-timeout-ms` is reported as a stall error instead
//! of hanging the follower forever.

use baclassifier::{BaClassifier, BacConfig, ModelArtifact};
use baserve::cli::{flag_parsed, flag_value};
use bstream::{BlockFeed, Follower, FollowerConfig};
use btcsim::{Dataset, Label, SimConfig, Simulator};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = flag_parsed(&args, "--seed", 42u64);
    let blocks = flag_parsed(&args, "--blocks", 200u64);
    let users = flag_parsed(&args, "--users", 40usize);
    let capacity = flag_parsed(&args, "--capacity", 16usize);
    let progress_every = flag_parsed(&args, "--progress-every", 25u64);
    let stall_timeout = Duration::from_millis(flag_parsed(&args, "--stall-timeout-ms", 10_000u64));

    let mut sim_cfg = SimConfig {
        blocks,
        ..SimConfig::tiny(seed)
    };
    sim_cfg.retail.num_users = users;

    let artifact = match flag_value(&args, "--artifact") {
        Some(path) => match ModelArtifact::load(std::path::Path::new(&path)) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: could not load artifact {path}: {e}");
                std::process::exit(1);
            }
        },
        None => {
            eprintln!("[bstream-follow] no --artifact; fitting a fast model (seed {seed})…");
            let sim = Simulator::run_to_completion(sim_cfg.clone());
            let dataset = Dataset::from_simulator(&sim, 3);
            let mut clf = BaClassifier::new(BacConfig::fast());
            let t = Instant::now();
            clf.fit(&dataset);
            eprintln!(
                "[bstream-follow] fitted on {} addresses in {:.1}s",
                dataset.len(),
                t.elapsed().as_secs_f64()
            );
            clf.to_artifact().expect("artifact from fitted classifier")
        }
    };

    let snapshot_path = flag_value(&args, "--snapshot").map(PathBuf::from);
    let follower_cfg = FollowerConfig {
        min_txs: flag_parsed(&args, "--min-txs", 3usize),
        reclass_every: flag_parsed(&args, "--reclass-every", 1u64),
        snapshot_every: flag_parsed(&args, "--snapshot-every", 0u64),
        snapshot_path: snapshot_path.clone(),
        tracked: None,
        shard: None,
        journal_path: flag_value(&args, "--journal").map(PathBuf::from),
        journal_sync_every: flag_parsed(&args, "--journal-sync-every", 1u64),
        snapshot_generations: flag_parsed(&args, "--generations", 2usize),
        reclass_threads: flag_parsed(&args, "--reclass-threads", 0usize),
        reclass_batch: flag_parsed(&args, "--reclass-batch", 128usize),
    };

    // recover() handles every startup shape: fresh state, snapshot-only
    // restore, journal replay after a crash, and corrupt-snapshot
    // fallback with quarantine.
    let mut follower = match Follower::recover(&artifact, follower_cfg) {
        Ok(recovery) => {
            for (path, reason) in &recovery.quarantined {
                eprintln!(
                    "[bstream-follow] quarantined snapshot {}: {reason}",
                    path.display()
                );
            }
            if let Some(torn) = &recovery.journal_torn {
                eprintln!("[bstream-follow] journal tail truncated: {torn}");
            }
            if recovery.restored_generation.is_some() || recovery.replayed_blocks > 0 {
                eprintln!(
                    "[bstream-follow] recovered {} addresses at height {} \
                     (generation {:?}, {} blocks replayed from journal)",
                    recovery.follower.num_tracked(),
                    recovery.follower.next_height(),
                    recovery.restored_generation,
                    recovery.replayed_blocks
                );
            }
            recovery.follower
        }
        Err(e) => {
            eprintln!("error: recovery failed: {e}");
            std::process::exit(1);
        }
    };

    baserve::shutdown::install_sigint_handler();
    let start_height = follower.next_height();
    let feed = BlockFeed::follow_sim(sim_cfg, start_height, capacity);
    eprintln!(
        "[bstream-follow] following {} blocks from height {start_height} (capacity {capacity})",
        blocks + 1
    );

    let t = Instant::now();
    let poll = stall_timeout
        .min(Duration::from_millis(250))
        .max(Duration::from_millis(1));
    let mut silent_for = Duration::ZERO;
    let mut stalled = false;
    loop {
        if baserve::shutdown::shutdown_requested() {
            eprintln!("[bstream-follow] SIGINT: flushing journal and snapshotting…");
            break;
        }
        // Poll in short slices so SIGINT is honored promptly; accumulate
        // silence toward the stall timeout.
        match feed.recv_timeout(poll) {
            Ok(block) => {
                silent_for = Duration::ZERO;
                follower.step(&block);
                feed.watermark().record_processed(block.height);
                let lag = feed.watermark().lag();
                follower.metrics_mut().record_lag(lag);
                if progress_every > 0 && follower.next_height() % progress_every == 0 {
                    eprintln!(
                        "[bstream-follow] height {:>5}  lag {:>3}  tracked {:>5}  labeled {:>5}",
                        block.height,
                        lag,
                        follower.num_tracked(),
                        follower.labels().len()
                    );
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                silent_for += poll;
                if silent_for >= stall_timeout {
                    eprintln!(
                        "error: {}",
                        bstream::FeedStalled {
                            produced: feed.watermark().produced(),
                            stalled_for: silent_for,
                        }
                    );
                    stalled = true;
                    break;
                }
            }
        }
    }

    // Graceful teardown on every exit path (EOF, SIGINT, stall): bring
    // labels current, persist a final snapshot, and flush the journal so
    // nothing ingested is lost.
    follower.reclassify_dirty();
    if let Some(path) = &snapshot_path {
        if let Err(e) = follower.snapshot_to(path) {
            eprintln!("error: final snapshot failed: {e}");
        } else {
            eprintln!("[bstream-follow] snapshot written to {}", path.display());
        }
    }
    if let Err(e) = follower.sync_journal() {
        eprintln!("error: final journal sync failed: {e}");
    }

    let mut histogram = [0usize; 4];
    for label in follower.labels().values() {
        histogram[label.index()] += 1;
    }
    eprintln!(
        "[bstream-follow] done in {:.1}s: {}",
        t.elapsed().as_secs_f64(),
        Label::ALL
            .iter()
            .map(|l| format!("{} {}", l.name(), histogram[l.index()]))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("{}", follower.metrics().to_json());
    if stalled {
        std::process::exit(3);
    }
}
