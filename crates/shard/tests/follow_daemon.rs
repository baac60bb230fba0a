//! `basharded --follow` as an operator runs it: the production binary, real
//! files, real signals. The in-process tests (`tests/tests/sharding.rs`,
//! `crash_recovery.rs`) prove identity and zero loss against
//! `ShardedFollower`; here the flag parsing, the artifact preamble, startup
//! through recovery, the exit codes and the one line of metrics JSON are on
//! the path, and the crash is a SIGKILL of the whole process.

use baclassifier::{BacConfig, ModelArtifact, ShardAssignment};
use bashard::shard_snapshot_path;
use bstream::{read_snapshot, scan_journal, Follower, FollowerConfig};
use btcsim::{Address, Label};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::path::PathBuf;
use std::process::{Child, ChildStderr, Command, Output, Stdio};
use std::time::{Duration, Instant};

/// Heights 0..=60.
const BLOCKS: u64 = 60;

/// Every key the standalone follower binary printed in its final JSON at
/// the commit that deleted it (`StreamMetrics::to_json`).
const KEYS: [&str; 24] = [
    "blocks_ingested",
    "txs_ingested",
    "tx_applications",
    "reclassifications",
    "label_flips",
    "coalesced_flips",
    "reclass_batches",
    "reclass_batch_addrs",
    "reclass_batch_slices",
    "priority_depth",
    "snapshots_written",
    "snapshots_quarantined",
    "journal_frames",
    "journal_bytes",
    "journal_fsyncs",
    "journal_replayed",
    "journal_errors",
    "ingest_ms",
    "reclass_ms",
    "ingest_blocks_per_sec",
    "reclass_p50_us",
    "reclass_p99_us",
    "mean_lag",
    "steady_lag",
];

/// Everything one test leaves outside its own process: a scratch directory
/// (artifact, journal, snapshots) and at most one running daemon. Dropped
/// on every exit path, a failed assert included, so no `basharded` outlives
/// the test and no file outlives the run.
struct Scratch {
    dir: PathBuf,
    artifact: ModelArtifact,
    child: Option<Child>,
}

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("follow_daemon_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        let artifact = ModelArtifact::untrained(BacConfig::fast());
        artifact
            .save(&dir.join("model.bart"))
            .expect("save artifact");
        Scratch {
            dir,
            artifact,
            child: None,
        }
    }

    fn snapshot_base(&self) -> PathBuf {
        self.dir.join("f.bsnap")
    }

    fn journal(&self) -> PathBuf {
        self.dir.join("f.bjrnl")
    }

    /// The arguments of the issue's command at `shards`.
    fn follow_args(&self, shards: u32) -> Vec<String> {
        let path = |p: PathBuf| p.to_string_lossy().into_owned();
        [
            "--follow".to_string(),
            "--artifact".to_string(),
            path(self.dir.join("model.bart")),
            "--shards".to_string(),
            shards.to_string(),
            "--blocks".to_string(),
            BLOCKS.to_string(),
            "--journal".to_string(),
            path(self.journal()),
            "--snapshot".to_string(),
            path(self.snapshot_base()),
            "--snapshot-every".to_string(),
            "10".to_string(),
            "--progress-every".to_string(),
            "3".to_string(),
        ]
        .into()
    }

    /// Run `command` to completion under the guard.
    fn run(&mut self, command: &mut Command) -> Output {
        let child = command
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn basharded");
        // Owned by the guard before anything below can panic.
        wait_output(self.child.insert(child))
    }

    /// Start the daemon and return once it has printed its first progress
    /// line — it is mid-ingest, SIGINT handler installed.
    fn start_until_progress(&mut self, shards: u32) -> BufReader<ChildStderr> {
        let mut child = Command::new(env!("CARGO_BIN_EXE_basharded"))
            .args(self.follow_args(shards))
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn basharded");
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        self.child = Some(child);
        let mut line = String::new();
        loop {
            line.clear();
            let n = stderr.read_line(&mut line).expect("read daemon stderr");
            assert!(n > 0, "daemon exited before its first progress line");
            if line.starts_with("bashard: height") {
                return stderr;
            }
        }
    }

    /// The merged label table and the height of the snapshot set on disk,
    /// each shard's file restored by `Follower::restore`.
    fn restored(&self, shards: u32) -> (BTreeMap<Address, Label>, u64) {
        let mut labels = BTreeMap::new();
        let mut height = None;
        for i in 0..shards {
            let path = shard_snapshot_path(&self.snapshot_base(), i, shards);
            let shard = Follower::restore(&self.artifact, FollowerConfig::default(), &path)
                .unwrap_or_else(|e| panic!("{} does not restore: {e}", path.display()));
            assert_eq!(
                *height.get_or_insert(shard.next_height()),
                shard.next_height(),
                "shards snapshotted at different heights"
            );
            labels.extend(shard.labels().iter().map(|(a, l)| (*a, *l)));
        }
        (labels, height.expect("at least one shard"))
    }
}

/// `Child::wait_with_output` for a child the guard must keep owning.
fn wait_output(child: &mut Child) -> Output {
    // Stderr on its own thread: a daemon blocked writing one pipe while the
    // test drains the other would hang both.
    let mut stderr = child.stderr.take();
    let drain = std::thread::spawn(move || {
        let mut buf = Vec::new();
        if let Some(pipe) = stderr.as_mut() {
            pipe.read_to_end(&mut buf).ok();
        }
        buf
    });
    let mut stdout = Vec::new();
    if let Some(pipe) = child.stdout.as_mut() {
        pipe.read_to_end(&mut stdout).expect("daemon stdout");
    }
    Output {
        status: child.wait().expect("wait for basharded"),
        stdout,
        stderr: drain.join().expect("stderr drain thread"),
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            child.kill().ok();
            child.wait().ok();
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

fn follow(scratch: &mut Scratch, shards: u32) -> Output {
    let args = scratch.follow_args(shards);
    scratch.run(Command::new(env!("CARGO_BIN_EXE_basharded")).args(args))
}

/// The last stdout line as a flat JSON object of numbers (no nesting, no
/// strings) — anything a JSON parser would refuse here, `NaN` included,
/// fails the test.
fn final_json(output: &Output) -> BTreeMap<String, f64> {
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().expect("a final stdout line");
    let inner = line
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .unwrap_or_else(|| panic!("not a JSON object: {line}"));
    inner
        .split(',')
        .map(|item| {
            let (key, value) = item.split_once(':').expect("key:value");
            let key = key.trim_matches('"').to_string();
            let value = value
                .parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .unwrap_or_else(|| panic!("{key}: {value:?} is not a JSON number"));
            (key, value)
        })
        .collect()
}

fn stderr_of(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// (a) to completion, and (b) the same command SIGKILLed mid-ingest and run
/// again: the second run resumes from snapshot + journal and ends exactly
/// where the uninterrupted one did.
#[test]
fn killed_daemon_resumes_to_the_uninterrupted_state() {
    let mut clean = Scratch::new("clean");
    let output = follow(&mut clean, 2);
    assert_eq!(output.status.code(), Some(0), "{}", stderr_of(&output));
    let json = final_json(&output);
    for key in KEYS {
        assert!(json.contains_key(key), "final JSON lost {key}: {json:?}");
    }
    assert_eq!(json["journal_frames"], (BLOCKS + 1) as f64);
    assert_eq!(json["journal_errors"], 0.0);
    assert_eq!(json["respawns"], 0.0);
    assert_eq!(json["blocks_ingested"], 2.0 * (BLOCKS + 1) as f64);
    // Six periodic snapshots and the final one, on each of two shards.
    assert_eq!(json["snapshots_written"], 14.0);
    let (clean_labels, clean_height) = clean.restored(2);
    assert_eq!(clean_height, BLOCKS + 1);
    assert!(clean_labels.len() > 20, "chain too quiet to mean anything");

    let mut killed = Scratch::new("killed");
    let stderr = killed.start_until_progress(2);
    let mut child = killed.child.take().expect("daemon running");
    child.kill().expect("SIGKILL"); // no flush, no final snapshot
    child.wait().expect("reap");
    drop(stderr); // held until now: a closed stderr would be a second fault
    let survived = scan_journal(&killed.journal()).expect("journal scans");
    assert!(
        !survived.blocks.is_empty(),
        "killed before anything was journaled"
    );

    let output = follow(&mut killed, 2);
    assert_eq!(output.status.code(), Some(0), "{}", stderr_of(&output));
    // The resumed run announces only the blocks it has left to ingest.
    let stderr = stderr_of(&output);
    let (count, start) = stderr
        .lines()
        .find_map(|line| {
            let rest = line.split_once("following ")?.1;
            let (count, rest) = rest.split_once(" blocks from height ")?;
            let start = rest.split_whitespace().next()?;
            Some((count.parse::<u64>().ok()?, start.parse::<u64>().ok()?))
        })
        .unwrap_or_else(|| panic!("no progress line in: {stderr}"));
    assert!(start > 0, "the rerun must resume, not start over: {stderr}");
    assert_eq!(count + start, BLOCKS + 1, "{stderr}");
    let json = final_json(&output);
    assert!(json["journal_replayed"] > 0.0, "nothing replayed: {json:?}");
    assert_eq!(
        json["journal_frames"],
        (BLOCKS + 1 - survived.blocks.len() as u64) as f64,
        "the rerun must journal only the blocks the killed run had not"
    );
    let (labels, height) = killed.restored(2);
    assert_eq!(height, clean_height, "blocks lost across the kill");
    assert_eq!(labels, clean_labels, "labels diverged across the kill");
}

// Raw `kill(2)`: already in every linked libc, like `baserve::shutdown`'s
// `signal`.
#[cfg(unix)]
extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
}

/// (c) SIGINT is a clean checkpoint: exit 0, and a snapshot set that
/// restores to exactly the blocks this run journaled.
#[cfg(unix)]
#[test]
fn sigint_flushes_snapshots_and_exits_zero() {
    const SIGINT: i32 = 2;
    let mut scratch = Scratch::new("sigint");
    let mut stderr = scratch.start_until_progress(2);
    let pid = scratch.child.as_ref().expect("daemon running").id() as i32;
    // SAFETY: `kill` takes two integers and touches no memory of this
    // process; `pid` is a child this test spawned and has not reaped.
    assert_eq!(unsafe { kill(pid, SIGINT) }, 0, "kill(SIGINT)");
    let mut rest = String::new();
    stderr.read_to_string(&mut rest).expect("daemon stderr");
    let output = wait_output(scratch.child.as_mut().expect("daemon running"));
    assert_eq!(output.status.code(), Some(0), "{rest}");
    assert!(rest.contains("SIGINT"), "no shutdown line in: {rest}");
    let json = final_json(&output);
    let (_, height) = scratch.restored(2);
    assert!(height > 0);
    assert_eq!(
        json["journal_frames"], height as f64,
        "every journaled block is in the final snapshot, and no other"
    );
}

/// (d) `--follow` without `--artifact` is a bad invocation.
#[test]
fn follow_without_an_artifact_is_usage_exit_2() {
    let mut scratch = Scratch::new("usage");
    let output = scratch.run(Command::new(env!("CARGO_BIN_EXE_basharded")).arg("--follow"));
    assert_eq!(output.status.code(), Some(2));
    assert!(stderr_of(&output).contains("usage:"), "{output:?}");
    assert!(output.stdout.is_empty());
}

/// (d) A snapshot cadence with nowhere to snapshot is a bad invocation too,
/// not a run that never snapshots and so never compacts its journal.
#[test]
fn snapshot_every_without_a_snapshot_path_is_usage_exit_2() {
    let mut scratch = Scratch::new("nosnapshot");
    let mut args = scratch.follow_args(1);
    let at = args.iter().position(|a| a == "--snapshot").unwrap();
    args.drain(at..at + 2);
    let output = scratch.run(Command::new(env!("CARGO_BIN_EXE_basharded")).args(&args));
    let stderr = stderr_of(&output);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.contains("--snapshot-every: requires --snapshot PATH"),
        "{stderr}"
    );
    assert!(output.stdout.is_empty());
    assert!(!scratch.journal().exists(), "nothing ran");
}

/// (d) A follow fleet of no users has no economy to follow: refused before
/// the artifact loads, not handed to a block producer that dies on it.
#[test]
fn zero_users_is_usage_exit_2() {
    let mut scratch = Scratch::new("nousers");
    let mut args = scratch.follow_args(1);
    args.extend(["--users".to_string(), "0".to_string()]);
    let output = scratch.run(Command::new(env!("CARGO_BIN_EXE_basharded")).args(&args));
    let stderr = stderr_of(&output);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--users: must be at least 1"), "{stderr}");
    assert!(output.stdout.is_empty());
    assert!(!scratch.journal().exists(), "nothing ran");
}

/// (d) Zero shards is a bad invocation in both modes, not a silent one.
#[test]
fn zero_shards_is_usage_exit_2_when_following_and_serving() {
    let mut scratch = Scratch::new("noshards");
    let artifact = scratch
        .dir
        .join("model.bart")
        .to_string_lossy()
        .into_owned();
    let serve_args = vec!["--artifact".into(), artifact, "--shards".into(), "0".into()];
    for (mode, args) in [("follow", scratch.follow_args(0)), ("serve", serve_args)] {
        let output = scratch.run(
            Command::new(env!("CARGO_BIN_EXE_basharded"))
                .args(&args)
                .stdin(Stdio::null()),
        );
        let stderr = stderr_of(&output);
        assert_eq!(output.status.code(), Some(2), "{mode}: {stderr}");
        assert!(
            stderr.contains("--shards: must be at least 1"),
            "{mode}: {stderr}"
        );
        assert!(output.stdout.is_empty(), "{mode}");
    }
    assert!(!scratch.journal().exists(), "nothing ran");
}

/// (d) An engine with no workers never drains its queue, so a serving
/// daemon given `--workers 0` is refused at startup rather than left
/// waiting forever on its first request.
#[test]
fn zero_workers_is_usage_exit_2() {
    let mut scratch = Scratch::new("noworkers");
    let path = |p: PathBuf| p.to_string_lossy().into_owned();
    let requests = scratch.dir.join("requests.txt");
    std::fs::write(&requests, "classify 17\nclassify 5\n").expect("write requests");
    let args = [
        "--artifact".to_string(),
        path(scratch.dir.join("model.bart")),
        "--shards".to_string(),
        "1".to_string(),
        "--workers".to_string(),
        "0".to_string(),
        "--input".to_string(),
        path(requests),
    ];
    let child = Command::new(env!("CARGO_BIN_EXE_basharded"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn basharded");
    // Owned by the guard, which kills a daemon that never exits.
    let child = scratch.child.insert(child);
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("poll basharded").is_none() {
        assert!(Instant::now() < deadline, "still running after 10 s");
        std::thread::sleep(Duration::from_millis(20));
    }
    let output = wait_output(child);
    let stderr = stderr_of(&output);
    assert_eq!(output.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("--workers: must be at least 1"), "{stderr}");
    assert!(output.stdout.is_empty());
}

/// (e) One code path for every count: `--shards 1` is the unsharded
/// follower and ends in the same merged label table as `--shards 4`.
#[test]
fn one_and_four_shards_end_in_the_same_label_table() {
    let mut one = Scratch::new("one");
    let output = follow(&mut one, 1);
    assert_eq!(output.status.code(), Some(0), "{}", stderr_of(&output));
    let snapshot = read_snapshot(&shard_snapshot_path(&one.snapshot_base(), 0, 1))
        .expect("a 1-shard fleet snapshots to base.0of1");
    assert_eq!(
        snapshot.shard,
        Some(ShardAssignment { index: 0, count: 1 }),
        "a 1-shard fleet records its layout"
    );

    let mut four = Scratch::new("four");
    let output = follow(&mut four, 4);
    assert_eq!(output.status.code(), Some(0), "{}", stderr_of(&output));
    assert_eq!(one.restored(1), four.restored(4));
}

/// Fail closed: a journal append that fails stops ingestion before the
/// block reaches any follower, the shards still finish, exit 1. The file
/// size limit (4 KiB in `sh`'s 512-byte units; `SIGXFSZ` ignored so the
/// write returns `EFBIG`) lets a few frames through and refuses the next;
/// it refuses the snapshots as well, so the metrics carry the proof — each
/// of the two shards ingested exactly the journaled blocks.
#[cfg(target_os = "linux")]
#[test]
fn failed_journal_append_stops_ingestion_before_the_block_is_applied() {
    let mut scratch = Scratch::new("efbig");
    let args = scratch.follow_args(2);
    let output = scratch.run(
        Command::new("sh")
            .arg("-c")
            .arg(r#"trap "" XFSZ; ulimit -f 8; exec "$0" "$@""#)
            .arg(env!("CARGO_BIN_EXE_basharded"))
            .args(args),
    );
    let stderr = stderr_of(&output);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("driver journal: append of block"),
        "{stderr}"
    );
    let json = final_json(&output);
    let frames = json["journal_frames"];
    assert!(frames > 0.0 && frames < (BLOCKS + 1) as f64, "{json:?}");
    assert_eq!(json["blocks_ingested"], 2.0 * frames, "{json:?}");
    // The refused frame is a torn tail the next start heals; every whole
    // frame before it is a block the shards applied.
    let scan = scan_journal(&scratch.journal()).expect("journal scans");
    assert_eq!(scan.blocks.len() as f64, frames);
}
