//! Offline shard rebalancing: re-split a sharded snapshot set to a new
//! shard count without replaying the chain.
//!
//! ```text
//! bashard-rebalance --input base.bstream --from 2 --output rebased.bstream --to 4
//! ```
//!
//! Reads `base.bstream.{i}of{from}` (for `--from 1`, a bare unsharded
//! `base.bstream` is accepted too), verifies every record's CRC and the
//! frozen partition-hash ownership of every address, then writes
//! `rebased.bstream.{j}of{to}` — each address record copied verbatim
//! into the shard the frozen hash assigns it under the new count. The
//! outputs are byte-identical to what a fresh `--to`-shard follower run
//! over the same blocks would have checkpointed, so a fleet can restart
//! at the new width with no replay and no drift (the `net` acceptance
//! test asserts exactly that for 2 → 4).
//!
//! Any corruption, layout mismatch, or hash-version skew aborts before a
//! single output byte is written; outputs land atomically (tmp + fsync +
//! rename), so a crash mid-rebalance never leaves a torn snapshot.

use baserve::cli::{flag_parsed, flag_value};
use bashard::rebalance_snapshots;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let (Some(input), Some(output)) = (flag_value(&args, "--input"), flag_value(&args, "--output"))
    else {
        eprintln!("usage: bashard-rebalance --input BASE --from N --output BASE --to M");
        std::process::exit(2);
    };
    let from = flag_parsed(&args, "--from", 0u32);
    let to = flag_parsed(&args, "--to", 0u32);
    if from == 0 || to == 0 {
        eprintln!("error: --from and --to must both be at least 1");
        std::process::exit(2);
    }

    let input = PathBuf::from(input);
    let output = PathBuf::from(output);
    match rebalance_snapshots(&input, from, &output, to) {
        Ok(report) => {
            eprintln!(
                "[bashard-rebalance] re-split {} addresses at height {} from {} to {} shards",
                report.addresses, report.height, report.old_count, report.new_count
            );
            for path in &report.outputs {
                println!("{}", path.display());
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
