//! Streaming metrics: ingest/reclassification counters, stage timing and
//! per-address reclassification latency, kept by each follower, and the
//! journal counters and lag, kept by the driver. Single-threaded by design
//! — each owner exposes its own by reference and the driver
//! [`StreamMetrics::merge`]s them into the one blob it prints.
//!
//! Built on the workspace's one metrics core (`baserve::metrics`): the
//! counter list is declared once with `counters!`, reclassification latency
//! is a [`Histogram`] (constant memory however long the follower runs,
//! p50/p99 within 1/32 of exact, mergeable across shards), and the JSON
//! comes from [`JsonObject`]. Only lag keeps raw samples, in a bounded
//! window, because `steady_lag` needs recency, which a histogram discards.

use baserve::metrics::{ratio, Histogram, JsonObject};
use std::collections::VecDeque;
use std::time::Duration;

/// Lag samples retained: the most recent `LAG_WINDOW` blocks.
const LAG_WINDOW: usize = 4096;

baserve::counters! {
    #[derive(Clone, Debug, Default)]
    pub struct StreamMetrics {
        counters {
            /// Blocks ingested (applied to per-address state).
            blocks_ingested,
            /// Transactions seen across those blocks.
            txs_ingested,
            /// Per-address transaction applications (one tx touching k
            /// tracked addresses counts k times).
            tx_applications,
            /// Addresses reclassified (label recomputed from dirty state).
            reclassifications,
            /// Reclassifications whose label differed from the previous one.
            label_flips,
            /// Dirty flips coalesced: touches of an address that was already
            /// dirty, absorbed into the one re-embed its cadence tick
            /// performs.
            coalesced_flips,
            /// Micro-batches run by the batched reclassification stage.
            reclass_batches,
            /// Addresses processed across those micro-batches (sum of batch
            /// sizes; divide by `reclass_batches` for the mean batch size).
            reclass_batch_addrs,
            /// Stale slice graphs re-embedded across those micro-batches.
            reclass_batch_slices,
            /// Gauge: dirty addresses at or over `min_txs` at the start
            /// of the most recent reclassification tick.
            priority_depth,
            /// Snapshots written successfully.
            snapshots_written,
            /// Corrupt snapshots renamed aside during recovery.
            snapshots_quarantined,
            /// Frames appended to the write-ahead journal.
            journal_frames,
            /// Bytes appended to the write-ahead journal.
            journal_bytes,
            /// fsyncs issued by the journal's durability cadence.
            journal_fsyncs,
            /// Blocks replayed from the journal tail during recovery.
            journal_replayed,
            /// Journal compactions that failed: reported and counted, never
            /// fatal — the journal only stays longer than it needs to be.
            /// (A failed append or fsync is not counted here: it stops
            /// ingestion before the block reaches any follower.)
            journal_errors,
            /// Shard workers the driver's supervision respawned (one the
            /// restart budget refuses is not counted).
            respawns,
        }
        /// Wall time spent applying blocks to incremental state.
        pub ingest_time: Duration,
        /// Wall time spent re-deriving, re-embedding, and classifying.
        pub reclass_time: Duration,
        /// Per-address reclassification latency (µs): each address's
        /// amortized share of its micro-batch — the number that matters for
        /// follow throughput.
        reclass_us: Histogram,
        lag: VecDeque<u64>,
    }
}

impl StreamMetrics {
    /// One micro-batch of the batched reclassification stage finished:
    /// `addrs` addresses over `slices` stale slice graphs in `elapsed`.
    pub fn record_reclass_batch(&mut self, addrs: u64, slices: u64, elapsed: Duration) {
        self.reclass_batches += 1;
        self.reclass_batch_addrs += addrs;
        self.reclass_batch_slices += slices;
        self.reclassifications += addrs;
        let per_addr_us = elapsed.as_micros() / u128::from(addrs.max(1));
        self.reclass_us.record_n(per_addr_us as u64, addrs);
    }

    /// Fold another owner's metrics into this one: counters and stage times
    /// add, the latency histograms sum bucket for bucket. Lag samples are
    /// not merged — only the driver records them.
    pub fn merge(&mut self, other: &StreamMetrics) {
        self.add_counters(other);
        self.ingest_time += other.ingest_time;
        self.reclass_time += other.reclass_time;
        self.reclass_us.merge(&other.reclass_us);
    }

    /// Blocks behind the producer's tip after processing a block.
    pub fn record_lag(&mut self, lag: u64) {
        if self.lag.len() == LAG_WINDOW {
            self.lag.pop_front();
        }
        self.lag.push_back(lag);
    }

    /// Per-address reclassification latency quantile (µs); 0 when empty.
    pub fn reclass_percentile_us(&self, q: f64) -> u64 {
        self.reclass_us.quantile(q)
    }

    /// Mean lag (blocks behind tip) over the retained window; 0.0 when no
    /// lag was ever recorded (a follower never records lag itself, and the
    /// JSON must stay parseable — never NaN).
    pub fn mean_lag(&self) -> f64 {
        mean(self.lag.iter())
    }

    /// Mean lag over the most recent half of the retained window — the
    /// steady state, after warmup transients. 0.0 when empty (never NaN).
    pub fn steady_lag(&self) -> f64 {
        mean(self.lag.iter().skip(self.lag.len() / 2))
    }

    /// Ingest throughput in blocks per second of *ingest* time (excludes
    /// reclassification, which is paced separately).
    pub fn ingest_blocks_per_sec(&self) -> f64 {
        ratio(self.blocks_ingested as f64, self.ingest_time.as_secs_f64())
    }

    /// Single-line flat JSON: every counter, then the timings and derived
    /// statistics. Every number is finite by construction (empty sample
    /// sets report 0), so the output always parses.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.counters(self.counters())
            .f64("ingest_ms", self.ingest_time.as_secs_f64() * 1e3, 3)
            .f64("reclass_ms", self.reclass_time.as_secs_f64() * 1e3, 3)
            .f64("ingest_blocks_per_sec", self.ingest_blocks_per_sec(), 2)
            .u64("reclass_p50_us", self.reclass_percentile_us(0.50))
            .u64("reclass_p99_us", self.reclass_percentile_us(0.99))
            .f64("mean_lag", self.mean_lag(), 3)
            .f64("steady_lag", self.steady_lag(), 3);
        o.finish()
    }
}

fn mean<'a>(xs: impl ExactSizeIterator<Item = &'a u64>) -> f64 {
    let n = xs.len();
    ratio(xs.sum::<u64>() as f64, n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reclass_one(m: &mut StreamMetrics, us: u64) {
        m.record_reclass_batch(1, 1, Duration::from_micros(us));
    }

    #[test]
    fn lag_means_split_warmup_from_steady_state() {
        let mut m = StreamMetrics::default();
        for lag in [8, 6, 4, 2, 1, 1, 1, 1] {
            m.record_lag(lag);
        }
        assert!((m.mean_lag() - 3.0).abs() < 1e-9);
        assert!((m.steady_lag() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn memory_stays_bounded_on_long_follows() {
        // Regression: reclass/lag sample vectors used to grow without bound,
        // leaking on a week-long follow. The lag window holds the most
        // recent `LAG_WINDOW` samples; the histogram never grows past its
        // bucket table yet still counts every sample.
        let mut m = StreamMetrics::default();
        let total = (LAG_WINDOW as u64) * 3 + 17;
        for i in 0..total {
            m.record_lag(i);
            reclass_one(&mut m, i);
        }
        assert_eq!(m.lag.len(), LAG_WINDOW);
        assert_eq!(m.lag.front(), Some(&(total - LAG_WINDOW as u64)));
        assert_eq!(m.reclassifications, total);
        assert_eq!(m.reclass_us.count(), total);
        let (max, exact) = (m.reclass_percentile_us(1.0), total - 1);
        assert!(max.abs_diff(exact) * 32 <= exact, "max {max}");
    }

    #[test]
    fn percentiles_stay_exact_below_the_cap() {
        // Exact below 64 µs, within 1/32 above.
        let mut m = StreamMetrics::default();
        for i in 1..=60u64 {
            reclass_one(&mut m, i);
        }
        assert_eq!(m.reclass_percentile_us(0.50), 30);
        assert_eq!(m.reclass_percentile_us(0.99), 60);
        for i in 61..=6000u64 {
            reclass_one(&mut m, i);
        }
        for (q, exact) in [(0.50, 3000u64), (0.99, 5940)] {
            let got = m.reclass_percentile_us(q);
            assert!(got.abs_diff(exact) * 32 <= exact, "q {q}: {got} vs {exact}");
        }
    }

    #[test]
    fn a_batch_records_every_member_at_its_amortized_share() {
        let mut m = StreamMetrics::default();
        m.record_reclass_batch(4, 6, Duration::from_micros(200));
        m.record_reclass_batch(2, 2, Duration::from_micros(20));
        assert_eq!(m.reclassifications, 6);
        assert_eq!(m.reclass_us.count(), 6);
        assert_eq!(m.reclass_percentile_us(0.50), 50);
        assert_eq!(m.reclass_percentile_us(0.10), 10);
        assert_eq!((m.reclass_batches, m.reclass_batch_addrs), (2, 6));
    }

    /// Parse one flat JSON object (no nesting, no strings in values),
    /// returning key → numeric value. Errors on anything a real JSON
    /// parser would reject in this grammar — in particular `NaN`.
    fn parse_flat_json(json: &str) -> Result<Vec<(String, f64)>, String> {
        let inner = json
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or("not an object")?;
        let mut out = Vec::new();
        for item in inner.split(',') {
            let (k, v) = item.split_once(':').ok_or_else(|| format!("bad {item}"))?;
            let key = k
                .strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .ok_or_else(|| format!("unquoted key {k}"))?;
            // JSON numbers: optional minus, digits, optional fraction. NaN
            // and infinity are not JSON.
            if !v
                .chars()
                .all(|c| c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+')
            {
                return Err(format!("non-numeric value {v} for {key}"));
            }
            let value: f64 = v.parse().map_err(|_| format!("bad number {v}"))?;
            out.push((key.to_string(), value));
        }
        Ok(out)
    }

    #[test]
    fn empty_metrics_json_is_parseable() {
        // Regression: a `step()`-driven follower records no lag samples;
        // the JSON must report 0.0, never NaN (which is not JSON).
        let m = StreamMetrics::default();
        assert_eq!(m.mean_lag(), 0.0);
        assert_eq!(m.steady_lag(), 0.0);
        let fields = parse_flat_json(&m.to_json()).expect("empty-metrics JSON must parse");
        for (key, value) in &fields {
            assert_eq!(*value, 0.0, "{key} must be zero on empty metrics");
        }
        assert!(fields.iter().any(|(k, _)| k == "mean_lag"));
        assert!(fields.iter().any(|(k, _)| k == "steady_lag"));
    }

    /// Walks the declared counter list: every counter renders under its
    /// own name and sums under `add_counters`.
    #[test]
    fn every_declared_counter_renders_and_sums() {
        let mut a = StreamMetrics::default();
        let mut b = StreamMetrics::default();
        for (i, (x, y)) in a.counters_mut().zip(b.counters_mut()).enumerate() {
            *x = i as u64 + 1;
            *y = 1000 * (i as u64 + 1);
        }
        a.add_counters(&b);
        reclass_one(&mut a, 48);
        a.record_lag(2);
        let json = a.to_json();
        let fields = parse_flat_json(&json).expect("metrics JSON must parse");
        assert_eq!(fields[0], ("blocks_ingested".to_string(), 1001.0));
        assert!(json.contains("\"reclass_p99_us\":48"));
        // `reclass_one` moved four of the counters after the fill.
        let moved = [
            "reclassifications",
            "reclass_batches",
            "reclass_batch_addrs",
            "reclass_batch_slices",
        ];
        for (i, (name, v)) in a.counters().enumerate() {
            let want = 1001 * (i as u64 + 1) + u64::from(moved.contains(&name));
            assert_eq!(v, want, "{name} must sum");
            assert!(
                json.contains(&format!("\"{name}\":{v}")),
                "{name} in {json}"
            );
        }
    }
}
