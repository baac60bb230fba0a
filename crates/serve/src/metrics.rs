//! The workspace's one metrics core, and the serving metrics built on it.
//!
//! * [`Histogram`] — a mergeable log-linear histogram of `u64` samples
//!   (latencies in µs, batch sizes): values below 64 are counted exactly,
//!   larger ones in power-of-two octaves of 32 linear sub-buckets, so every
//!   reported quantile is within 1/32 of the exact nearest-rank sample.
//!   [`AtomicHistogram`] is its wait-free recorder.
//! * [`counters!`](crate::counters) — declares a metrics struct's `u64`
//!   counters once; the snapshot struct, its atomic twin, the merge and the
//!   JSON all iterate that one list, so a new counter is a one-line change.
//! * [`JsonObject`] — the single-line JSON writer every `to_json` uses.
//!
//! Serve, stream, the remote-shard lanes, the router roll-up, the load
//! generator and the bench bins all take their quantiles from
//! [`Histogram::quantile`]; there is no other percentile routine.
//!
//! All recording paths are wait-free (`fetch_add` with relaxed ordering);
//! snapshots are taken with relaxed loads too, so a snapshot racing ongoing
//! traffic is approximate at the margin of a few in-flight requests — fine
//! for service telemetry.

mod histogram;
mod json;

pub use histogram::{AtomicHistogram, Histogram};
pub use json::JsonObject;
use std::sync::atomic::Ordering::Relaxed;

/// `num / den`, or 0.0 when `den` is zero: every derived mean and rate goes
/// through this, so an empty metric reports 0 — never NaN, which is not JSON.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Declare a metrics struct whose `u64` counters are listed exactly once.
///
/// ```text
/// counters! {
///     #[derive(Clone, Debug, Default)]
///     pub struct Snapshot {
///         counters {
///             /// Doc comments are kept.
///             completed,
///             failed,
///         }
///         pub latency_us: Histogram,   // any other fields, as written
///     }
///     // Optional atomic twin: the same counters as `pub AtomicU64`s.
///     pub struct Live: atomic {
///         latency_us: AtomicHistogram,
///     }
/// }
/// ```
///
/// The plain struct gets `counters()` (name/value pairs in declaration
/// order — what `JsonObject::counters` writes), `counters_mut()` and
/// `add_counters(&other)`; the atomic twin derives `Default` and gets
/// `load_counters(&mut plain)`. Adding a counter is one line in the list.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            counters { $( $(#[$cmeta:meta])* $counter:ident ),* $(,)? }
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$cmeta])* pub $counter: u64, )*
            $( $(#[$fmeta])* $fvis $field: $fty, )*
        }

        impl $name {
            /// `(name, value)` of every declared counter, in declaration order.
            pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$( (stringify!($counter), self.$counter) ),*].into_iter()
            }

            /// Every declared counter, mutably, in declaration order.
            pub fn counters_mut(&mut self) -> impl Iterator<Item = &mut u64> {
                [$( &mut self.$counter ),*].into_iter()
            }

            /// Add every counter of `other` into `self`.
            pub fn add_counters(&mut self, other: &Self) {
                for (mine, (_, theirs)) in self.counters_mut().zip(other.counters()) {
                    *mine += theirs;
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            counters { $( $(#[$cmeta:meta])* $counter:ident ),* $(,)? }
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $fty:ty ),* $(,)?
        }
        $(#[$ameta:meta])*
        pub struct $aname:ident : atomic {
            $( $(#[$afmeta:meta])* $afvis:vis $afield:ident : $afty:ty ),* $(,)?
        }
    ) => {
        $crate::counters! {
            $(#[$meta])*
            pub struct $name {
                counters { $( $(#[$cmeta])* $counter ),* }
                $( $(#[$fmeta])* $fvis $field : $fty ),*
            }
        }

        $(#[$ameta])*
        #[derive(Default)]
        pub struct $aname {
            $( $(#[$cmeta])* pub $counter: ::std::sync::atomic::AtomicU64, )*
            $( $(#[$afmeta])* $afvis $afield: $afty, )*
        }

        impl $aname {
            /// Relaxed-load every counter into its field of `into`.
            pub fn load_counters(&self, into: &mut $name) {
                $(
                    into.$counter =
                        self.$counter.load(::std::sync::atomic::Ordering::Relaxed);
                )*
            }
        }
    };
}

counters! {
    /// A point-in-time copy of every service metric. Derived statistics
    /// (hit rate, means, quantiles) are computed on demand from the
    /// counters and histograms, so a merged snapshot can never carry a
    /// stale one.
    #[derive(Clone, Debug, Default)]
    pub struct MetricsSnapshot {
        counters {
            submitted,
            rejected,
            completed,
            failed,
            /// Requests completed as `DeadlineExceeded`.
            timed_out,
            /// Requests answered by the degraded fallback path (breaker
            /// open or no live workers).
            degraded,
            /// Worker batch-loop panics caught by the supervisor.
            worker_panics,
            /// Worker restarts after a caught panic (≤ `worker_panics`).
            worker_restarts,
            /// Workers retired permanently after exhausting their restart
            /// budget.
            workers_retired,
            /// Circuit-breaker transitions into the Open state.
            breaker_trips,
            cache_hits,
            cache_misses,
            /// Requests answered from work already done for an identical
            /// request in the same batch (intra-batch dedup; not an LRU hit).
            batch_dedup_hits,
            /// Explicit `invalidate_address` calls (generation bumps that
            /// supersede any cached labels for the address).
            invalidations,
            /// Micro-batches processed.
            batches,
            /// Embedding-sequence rows run through the batched head: one per
            /// distinct cache miss in each micro-batch (hits and in-batch
            /// duplicates run no row). Together with `batches` this gives
            /// the effective batch width the model saw.
            embed_batch_rows_total,
            /// Cumulative wall time (µs) workers spent inside the batched
            /// head forward pass, summed per batch — the "model time" half
            /// of the latency split (zero for a batch of cache hits).
            model_time_us_total,
            /// Cumulative time (µs) jobs waited between admission and the
            /// start of the batch that served them — the "queue wait" half
            /// of the split.
            queue_wait_us_total,
            /// Gauge: transport connections currently established (0/1 for
            /// a single remote lane; summed across a fleet by `merge`).
            /// Engines serve in-process and leave this 0.
            connections_open,
            /// Connections re-established after a previous one was lost
            /// (the first connect of a lane's life is not a reconnect).
            reconnects_total,
            /// Gauge: requests admitted but not yet answered — an engine's
            /// queued jobs, or a remote lane's in-flight requests. The
            /// queue is not owned by [`Metrics`]: its holder overwrites this
            /// field after snapshotting. Per-shard snapshots expose the
            /// per-shard admission budget in use; `merge` sums them.
            queue_depth,
        }
        /// Per-request service latency (µs).
        pub latency_us: Histogram,
        /// Micro-batch sizes (exact: batches are far smaller than 64).
        pub batch_sizes: Histogram,
    }

    /// Lock-free service metrics: monotonically increasing atomic counters
    /// plus latency and batch-size recorders, snapshotted on demand into a
    /// [`MetricsSnapshot`].
    pub struct Metrics: atomic {
        latency_us: AtomicHistogram,
        batch_sizes: AtomicHistogram,
    }
}

impl Metrics {
    pub fn record_latency_us(&self, us: u64) {
        self.latency_us.record(us);
    }

    pub fn record_batch_size(&self, size: usize) {
        self.batches.fetch_add(1, Relaxed);
        self.batch_sizes.record(size as u64);
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            latency_us: self.latency_us.snapshot(),
            batch_sizes: self.batch_sizes.snapshot(),
            ..MetricsSnapshot::default()
        };
        self.load_counters(&mut snap);
        snap
    }
}

impl MetricsSnapshot {
    /// Every request that has reached a terminal outcome. Once traffic has
    /// drained, this equals `submitted` — the "no request is ever silently
    /// dropped" accounting identity the chaos harness asserts.
    pub fn terminal_total(&self) -> u64 {
        self.completed + self.failed + self.timed_out + self.degraded + self.rejected
    }

    /// LRU hits over lookups; 0.0 before the first lookup.
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        ratio(self.cache_hits as f64, lookups as f64)
    }

    /// Roll per-shard snapshots up into one fleet-wide snapshot: counters
    /// (gauges included — the fleet's open connections and total in-flight
    /// depth, not an average) and histograms sum element-wise, so the
    /// merged histograms are bucket-for-bucket what one engine serving all
    /// the traffic would have recorded, and every quantile or mean read
    /// from the result is over the whole fleet's samples — never a quantile
    /// of per-shard quantiles. An empty slice merges to all-zero.
    pub fn merge(shards: &[MetricsSnapshot]) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for s in shards {
            merged.add_counters(s);
            merged.latency_us.merge(&s.latency_us);
            merged.batch_sizes.merge(&s.batch_sizes);
        }
        merged
    }

    /// Render as a single-line JSON object: every counter, the derived
    /// statistics, then the two histograms' non-empty buckets.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.counters(self.counters())
            .f64("cache_hit_rate", self.cache_hit_rate(), 6)
            .f64("mean_batch_size", self.batch_sizes.mean(), 6)
            .u64("max_batch_size", self.batch_sizes.quantile(1.0))
            .f64("mean_latency_us", self.latency_us.mean(), 6)
            .u64("p50_latency_us", self.latency_us.quantile(0.50))
            .u64("p95_latency_us", self.latency_us.quantile(0.95))
            .u64("p99_latency_us", self.latency_us.quantile(0.99))
            .buckets("batch_size_counts", &self.batch_sizes)
            .buckets("latency_us_buckets", &self.latency_us);
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `|got − exact| ≤ exact / 32`, the histogram's error bound.
    fn within_bound(got: u64, exact: u64) -> bool {
        got.abs_diff(exact) * 32 <= exact
    }

    #[test]
    fn quantiles_from_known_distribution() {
        let m = Metrics::default();
        for _ in 0..90 {
            m.record_latency_us(5);
        }
        for _ in 0..10 {
            m.record_latency_us(1500);
        }
        let snap = m.snapshot();
        assert_eq!(snap.latency_us.quantile(0.50), 5);
        let (p95, p99) = (
            snap.latency_us.quantile(0.95),
            snap.latency_us.quantile(0.99),
        );
        assert!(within_bound(p95, 1500), "p95 {p95}");
        assert_eq!(p99, p95);
        assert!((snap.latency_us.mean() - (90.0 * 5.0 + 10.0 * 1500.0) / 100.0).abs() < 1e-9);
    }

    #[test]
    fn batch_stats() {
        let m = Metrics::default();
        for size in [1, 4, 4, 7] {
            m.record_batch_size(size);
        }
        let snap = m.snapshot();
        assert_eq!(snap.batches, 4);
        assert_eq!(snap.batch_sizes.count(), 4);
        assert_eq!(snap.batch_sizes.quantile(1.0), 7);
        assert!((snap.batch_sizes.mean() - 4.0).abs() < 1e-9);
        assert!(snap
            .to_json()
            .contains("\"batch_size_counts\":{\"1\":1,\"4\":2,\"7\":1}"));
    }

    #[test]
    fn hit_rate() {
        let m = Metrics::default();
        m.cache_hits.fetch_add(3, Relaxed);
        m.cache_misses.fetch_add(1, Relaxed);
        assert!((m.snapshot().cache_hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_all_zero_never_nan() {
        for snap in [Metrics::default().snapshot(), MetricsSnapshot::merge(&[])] {
            assert_eq!(snap.submitted, 0);
            assert_eq!(snap.latency_us.quantile(0.99), 0);
            assert_eq!(snap.latency_us.mean(), 0.0);
            assert_eq!(snap.batch_sizes.mean(), 0.0);
            assert_eq!(snap.cache_hit_rate(), 0.0);
            assert!(!snap.to_json().contains("NaN"));
        }
    }

    #[test]
    fn terminal_total_accounts_every_outcome() {
        let m = Metrics::default();
        m.submitted.fetch_add(10, Relaxed);
        m.completed.fetch_add(4, Relaxed);
        m.failed.fetch_add(2, Relaxed);
        m.timed_out.fetch_add(1, Relaxed);
        m.degraded.fetch_add(2, Relaxed);
        m.rejected.fetch_add(1, Relaxed);
        let snap = m.snapshot();
        assert_eq!(snap.terminal_total(), snap.submitted);
    }

    #[test]
    fn merged_snapshot_recomputes_derived_stats() {
        let a = Metrics::default();
        a.cache_hits.fetch_add(9, Relaxed);
        a.cache_misses.fetch_add(1, Relaxed);
        for _ in 0..90 {
            a.record_latency_us(5);
        }
        a.record_batch_size(2);
        let b = Metrics::default();
        b.cache_misses.fetch_add(10, Relaxed);
        for _ in 0..10 {
            b.record_latency_us(1500);
        }
        b.record_batch_size(6);

        let merged = MetricsSnapshot::merge(&[a.snapshot(), b.snapshot()]);
        // Quantiles come from the merged histogram, not shard averages:
        // p95 of 90 fast + 10 slow lands in the slow bucket even though
        // shard A's own p95 is fast.
        assert_eq!(merged.latency_us.quantile(0.50), 5);
        assert!(within_bound(merged.latency_us.quantile(0.95), 1500));
        assert!((merged.cache_hit_rate() - 9.0 / 20.0).abs() < 1e-12);
        // The mean is exact: sums are carried, not rebuilt from means.
        assert_eq!(
            merged.latency_us.mean(),
            (90.0 * 5.0 + 10.0 * 1500.0) / 100.0
        );
        assert_eq!(merged.batch_sizes.quantile(1.0), 6);
        assert!((merged.batch_sizes.mean() - 4.0).abs() < 1e-9);

        // And it is the histogram one engine would have recorded.
        let one = Metrics::default();
        for _ in 0..90 {
            one.record_latency_us(5);
        }
        for _ in 0..10 {
            one.record_latency_us(1500);
        }
        assert_eq!(merged.latency_us, one.snapshot().latency_us);
    }

    /// Walks the declared counter list: every counter (gauges included)
    /// round-trips atomic → snapshot, renders under its own name, and sums
    /// under `merge` — so a counter added to the list cannot be forgotten
    /// in any of the three.
    #[test]
    fn every_declared_counter_snapshots_renders_and_merges() {
        let mut a = MetricsSnapshot::default();
        let mut b = MetricsSnapshot::default();
        for (i, (x, y)) in a.counters_mut().zip(b.counters_mut()).enumerate() {
            *x = i as u64 + 1;
            *y = 1000 * (i as u64 + 1);
        }
        let merged = MetricsSnapshot::merge(&[a.clone(), b]);
        let json = merged.to_json();
        for (i, (name, v)) in merged.counters().enumerate() {
            assert_eq!(v, 1001 * (i as u64 + 1), "{name} must sum under merge");
            assert!(
                json.contains(&format!("\"{name}\":{v}")),
                "{name} in {json}"
            );
        }

        let live = Metrics::default();
        live.submitted.store(3, Relaxed);
        live.queue_depth.store(9, Relaxed);
        let snap = live.snapshot();
        assert_eq!(snap.counters().next(), Some(("submitted", 3)));
        assert_eq!(snap.counters().last(), Some(("queue_depth", 9)));
    }

    #[test]
    fn json_is_well_formed_and_sparse() {
        let m = Metrics::default();
        m.submitted.fetch_add(5, Relaxed);
        for us in [40, 100, 120, 5000] {
            m.record_latency_us(us);
        }
        m.record_batch_size(3);
        let json = m.snapshot().to_json();
        assert!(json.starts_with("{\"submitted\":5,") && json.ends_with("}}"));
        assert!(json.contains("\"batch_size_counts\":{\"3\":1}"));
        assert!(json.contains("\"latency_us_buckets\":{\"40\":1,\"64\":2,\"4096\":1}"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(!json.contains(",,") && !json.contains("{,") && !json.contains(",}"));
    }
}
