//! The log-linear histogram: values below 64 are counted exactly, larger
//! ones in power-of-two octaves of 32 linear sub-buckets, so every bucket is
//! at most 1/32 as wide as its smallest value.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Linear sub-buckets per power-of-two octave (as a shift).
const SUB_BITS: u32 = 5;
const SUB: usize = 1 << SUB_BITS;
/// Group 0 holds the values `0..32` one per bucket; group `s + 1` holds the
/// octave `[32 << s, 64 << s)` for every shift `s` in `0..=58`.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

fn bucket_of(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let shift = (63 - SUB_BITS) - v.leading_zeros();
    // `v >> shift` is in `32..64`: the sub-bucket plus one group's width.
    ((shift as usize) << SUB_BITS) + (v >> shift) as usize
}

/// The value reported for a bucket: its midpoint (the value itself where
/// the bucket is one wide, i.e. everywhere below 64).
fn bucket_value(idx: usize) -> u64 {
    if idx < SUB {
        return idx as u64;
    }
    let shift = (idx >> SUB_BITS) - 1;
    let low = ((SUB + (idx & (SUB - 1))) as u64) << shift;
    low + ((1u64 << shift) >> 1)
}

/// A mergeable log-linear histogram. See the module docs for the layout
/// and error bound. An empty histogram reports 0 for every statistic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts up to the highest non-empty bucket.
    counts: Vec<u64>,
    count: u64,
    sum: u128,
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Record `n` samples of value `v` — identical to `n` calls of
    /// [`Histogram::record`].
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = bucket_of(v);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
        self.count += n;
        self.sum += u128::from(v) * u128::from(n);
    }

    /// Add every sample of `other`. Bucket counts, count and sum add
    /// element-wise, so merging any grouping of histograms in any order
    /// equals recording all their samples into one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// `(bucket value, count)` of every non-empty bucket, ascending.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let filled = self.counts.iter().enumerate().filter(|(_, &c)| c > 0);
        filled.map(|(idx, &c)| (bucket_value(idx), c))
    }

    /// Exact mean of the recorded samples (from the carried sum, not from
    /// bucket midpoints); 0.0 when empty.
    pub fn mean(&self) -> f64 {
        super::ratio(self.sum as f64, self.count as f64)
    }

    /// Nearest-rank quantile: the value of the bucket holding the
    /// `⌈q·n⌉`-th smallest sample (`q` clamped so the rank is in `1..=n`).
    /// Exact when that sample is below 64, otherwise within 1/32 of it.
    /// `quantile(1.0)` is the largest sample's bucket; 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_value(idx);
            }
        }
        unreachable!("bucket counts sum to count")
    }
}

/// Wait-free recorder for a [`Histogram`]: one relaxed `fetch_add` on the
/// sample's bucket and one on the running sum.
pub struct AtomicHistogram {
    counts: Box<[AtomicU64]>,
    sum: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self {
            counts: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }
}

impl AtomicHistogram {
    pub fn record(&self, v: u64) {
        self.counts[bucket_of(v)].fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
    }

    pub fn snapshot(&self) -> Histogram {
        let mut counts: Vec<u64> = self.counts.iter().map(|c| c.load(Relaxed)).collect();
        let used = counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        counts.truncate(used);
        Histogram {
            count: counts.iter().sum(),
            sum: u128::from(self.sum.load(Relaxed)),
            counts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_exact_below_64_and_ends_at_u64_max() {
        for v in 0..64u64 {
            assert_eq!(bucket_value(bucket_of(v)), v);
        }
        assert_eq!(bucket_of(64), 64);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        // Every octave boundary: buckets are contiguous and each value's
        // bucket reports something within 1/32 of it.
        for shift in 0..58 {
            for v in [(64u64 << shift) - 1, 64 << shift, (64 << shift) + 1] {
                let got = bucket_value(bucket_of(v));
                assert!(got.abs_diff(v) * 32 <= v, "{v} reported as {got}");
            }
            assert_eq!(bucket_of(64 << shift), bucket_of((64 << shift) - 1) + 1);
        }
    }

    #[test]
    fn atomic_recorder_snapshots_into_the_same_histogram() {
        let live = AtomicHistogram::default();
        let mut plain = Histogram::default();
        for v in [0, 5, 5, 63, 64, 1500, 1 << 40] {
            live.record(v);
            plain.record(v);
        }
        assert_eq!(live.snapshot(), plain);
        assert_eq!(AtomicHistogram::default().snapshot(), Histogram::default());
    }
}
