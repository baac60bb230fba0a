//! Properties of the workspace's one histogram (`baserve::metrics`): the
//! quantile error bound, merge ≡ recording the union, `record_n` ≡ repeated
//! `record`, and the empty / `u64::MAX` edges.

use baserve::metrics::Histogram;
use proptest::prelude::*;

/// Samples spread over every magnitude: a uniform `u64` shifted right by a
/// uniform amount, so small exact values and huge ones are equally likely.
fn sample() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u32..64).prop_map(|(v, shift)| v >> shift)
}

/// Exact nearest-rank quantile of `sorted` (ascending, non-empty).
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn recorded(samples: &[u64]) -> Histogram {
    let mut h = Histogram::default();
    for &v in samples {
        h.record(v);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn any_quantile_is_within_one_thirty_second_of_exact_nearest_rank(
        samples in proptest::collection::vec(sample(), 1..200),
        q in 0.0f64..=1.0,
    ) {
        let h = recorded(&samples);
        let mut samples = samples;
        samples.sort_unstable();
        for q in [q, 0.0, 0.5, 0.95, 0.99, 1.0] {
            let (got, exact) = (h.quantile(q), exact_quantile(&samples, q));
            prop_assert!(
                u128::from(got.abs_diff(exact)) * 32 <= u128::from(exact),
                "q {q}: got {got}, exact {exact}"
            );
        }
        let exact_mean = samples.iter().map(|&v| v as f64).sum::<f64>() / samples.len() as f64;
        prop_assert!((h.mean() - exact_mean).abs() <= exact_mean * 1e-9);
    }

    #[test]
    fn any_quantile_is_exact_when_every_sample_is_below_64(
        samples in proptest::collection::vec(0u64..64, 1..200),
        q in 0.0f64..=1.0,
    ) {
        let h = recorded(&samples);
        let mut samples = samples;
        samples.sort_unstable();
        prop_assert_eq!(h.quantile(q), exact_quantile(&samples, q));
        prop_assert_eq!(h.quantile(1.0), *samples.last().unwrap());
    }

    #[test]
    fn merge_of_any_grouping_and_order_equals_recording_the_union(
        samples in proptest::collection::vec((sample(), 0usize..4), 0..200),
        reversed in any::<bool>(),
    ) {
        // Deal the samples into four "shards", merge the shards in either
        // order, and compare with one histogram that saw everything:
        // bucket-for-bucket, count and sum (`Histogram: Eq`).
        let mut shards = vec![Histogram::default(); 4];
        for &(v, shard) in &samples {
            shards[shard].record(v);
        }
        if reversed {
            shards.reverse();
        }
        let mut merged = Histogram::default();
        for shard in &shards {
            merged.merge(shard);
        }
        let union: Vec<u64> = samples.iter().map(|&(v, _)| v).collect();
        prop_assert_eq!(merged, recorded(&union));
    }

    #[test]
    fn record_n_equals_n_records(v in sample(), n in 0u64..50, other in sample()) {
        let mut bulk = recorded(&[other]);
        bulk.record_n(v, n);
        let mut one_by_one = recorded(&[other]);
        for _ in 0..n {
            one_by_one.record(v);
        }
        prop_assert_eq!(bulk, one_by_one);
    }
}

#[test]
fn empty_histogram_reports_zero_never_nan() {
    let h = Histogram::default();
    assert_eq!(h.count(), 0);
    assert_eq!(h.mean(), 0.0);
    for q in [0.0, 0.5, 1.0, f64::NAN] {
        assert_eq!(h.quantile(q), 0);
    }
}

#[test]
fn u64_max_is_recorded_without_overflow() {
    let mut h = Histogram::default();
    h.record_n(u64::MAX, 3);
    h.record(0);
    assert_eq!(h.count(), 4);
    assert_eq!(h.quantile(0.0), 0);
    let top = h.quantile(1.0);
    assert!(u64::MAX - top <= u64::MAX / 32, "top bucket value {top}");
    assert_eq!(h.mean(), 3.0 * u64::MAX as f64 / 4.0);
}
