//! Statistical feature extraction (SFE, paper §III-A2, Eq. 1–2): the fixed
//! 15-statistic summary of the transferred amounts of the addresses merged
//! into a hyper node.

use crate::construction::address_graph::Node;

/// Number of statistics SFE produces.
pub const SFE_DIM: usize = 15;

/// The 15 statistics, in a fixed order (paper's list):
/// max, min, sum, mean, count, range, mid-range, 75th percentile, variance,
/// standard deviation, mean absolute deviation, coefficient of variation,
/// kurtosis (excess), skewness, tilt.
///
/// "Tilt" is not a standard statistic; following the paper's grouping with
/// kurtosis/skewness we implement it as Pearson's median skewness
/// `3·(mean − median)/std` (documented in DESIGN.md).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SfeFeatures(pub [f64; SFE_DIM]);

impl Default for SfeFeatures {
    fn default() -> Self {
        SfeFeatures([0.0; SFE_DIM])
    }
}

impl SfeFeatures {
    pub fn as_array(&self) -> &[f64; SFE_DIM] {
        &self.0
    }

    pub fn max(&self) -> f64 {
        self.0[0]
    }
    pub fn min(&self) -> f64 {
        self.0[1]
    }
    pub fn sum(&self) -> f64 {
        self.0[2]
    }
    pub fn mean(&self) -> f64 {
        self.0[3]
    }
    pub fn count(&self) -> f64 {
        self.0[4]
    }
    pub fn range(&self) -> f64 {
        self.0[5]
    }
    pub fn mid_range(&self) -> f64 {
        self.0[6]
    }
    pub fn percentile75(&self) -> f64 {
        self.0[7]
    }
    pub fn variance(&self) -> f64 {
        self.0[8]
    }
    pub fn std_dev(&self) -> f64 {
        self.0[9]
    }
    pub fn mean_abs_dev(&self) -> f64 {
        self.0[10]
    }
    pub fn coef_variation(&self) -> f64 {
        self.0[11]
    }
    pub fn kurtosis(&self) -> f64 {
        self.0[12]
    }
    pub fn skewness(&self) -> f64 {
        self.0[13]
    }
    pub fn tilt(&self) -> f64 {
        self.0[14]
    }
}

/// Linear-interpolated percentile (`p` in [0, 100]) of a sorted, non-empty
/// slice.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Compute the SFE statistics of a value list. An empty input yields all
/// zeros (the paper merges only non-empty groups; zero-features keep empty
/// edge cases well-defined).
pub fn sfe(values: &[f64]) -> SfeFeatures {
    sfe_in_place(&mut values.to_vec())
}

/// [`sfe`] of a buffer the caller gives up to be sorted. Every statistic is
/// taken over the sorted values, so arrival order is immaterial; amounts are
/// non-negative and finite, so equal values are the same bits and the
/// unstable sort is invisible too.
fn sfe_in_place(sorted: &mut [f64]) -> SfeFeatures {
    let n = sorted.len();
    if n == 0 {
        return SfeFeatures::default();
    }
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("non-NaN values"));
    let min = sorted[0];
    let max = sorted[n - 1];
    let sum: f64 = sorted.iter().sum();
    let mean = sum / n as f64;
    let range = max - min;
    let mid_range = (max + min) / 2.0;
    let p75 = percentile_sorted(sorted, 75.0);
    let median = percentile_sorted(sorted, 50.0);
    let variance = sorted.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
    let std_dev = variance.sqrt();
    let mad = sorted.iter().map(|v| (v - mean).abs()).sum::<f64>() / n as f64;
    let coef_var = if mean.abs() > 1e-12 {
        std_dev / mean
    } else {
        0.0
    };
    let (kurtosis, skewness, tilt) = if std_dev > 1e-12 {
        let m4 = sorted
            .iter()
            .map(|v| ((v - mean) / std_dev).powi(4))
            .sum::<f64>()
            / n as f64;
        let m3 = sorted
            .iter()
            .map(|v| ((v - mean) / std_dev).powi(3))
            .sum::<f64>()
            / n as f64;
        (m4 - 3.0, m3, 3.0 * (mean - median) / std_dev)
    } else {
        (0.0, 0.0, 0.0)
    };
    SfeFeatures([
        max, min, sum, mean, n as f64, range, mid_range, p75, variance, std_dev, mad, coef_var,
        kurtosis, skewness, tilt,
    ])
}

/// Seed the SFE of every node in `nodes` from the transfer values incident
/// to it, one `(index into nodes, value)` per edge endpoint — the one place
/// features come from, in Stage 1 (every edge, both endpoints) and for the
/// hyper nodes of Stages 2–3 (the edges a group merges). A counting pass
/// groups the values by node into one buffer and each range is sorted where
/// it lies; a node nothing is incident to gets the zeros of `sfe(&[])`.
pub(crate) fn seed_sfe(nodes: &mut [Node], incident: impl Iterator<Item = (usize, f64)> + Clone) {
    let mut ends = vec![0usize; nodes.len() + 1];
    for (node, _) in incident.clone() {
        ends[node + 1] += 1;
    }
    for i in 0..nodes.len() {
        ends[i + 1] += ends[i];
    }
    // `ends[i]` is where node i's range starts; filling advances it to where
    // the range ends, which is where node i + 1's starts.
    let mut values = vec![0.0; ends[nodes.len()]];
    for (node, value) in incident {
        values[ends[node]] = value;
        ends[node] += 1;
    }
    let mut start = 0;
    for (node, &end) in nodes.iter_mut().zip(&ends) {
        node.sfe = sfe_in_place(&mut values[start..end]);
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_is_all_zero() {
        assert_eq!(sfe(&[]), SfeFeatures::default());
    }

    #[test]
    fn single_value() {
        let f = sfe(&[5.0]);
        assert_eq!(f.max(), 5.0);
        assert_eq!(f.min(), 5.0);
        assert_eq!(f.sum(), 5.0);
        assert_eq!(f.mean(), 5.0);
        assert_eq!(f.count(), 1.0);
        assert_eq!(f.range(), 0.0);
        assert_eq!(f.variance(), 0.0);
        assert_eq!(f.kurtosis(), 0.0);
    }

    #[test]
    fn known_statistics() {
        let f = sfe(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(f.max(), 4.0);
        assert_eq!(f.min(), 1.0);
        assert_eq!(f.sum(), 10.0);
        assert_eq!(f.mean(), 2.5);
        assert_eq!(f.count(), 4.0);
        assert_eq!(f.range(), 3.0);
        assert_eq!(f.mid_range(), 2.5);
        assert!((f.percentile75() - 3.25).abs() < 1e-12);
        assert!((f.variance() - 1.25).abs() < 1e-12);
        assert!((f.std_dev() - 1.25f64.sqrt()).abs() < 1e-12);
        assert!((f.mean_abs_dev() - 1.0).abs() < 1e-12);
        // symmetric data: no skew, no tilt
        assert!(f.skewness().abs() < 1e-12);
        assert!(f.tilt().abs() < 1e-12);
    }

    #[test]
    fn skewness_sign_matches_tail() {
        let right = sfe(&[1.0, 1.0, 1.0, 10.0]);
        assert!(right.skewness() > 0.0, "right tail should skew positive");
        let left = sfe(&[-10.0, 1.0, 1.0, 1.0]);
        assert!(left.skewness() < 0.0);
    }

    #[test]
    fn constant_values_have_no_dispersion() {
        let f = sfe(&[7.0; 10]);
        assert_eq!(f.variance(), 0.0);
        assert_eq!(f.coef_variation(), 0.0);
        assert_eq!(f.kurtosis(), 0.0);
        assert_eq!(f.skewness(), 0.0);
    }

    #[test]
    fn order_does_not_matter() {
        let a = sfe(&[3.0, 1.0, 2.0]);
        let b = sfe(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }

    proptest! {
        #[test]
        fn prop_all_finite_and_bounds_hold(
            values in proptest::collection::vec(0.0f64..1e6, 1..64)
        ) {
            let f = sfe(&values);
            prop_assert!(f.as_array().iter().all(|v| v.is_finite()));
            prop_assert!(f.min() <= f.mean() && f.mean() <= f.max());
            prop_assert!(f.variance() >= 0.0);
            prop_assert!(f.count() as usize == values.len());
            prop_assert!(f.percentile75() <= f.max() && f.percentile75() >= f.min());
        }

        #[test]
        fn prop_shift_invariance_of_dispersion(
            values in proptest::collection::vec(0.0f64..1e3, 2..32),
            shift in 1.0f64..100.0,
        ) {
            let base = sfe(&values);
            let shifted: Vec<f64> = values.iter().map(|v| v + shift).collect();
            let moved = sfe(&shifted);
            prop_assert!((base.variance() - moved.variance()).abs() < 1e-6 * (1.0 + base.variance()));
            prop_assert!((base.range() - moved.range()).abs() < 1e-9);
        }
    }
}
