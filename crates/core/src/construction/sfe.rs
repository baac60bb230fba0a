//! Statistical feature extraction (SFE, paper §III-A2, Eq. 1–2): the fixed
//! 15-statistic summary of the transferred amounts of the addresses merged
//! into a hyper node.

use crate::construction::address_graph::{Edge, Node};

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
/// edge cases well-defined). Any finite values, signed ones included; a NaN
/// panics.
pub fn sfe(values: &[f64]) -> SfeFeatures {
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("non-NaN values"));
    stats_of_sorted(&sorted)
}

/// The statistics of values sorted ascending, in three passes: sum; squared
/// and absolute deviations; z⁴ and z³. Each accumulator adds its own terms in
/// sorted order from `-0.0`, as `Iterator::sum` does, so sharing a pass with
/// another chain changes none of its bits.
fn stats_of_sorted(sorted: &[f64]) -> SfeFeatures {
    let n = sorted.len();
    if n == 0 {
        return SfeFeatures::default();
    }
    let min = sorted[0];
    let max = sorted[n - 1];
    let sum = sorted.iter().fold(-0.0, |sum, v| sum + v);
    let mean = sum / n as f64;
    let range = max - min;
    let mid_range = (max + min) / 2.0;
    let p75 = percentile_sorted(sorted, 75.0);
    let median = percentile_sorted(sorted, 50.0);
    let (squares, deviations) = sorted.iter().fold((-0.0, -0.0), |(sq, dev), v| {
        let d = v - mean;
        (sq + d.powi(2), dev + d.abs())
    });
    let variance = squares / n as f64;
    let std_dev = variance.sqrt();
    let mad = deviations / n as f64;
    let coef_var = if mean.abs() > 1e-12 {
        std_dev / mean
    } else {
        0.0
    };
    let (kurtosis, skewness, tilt) = if std_dev > 1e-12 {
        let (m4, m3) = sorted.iter().fold((-0.0, -0.0), |(m4, m3), v| {
            let z = (v - mean) / std_dev;
            (m4 + z.powi(4), m3 + z.powi(3))
        });
        let (m4, m3) = (m4 / n as f64, m3 / n as f64);
        (m4 - 3.0, m3, 3.0 * (mean - median) / std_dev)
    } else {
        (0.0, 0.0, 0.0)
    };
    SfeFeatures([
        max, min, sum, mean, n as f64, range, mid_range, p75, variance, std_dev, mad, coef_var,
        kurtosis, skewness, tilt,
    ])
}

/// Seed the SFE of every node in `nodes` from `edges`, an edge's value
/// counting at the nodes `at` names — the one place features come from: every
/// edge at both endpoints for a raw slice and for the nodes a derivation
/// keeps, the edges a group merges for the hyper nodes of the public Stages
/// 2–3. A counting pass over the edges and a filling one group the values by
/// node into one buffer, and each range is sorted where it lies; a node
/// nothing is incident to gets the zeros of `sfe(&[])`.
///
/// Transfer values are finite and non-negative (`check_invariants`) and
/// never `-0.0` — whole satoshis, or sums of them from `0.0` — and on those
/// `to_bits` orders every pair as `partial_cmp` does. So the integer-keyed
/// sort makes the moves [`sfe`]'s comparator sort makes, and every statistic
/// is [`sfe`]'s to the bit.
pub(crate) fn seed_sfe(
    nodes: &mut [Node],
    edges: &[Edge],
    at: impl Fn(&Edge) -> [Option<usize>; 2],
) {
    let mut ends = vec![0usize; nodes.len() + 1];
    for e in edges {
        for node in at(e).into_iter().flatten() {
            ends[node + 1] += 1;
        }
    }
    for i in 0..nodes.len() {
        ends[i + 1] += ends[i];
    }
    // `ends[i]` is where node i's range starts; filling advances it to where
    // the range ends, which is where node i + 1's starts.
    let mut values = vec![0.0; ends[nodes.len()]];
    for e in edges {
        for node in at(e).into_iter().flatten() {
            values[ends[node]] = e.value;
            ends[node] += 1;
        }
    }
    debug_assert!(values.iter().all(|v| v.is_finite() && v.is_sign_positive()));
    let mut start = 0;
    for (node, &end) in nodes.iter_mut().zip(&ends) {
        let range = &mut values[start..end];
        range.sort_unstable_by_key(|v| v.to_bits());
        node.sfe = stats_of_sorted(range);
        start = end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::construction::address_graph::{NodeKind, Side};
    use proptest::prelude::*;

    /// SFE as it was before the passes were fused and `seed_sfe` sorted by
    /// bit pattern: a comparator sort, then one `Iterator::sum` per sum.
    fn five_pass_sfe(values: &[f64]) -> SfeFeatures {
        let n = values.len();
        if n == 0 {
            return SfeFeatures::default();
        }
        let mut sorted = values.to_vec();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("non-NaN values"));
        let (min, max) = (sorted[0], sorted[n - 1]);
        let sum: f64 = sorted.iter().sum();
        let mean = sum / n as f64;
        let p75 = percentile_sorted(&sorted, 75.0);
        let median = percentile_sorted(&sorted, 50.0);
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
            max,
            min,
            sum,
            mean,
            n as f64,
            max - min,
            (max + min) / 2.0,
            p75,
            variance,
            std_dev,
            mad,
            coef_var,
            kurtosis,
            skewness,
            tilt,
        ])
    }

    fn bits(f: SfeFeatures) -> [u64; SFE_DIM] {
        f.0.map(f64::to_bits)
    }

    /// Transfer values as construction sees them: zeros, a small pool of
    /// repeated amounts, whole satoshis up to the coin supply, wide reals.
    fn amount() -> impl Strategy<Value = f64> {
        let parts = (0u8..4, 0u32..6, 0u64..2_100_000_000_000_000, 0.0f64..1e9);
        parts.prop_map(|(kind, k, sats, real)| match kind {
            0 => 0.0,
            1 => f64::from(k) * 0.125,
            2 => sats as f64 / 1e8,
            _ => real,
        })
    }

    /// Signed values, with repeats and both zeros, for the public [`sfe`].
    fn signed() -> impl Strategy<Value = f64> {
        (0u8..4, -4i32..4, -1e9f64..1e9).prop_map(|(kind, k, real)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from(k) * 0.5,
            _ => real,
        })
    }

    /// At most 1, 16, 256 or 5,000 of `values`, so short ranges and a lone
    /// value are as common as long ones.
    fn truncated<T>(mut values: Vec<T>, scale: usize) -> Vec<T> {
        values.truncate([1, 16, 256, 5000][scale]);
        values
    }

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

    #[test]
    fn public_sfe_sorts_a_negative_value_first() {
        let values = [1.0, -10.0, 1.0, 1.0];
        assert_eq!(sfe(&values).min(), -10.0);
        assert_eq!(bits(sfe(&values)), bits(five_pass_sfe(&values)));
    }

    proptest! {
        // One to four nodes share the incident values, so a node gets
        // anywhere from none or a single value to all 5,000.
        #[test]
        fn prop_seed_sfe_is_five_pass_sfe_bit_for_bit(
            nodes in 1usize..5,
            scale in 0usize..4,
            incident in proptest::collection::vec((0usize..4, amount()), 1..=5000),
        ) {
            let mut seeded = vec![Node::new(NodeKind::Address, None); nodes];
            let incident: Vec<(usize, f64)> = truncated(incident, scale)
                .into_iter()
                .map(|(node, v)| (node % nodes, v))
                .collect();
            let edge = |&(addr_node, value): &(usize, f64)| Edge {
                addr_node,
                tx_node: 0,
                value,
                side: Side::Output,
            };
            let edges: Vec<Edge> = incident.iter().map(edge).collect();
            seed_sfe(&mut seeded, &edges, |e| [Some(e.addr_node), None]);
            for (i, node) in seeded.iter().enumerate() {
                let at_i = incident.iter().filter(|&&(n, _)| n == i).map(|&(_, v)| v);
                let want = five_pass_sfe(&at_i.collect::<Vec<_>>());
                prop_assert_eq!(bits(node.sfe), bits(want), "node {}", i);
            }
        }

        #[test]
        fn prop_sfe_of_signed_values_is_five_pass_sfe_bit_for_bit(
            scale in 0usize..4,
            values in proptest::collection::vec(signed(), 1..=5000),
        ) {
            let values = truncated(values, scale);
            prop_assert_eq!(bits(sfe(&values)), bits(five_pass_sfe(&values)));
        }

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
