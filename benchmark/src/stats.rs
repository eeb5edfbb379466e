//! Order statistics over small sample sets.

use std::collections::BTreeMap;

/// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank rule: the smallest
/// sample with at least a share `q` of all samples at or below it. An
/// observed value is returned, never an interpolation. `NaN` on no samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: the mean of the two middle samples when their count is even.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Every sample replaced by the median of the samples of its kind, in the
/// order given: each kind keeps the weight it came up with, and a few
/// disturbed samples of a kind move nothing.
pub fn at_kind_medians<K: Ord>(samples: &[(K, f64)]) -> Vec<f64> {
    let mut kinds: BTreeMap<&K, Vec<f64>> = BTreeMap::new();
    for (kind, value) in samples {
        kinds.entry(kind).or_default().push(*value);
    }
    let medians: BTreeMap<&K, f64> = kinds.iter().map(|(k, v)| (*k, median(v))).collect();
    samples.iter().map(|(kind, _)| medians[kind]).collect()
}

/// `(b − a) / a`, the relative difference of `b` against `a`.
pub fn relative_difference(a: f64, b: f64) -> f64 {
    (b - a) / a
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        // Unsorted input, and ten samples beyond the 90th percentile of 100.
        let mut r = s.clone();
        r.reverse();
        assert_eq!(percentile(&r, 0.9), 90.0);
        assert_eq!(r.iter().filter(|&&v| v > 90.0).count(), 10);
    }

    #[test]
    fn percentile_of_five_equal_groups_sits_inside_a_group() {
        // Five window kinds, twenty samples each: the median is a sample of
        // the third kind, the 90th percentile one of the fifth.
        let mut s = Vec::new();
        for kind in 1..=5 {
            s.extend(std::iter::repeat_n(f64::from(kind), 20));
        }
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.9), 5.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn samples_at_kind_medians_keep_every_kind_and_shrug_off_a_burst() {
        let total = |s: &[(u64, f64)]| at_kind_medians(s).iter().sum::<f64>();
        // Eight delta intervals of 10 and one keyframe interval of 5, twice
        // over: the cheap kind is in the total at its own weight.
        let cadence = |delta: f64, key: f64| {
            let mut s: Vec<(u64, f64)> = vec![(0, delta); 16];
            s.extend([(3, key); 2]);
            s
        };
        assert_eq!(total(&cadence(10.0, 5.0)), 170.0);
        // Keyframes five times dearer move it, though they are one in nine.
        assert_eq!(total(&cadence(10.0, 25.0)), 210.0);
        // A burst over a quarter of the delta intervals moves neither the
        // total nor the 90th percentile, which a plain one would read 14 at.
        let mut burst = cadence(10.0, 5.0);
        burst.iter_mut().take(4).for_each(|s| s.1 = 14.0);
        assert_eq!(total(&burst), 170.0);
        assert_eq!(percentile(&at_kind_medians(&burst), 0.9), 10.0);
        // The order given is the order kept.
        assert_eq!(
            at_kind_medians(&[(1, 4.0), (0, 1.0), (1, 6.0)]),
            [5.0, 1.0, 5.0]
        );
        assert!(at_kind_medians(&Vec::<(u8, f64)>::new()).is_empty());
    }

    #[test]
    fn relative_difference_is_against_the_first() {
        assert!((relative_difference(100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((relative_difference(100.0, 95.0) + 0.05).abs() < 1e-12);
    }
}
