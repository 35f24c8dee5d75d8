//! Order statistics for the benchmark: percentiles inside one repeat,
//! and the median / quartile spread across repeats.

/// Nearest-rank percentile (`p` in 0..=100) of an ascending-sorted,
/// non-empty slice: the smallest value with at least `p` % of the
/// samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample ascending (timings are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("benchmark values are not NaN"));
    values
}

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, so a spread computed here
/// matches the one the acceptance check computes from ten runs.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    if n < 2 {
        return (s[0], s[0]);
    }
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks; the rank is clamped to the
        // sample, the fraction is not (two points extrapolate, as Python's
        // do).
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let frac = (k * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median; 0 for a sample
/// that does not vary (or whose median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    if values.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let (q1, q3) = quartiles(values);
    (q3 - q1) / m.abs()
}

/// One metric over the repeats of a run: the reported value, and the
/// per-repeat readings that travel with it so `compare` can tell a shift
/// from noise.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub repeats: Vec<f64>,
}

impl Summary {
    /// Reports the median of the repeats.
    pub fn of(repeats: Vec<f64>) -> Summary {
        Summary::with_value(median(&repeats), repeats)
    }

    pub fn with_value(value: f64, repeats: Vec<f64>) -> Summary {
        let s = sorted(repeats.clone());
        Summary {
            value,
            min: s[0],
            max: s[s.len() - 1],
            repeats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank_on_known_vector() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        let small = [3.0, 7.0, 11.0];
        assert_eq!(percentile(&small, 50.0), 7.0);
        assert_eq!(percentile(&small, 99.0), 11.0);
        assert_eq!(percentile(&[4.5], 99.0), 4.5);
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = Summary::of(vec![10.0, 30.0, 20.0, 50.0, 40.0]);
        assert_eq!((s.value, s.min, s.max), (30.0, 10.0, 50.0));
        assert_eq!(s.repeats, vec![10.0, 30.0, 20.0, 50.0, 40.0]);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 4.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0]), (1.25, 7.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[7.0, 7.0, 7.0]), 0.0);
        assert_eq!(spread(&[7.0]), 0.0);
    }
}
