//! Order statistics: medians, the tail-percentile rule, quartile
//! spread, geometric mean.

/// Median of `values` (mean of the two middle values for even counts).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The percentiles a tail may be reported at, each with the
/// reciprocal of the share of samples beyond it (p99 leaves 1/100).
const LADDER: [(f64, usize); 6] = [
    (50.0, 2),
    (90.0, 10),
    (95.0, 20),
    (99.0, 100),
    (99.9, 1_000),
    (99.99, 10_000),
];

/// The reporting rule for a timing's tail: the highest percentile of
/// [`LADDER`] that still has at least ten samples beyond it, so the
/// reported value is never one or two outliers. `None` below 20
/// samples, where not even the median qualifies. Returns the
/// percentile and how many samples lie beyond it.
pub fn tail_percentile(samples: usize) -> Option<(f64, usize)> {
    LADDER
        .iter()
        .rfind(|(_, inv)| samples / inv >= 10)
        .map(|&(p, inv)| (p, samples / inv))
}

/// A timing summarized by the reporting rule.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Timing {
    pub samples: usize,
    pub p50: f64,
    /// The percentile [`tail_percentile`] chose (0 when none qualifies).
    pub tail_pct: f64,
    /// Its value (the maximum when no percentile qualifies).
    pub tail: f64,
}

impl Timing {
    pub fn of(values: &[f64]) -> Self {
        if values.is_empty() {
            return Self::default();
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let (tail_pct, tail) = match tail_percentile(v.len()) {
            Some((p, beyond)) => (p, v[v.len() - beyond - 1]),
            None => (0.0, v[v.len() - 1]),
        };
        Self {
            samples: v.len(),
            p50: median(&v),
            tail_pct,
            tail,
        }
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with quartiles as Python's `statistics.quantiles(v, n=4)`
/// (exclusive method) computes them — the driver's spread.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let n = values.len();
    if n < 2 {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    if med == 0.0 {
        return 0.0;
    }
    (cut(3) - cut(1)) / med.abs()
}

/// Geometric mean of positive values (0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        let pct = |n| tail_percentile(n).map(|(p, _)| p);
        assert_eq!(pct(0), None);
        assert_eq!(pct(19), None);
        assert_eq!(pct(20), Some(50.0));
        assert_eq!(pct(99), Some(50.0));
        assert_eq!(pct(100), Some(90.0));
        assert_eq!(pct(199), Some(90.0));
        assert_eq!(pct(200), Some(95.0));
        assert_eq!(pct(999), Some(95.0));
        assert_eq!(pct(1_000), Some(99.0));
        assert_eq!(pct(10_000), Some(99.9));
        assert_eq!(pct(100_000), Some(99.99));
        assert_eq!(pct(10_000_000), Some(99.99));
        for n in [20, 150, 1_005, 12_345, 999_999] {
            let (_, beyond) = tail_percentile(n).expect("qualifies");
            assert!(beyond >= 10, "{n}: only {beyond} samples beyond the tail");
        }
    }

    #[test]
    fn timing_reports_median_and_the_qualifying_tail() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = Timing::of(&v);
        assert_eq!(t.samples, 1000);
        assert_eq!(t.p50, 500.5);
        assert_eq!(t.tail_pct, 99.0);
        assert_eq!(t.tail, 990.0, "exactly ten samples lie beyond p99");
        let few = Timing::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.p50, few.tail_pct, few.tail), (2.0, 0.0, 3.0));
        assert_eq!(Timing::of(&[]), Timing::default());
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert!((quartile_spread(&[40.0, 10.0, 20.0]) - 1.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[7.0]), 0.0);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
