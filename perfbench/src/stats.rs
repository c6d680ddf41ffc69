//! Order statistics used by every workload: medians, nearest-rank
//! percentiles, the quartiles Python's `statistics.quantiles(n=4)`
//! reports, and the tail-percentile rule (the highest percentile that
//! still has at least ten samples beyond it).

/// Percentile ladder the tail rule picks from, highest first, in
/// tenths of a percent (integer rank arithmetic: `99.9 / 100 * n` in
/// floating point can round up past an exact rank).
const TAIL_LADDER_PERMILLE: [usize; 5] = [999, 990, 950, 900, 750];

/// Samples a reported percentile must have beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Returns a sorted copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let permille = (p * 10.0).round().clamp(0.0, 1000.0) as usize;
    sorted[rank(sorted.len(), permille)]
}

/// Zero-based index of the nearest-rank percentile (given in tenths of
/// a percent) among `n` samples.
fn rank(n: usize, permille: usize) -> usize {
    (permille * n).div_ceil(1000).clamp(1, n) - 1
}

/// The tail percentile `n` samples support: the highest ladder
/// percentile with at least [`TAIL_MIN_BEYOND`] samples beyond it. A
/// closed loop of long operations has fewer than eleven samples; there
/// the highest rung with at least one sample beyond it stands in (p75
/// for 4–7 samples), because the worst of a handful of samples mostly
/// measures noise. Under four samples it is the worst one (100).
///
/// Workloads pass the sample count a run is *guaranteed* to reach, not
/// the count it happened to reach, so the reported percentile is the
/// same on every run.
pub fn tail_percentile(n: usize) -> f64 {
    for min_beyond in [TAIL_MIN_BEYOND, 1] {
        for pm in TAIL_LADDER_PERMILLE {
            if n > 0 && n - 1 - rank(n, pm) >= min_beyond {
                return pm as f64 / 10.0;
            }
        }
    }
    100.0
}

/// Quartiles by the same rule as Python's `statistics.quantiles(data,
/// n=4)` (the default "exclusive" method). Needs two or more values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    /// Reference values from Python:
    /// `statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)`
    /// is `[2.75, 5.5, 8.25]`; for `[1, 2, 3, 4]` it is
    /// `[1.25, 2.5, 3.75]`; for `[5, 1]` it extrapolates to
    /// `[0.0, 3.0, 6.0]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some([1.25, 2.5, 3.75]));
        assert_eq!(quartiles(&[5.0, 1.0]), Some([0.0, 3.0, 6.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: p99 has 10 beyond it, p99.9 only 1.
        assert_eq!(tail_percentile(1000), 99.0);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        // 10_000 samples reach p99.9.
        assert_eq!(tail_percentile(10_000), 99.9);
        // 200 samples: p95 leaves 10 beyond, p99 only 2.
        assert_eq!(tail_percentile(200), 95.0);
        // 999 samples: p99 leaves 9 beyond, so p95 is reported.
        assert_eq!(tail_percentile(999), 95.0);
        // A handful of samples: the highest rung with one beyond it.
        assert_eq!(tail_percentile(5), 75.0);
        assert_eq!(percentile(&sorted(&[5.0, 1.0, 3.0, 2.0, 4.0]), 75.0), 4.0);
        assert_eq!(tail_percentile(10), 90.0);
        // Too few samples for any rung: the worst sample.
        assert_eq!(tail_percentile(3), 100.0);
    }
}
