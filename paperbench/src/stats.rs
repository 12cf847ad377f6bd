//! Summary statistics over timing samples.

/// Median of a sample (mean of the two middle values for an even count).
/// Returns 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in 0..=100) with the sample count it was
/// taken over. Returns `(0, 0)` for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> (f64, usize) {
    if xs.is_empty() {
        return (0.0, 0);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    (v[rank.clamp(1, v.len()) - 1], v.len())
}

/// Geometric mean of positive values; non-positive values are skipped
/// (a program that took no measurable time cannot be averaged in log
/// space). Returns 0 when nothing is left.
pub fn geomean(xs: &[f64]) -> f64 {
    let logs: Vec<f64> = xs.iter().filter(|x| **x > 0.0).map(|x| x.ln()).collect();
    if logs.is_empty() {
        return 0.0;
    }
    (logs.iter().sum::<f64>() / logs.len() as f64).exp()
}

/// Arithmetic mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentile_reports_its_sample_count() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), (50.0, 100));
        assert_eq!(percentile(&xs, 99.0), (99.0, 100));
        assert_eq!(percentile(&xs, 100.0), (100.0, 100));
        // Nearest rank never interpolates: p99 of 20 samples is the max.
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&few, 99.0), (20.0, 20));
        assert_eq!(percentile(&few, 0.0), (1.0, 20));
        assert_eq!(percentile(&[], 50.0), (0.0, 0));
    }

    #[test]
    fn geometric_mean_weighs_ratios_not_magnitudes() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        // Halving a small program moves the geomean as much as halving a
        // large one.
        let base = geomean(&[1.0, 1000.0]);
        assert!((geomean(&[0.5, 1000.0]) - geomean(&[1.0, 500.0])).abs() < 1e-9);
        assert!(geomean(&[0.5, 1000.0]) < base);
        assert_eq!(geomean(&[0.0, 4.0]), 4.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn mean_of_sample() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
