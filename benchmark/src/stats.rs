//! Order statistics over sample sets: the median and percentiles the
//! metrics report, the tail rule that says which percentile a sample count
//! can support, and the quartile spread used to judge run-to-run noise.

/// Median of `values` (mean of the middle two for an even count); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The `q`-th percentile (0..=100) by linear interpolation between the
/// closest ranks, so it moves smoothly as samples are added. `None` when
/// `values` is empty.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Arithmetic mean; `None` when empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Samples that lie strictly beyond the nearest-rank `q`-th percentile of
/// `n` samples (the percentile is the sample at rank `ceil(q·n/100)`).
pub fn samples_beyond(n: usize, q: u32) -> usize {
    n - (q as usize * n).div_ceil(100)
}

/// The highest whole percentile that still has at least ten samples
/// beyond it — the tail a timing report can claim from `n` samples.
/// `None` below eleven samples.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (1..100).rev().find(|&q| samples_beyond(n, q) >= 10)
}

/// First, second and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method). `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (i, q) in (1i64..).zip(out.iter_mut()) {
        // Python clamps j into 1..=n-1 first, then extrapolates with an
        // out-of-range delta when the clamp moved it.
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *q = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread a metric's bound must exceed.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), Some(3.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), Some(2.5));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(5.0));
        assert!(close(percentile(&v, 90.0).unwrap(), 4.6));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        // 100 samples: p90 has exactly ten beyond it, p91 only nine.
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(samples_beyond(100, 91), 9);
        assert_eq!(tail_percentile(100), Some(90));
        // 300 samples support p96 (12 beyond) but not p97 (9 beyond).
        assert_eq!(samples_beyond(300, 96), 12);
        assert_eq!(samples_beyond(300, 97), 9);
        assert_eq!(tail_percentile(300), Some(96));
        // 12 samples: only the low percentiles keep ten beyond.
        assert_eq!(tail_percentile(12), Some(16));
        assert_eq!(tail_percentile(11), Some(9));
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(0), None);
        for n in 11..2000 {
            let q = tail_percentile(n).unwrap();
            assert!(samples_beyond(n, q) >= 10, "n={n} q={q}");
            if q < 99 {
                assert!(
                    samples_beyond(n, q + 1) < 10,
                    "n={n} q={q} is not the highest"
                );
            }
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&ten).unwrap();
        assert!(
            close(q[0], 2.75) && close(q[1], 5.5) && close(q[2], 8.25),
            "{q:?}"
        );
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let q = quartiles(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert!(
            close(q[0], 1.25) && close(q[1], 2.5) && close(q[2], 3.75),
            "{q:?}"
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[1.0, 2.0]).unwrap();
        assert!(
            close(q[0], 0.75) && close(q[1], 1.5) && close(q[2], 2.25),
            "{q:?}"
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_interquartile_range_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!(close(quartile_spread(&ten).unwrap(), (8.25 - 2.75) / 5.5));
        assert_eq!(quartile_spread(&[3.0; 10]), Some(0.0));
        assert_eq!(quartile_spread(&[0.0, 0.0]), None);
    }
}
