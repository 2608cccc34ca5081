//! Order statistics and the name rule shared by every report.

/// Median of `values` (mean of the two middle ones for an even count).
/// Panics on an empty slice: every metric has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// First quartile, median and third quartile as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), which is what the acceptance check of the benchmark uses.
/// A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len == 1 {
        return [v[0]; 3];
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Interquartile range: the run-to-run spread that `--compare` holds
/// against a metric's allowance.
pub fn iqr(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    q3 - q1
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let q2 = median(values);
    if q2 == 0.0 {
        0.0
    } else {
        iqr(values) / q2.abs()
    }
}

/// Nearest-rank percentile (`q` in `[0, 1]`) of `values`.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    v[idx]
}

/// Metric and workload names: start with a letter or digit, then at most
/// 64 letters, digits, `_`, `.` and `-` in all.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), [1.0, 2.0, 4.0]);
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), [0.5, 2.0, 3.5]);
        assert_eq!(quartiles(&[5.0]), [5.0; 3]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 1.0).abs() < 1e-15);
        assert_eq!(spread(&[2.0]), 0.0);
    }

    #[test]
    fn percentile_nearest_rank() {
        let v = [10.0, 30.0, 20.0, 50.0, 40.0];
        assert_eq!(percentile(&v, 0.0), 10.0);
        assert_eq!(percentile(&v, 0.5), 30.0);
        assert_eq!(percentile(&v, 1.0), 50.0);
        assert_eq!(percentile(&v, 0.9), 50.0);
    }

    #[test]
    fn name_rule() {
        for ok in ["scf-wide", "core.phase.CholGS-S_s", "9lives", "a"] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "-lead",
            ".lead",
            "has space",
            "slash/no",
            "é",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
