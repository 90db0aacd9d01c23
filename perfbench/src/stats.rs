//! Order statistics over measured samples.

/// Sorted copy of `xs` (NaN-free input assumed; NaNs sort last).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of `xs`; `NaN` when empty.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// The `q`-quantile (0..=1) with linear interpolation between closest
/// ranks; `NaN` when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let v = sorted(xs);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so the
/// spreads this benchmark records match the ones computed over its runs.
/// With fewer than two samples both quartiles equal the only value.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    match v.len() {
        0 => (f64::NAN, f64::NAN),
        1 => (v[0], v[0]),
        n => {
            let m = n as f64 + 1.0;
            let at = |j: f64| {
                let pos = j * m / 4.0;
                let k = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - k as f64;
                v[k - 1] + (v[k] - v[k - 1]) * frac
            };
            (at(1.0), at(3.0))
        }
    }
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
    }
}
