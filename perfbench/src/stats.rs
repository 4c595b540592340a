//! Order statistics for repeated samples.
//!
//! `quartiles` follows Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so quartiles printed here read the same
//! as those computed from the same values with the standard library.

/// The median of `values` (the mean of the middle two for an even count).
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// The three cut points `(q1, q2, q3)` that split `values` into quarters,
/// as `statistics.quantiles(values, n=4)` computes them. A single sample
/// is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let data = sorted(values);
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    // Signed arithmetic: `delta` is negative when the clamp moves `j` up.
    let (n, m, last) = (4i64, ld as i64 + 1, ld as i64 - 1);
    let cut = |i: i64| {
        let j = (i * m / n).clamp(1, last);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (data[(j - 1) as usize], data[j as usize]);
        (lo * (n as f64 - delta) + hi * delta) / n as f64
    };
    (cut(1), cut(2), cut(3))
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    // Expected values are Python 3's `statistics.quantiles(data, n=4)`.
    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 2.5, 3.75));
        let ten = [10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0];
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        let uneven = [1.0, 7.0, 2.0, 9.0, 4.0, 12.0, 3.0];
        assert_eq!(quartiles(&uneven), (2.0, 4.0, 9.0));
    }
}
