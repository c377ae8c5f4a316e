//! The arithmetic behind the host-clock metrics and the accuracy metric.

/// Median / min / max of the timed reps of one host-clock metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// Summarise `samples` (must be non-empty). With `n` reps no percentile
/// above the median has ten samples beyond it, so none is reported.
pub fn summarize(samples: &[f64]) -> Summary {
    assert!(!samples.is_empty(), "a metric needs at least one sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let median = if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    };
    Summary {
        median,
        min: s[0],
        max: s[n - 1],
        n,
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Mean over shapes of |ln(measured / paper)|: 0 means every shape lands
/// on the paper's value, 0.69 means a factor of two off on average.
pub fn logerr(pairs: &[(f64, f64)]) -> f64 {
    pairs
        .iter()
        .map(|(measured, paper)| (measured / paper).ln().abs())
        .sum::<f64>()
        / pairs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_odd_and_even() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.0, 1.0, 3.0, 3));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        assert_eq!(summarize(&[7.0]).median, 7.0);
    }

    #[test]
    fn logerr_on_a_hand_made_table() {
        // Exact hit, factor e high, factor e low: (0 + 1 + 1) / 3.
        let e = std::f64::consts::E;
        let got = logerr(&[(3.0, 3.0), (2.0 * e, 2.0), (5.0 / e, 5.0)]);
        assert!((got - 2.0 / 3.0).abs() < 1e-12, "{got}");
    }

    #[test]
    fn geomean_weighs_cells_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        // Halving any one cell moves the mean by the same factor.
        let a = geomean(&[50.0, 100.0, 8.0]);
        let b = geomean(&[100.0, 50.0, 8.0]);
        assert!((a - b).abs() < 1e-9);
    }
}
