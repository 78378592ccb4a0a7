//! Order statistics for the benchmark's samples.
//!
//! Every timing the benchmark reports is a median; the tail it reports
//! next to it is the highest percentile that still has at least ten
//! samples beyond it, so a "p99" is never printed from thirty samples.

/// Median of `values` (mean of the two middle values for an even
/// count). `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The `p`-th percentile (`0 < p < 100`) by the nearest-rank rule.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// The highest of p50/p90/p99/p99.9 that leaves at least ten samples
/// beyond it, with its value: `(percentile, value)`. `None` below
/// twenty samples, where not even the median qualifies.
pub fn supported_tail(values: &[f64]) -> Option<(f64, f64)> {
    // In permille, so that "a tenth of a hundred is ten" holds exactly.
    [999usize, 990, 900, 500]
        .into_iter()
        .find(|permille| values.len() * (1000 - permille) >= 10 * 1000)
        .and_then(|permille| {
            let p = permille as f64 / 10.0;
            percentile(values, p).map(|v| (p, v))
        })
}

/// First and third quartile by the exclusive method — the same numbers
/// Python's `statistics.quantiles(values, n=4)` returns, which is what
/// the acceptance check of this benchmark is phrased in.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() as f64 + 1.0);
        let lo = (pos.floor() as usize).clamp(1, v.len() - 1);
        let frac = pos - lo as f64;
        v[lo - 1] + (v[lo] - v[lo - 1]) * frac
    };
    Some((at(0.25), at(0.75)))
}

/// Rates of equal-sized blocks: `boundaries` holds the clock reading
/// (seconds) at the start and after each block of `per_block` requests.
pub fn block_rates(boundaries: &[f64], per_block: usize) -> Vec<f64> {
    boundaries
        .windows(2)
        .map(|w| per_block as f64 / (w[1] - w[0]))
        .collect()
}

/// A timing sample summarised the way the records print it.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Median of the sample.
    pub median: f64,
    /// `(percentile, value)` of the highest supported tail, if any.
    pub tail: Option<(f64, f64)>,
    /// Sample count.
    pub count: usize,
}

/// Median, or 0 for an empty sample (a metric nothing fed).
pub fn median_or_zero(values: &[f64]) -> f64 {
    median(values).unwrap_or(0.0)
}

/// Summarise a sample; `None` when it is empty.
pub fn summarize(values: &[f64]) -> Option<Summary> {
    Some(Summary {
        median: median(values)?,
        tail: supported_tail(values),
        count: values.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_hand_inputs() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 99.9), Some(100.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let v = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(supported_tail(&v(19)), None);
        assert_eq!(supported_tail(&v(20)).unwrap().0, 50.0);
        assert_eq!(supported_tail(&v(100)).unwrap().0, 90.0);
        assert_eq!(supported_tail(&v(1000)).unwrap().0, 99.0);
        assert_eq!(supported_tail(&v(10_000)).unwrap().0, 99.9);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]).unwrap();
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn block_rates_divide_requests_by_block_time() {
        let rates = block_rates(&[0.0, 0.5, 1.5, 1.75], 100);
        assert_eq!(rates, vec![200.0, 100.0, 400.0]);
        assert_eq!(median(&rates), Some(200.0));
    }
}
