//! Order statistics the benchmark reports: nearest-rank percentiles, the
//! "highest percentile the sample supports" rule, and the quartiles the
//! repeat and compare modes summarise runs with.

/// The nearest-rank `q`-th percentile (0 < q ≤ 100) of an ascending
/// sample: the smallest value with at least `q` % of the sample at or
/// below it. `None` on an empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    Some(sorted[rank(sorted.len(), q)?])
}

/// Zero-based index of the nearest-rank `q`-th percentile in a sample of
/// `len` values. Worked in whole hundredths of a percent: in floating
/// point `99.9 / 100 * 10_000` is a hair above 9990 and its ceiling is
/// one rank too high.
fn rank(len: usize, q: f64) -> Option<usize> {
    if len == 0 {
        return None;
    }
    let hundredths = (q * 100.0).round() as u128;
    let rank = (hundredths * len as u128).div_ceil(10_000) as usize;
    Some(rank.clamp(1, len) - 1)
}

/// The percentiles a tail may be reported at, ascending.
const TAIL_LADDER: [f64; 6] = [50.0, 90.0, 95.0, 99.0, 99.9, 99.99];

/// How many samples must lie beyond a percentile before it is reported.
const TAIL_SUPPORT: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] that still has at least
/// [`TAIL_SUPPORT`] samples strictly beyond its rank, with its value:
/// `(percentile, value)`. `None` when even the median lacks that support.
pub fn supported_tail(sorted: &[f64]) -> Option<(f64, f64)> {
    TAIL_LADDER.iter().rev().find_map(|&q| {
        let at = rank(sorted.len(), q)?;
        (sorted.len() - 1 - at >= TAIL_SUPPORT).then_some((q, sorted[at]))
    })
}

/// Sorts a sample ascending (the order every function here expects).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The median of an ascending sample, averaging the middle pair.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile of an ascending sample, by
/// the exclusive method (`statistics.quantiles(values, n=4)` in Python,
/// which the accepting driver uses): the k-th cut sits at position
/// `k (n + 1) / 4`, interpolated between its neighbours and extrapolated
/// past the ends of a short sample. `None` below two values.
pub fn quartiles(sorted: &[f64]) -> Option<[f64; 3]> {
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        // Taken after the clamp, so a cut outside the sample extrapolates.
        let delta = pos as f64 - 4.0 * j as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some([cut(1), cut(2), cut(3)])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let s = ramp(100);
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 95.0), Some(95.0));
        assert_eq!(percentile(&s, 99.9), Some(100.0));
        assert_eq!(percentile(&ramp(7), 50.0), Some(4.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only one.
        assert_eq!(supported_tail(&ramp(1000)), Some((99.0, 990.0)));
        // One fewer and p99 (rank 990 of 999) keeps only 9 beyond: p95.
        assert_eq!(supported_tail(&ramp(999)), Some((95.0, 950.0)));
        assert_eq!(supported_tail(&ramp(10_000)), Some((99.9, 9990.0)));
        assert_eq!(supported_tail(&ramp(100_000)), Some((99.99, 99_990.0)));
        // 20 samples: the median (rank 10) has exactly 10 beyond it.
        assert_eq!(supported_tail(&ramp(20)), Some((50.0, 10.0)));
        assert_eq!(supported_tail(&ramp(19)), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&ramp(3)), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&ramp(2)), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[4.0]), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&ramp(5)), Some(3.0));
        assert_eq!(median(&ramp(4)), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
