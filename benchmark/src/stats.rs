//! Order statistics for pass times and decide latencies.
//!
//! Percentiles are exact nearest-rank order statistics over the raw
//! samples (never bucket ceilings), addressed in parts per million so
//! that p99.999 needs no floating-point rank arithmetic.

/// 10th percentile — the fastest decile `bench.spread_pct.*` measures
/// the median against.
pub const P10: u32 = 100_000;
/// Median (the lower of the middle pair) — the estimator behind every
/// req/s figure and every step-level row.
pub const P50: u32 = 500_000;
/// 99th percentile.
pub const P99: u32 = 990_000;
/// 99.9th percentile.
pub const P999: u32 = 999_000;

/// Percentiles a tail may be reported at, ascending.
const TAIL_LADDER: [u32; 7] = [P50, 900_000, P99, P999, 999_900, 999_990, 999_999];

/// 1-based nearest rank of the `ppm` percentile among `n` samples: the
/// smallest rank with at least `ppm / 10^6` of the samples at or below it.
fn rank(n: usize, ppm: u32) -> usize {
    let n = n as u64;
    (u64::from(ppm) * n).div_ceil(1_000_000).clamp(1, n) as usize
}

/// Nearest-rank percentile of an ascending-sorted, non-empty slice.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn nearest_rank<T: Copy>(sorted: &[T], ppm: u32) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), ppm) - 1]
}

/// The highest percentile on the ladder (p50, p90, p99, p99.9, …) that
/// still has at least ten of `n` samples beyond it, in ppm; `None` when
/// even the median has fewer.
pub fn tail_ppm(n: usize) -> Option<u32> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&ppm| n >= 1 && n - rank(n, ppm) >= 10)
}

/// Sorts `samples` ascending (total order; the harness never produces
/// NaN) and returns them.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of a non-empty sample set, averaging the middle pair — the
/// convention of Python's `statistics.median`, used by `compare`.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Distance between the first and third quartile, by the exclusive
/// method of Python's `statistics.quantiles(values, n=4)` — the spread
/// the acceptance check uses. Zero with fewer than two samples.
pub fn iqr(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let quartile = |q: usize| {
        // Position q·(n+1)/4 (1-based), linearly interpolated and
        // clamped to the sample range.
        let j = (q * (n + 1) / 4).clamp(1, n - 1);
        let delta = (q * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    quartile(3) - quartile(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let ten: Vec<u32> = (1..=10).collect();
        assert_eq!(nearest_rank(&ten, P10), 1);
        assert_eq!(nearest_rank(&ten, P50), 5);
        assert_eq!(nearest_rank(&ten, P99), 10);
        // 20 samples: p10 is the 2nd smallest, not the minimum.
        let twenty: Vec<u32> = (1..=20).collect();
        assert_eq!(nearest_rank(&twenty, P10), 2);
        // 21 samples: ceil(2.1) = 3.
        let twenty_one: Vec<u32> = (1..=21).collect();
        assert_eq!(nearest_rank(&twenty_one, P10), 3);
        // Fewer than ten samples: p10 is the minimum.
        assert_eq!(nearest_rank(&[7.5, 9.0, 11.0], P10), 7.5);
        assert_eq!(nearest_rank(&[42], P999), 42);
        let thousand: Vec<u32> = (1..=1000).collect();
        assert_eq!(nearest_rank(&thousand, P999), 999);
        assert_eq!(nearest_rank(&thousand, P99), 990);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_ppm(0), None);
        assert_eq!(tail_ppm(19), None);
        assert_eq!(tail_ppm(20), Some(P50));
        assert_eq!(tail_ppm(99), Some(P50));
        assert_eq!(tail_ppm(100), Some(900_000));
        // 1000 samples: p99 has exactly ten beyond, p99.9 only one.
        assert_eq!(tail_ppm(1_000), Some(P99));
        assert_eq!(tail_ppm(9_999), Some(P99));
        assert_eq!(tail_ppm(10_000), Some(P999));
        // The paper-point trace and the large trace.
        assert_eq!(tail_ppm(181_607), Some(999_900));
        assert_eq!(tail_ppm(1_711_552), Some(999_990));
    }

    #[test]
    fn median_and_iqr_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr(&ten) - 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert!((iqr(&[1.0, 2.0]) - 1.5).abs() < 1e-12);
        assert_eq!(iqr(&[5.0]), 0.0);
    }
}
