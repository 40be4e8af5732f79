//! Exact order statistics over per-op latencies.

/// Nearest-rank percentile of sorted samples: the smallest value with at
/// least `q` of the samples at or below it.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of floating-point values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Per-op latency summary of one timed region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    pub samples: usize,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Samples strictly above the p99 value; the p99 is only reported
    /// with confidence when this is at least ten.
    pub beyond_p99: usize,
}

impl Latency {
    pub fn of(mut nanos: Vec<u64>) -> Latency {
        nanos.sort_unstable();
        let p99 = percentile_sorted(&nanos, 0.99);
        Latency {
            samples: nanos.len(),
            p50_us: percentile_sorted(&nanos, 0.50) as f64 / 1e3,
            p99_us: p99 as f64 / 1e3,
            beyond_p99: nanos.len() - nanos.partition_point(|&x| x <= p99),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&v, 0.0), 1);
        assert_eq!(percentile_sorted(&[], 0.5), 0);
    }

    #[test]
    fn latency_summary_counts_the_tail() {
        let nanos: Vec<u64> = (1..=2_000).rev().map(|i| i * 1_000).collect();
        let l = Latency::of(nanos);
        assert_eq!(l.samples, 2_000);
        assert_eq!(l.p50_us, 1_000.0);
        assert_eq!(l.p99_us, 1_980.0);
        assert_eq!(l.beyond_p99, 20);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
