//! Order statistics over latency samples.

/// Percentiles the tail metric may report, highest first.
pub const TAIL_CANDIDATES: [f64; 6] = [99.0, 97.0, 95.0, 90.0, 75.0, 50.0];

/// Minimum number of samples that must lie beyond a reported tail
/// percentile, so that the figure is not set by one or two outliers.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in `n` sorted samples.
pub fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank position of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n.saturating_sub(rank(n, p))
}

/// Nearest-rank percentile of `sorted` (ascending). `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(sorted.len(), p) - 1]
}

/// Median by the nearest-rank rule (the lower middle for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The tail percentile to report for `n` samples: the highest candidate
/// not above `wanted` that still leaves at least [`MIN_BEYOND`] samples
/// beyond it, falling back to the median.
pub fn tail_percentile(n: usize, wanted: f64) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .filter(|&p| p <= wanted)
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(50.0)
}
