//! Order statistics over small samples of rounds and passes.

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
///
/// Panics on an empty or NaN-bearing sample: both are harness bugs.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in a sample"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank quantile of an already sorted sample.
pub fn quantile_sorted<T: Copy>(sorted: &[T], q: f64) -> T {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&sorted, 0.5), 50);
        assert_eq!(quantile_sorted(&sorted, 0.99), 99);
        assert_eq!(quantile_sorted(&sorted, 0.0), 1);
        assert_eq!(quantile_sorted(&sorted, 1.0), 100);
    }
}
