//! Order statistics over small samples: nearest-rank quantiles, the median,
//! the median absolute deviation and the interquartile range.

/// The `q`-quantile (0 ≤ q ≤ 1) by the nearest-rank method: the smallest
/// sample with at least `q·n` samples at or below it. `NaN` for no samples.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    let dev: Vec<f64> = values.iter().map(|v| (v - m).abs()).collect();
    median(&dev)
}

/// Distance between the nearest-rank first and third quartiles.
pub fn iqr(values: &[f64]) -> f64 {
    quantile(values, 0.75) - quantile(values, 0.25)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(quantile(&v, 0.05), 15.0);
        assert_eq!(quantile(&v, 0.30), 20.0);
        assert_eq!(quantile(&v, 0.40), 20.0);
        assert_eq!(quantile(&v, 0.50), 35.0);
        assert_eq!(quantile(&v, 1.00), 50.0);
        assert_eq!(quantile(&v, 0.0), 15.0);
        // Order of the input does not matter.
        assert_eq!(median(&[40.0, 15.0, 50.0, 35.0, 20.0]), 35.0);
        // Even count: the lower middle sample.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.0);
        // p90 of 1..=100 is the 90th sample.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&hundred, 0.9), 90.0);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn mad_and_iqr() {
        // Median 2; deviations 1,1,0,0,2,4,7 → median 1.
        let v = [1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0];
        assert_eq!(median(&v), 2.0);
        assert_eq!(mad(&v), 1.0);
        // Ranks ceil(0.25·7)=2 and ceil(0.75·7)=6: 1 and 6.
        assert_eq!(iqr(&v), 5.0);
        assert_eq!(mad(&[5.0, 5.0, 5.0]), 0.0);
    }
}
