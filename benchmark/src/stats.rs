//! Order statistics and the block-median estimators the end-to-end
//! metrics use.

/// Nearest-rank percentile `sorted[max(1, ceil(q·n)) - 1]` (0 when
/// empty). `q` in `(0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median, averaging the two middle values of an even count.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Splits `items` into `blocks` consecutive runs of near-equal length
/// (fewer when there are not enough items).
pub fn blocks<T>(items: &[T], blocks: usize) -> Vec<&[T]> {
    let blocks = blocks.min(items.len()).max(1);
    let mut out = Vec::with_capacity(blocks);
    for b in 0..blocks {
        let lo = b * items.len() / blocks;
        let hi = (b + 1) * items.len() / blocks;
        out.push(&items[lo..hi]);
    }
    out
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) — the
/// driver's steadiness measure.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let quantile = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    let mid = median(&sorted);
    if mid == 0.0 {
        return 0.0;
    }
    (quantile(3) - quantile(1)) / mid
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&values) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 10.0);
        assert_eq!(percentile(&values, 0.9), 18.0);
        assert_eq!(median(&values), 10.5);
    }

    #[test]
    fn blocks_cover_everything_once() {
        let items: Vec<u32> = (0..23).collect();
        let split = blocks(&items, 5);
        assert_eq!(split.len(), 5);
        assert_eq!(split.iter().map(|b| b.len()).sum::<usize>(), 23);
    }
}
