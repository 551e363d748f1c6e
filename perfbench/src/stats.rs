//! Order statistics over timing samples.

/// Minimum number of samples that must lie above a reported tail
/// percentile: a tail read off fewer samples is one outlier, not a tail.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Largest value of `xs`. `None` when empty.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter().copied().reduce(f64::max)
}

/// The tail of a latency sample: the highest percentile that still has at
/// least [`TAIL_BEYOND`] samples strictly beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample value at that percentile.
    pub value: f64,
    /// Which percentile it is, `100·(n − 10)/n`.
    pub percentile: f64,
    /// How many samples the percentile was read from.
    pub samples: usize,
}

/// The tail of `xs` by the rule of [`Tail`]: with `n` samples sorted
/// ascending, the value with exactly ten samples above it. `None` when
/// there are ten samples or fewer, since no percentile qualifies.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let s = sorted(xs);
    Some(Tail {
        value: s[n - TAIL_BEYOND - 1],
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        samples: n,
    })
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
    }

    #[test]
    fn tail_keeps_exactly_ten_samples_beyond() {
        // 11 samples: the smallest is the only value with ten above it.
        let eleven: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!(t.value, 1.0);
        assert_eq!(t.samples, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);

        // 1000 samples: the p99 value, with samples 991..=1000 beyond it.
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&thousand).unwrap();
        assert_eq!(t.value, 990.0);
        assert_eq!(t.percentile, 99.0);
        let beyond = thousand.iter().filter(|&&x| x > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_rises_with_sample_count() {
        let small: Vec<f64> = (1..=40).map(f64::from).collect();
        let large: Vec<f64> = (1..=400).map(f64::from).collect();
        assert!(tail(&large).unwrap().percentile > tail(&small).unwrap().percentile);
    }
}
