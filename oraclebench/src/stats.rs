//! Order statistics for latency samples.

/// The median and the tail of a sample set. The tail is the highest
/// percentile that still has at least ten samples above it, so it is never
/// read off a handful of outliers. Below 21 samples no percentile above the
/// median has ten samples beyond it, and the maximum stands in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// The median.
    pub p50: f64,
    /// The tail value.
    pub tail: f64,
    /// Which percentile the tail is (100 when the maximum stands in).
    pub tail_pct: f64,
}

impl Summary {
    /// Summarise `samples` (any order). An empty set summarises as zeros.
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        if n == 0 {
            return Summary {
                n,
                p50: 0.0,
                tail: 0.0,
                tail_pct: 100.0,
            };
        }
        let p50 = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        let (tail, tail_pct) = if n > 20 {
            (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64)
        } else {
            (sorted[n - 1], 100.0)
        };
        Summary {
            n,
            p50,
            tail,
            tail_pct,
        }
    }
}

/// The median of `samples` (0 for an empty set).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let summary = Summary::of(&samples);
        assert_eq!(summary.p50, 50.5);
        assert_eq!(summary.tail, 90.0);
        assert_eq!(summary.tail_pct, 90.0);
        let few = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((few.p50, few.tail, few.tail_pct), (2.0, 3.0, 100.0));
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(Summary::of(&twenty).tail, 20.0);
    }
}
