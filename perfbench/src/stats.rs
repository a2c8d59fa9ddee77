//! Order statistics over per-op samples.

/// Samples a reported tail must have strictly beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The median of `samples` (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The mean of `samples`, 0 for none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// A tail percentile chosen by [`tail`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile the value sits at (nearest-rank), e.g. `97.5`.
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// How many samples lie beyond it (always [`TAIL_BEYOND`]).
    pub beyond: usize,
    /// The sample count it was taken from.
    pub samples: usize,
}

/// The highest nearest-rank percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it: the `(n − 10)`-th smallest of `n`
/// samples, at percentile `100·(n − 10)/n`. `None` when fewer than
/// `TAIL_BEYOND + 1` samples exist, because no percentile then has ten
/// samples beyond it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let sorted = sorted(samples);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        beyond: TAIL_BEYOND,
        samples: n,
    })
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_tail_with_fewer_than_eleven_samples() {
        assert_eq!(tail(&[]), None);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None, "ten samples leave no percentile with ten beyond it");
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let eleven: Vec<f64> = (1..=11).rev().map(f64::from).collect();
        let t = tail(&eleven).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (1.0, 10, 11));

        let four_hundred: Vec<f64> = (1..=400).map(f64::from).collect();
        let t = tail(&four_hundred).unwrap();
        assert_eq!(t.value, 390.0);
        assert_eq!(t.percentile, 97.5);
        let beyond = four_hundred.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(mean(&[]), 0.0);
    }
}
