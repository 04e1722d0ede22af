//! Single-pass moment accumulation.

/// Streaming mean/variance/extrema via Welford's algorithm.
///
/// Numerically stable in a single pass, and mergeable (for combining
/// per-stratum or per-sample statistics).
///
/// # Example
///
/// ```
/// use wormsim_stats::StreamingStats;
///
/// let mut s = StreamingStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StreamingStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl StreamingStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        StreamingStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The unbiased sample variance (divides by `n-1`); 0 below 2 samples.
    pub fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// The population variance (divides by `n`); 0 when empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// The sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// The standard error of the mean, `s / sqrt(n)`; 0 below 2 samples.
    pub fn std_error(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.sample_variance() / self.count as f64).sqrt()
        }
    }

    /// The smallest observation; `+inf` when empty.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// The largest observation; `-inf` when empty.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (Chan et al.).
    pub fn merge(&mut self, other: &StreamingStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        self.m2 +=
            other.m2 + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.mean += delta * other.count as f64 / total as f64;
        self.count = total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl FromIterator<f64> for StreamingStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = StreamingStats::new();
        for x in iter {
            s.record(x);
        }
        s
    }
}

impl Extend<f64> for StreamingStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.record(x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_sane() {
        let s = StreamingStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn matches_two_pass_computation() {
        let data: Vec<f64> = (0..1000).map(|i| ((i * 37) % 100) as f64 * 0.7).collect();
        let s: StreamingStats = data.iter().copied().collect();
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var =
            data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((s.mean() - mean).abs() < 1e-9);
        assert!((s.sample_variance() - var).abs() < 1e-9);
    }

    #[test]
    fn merge_equals_concatenation() {
        let a_data: Vec<f64> = (0..500).map(|i| i as f64 * 0.3).collect();
        let b_data: Vec<f64> = (0..300).map(|i| 100.0 - i as f64).collect();
        let mut a: StreamingStats = a_data.iter().copied().collect();
        let b: StreamingStats = b_data.iter().copied().collect();
        let combined: StreamingStats = a_data.iter().chain(b_data.iter()).copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), combined.count());
        assert!((a.mean() - combined.mean()).abs() < 1e-9);
        assert!((a.sample_variance() - combined.sample_variance()).abs() < 1e-9);
        assert_eq!(a.min(), combined.min());
        assert_eq!(a.max(), combined.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: StreamingStats = [1.0, 2.0, 3.0].into_iter().collect();
        let before = a.clone();
        a.merge(&StreamingStats::new());
        assert_eq!(a, before);
        let mut empty = StreamingStats::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn extrema_track() {
        let s: StreamingStats = [3.0, -1.0, 7.5, 2.0].into_iter().collect();
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 7.5);
    }
}
