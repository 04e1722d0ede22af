//! Stratified (hop-class) latency estimation.

use crate::{ConfidenceInterval, StreamingStats};

/// Accumulates per-stratum observations during one sampling period.
///
/// Strata are the paper's *hop classes*: messages grouped by the number of
/// hops they need. Index `h` holds the latencies of messages whose
/// source–destination distance is `h`.
#[derive(Clone, Debug)]
pub struct SampleAccumulator {
    strata: Vec<StreamingStats>,
    all: StreamingStats,
}

impl SampleAccumulator {
    /// Creates an accumulator with `num_strata` strata.
    pub fn new(num_strata: usize) -> Self {
        SampleAccumulator {
            strata: vec![StreamingStats::new(); num_strata],
            all: StreamingStats::new(),
        }
    }

    /// Records one observation (e.g. a message latency) in `stratum`.
    ///
    /// # Panics
    ///
    /// Panics if `stratum` is out of range.
    pub fn record(&mut self, stratum: usize, value: f64) {
        self.strata[stratum].record(value);
        self.all.record(value);
    }

    /// Total observations across strata.
    pub fn count(&self) -> u64 {
        self.all.count()
    }

    /// The per-stratum statistics.
    pub fn strata(&self) -> &[StreamingStats] {
        &self.strata
    }

    /// Condenses this sampling period into a [`SampleSummary`].
    pub fn summarize(&self) -> SampleSummary {
        SampleSummary {
            strata: self.strata.clone(),
            unweighted: self.all.clone(),
        }
    }
}

/// The condensed result of one sampling period.
#[derive(Clone, Debug)]
pub struct SampleSummary {
    strata: Vec<StreamingStats>,
    unweighted: StreamingStats,
}

impl SampleSummary {
    /// Per-stratum statistics of this sample.
    pub fn strata(&self) -> &[StreamingStats] {
        &self.strata
    }

    /// Statistics over all observations, ignoring strata.
    pub fn unweighted(&self) -> &StreamingStats {
        &self.unweighted
    }

    /// Number of observations in this sample.
    pub fn count(&self) -> u64 {
        self.unweighted.count()
    }
}

/// The paper's stratified population-mean estimator.
///
/// Given stratum weights `w_h` (the exact frequency of hop class `h` under
/// the traffic pattern) and per-stratum sample moments, estimates
///
/// ```text
/// l    = Σ_h w_h · μ_h                (population mean latency)
/// σ_l² = Σ_h w_h² · s_h² / n_h        (variance of that estimate)
/// ```
///
/// Strata with positive weight but *no observations* in the sample are
/// handled by renormalizing over the observed strata — with a footnote-style
/// caveat that this biases towards the observed classes, which matters only
/// for very short samples.
///
/// # Example
///
/// ```
/// use wormsim_stats::{SampleAccumulator, StratifiedEstimator};
///
/// let mut acc = SampleAccumulator::new(2);
/// for _ in 0..100 { acc.record(0, 10.0); }
/// for _ in 0..100 { acc.record(1, 20.0); }
///
/// // Class 0 is 3x as frequent as class 1 in the population, even though
/// // the sample observed them equally often.
/// let est = StratifiedEstimator::new(vec![0.75, 0.25]);
/// let ci = est.estimate(acc.summarize().strata()).unwrap();
/// assert!((ci.mean() - 12.5).abs() < 1e-9);
/// ```
#[derive(Clone, Debug)]
pub struct StratifiedEstimator {
    weights: Vec<f64>,
}

impl StratifiedEstimator {
    /// Creates an estimator with the given stratum weights.
    ///
    /// Weights are normalized to sum to 1.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty, contains a negative value, or sums to
    /// zero.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "need at least one stratum");
        assert!(
            weights.iter().all(|&w| w >= 0.0),
            "weights must be non-negative"
        );
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weights must not all be zero");
        StratifiedEstimator {
            weights: weights.into_iter().map(|w| w / total).collect(),
        }
    }

    /// The normalized stratum weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Estimates the population mean and its confidence interval from
    /// per-stratum statistics.
    ///
    /// Returns `None` if no stratum with positive weight has observations.
    pub fn estimate(&self, strata: &[StreamingStats]) -> Option<ConfidenceInterval> {
        let mut observed_weight = 0.0;
        for (h, w) in self.weights.iter().enumerate() {
            if *w > 0.0 && strata.get(h).is_some_and(|s| s.count() > 0) {
                observed_weight += w;
            }
        }
        if observed_weight <= 0.0 {
            return None;
        }
        let mut mean = 0.0;
        let mut variance = 0.0;
        for (h, w) in self.weights.iter().enumerate() {
            let Some(s) = strata.get(h) else { continue };
            if *w == 0.0 || s.count() == 0 {
                continue;
            }
            let w = w / observed_weight;
            mean += w * s.mean();
            variance += w * w * s.sample_variance() / s.count() as f64;
        }
        Some(ConfidenceInterval::from_mean_and_variance(mean, variance))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_reweight_the_sample() {
        let mut acc = SampleAccumulator::new(3);
        for _ in 0..10 {
            acc.record(0, 1.0);
            acc.record(1, 2.0);
            acc.record(2, 3.0);
        }
        let est = StratifiedEstimator::new(vec![1.0, 0.0, 1.0]);
        let ci = est.estimate(acc.summarize().strata()).unwrap();
        assert!((ci.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn variance_shrinks_with_more_data() {
        let noisy = |n: u64| {
            let mut acc = SampleAccumulator::new(1);
            for i in 0..n {
                acc.record(0, (i % 10) as f64);
            }
            let est = StratifiedEstimator::new(vec![1.0]);
            est.estimate(acc.summarize().strata()).unwrap().half_width()
        };
        assert!(noisy(10_000) < noisy(100));
    }

    #[test]
    fn missing_strata_renormalize() {
        let mut acc = SampleAccumulator::new(2);
        for _ in 0..50 {
            acc.record(0, 4.0);
        }
        // Stratum 1 has weight but no data; the estimate falls back to the
        // observed stratum.
        let est = StratifiedEstimator::new(vec![0.5, 0.5]);
        let ci = est.estimate(acc.summarize().strata()).unwrap();
        assert!((ci.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_sample_gives_none() {
        let acc = SampleAccumulator::new(4);
        let est = StratifiedEstimator::new(vec![0.25; 4]);
        assert!(est.estimate(acc.summarize().strata()).is_none());
    }

    #[test]
    fn exact_when_strata_are_constant() {
        // If each stratum's latency is deterministic, the CI collapses.
        let mut acc = SampleAccumulator::new(2);
        for _ in 0..30 {
            acc.record(0, 10.0);
            acc.record(1, 30.0);
        }
        let est = StratifiedEstimator::new(vec![0.9, 0.1]);
        let ci = est.estimate(acc.summarize().strata()).unwrap();
        assert!((ci.mean() - 12.0).abs() < 1e-12);
        assert_eq!(ci.half_width(), 0.0);
    }

    #[test]
    fn accumulator_counts() {
        let mut acc = SampleAccumulator::new(2);
        acc.record(0, 1.0);
        acc.record(1, 2.0);
        acc.record(1, 3.0);
        assert_eq!(acc.count(), 3);
        let summary = acc.summarize();
        assert_eq!(summary.count(), 3);
        assert_eq!(summary.strata()[1].count(), 2);
        assert!((summary.unweighted().mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_rejected() {
        let _ = StratifiedEstimator::new(vec![0.5, -0.5]);
    }
}
