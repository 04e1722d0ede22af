//! The paper's dual-criterion convergence controller.

use crate::{ConfidenceInterval, SampleSummary, StratifiedEstimator, StreamingStats};

/// Tunable knobs of the convergence procedure.
///
/// Defaults match the paper: at least 3 samples, at most 15, and both error
/// bounds within 5% of the respective averages.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConvergencePolicy {
    /// Minimum number of samples before convergence may be declared.
    pub min_samples: usize,
    /// Hard cap on samples; the run is cut off after this many.
    pub max_samples: usize,
    /// Relative error tolerance for both criteria (paper: 0.05).
    pub relative_tolerance: f64,
    /// How many of the latest sample means criterion B examines (paper:
    /// "the latest three or more samples").
    pub recent_window: usize,
}

impl Default for ConvergencePolicy {
    fn default() -> Self {
        ConvergencePolicy {
            min_samples: 3,
            max_samples: 15,
            relative_tolerance: 0.05,
            recent_window: 3,
        }
    }
}

/// Where a measurement run stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConvergenceStatus {
    /// Keep sampling.
    NeedMoreSamples,
    /// Both criteria satisfied.
    Converged,
    /// The sample cap was reached without satisfying both criteria.
    MaxSamplesReached,
}

wormsim_observe::json_tags!(ConvergenceStatus {
    NeedMoreSamples = "need_more_samples",
    Converged = "converged",
    MaxSamplesReached = "max_samples_reached",
});

impl ConvergenceStatus {
    /// Whether sampling may stop (converged or capped).
    pub fn is_done(self) -> bool {
        self != ConvergenceStatus::NeedMoreSamples
    }

    /// Whether both criteria were satisfied.
    pub fn is_converged(self) -> bool {
        self == ConvergenceStatus::Converged
    }
}

/// Drives the paper's sampling loop.
///
/// Push one [`SampleSummary`] per sampling period; after each push, check
/// [`status`](Self::status). Convergence requires **both**:
///
/// * **Criterion A** (stratified): the pooled per-hop-class estimator's
///   95% bound is within `relative_tolerance` of the estimated latency.
/// * **Criterion B** (across samples): the 95% bound on the mean of the
///   last `recent_window`+ sample means is within `relative_tolerance`.
pub struct ConvergenceController {
    policy: ConvergencePolicy,
    estimator: StratifiedEstimator,
    samples: Vec<SampleSummary>,
    pooled: Vec<StreamingStats>,
}

impl ConvergenceController {
    /// Creates a controller with hop-class `weights` (one per stratum).
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or invalid
    /// (see [`StratifiedEstimator::new`]).
    pub fn new(policy: ConvergencePolicy, weights: Vec<f64>) -> Self {
        let strata = weights.len();
        ConvergenceController {
            policy,
            estimator: StratifiedEstimator::new(weights),
            samples: Vec::new(),
            pooled: vec![StreamingStats::new(); strata],
        }
    }

    /// Adds one sampling period's result.
    pub fn push_sample(&mut self, sample: SampleSummary) {
        for (pooled, stratum) in self.pooled.iter_mut().zip(sample.strata()) {
            pooled.merge(stratum);
        }
        self.samples.push(sample);
    }

    /// Number of samples taken so far.
    pub fn num_samples(&self) -> usize {
        self.samples.len()
    }

    /// The samples pushed so far.
    pub fn samples(&self) -> &[SampleSummary] {
        &self.samples
    }

    /// Criterion A: the stratified estimate over all pooled observations.
    pub fn estimate(&self) -> Option<ConfidenceInterval> {
        self.estimator.estimate(&self.pooled)
    }

    /// The pooled per-stratum statistics across every sample so far.
    pub fn pooled_strata(&self) -> &[StreamingStats] {
        &self.pooled
    }

    /// Criterion B: the across-sample bound on the mean of recent sample
    /// means.
    pub fn across_sample_interval(&self) -> Option<ConfidenceInterval> {
        let window = self.policy.recent_window.max(2);
        if self.samples.len() < window {
            return None;
        }
        let recent = &self.samples[self.samples.len() - window..];
        let means: StreamingStats = recent
            .iter()
            .filter(|s| s.count() > 0)
            .map(|s| s.unweighted().mean())
            .collect();
        if means.count() < 2 {
            return None;
        }
        Some(ConfidenceInterval::from_mean_and_variance(
            means.mean(),
            means.sample_variance() / means.count() as f64,
        ))
    }

    /// Evaluates the stopping rule.
    pub fn status(&self) -> ConvergenceStatus {
        if self.samples.len() < self.policy.min_samples {
            return ConvergenceStatus::NeedMoreSamples;
        }
        let a_ok = self
            .estimate()
            .is_some_and(|ci| ci.within(self.policy.relative_tolerance));
        let b_ok = self
            .across_sample_interval()
            .is_some_and(|ci| ci.within(self.policy.relative_tolerance));
        if a_ok && b_ok {
            ConvergenceStatus::Converged
        } else if self.samples.len() >= self.policy.max_samples {
            ConvergenceStatus::MaxSamplesReached
        } else {
            ConvergenceStatus::NeedMoreSamples
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SampleAccumulator;

    fn steady_sample(strata: usize, base: f64, jitter: f64, seed: u64) -> SampleSummary {
        let mut acc = SampleAccumulator::new(strata);
        let mut x = seed;
        for i in 0..2_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let noise = ((x >> 33) % 1000) as f64 / 1000.0 - 0.5;
            acc.record((i % strata as u64) as usize, base + jitter * noise);
        }
        acc.summarize()
    }

    #[test]
    fn converges_on_steady_input() {
        let mut c = ConvergenceController::new(ConvergencePolicy::default(), vec![0.5, 0.5]);
        for seed in 0..15 {
            c.push_sample(steady_sample(2, 50.0, 2.0, seed));
            if c.status().is_done() {
                break;
            }
        }
        assert_eq!(c.status(), ConvergenceStatus::Converged);
        assert!(c.num_samples() <= 4, "steady input should converge fast");
        let est = c.estimate().unwrap();
        assert!((est.mean() - 50.0).abs() < 1.0);
    }

    #[test]
    fn never_converges_below_min_samples() {
        let mut c = ConvergenceController::new(ConvergencePolicy::default(), vec![1.0]);
        c.push_sample(steady_sample(1, 10.0, 0.0, 1));
        c.push_sample(steady_sample(1, 10.0, 0.0, 2));
        assert_eq!(c.status(), ConvergenceStatus::NeedMoreSamples);
    }

    #[test]
    fn caps_at_max_samples_on_drifting_input() {
        let policy = ConvergencePolicy {
            max_samples: 6,
            ..Default::default()
        };
        let mut c = ConvergenceController::new(policy, vec![1.0]);
        // Means drifting upward sample over sample never satisfy B.
        for i in 0..10 {
            c.push_sample(steady_sample(1, 10.0 * (i + 1) as f64, 0.1, i));
            if c.status().is_done() {
                break;
            }
        }
        assert_eq!(c.status(), ConvergenceStatus::MaxSamplesReached);
        assert_eq!(c.num_samples(), 6);
    }

    #[test]
    fn across_sample_interval_uses_recent_window() {
        let mut c = ConvergenceController::new(ConvergencePolicy::default(), vec![1.0]);
        assert!(c.across_sample_interval().is_none());
        // Two wild early samples followed by stable ones: the window should
        // eventually only see the stable tail.
        c.push_sample(steady_sample(1, 500.0, 0.0, 1));
        c.push_sample(steady_sample(1, 900.0, 0.0, 2));
        for s in 0..3 {
            c.push_sample(steady_sample(1, 100.0, 1.0, 3 + s));
        }
        let ci = c.across_sample_interval().unwrap();
        assert!(
            (ci.mean() - 100.0).abs() < 1.0,
            "window should exclude early outliers"
        );
    }

    #[test]
    fn pooled_estimate_merges_samples() {
        let mut c = ConvergenceController::new(ConvergencePolicy::default(), vec![1.0]);
        c.push_sample(steady_sample(1, 10.0, 0.0, 1));
        c.push_sample(steady_sample(1, 20.0, 0.0, 2));
        let est = c.estimate().unwrap();
        assert!((est.mean() - 15.0).abs() < 1e-9);
    }
}
