//! The sampling schedule of a measurement run.

use wormsim_stats::ConvergencePolicy;

/// When to warm up, how long to sample, and when to stop — the paper's
/// Section 3 procedure:
///
/// > "sufficient warmup time is provided to allow the network reach steady
/// > state. After the warmup time, the network traffic is sampled at
/// > periodic intervals. ... After each sampling period, new streams of
/// > random numbers are used ... and statistics are not gathered for some
/// > period of time."
///
/// # Example
///
/// ```
/// use wormsim::MeasurementSchedule;
///
/// let default = MeasurementSchedule::default();
/// assert!(default.warmup_cycles > 0);
/// let quick = MeasurementSchedule::quick();
/// assert!(quick.sample_cycles < default.sample_cycles);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MeasurementSchedule {
    /// Cycles simulated before any statistics are gathered.
    pub warmup_cycles: u64,
    /// Length of each sampling period.
    pub sample_cycles: u64,
    /// Unmeasured cycles between samples (RNG streams are re-seeded here).
    pub gap_cycles: u64,
    /// The stopping rule (min/max samples, 5% tolerance).
    pub policy: ConvergencePolicy,
}

impl Default for MeasurementSchedule {
    fn default() -> Self {
        MeasurementSchedule {
            warmup_cycles: 10_000,
            sample_cycles: 5_000,
            gap_cycles: 1_000,
            policy: ConvergencePolicy::default(),
        }
    }
}

impl MeasurementSchedule {
    /// A short schedule for tests and doc examples — statistically rough,
    /// but structurally identical.
    pub fn quick() -> Self {
        MeasurementSchedule {
            warmup_cycles: 1_500,
            sample_cycles: 1_500,
            gap_cycles: 300,
            policy: ConvergencePolicy {
                max_samples: 5,
                ..ConvergencePolicy::default()
            },
        }
    }

    /// A long schedule for saturation points, where the paper notes
    /// "longer warmup and sampling times are needed to achieve
    /// convergence".
    pub fn saturation() -> Self {
        MeasurementSchedule {
            warmup_cycles: 20_000,
            sample_cycles: 10_000,
            gap_cycles: 2_000,
            policy: ConvergencePolicy::default(),
        }
    }

    /// Upper bound on simulated cycles for one run under this schedule.
    pub fn max_cycles(&self) -> u64 {
        self.warmup_cycles + self.policy.max_samples as u64 * (self.sample_cycles + self.gap_cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn max_cycles_bounds_the_run() {
        let s = MeasurementSchedule::default();
        assert_eq!(s.max_cycles(), 10_000 + 15 * (5_000 + 1_000));
    }

    #[test]
    fn quick_is_shorter_than_saturation() {
        assert!(
            MeasurementSchedule::quick().max_cycles()
                < MeasurementSchedule::saturation().max_cycles()
        );
    }
}
