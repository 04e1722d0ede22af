//! Confidence intervals in the paper's `mean ± 2σ̂` form.

use std::fmt;

/// A 95% confidence interval `(mean - 2σ̂, mean + 2σ̂)`.
///
/// The paper: "The 95% confidence interval of the average latency is given
/// by `(l - 2σ_l, l + 2σ_l)`. The value `2σ_l` is the bound on the error of
/// estimation of `l`."
///
/// # Example
///
/// ```
/// use wormsim_stats::ConfidenceInterval;
///
/// let ci = ConfidenceInterval::from_mean_and_variance(100.0, 4.0);
/// assert_eq!(ci.half_width(), 4.0); // 2 * sqrt(4)
/// assert_eq!(ci.low(), 96.0);
/// assert_eq!(ci.high(), 104.0);
/// assert!(ci.relative_error() <= 0.05); // within the paper's 5% criterion
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConfidenceInterval {
    mean: f64,
    half_width: f64,
}

impl ConfidenceInterval {
    /// Builds an interval from an estimate and the variance *of that
    /// estimate* (not of the population).
    pub fn from_mean_and_variance(mean: f64, variance_of_mean: f64) -> Self {
        ConfidenceInterval {
            mean,
            half_width: 2.0 * variance_of_mean.max(0.0).sqrt(),
        }
    }

    /// Builds an interval directly from a mean and half-width.
    pub fn new(mean: f64, half_width: f64) -> Self {
        ConfidenceInterval {
            mean,
            half_width: half_width.max(0.0),
        }
    }

    /// The point estimate.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The error bound `2σ̂`.
    pub fn half_width(&self) -> f64 {
        self.half_width
    }

    /// Lower end of the interval.
    pub fn low(&self) -> f64 {
        self.mean - self.half_width
    }

    /// Upper end of the interval.
    pub fn high(&self) -> f64 {
        self.mean + self.half_width
    }

    /// The error bound relative to the mean (the paper's 5% criterion
    /// compares this against 0.05). Infinite if the mean is zero but the
    /// width is not; zero if both are zero.
    pub fn relative_error(&self) -> f64 {
        if self.half_width == 0.0 {
            0.0
        } else if self.mean == 0.0 {
            f64::INFINITY
        } else {
            (self.half_width / self.mean).abs()
        }
    }

    /// Whether the relative error is within `tolerance`.
    pub fn within(&self, tolerance: f64) -> bool {
        self.relative_error() <= tolerance
    }
}

impl fmt::Display for ConfidenceInterval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3} ± {:.3}", self.mean, self.half_width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_error_edge_cases() {
        assert_eq!(ConfidenceInterval::new(0.0, 0.0).relative_error(), 0.0);
        assert_eq!(
            ConfidenceInterval::new(0.0, 1.0).relative_error(),
            f64::INFINITY
        );
        assert!(ConfidenceInterval::new(100.0, 5.0).within(0.05));
        assert!(!ConfidenceInterval::new(100.0, 5.1).within(0.05));
    }

    #[test]
    fn negative_variance_clamped() {
        let ci = ConfidenceInterval::from_mean_and_variance(10.0, -1e-18);
        assert_eq!(ci.half_width(), 0.0);
    }

    #[test]
    fn display_form() {
        let ci = ConfidenceInterval::new(12.3456, 0.789);
        assert_eq!(ci.to_string(), "12.346 ± 0.789");
    }
}
