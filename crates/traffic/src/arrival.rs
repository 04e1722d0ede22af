//! Message arrival processes.

use crate::{SimRng, TrafficError};
use std::fmt;

/// When nodes generate new messages.
///
/// The paper uses geometrically distributed interarrival times, which is
/// exactly a per-cycle Bernoulli process; [`ArrivalProcess::next_gap`]
/// samples the geometric gap directly so idle nodes cost nothing per cycle.
///
/// # Example
///
/// ```
/// use wormsim_traffic::{ArrivalProcess, SimRng};
///
/// let arrivals = ArrivalProcess::geometric(0.02)?;
/// let mut rng = SimRng::seed_from(4);
/// let gap = arrivals.next_gap(&mut rng).unwrap();
/// assert!(gap >= 1);
/// assert!((arrivals.rate() - 0.02).abs() < 1e-12);
/// # Ok::<(), wormsim_traffic::TrafficError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArrivalProcess {
    /// Geometric interarrival times with per-cycle probability `rate`.
    Geometric {
        /// Probability that a node generates a message in a given cycle.
        rate: f64,
    },
    /// Deterministic arrivals every `period` cycles.
    Periodic {
        /// The fixed gap between arrivals, in cycles.
        period: u64,
    },
    /// No arrivals (drained-network experiments).
    Off,
}

impl ArrivalProcess {
    /// Geometric arrivals at the given per-cycle rate.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidRate`] unless `0 <= rate <= 1`.
    pub fn geometric(rate: f64) -> Result<Self, TrafficError> {
        if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
            return Err(TrafficError::InvalidRate { value: rate });
        }
        Ok(if rate == 0.0 {
            ArrivalProcess::Off
        } else {
            ArrivalProcess::Geometric { rate }
        })
    }

    /// The long-run messages-per-cycle rate of this process.
    pub fn rate(&self) -> f64 {
        match self {
            ArrivalProcess::Geometric { rate } => *rate,
            ArrivalProcess::Periodic { period } => 1.0 / *period as f64,
            ArrivalProcess::Off => 0.0,
        }
    }

    /// Samples the gap (in cycles, at least 1) until the next arrival, or
    /// `None` if arrivals are off.
    pub fn next_gap(&self, rng: &mut SimRng) -> Option<u64> {
        match self {
            ArrivalProcess::Geometric { rate } => Some(rng.geometric(*rate)),
            ArrivalProcess::Periodic { period } => Some((*period).max(1)),
            ArrivalProcess::Off => None,
        }
    }
}

impl fmt::Display for ArrivalProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrivalProcess::Geometric { rate } => write!(f, "geometric({rate:.5})"),
            ArrivalProcess::Periodic { period } => write!(f, "periodic({period})"),
            ArrivalProcess::Off => write!(f, "off"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_long_run_rate() {
        let p = ArrivalProcess::geometric(0.1).unwrap();
        let mut rng = SimRng::seed_from(77);
        let n = 50_000;
        let total: u64 = (0..n).map(|_| p.next_gap(&mut rng).unwrap()).sum();
        let rate = n as f64 / total as f64;
        assert!((rate - 0.1).abs() < 0.005, "observed rate {rate}");
    }

    #[test]
    fn zero_rate_becomes_off() {
        let p = ArrivalProcess::geometric(0.0).unwrap();
        assert_eq!(p, ArrivalProcess::Off);
        let mut rng = SimRng::seed_from(1);
        assert_eq!(p.next_gap(&mut rng), None);
        assert_eq!(p.rate(), 0.0);
    }

    #[test]
    fn invalid_rates_rejected() {
        assert!(ArrivalProcess::geometric(-0.1).is_err());
        assert!(ArrivalProcess::geometric(1.5).is_err());
        assert!(ArrivalProcess::geometric(f64::NAN).is_err());
    }

    #[test]
    fn periodic_gap_is_constant() {
        let p = ArrivalProcess::Periodic { period: 10 };
        let mut rng = SimRng::seed_from(1);
        assert_eq!(p.next_gap(&mut rng), Some(10));
        assert!((p.rate() - 0.1).abs() < 1e-12);
    }
}
