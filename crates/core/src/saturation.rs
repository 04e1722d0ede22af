//! Saturation-point search.
//!
//! The paper reads saturation off its curves ("phop and nbc begin to
//! saturate after 0.6, and nhop shows signs of saturation at about 0.55");
//! this module automates that reading with a bisection over offered load,
//! using the throughput criterion that matches how the curves are read:
//! a point is *saturated* when achieved utilization stops tracking offered
//! load.

use crate::{Experiment, ExperimentError, RunResult};

/// Where a configuration saturates.
#[derive(Clone, Debug)]
pub struct SaturationPoint {
    /// Largest probed offered load that still tracked demand.
    pub below: f64,
    /// Smallest probed offered load that exceeded it.
    pub above: f64,
    /// The measurement at `below`.
    pub at_below: RunResult,
    /// The tracking fraction used by the criterion.
    pub tracking_fraction: f64,
}

impl SaturationPoint {
    /// The midpoint estimate of the saturation load.
    pub fn estimate(&self) -> f64 {
        (self.below + self.above) / 2.0
    }
}

impl Experiment {
    /// Locates the offered load at which this configuration saturates:
    /// the point where achieved channel utilization drops below
    /// `tracking_fraction ×` offered load (the network no longer keeps up
    /// with demand), found by bisection within `(0.05, 1.0)`.
    ///
    /// Runs `2 + iterations` measurements; with the quick schedule this is
    /// fast enough for tests, with the default schedule it mirrors how the
    /// paper's curves were read.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors from [`Experiment::run`]. If the
    /// configuration is already saturated at the minimum load, `below`
    /// equals that minimum and `at_below` holds the (saturated)
    /// measurement; if it never saturates below the maximum load, `above`
    /// equals the maximum.
    pub fn find_saturation(
        &self,
        tracking_fraction: f64,
        iterations: usize,
    ) -> Result<SaturationPoint, ExperimentError> {
        let (min_load, max_load) = (0.05, 1.0);
        let saturated = |r: &RunResult| {
            r.achieved_utilization < tracking_fraction * r.offered_load || r.deadlock.is_some()
        };

        let low_run = self.clone().offered_load(min_load).run()?;
        if saturated(&low_run) {
            return Ok(SaturationPoint {
                below: min_load,
                above: min_load,
                at_below: low_run,
                tracking_fraction,
            });
        }
        let high_run = self.clone().offered_load(max_load).run()?;
        let mut below = min_load;
        let mut above = max_load;
        let mut at_below = low_run;
        if !saturated(&high_run) {
            return Ok(SaturationPoint {
                below: max_load,
                above: max_load,
                at_below: high_run,
                tracking_fraction,
            });
        }
        for _ in 0..iterations {
            let mid = (below + above) / 2.0;
            let run = self.clone().offered_load(mid).run()?;
            if saturated(&run) {
                above = mid;
            } else {
                below = mid;
                at_below = run;
            }
        }
        Ok(SaturationPoint {
            below,
            above,
            at_below,
            tracking_fraction,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MeasurementSchedule;
    use wormsim_routing::AlgorithmKind;
    use wormsim_topology::Topology;

    fn base(algorithm: AlgorithmKind) -> Experiment {
        Experiment::new(Topology::torus(&[8, 8]), algorithm)
            .schedule(MeasurementSchedule::quick())
            .seed(77)
    }

    #[test]
    fn phop_saturates_later_than_ecube() {
        let ecube = base(AlgorithmKind::Ecube)
            .find_saturation(0.9, 3)
            .expect("search runs");
        let phop = base(AlgorithmKind::PositiveHop)
            .find_saturation(0.9, 3)
            .expect("search runs");
        assert!(
            phop.estimate() > ecube.estimate() + 0.1,
            "phop saturates at {:.2}, ecube at {:.2}",
            phop.estimate(),
            ecube.estimate()
        );
        assert!(ecube.below <= ecube.above);
    }

    #[test]
    fn bracketing_invariant() {
        let p = base(AlgorithmKind::NegativeHop)
            .find_saturation(0.9, 4)
            .expect("search runs");
        assert!(p.below <= p.above);
        assert!((0.05..=1.0).contains(&p.estimate()));
        assert_eq!(p.tracking_fraction, 0.9);
        // The point below saturation really does track offered load.
        assert!(p.at_below.achieved_utilization >= 0.9 * p.at_below.offered_load - 1e-9);
    }
}
