//! Minimal-path structure and distance distributions.

use crate::{Sign, Topology};

/// The minimal movement a message must make in one dimension.
///
/// On a torus, when the remaining offset in a dimension is exactly half the
/// radix, *both* directions are minimal ([`DimStep::Both`]); routing
/// algorithms may then pick either.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DimStep {
    /// The dimension is already corrected; no hops needed.
    Done,
    /// Exactly one direction is minimal.
    One {
        /// The minimal direction's sign.
        sign: Sign,
        /// Remaining hops in this dimension.
        dist: u16,
    },
    /// Both directions are minimal (torus, offset exactly `k/2`).
    Both {
        /// Remaining hops in this dimension (either way).
        dist: u16,
    },
}

impl DimStep {
    /// Remaining hops in this dimension along a minimal path.
    pub fn dist(self) -> u16 {
        match self {
            DimStep::Done => 0,
            DimStep::One { dist, .. } | DimStep::Both { dist } => dist,
        }
    }

    /// Whether the given sign is a minimal direction for this step.
    pub fn allows(self, sign: Sign) -> bool {
        match self {
            DimStep::Done => false,
            DimStep::One { sign: s, .. } => s == sign,
            DimStep::Both { .. } => true,
        }
    }
}

/// The complete minimal-path structure between two nodes: one [`DimStep`]
/// per dimension.
///
/// # Example
///
/// ```
/// use wormsim_topology::{Topology, DimStep, Sign};
///
/// let t = Topology::torus(&[8, 8]);
/// let steps = t.minimal_steps(t.node_at(&[0, 0]), t.node_at(&[3, 4]));
/// assert_eq!(steps.total_distance(), 7);
/// assert_eq!(steps.step(0), DimStep::One { sign: Sign::Plus, dist: 3 });
/// assert_eq!(steps.step(1), DimStep::Both { dist: 4 }); // 4 == 8/2
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MinimalSteps {
    steps: Vec<DimStep>,
}

impl MinimalSteps {
    pub(crate) fn new(steps: Vec<DimStep>) -> Self {
        MinimalSteps { steps }
    }

    /// The step required in dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    pub fn step(&self, dim: usize) -> DimStep {
        self.steps[dim]
    }

    /// Iterates over `(dimension, step)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, DimStep)> + '_ {
        self.steps.iter().copied().enumerate()
    }

    /// Total remaining hops along any minimal path.
    pub fn total_distance(&self) -> u32 {
        self.steps.iter().map(|s| s.dist() as u32).sum()
    }

    /// Whether the destination has been reached.
    pub fn is_done(&self) -> bool {
        self.steps.iter().all(|s| matches!(s, DimStep::Done))
    }

    /// The dimensions still to be corrected, lowest first.
    pub fn uncorrected_dims(&self) -> impl Iterator<Item = usize> + '_ {
        self.iter()
            .filter(|(_, s)| !matches!(s, DimStep::Done))
            .map(|(d, _)| d)
    }
}

/// The exact distribution of source–destination distances under uniform
/// traffic (destination chosen uniformly among all nodes except the source).
///
/// Computed by convolving the per-dimension ring/line distance distributions
/// and removing the zero-distance (self) case, so it is exact for any radix
/// mix, not a sampling estimate.
///
/// # Example
///
/// ```
/// use wormsim_topology::{Topology, DistanceDistribution};
///
/// let t = Topology::torus(&[16, 16]);
/// let d = DistanceDistribution::uniform(&t);
/// // The paper quotes an average diameter of 8.03 for uniform traffic on 16^2.
/// assert!((d.mean() - 8.031).abs() < 0.01);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DistanceDistribution {
    probs: Vec<f64>,
    mean: f64,
}

impl DistanceDistribution {
    /// Computes the exact distance distribution for uniform traffic on `topo`.
    pub fn uniform(topo: &Topology) -> Self {
        // Per-dimension distribution of |minimal offset| for a uniformly
        // chosen coordinate pair (including equal coordinates), then
        // convolve across dimensions and drop the all-zero case.
        let mut dist = vec![1.0f64];
        for dim in 0..topo.num_dims() {
            let k = topo.radix(dim) as usize;
            let per_dim = topo.per_dim_distance_histogram(dim);
            let mut next = vec![0.0; dist.len() + per_dim.len() - 1];
            for (a, &pa) in dist.iter().enumerate() {
                for (b, &pb) in per_dim.iter().enumerate() {
                    next[a + b] += pa * pb / k as f64;
                }
            }
            dist = next;
        }
        // `dist` now includes the destination == source case at index 0 with
        // probability 1/N; condition on destination != source.
        let n = topo.num_nodes() as f64;
        let p_self = 1.0 / n;
        dist[0] -= p_self;
        let scale = 1.0 / (1.0 - p_self);
        let mut mean = 0.0;
        for (h, p) in dist.iter_mut().enumerate() {
            *p *= scale;
            mean += h as f64 * *p;
        }
        DistanceDistribution { probs: dist, mean }
    }

    /// Builds a distribution from explicit per-distance probabilities.
    ///
    /// The probabilities are normalized; entries must be non-negative.
    ///
    /// # Panics
    ///
    /// Panics if `probs` is empty, contains a negative value, or sums to zero.
    pub fn from_probs(probs: Vec<f64>) -> Self {
        assert!(!probs.is_empty(), "distance distribution must be non-empty");
        assert!(
            probs.iter().all(|&p| p >= 0.0),
            "distance probabilities must be non-negative"
        );
        let total: f64 = probs.iter().sum();
        assert!(total > 0.0, "distance probabilities must not all be zero");
        let probs: Vec<f64> = probs.into_iter().map(|p| p / total).collect();
        let mean = probs.iter().enumerate().map(|(h, p)| h as f64 * p).sum();
        DistanceDistribution { probs, mean }
    }

    /// The probability that a message travels exactly `hops` hops.
    pub fn weight(&self, hops: usize) -> f64 {
        self.probs.get(hops).copied().unwrap_or(0.0)
    }

    /// All per-distance probabilities, indexed by hop count.
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// The mean distance.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The largest hop count with non-zero probability.
    pub fn max_distance(&self) -> usize {
        self.probs.iter().rposition(|&p| p > 0.0).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dim_step_accessors() {
        assert_eq!(DimStep::Done.dist(), 0);
        assert!(!DimStep::Done.allows(Sign::Plus));
        let one = DimStep::One {
            sign: Sign::Minus,
            dist: 3,
        };
        assert_eq!(one.dist(), 3);
        assert!(one.allows(Sign::Minus));
        assert!(!one.allows(Sign::Plus));
        let both = DimStep::Both { dist: 4 };
        assert!(both.allows(Sign::Plus) && both.allows(Sign::Minus));
    }

    #[test]
    fn uniform_distribution_sums_to_one() {
        for topo in [
            Topology::torus(&[16, 16]),
            Topology::mesh(&[8, 8]),
            Topology::torus(&[4, 4, 4]),
        ] {
            let d = DistanceDistribution::uniform(&topo);
            let total: f64 = d.probs().iter().sum();
            assert!((total - 1.0).abs() < 1e-12, "{total}");
            assert_eq!(d.weight(0), 0.0);
        }
    }

    #[test]
    fn paper_quoted_average_diameter() {
        let t = Topology::torus(&[16, 16]);
        let d = DistanceDistribution::uniform(&t);
        assert!((d.mean() - 8.0 * 256.0 / 255.0).abs() < 1e-9);
    }

    #[test]
    fn paper_quoted_hop_class_weights() {
        // "hop-class 1 has a weight of 0.0157 and hop-class 16 has a weight
        //  of 0.0039, since each node has four neighbors but only one
        //  diametrically opposite node."
        let t = Topology::torus(&[16, 16]);
        let d = DistanceDistribution::uniform(&t);
        assert!((d.weight(1) - 4.0 / 255.0).abs() < 1e-12);
        assert!((d.weight(16) - 1.0 / 255.0).abs() < 1e-12);
    }

    #[test]
    fn max_distance_equals_diameter_for_torus() {
        let t = Topology::torus(&[16, 16]);
        let d = DistanceDistribution::uniform(&t);
        assert_eq!(d.max_distance() as u32, t.diameter());
    }

    #[test]
    fn from_probs_normalizes() {
        let d = DistanceDistribution::from_probs(vec![0.0, 2.0, 2.0]);
        assert!((d.weight(1) - 0.5).abs() < 1e-12);
        assert!((d.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn from_probs_rejects_empty() {
        let _ = DistanceDistribution::from_probs(vec![]);
    }
}
