//! The [`TrafficPattern`] trait and the [`TrafficConfig`] registry.

use crate::{BitReversal, Complement, Hotspot, Local, SimRng, TrafficError, Transpose, Uniform};
use std::fmt;
use wormsim_topology::{NodeId, Topology};

/// A spatial traffic pattern: where newly generated messages go.
///
/// Implementations must be consistent: [`dest_distribution`] is the exact
/// law of [`sample_dest`], and destinations never equal the source.
///
/// [`dest_distribution`]: TrafficPattern::dest_distribution
/// [`sample_dest`]: TrafficPattern::sample_dest
pub trait TrafficPattern: Send + Sync + fmt::Debug {
    /// Human-readable name (e.g. `"hotspot(4%)"`).
    fn name(&self) -> String;

    /// Draws a destination for a message generated at `src`.
    ///
    /// Never returns `src` itself.
    fn sample_dest(&self, src: NodeId, rng: &mut SimRng) -> NodeId;

    /// The exact destination probabilities from `src`: entry `i` is the
    /// probability that a message from `src` goes to node `i`. Sums to 1;
    /// entry `src` is 0.
    fn dest_distribution(&self, src: NodeId) -> Vec<f64>;

    /// The exact distribution of message distances (hop classes) under this
    /// pattern, averaged over all sources: entry `h` is the probability a
    /// message travels `h` hops.
    ///
    /// These are the stratification weights of the paper's convergence
    /// methodology ("the weights of each hop-class are based on the
    /// frequency with which they appear for the traffic pattern being
    /// simulated").
    fn hop_class_weights(&self, topo: &Topology) -> Vec<f64> {
        let n = topo.num_nodes();
        let mut weights = vec![0.0; topo.diameter() as usize + 1];
        for src in topo.nodes() {
            for (dest, p) in self.dest_distribution(src).iter().enumerate() {
                if *p > 0.0 {
                    weights[topo.distance(src, NodeId::new(dest as u32)) as usize] += p;
                }
            }
        }
        for w in &mut weights {
            *w /= n as f64;
        }
        weights
    }

    /// The exact mean message distance `d̄` under this pattern.
    ///
    /// Used in the paper's Equation 4 to convert between injection rate and
    /// normalized channel utilization.
    fn mean_distance(&self, topo: &Topology) -> f64 {
        self.hop_class_weights(topo)
            .iter()
            .enumerate()
            .map(|(h, w)| h as f64 * w)
            .sum()
    }
}

/// Serializable description of a traffic pattern; [`build`](Self::build)
/// turns it into a live [`TrafficPattern`] for a topology.
///
/// # Example
///
/// ```
/// use wormsim_topology::Topology;
/// use wormsim_traffic::TrafficConfig;
///
/// let topo = Topology::torus(&[16, 16]);
/// // The paper's hotspot workload: node (15,15), 4% hotspot traffic.
/// let cfg = TrafficConfig::Hotspot { nodes: vec![vec![15, 15]], fraction: 0.04 };
/// let pattern = cfg.build(&topo)?;
/// assert_eq!(pattern.name(), "hotspot(4%x1)");
/// # Ok::<(), wormsim_traffic::TrafficError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficConfig {
    /// Uniform random traffic.
    Uniform,
    /// Uniform plus concentrated traffic to one or more hotspot nodes
    /// (given as coordinate vectors) receiving `fraction` of all traffic.
    Hotspot {
        /// Hotspot node coordinates.
        nodes: Vec<Vec<u16>>,
        /// Fraction of traffic directed at the hotspot set.
        fraction: f64,
    },
    /// Destinations uniform in a `(2r+1)^n` neighborhood of the source.
    Local {
        /// Per-dimension radius `r` (the paper's 7×7 region is `r = 3`).
        radius: u16,
    },
    /// Matrix-transpose permutation `(x, y) -> (y, x)`.
    Transpose,
    /// Bit-reversal permutation of the flat node index.
    BitReversal,
    /// Coordinate complement `c -> k-1-c` in every dimension.
    Complement,
}

// The worker-wire form (`wormsim::wire`): adding or renaming a tag or
// field here is a wire-protocol change.
wormsim_observe::json_union!(TrafficConfig, "type" {
    Uniform = "uniform",
    Hotspot = "hotspot" { nodes, fraction },
    Local = "local" { radius },
    Transpose = "transpose",
    BitReversal = "bit_reversal",
    Complement = "complement",
});

impl TrafficConfig {
    /// Builds the pattern for `topo`.
    ///
    /// # Errors
    ///
    /// Propagates the pattern constructor's validation error (bad fraction,
    /// oversized neighborhood, non-square network for transpose, ...).
    pub fn build(&self, topo: &Topology) -> Result<Box<dyn TrafficPattern>, TrafficError> {
        Ok(match self {
            TrafficConfig::Uniform => Box::new(Uniform::new(topo)),
            TrafficConfig::Hotspot { nodes, fraction } => {
                let ids: Vec<NodeId> = nodes
                    .iter()
                    .map(|coords| {
                        if coords.len() != topo.num_dims()
                            || coords.iter().enumerate().any(|(d, &c)| c >= topo.radix(d))
                        {
                            Err(TrafficError::BadHotspots)
                        } else {
                            Ok(topo.node_at(coords))
                        }
                    })
                    .collect::<Result<_, _>>()?;
                Box::new(Hotspot::new(topo, ids, *fraction)?)
            }
            TrafficConfig::Local { radius } => Box::new(Local::new(topo, *radius)?),
            TrafficConfig::Transpose => Box::new(Transpose::new(topo)?),
            TrafficConfig::BitReversal => Box::new(BitReversal::new(topo)?),
            TrafficConfig::Complement => Box::new(Complement::new(topo)),
        })
    }
}

impl fmt::Display for TrafficConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficConfig::Uniform => write!(f, "uniform"),
            TrafficConfig::Hotspot { nodes, fraction } => {
                write!(f, "hotspot({}%x{})", fraction * 100.0, nodes.len())
            }
            TrafficConfig::Local { radius } => write!(f, "local(r={radius})"),
            TrafficConfig::Transpose => write!(f, "transpose"),
            TrafficConfig::BitReversal => write!(f, "bit-reversal"),
            TrafficConfig::Complement => write!(f, "complement"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_every_variant_on_16_torus() {
        let topo = Topology::torus(&[16, 16]);
        let configs = [
            TrafficConfig::Uniform,
            TrafficConfig::Hotspot {
                nodes: vec![vec![15, 15]],
                fraction: 0.04,
            },
            TrafficConfig::Local { radius: 3 },
            TrafficConfig::Transpose,
            TrafficConfig::BitReversal,
            TrafficConfig::Complement,
        ];
        for cfg in configs {
            let p = cfg.build(&topo).unwrap_or_else(|e| panic!("{cfg}: {e}"));
            // Distribution sanity for a few sources.
            for src in [0u32, 17, 255] {
                let dist = p.dest_distribution(NodeId::new(src));
                let total: f64 = dist.iter().sum();
                assert!(
                    (total - 1.0).abs() < 1e-9,
                    "{cfg} from {src}: total {total}"
                );
                assert_eq!(dist[src as usize], 0.0, "{cfg}: no self traffic");
            }
        }
    }

    #[test]
    fn hotspot_rejects_bad_coordinates() {
        let topo = Topology::torus(&[4, 4]);
        let cfg = TrafficConfig::Hotspot {
            nodes: vec![vec![9, 9]],
            fraction: 0.04,
        };
        assert_eq!(cfg.build(&topo).unwrap_err(), TrafficError::BadHotspots);
        let cfg = TrafficConfig::Hotspot {
            nodes: vec![vec![1]],
            fraction: 0.04,
        };
        assert_eq!(cfg.build(&topo).unwrap_err(), TrafficError::BadHotspots);
    }

    #[test]
    fn display_names() {
        assert_eq!(TrafficConfig::Uniform.to_string(), "uniform");
        assert_eq!(TrafficConfig::Local { radius: 3 }.to_string(), "local(r=3)");
    }

    #[test]
    fn sampled_distances_match_hop_class_weights() {
        // Monte-Carlo check that sample_dest agrees with the exact weights.
        let topo = Topology::torus(&[8, 8]);
        let p = TrafficConfig::Local { radius: 2 }.build(&topo).unwrap();
        let weights = p.hop_class_weights(&topo);
        let mut rng = SimRng::seed_from(99);
        let mut counts = vec![0u32; weights.len()];
        let trials = 200_000;
        for i in 0..trials {
            let src = NodeId::new(i % topo.num_nodes());
            let dest = p.sample_dest(src, &mut rng);
            counts[topo.distance(src, dest) as usize] += 1;
        }
        for (h, &w) in weights.iter().enumerate() {
            let observed = counts[h] as f64 / trials as f64;
            assert!(
                (observed - w).abs() < 0.01,
                "hop class {h}: observed {observed}, expected {w}"
            );
        }
    }
}
