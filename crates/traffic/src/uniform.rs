//! Uniform random traffic.

use crate::{SimRng, TrafficPattern};
use wormsim_topology::{NodeId, Topology};

/// Uniform traffic: every other node is an equally likely destination.
///
/// The paper motivates it as "representative of the traffic generated in
/// massively parallel computations in which array data are distributed
/// among the nodes using hashing techniques".
///
/// # Example
///
/// ```
/// use wormsim_topology::Topology;
/// use wormsim_traffic::{Uniform, TrafficPattern, SimRng};
///
/// let topo = Topology::torus(&[16, 16]);
/// let uniform = Uniform::new(&topo);
/// let mut rng = SimRng::seed_from(1);
/// let dest = uniform.sample_dest(topo.node_at(&[0, 0]), &mut rng);
/// assert_ne!(dest, topo.node_at(&[0, 0]));
/// ```
#[derive(Clone, Debug)]
pub struct Uniform {
    num_nodes: u32,
}

impl Uniform {
    /// Builds uniform traffic for `topo`.
    pub fn new(topo: &Topology) -> Self {
        Uniform {
            num_nodes: topo.num_nodes(),
        }
    }
}

impl TrafficPattern for Uniform {
    fn name(&self) -> String {
        "uniform".to_owned()
    }

    fn sample_dest(&self, src: NodeId, rng: &mut SimRng) -> NodeId {
        let r = rng.uniform_below(self.num_nodes - 1);
        // Skip over the source index to exclude self-traffic without bias.
        NodeId::new(if r >= src.index() { r + 1 } else { r })
    }

    fn dest_distribution(&self, src: NodeId) -> Vec<f64> {
        let p = 1.0 / (self.num_nodes - 1) as f64;
        let mut dist = vec![p; self.num_nodes as usize];
        dist[src.as_usize()] = 0.0;
        dist
    }

    /// The trait default's value bit for bit, in O(n·k²) instead of
    /// O(N²): the default adds the same `1/(N-1)` into a bucket once per
    /// ordered pair of distinct nodes at that distance, so a bucket is that
    /// addend summed `count` times in a row, and only the counts need the
    /// topology. (The closed form `DistanceDistribution::uniform` is not
    /// bit-identical, and these weights set injection rates.)
    fn hop_class_weights(&self, topo: &Topology) -> Vec<f64> {
        let p = 1.0 / (self.num_nodes - 1) as f64;
        let mut counts = pair_counts_by_distance(topo);
        // A source is never its own destination.
        counts[0] -= u64::from(topo.num_nodes());
        counts
            .into_iter()
            .map(|count| {
                let mut weight = 0.0;
                for _ in 0..count {
                    weight += p;
                }
                weight / f64::from(topo.num_nodes())
            })
            .collect()
    }
}

/// Ordered node pairs, a node with itself included, per minimal distance:
/// the per-dimension counts of coordinate pairs per ring (torus) or line
/// (mesh) distance, convolved over the dimensions.
fn pair_counts_by_distance(topo: &Topology) -> Vec<u64> {
    let mut counts = vec![1u64];
    for &k in topo.dims() {
        let k = u64::from(k);
        let per_dim: Vec<u64> = if topo.wraps() {
            // Two coordinates at each ring distance, one at exactly k/2.
            (0..=k / 2)
                .map(|d| if d == 0 || 2 * d == k { k } else { 2 * k })
                .collect()
        } else {
            (0..k)
                .map(|d| if d == 0 { k } else { 2 * (k - d) })
                .collect()
        };
        let mut next = vec![0; counts.len() + per_dim.len() - 1];
        for (a, &pairs_a) in counts.iter().enumerate() {
            for (b, &pairs_b) in per_dim.iter().enumerate() {
                next[a + b] += pairs_a * pairs_b;
            }
        }
        counts = next;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn never_samples_self_and_covers_everything() {
        let topo = Topology::torus(&[4, 4]);
        let uniform = Uniform::new(&topo);
        let src = NodeId::new(7);
        let mut rng = SimRng::seed_from(2);
        let mut seen = [false; 16];
        for _ in 0..2_000 {
            let d = uniform.sample_dest(src, &mut rng);
            assert_ne!(d, src);
            seen[d.as_usize()] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 15);
    }

    #[test]
    fn mean_distance_matches_topology() {
        let topo = Topology::torus(&[16, 16]);
        let uniform = Uniform::new(&topo);
        assert!((uniform.mean_distance(&topo) - topo.uniform_avg_distance()).abs() < 1e-9);
    }

    /// Uniform with the trait's O(N²) `hop_class_weights`.
    #[derive(Debug)]
    struct ByPairs(Uniform);

    impl TrafficPattern for ByPairs {
        fn name(&self) -> String {
            self.0.name()
        }

        fn sample_dest(&self, src: NodeId, rng: &mut SimRng) -> NodeId {
            self.0.sample_dest(src, rng)
        }

        fn dest_distribution(&self, src: NodeId) -> Vec<f64> {
            self.0.dest_distribution(src)
        }
    }

    #[test]
    fn hop_class_weights_equal_the_pairwise_default_bit_for_bit() {
        for topo in [
            Topology::torus(&[4, 4]),
            Topology::torus(&[8, 8]),
            Topology::torus(&[16, 16]),
            Topology::torus(&[32, 32]),
            Topology::torus(&[64, 64]),
            Topology::torus(&[6, 10]),
            Topology::torus(&[8, 8, 8]),
            Topology::torus(&[16, 16, 16]),
            Topology::mesh(&[8, 8]),
            Topology::mesh(&[16, 16]),
        ] {
            let uniform = Uniform::new(&topo);
            let fast: Vec<u64> = uniform
                .hop_class_weights(&topo)
                .iter()
                .map(|w| w.to_bits())
                .collect();
            let pairwise: Vec<u64> = ByPairs(uniform)
                .hop_class_weights(&topo)
                .iter()
                .map(|w| w.to_bits())
                .collect();
            assert_eq!(fast, pairwise, "{topo}");
        }
    }

    #[test]
    fn hop_class_weights_match_distance_distribution() {
        let topo = Topology::torus(&[8, 8]);
        let uniform = Uniform::new(&topo);
        let weights = uniform.hop_class_weights(&topo);
        let exact = topo.uniform_distance_distribution();
        for (h, &w) in weights.iter().enumerate() {
            assert!((w - exact.weight(h)).abs() < 1e-9, "hop class {h}");
        }
    }
}
