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

    /// The trait default's value bit for bit, without its N(N−1) float
    /// adds: the default adds the same `1/(N-1)` into a bucket once per
    /// ordered pair of distinct nodes at that distance, so a bucket is that
    /// addend summed `count` times in a row, and only the counts need the
    /// topology. Counting costs O(n·k²) integer operations on an n-cube of
    /// radix k; each bucket's sum then costs a few float adds per binade it
    /// passes through (`repeated_sum` proves the sum exact). (The closed
    /// form `DistanceDistribution::uniform` is not bit-identical, and these
    /// weights set injection rates.)
    fn hop_class_weights(&self, topo: &Topology) -> Vec<f64> {
        let p = 1.0 / (self.num_nodes - 1) as f64;
        let mut counts = pair_counts_by_distance(topo);
        // A source is never its own destination.
        counts[0] -= u64::from(topo.num_nodes());
        counts
            .into_iter()
            .map(|count| repeated_sum(p, count) / f64::from(topo.num_nodes()))
            .collect()
    }
}

/// What `count` sequential `w += addend` starting from `w = 0.0` return,
/// bit for bit, in a few steps per binade of `w` instead of `count`.
/// `addend` must be positive.
///
/// Why a run of adds collapses into one: take a binade `[2^e, 2^(e+1))`
/// (for subnormals, `[0, 2^-1022)`). Every double in it is a multiple of
/// one spacing `u`, and so is its top `2^(e+1)`. While `w` is in the
/// binade and the exact sum `w + addend` stays below `2^(e+1)`, the add
/// rounds to the nearest multiple of `u`, and because `w` itself is one,
/// the step it takes is `addend` rounded to a multiple of `u` — the same
/// step every time.
///
/// The one exception is a rounding tie, `addend` exactly halfway between
/// two multiples of `u`: ties-to-even then picks whichever step lands on
/// an even multiple of `u`, which depends on the parity of `w`. After one
/// step that starts and ends inside the binade, `w` is on an even multiple
/// (ties went to even); the step from an even `w` is the even one of the
/// two, so `w` stays even and the step is constant from then on. A step
/// that *enters* the binade proves nothing: it was rounded with the
/// previous binade's spacing, and it may start from an odd multiple.
///
/// So once a plain step stayed inside the binade, the next plain step
/// (`step = next - w`, exact because both lie in one binade) is the step
/// of every add that follows, for as long as the sums stay below
/// `2^(e+1)`. Since `|addend - step| <= u/2`, an add from `w` stays below
/// the top whenever `w + step` is at most one `u` short of it. Counting in
/// units of `u` — the bit patterns of doubles in one binade are those
/// units, offset by a constant — the largest such run `k` is an integer
/// division, and `w += k as f64 * step` is exact: `k * step` and the sum
/// are multiples of `u` below `2^(e+1)`. The remaining adds cross into the
/// next binade, where the argument starts over, so the work is a few adds
/// per binade the sum passes through, at most a few hundred in all.
fn repeated_sum(addend: f64, count: u64) -> f64 {
    debug_assert!(addend > 0.0, "repeated_sum needs a positive addend");
    // Sign and exponent: equal exactly when two positive doubles share a
    // binade.
    let binade = |x: f64| x.to_bits() >> 52;
    let mut w = 0.0_f64;
    let mut left = count;
    // Whether the last add started and ended inside `w`'s binade.
    let mut settled = false;
    while left > 0 {
        let next = w + addend;
        left -= 1;
        let inside = binade(next) == binade(w);
        if inside && settled {
            let (from, to) = (w.to_bits(), next.to_bits());
            if to == from {
                // `addend` is at most half a unit and `w` is even: no
                // later add moves `w`.
                return next;
            }
            let last = ((binade(next) + 1) << 52) - 1;
            let k = ((last - to) / (to - from)).min(left);
            w = next + k as f64 * (next - w);
            left -= k;
        } else {
            w = next;
        }
        settled = inside;
    }
    w
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

    /// The loop [`repeated_sum`] replaces.
    fn sequential_sum(addend: f64, count: u64) -> f64 {
        let mut w = 0.0;
        for _ in 0..count {
            w += addend;
        }
        w
    }

    fn assert_sums_agree(addend: f64, count: u64) {
        assert_eq!(
            repeated_sum(addend, count).to_bits(),
            sequential_sum(addend, count).to_bits(),
            "addend {addend:e} ({:016x}), count {count}",
            addend.to_bits()
        );
    }

    #[test]
    fn repeated_sum_of_nothing_and_of_one_addend() {
        for addend in [1.0, 1.0 / 3.0, 1.0 / 255.0, f64::MIN_POSITIVE, 5e-324] {
            assert_eq!(repeated_sum(addend, 0).to_bits(), 0.0_f64.to_bits());
            assert_eq!(repeated_sum(addend, 1).to_bits(), addend.to_bits());
            assert_sums_agree(addend, 2);
            assert_sums_agree(addend, 3);
        }
        // Past 2^53 an add of 1.0 is a tie that rounds back down: the sum
        // stalls there, which no loop could reach in a test.
        assert_eq!(repeated_sum(1.0, u64::MAX), 2f64.powi(53));
    }

    /// 128x128 and 32x32x32 are left to `tests/golden/uniform_weights.txt`,
    /// which pins their weights through `hop_class_weights`: the loop over
    /// their ~1.3 G adds would take seconds here.
    #[test]
    fn repeated_sum_matches_every_uniform_bucket() {
        for topo in [
            Topology::torus(&[4, 4]),
            Topology::torus(&[8, 8]),
            Topology::torus(&[16, 16]),
            Topology::torus(&[32, 32]),
            Topology::torus(&[64, 64]),
            Topology::torus(&[6, 10]),
            Topology::torus(&[4, 6, 8]),
            Topology::torus(&[8, 8, 8]),
            Topology::torus(&[16, 16, 16]),
            Topology::mesh(&[8, 8]),
            Topology::mesh(&[16, 16]),
        ] {
            let addend = 1.0 / f64::from(topo.num_nodes() - 1);
            for count in pair_counts_by_distance(&topo) {
                assert_sums_agree(addend, count);
            }
        }
    }

    /// A jump whose step is measured on the add that enters a binade ends
    /// one ulp off here: [2^-8, 2^-7) is a binade where this addend is a
    /// rounding tie, so the entering add and the ones after it differ.
    #[test]
    fn repeated_sum_measures_its_step_inside_a_tie_binade() {
        assert_sums_agree(1.0 / 7626.0, 13_677);
    }

    #[test]
    fn repeated_sum_matches_the_loop_on_random_addends() {
        let mut rng = SimRng::seed_from(35);
        // `1/m`, as the uniform weights use.
        for _ in 0..300 {
            let m = 2 + rng.uniform_below(1 << 20);
            assert_sums_agree(1.0 / f64::from(m), u64::from(rng.uniform_below(20_000)));
        }
        // Random significands over twenty binades of magnitude.
        for _ in 0..300 {
            let significand = rng.next_u64() >> 12;
            let exponent = 1023 - 10 + u64::from(rng.uniform_below(20));
            let addend = f64::from_bits(exponent << 52 | significand);
            assert_sums_agree(addend, u64::from(rng.uniform_below(20_000)));
        }
        // Short significands: an odd `b`-bit significand is a rounding tie
        // once the sum's spacing is twice its last bit, which about
        // 2^(53 - b) adds reach, so every count here passes a tie binade.
        for _ in 0..300 {
            let bits = 40 + rng.uniform_below(13);
            let significand = (rng.next_u64() >> (64 - bits)) | 1 | 1 << (bits - 1);
            let addend = significand as f64 * 2f64.powi(-(bits as i32));
            let reach = 1u32 << (54 - bits);
            let count = reach + rng.uniform_below(3 * reach);
            assert_sums_agree(addend, u64::from(count));
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
