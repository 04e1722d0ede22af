//! A small, fast, reproducible random-number generator.
//!
//! The paper's methodology keeps *separate random-number streams* for
//! destination selection, interarrival times, and so on, and re-seeds them
//! between sampling periods. [`SimRng`] is a PCG-XSH-RR 64/32 generator:
//! 64-bit state, 32-bit output, splittable into independent streams via the
//! odd increment, and identical output on every platform and toolchain —
//! which `rand`'s `SmallRng` explicitly does not guarantee across versions.

/// A PCG-XSH-RR 64/32 pseudo-random generator.
///
/// # Example
///
/// ```
/// use wormsim_traffic::SimRng;
///
/// let mut a = SimRng::seed_from(7);
/// let mut b = SimRng::seed_from(7);
/// assert_eq!(a.next_u32(), b.next_u32()); // fully deterministic
///
/// let mut s = SimRng::stream(7, 3); // independent stream #3 of seed 7
/// let x = s.uniform_below(10);
/// assert!(x < 10);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SimRng {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

impl SimRng {
    /// Creates a generator from a seed, using stream 0.
    pub fn seed_from(seed: u64) -> Self {
        Self::stream(seed, 0)
    }

    /// Creates one of 2⁶³ independent streams for the same seed.
    ///
    /// Streams with different `stream` ids produce statistically
    /// independent sequences — the paper's "separate sequences of random
    /// numbers ... for the distribution of message interarrival time,
    /// selection of destination, etc.".
    pub fn stream(seed: u64, stream: u64) -> Self {
        let mut rng = SimRng {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// The next 32 uniformly distributed bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        (self.next_u32() as u64) << 32 | self.next_u32() as u64
    }

    /// A uniform integer in `0..bound` without modulo bias.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn uniform_below(&mut self, bound: u32) -> u32 {
        assert!(bound > 0, "bound must be positive");
        // Lemire's multiply-shift rejection method.
        loop {
            let x = self.next_u32() as u64;
            let m = x * bound as u64;
            let low = m as u32;
            if low >= bound || low >= (u32::MAX - bound + 1) % bound {
                return (m >> 32) as u32;
            }
        }
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli trial with success probability `p`.
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform_f64() < p
    }

    /// A geometric "gap" sample: the number of cycles until the next
    /// success of a per-cycle Bernoulli(`p`) process, in `1..`.
    ///
    /// Uses inversion, so one uniform sample per gap regardless of `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < p <= 1`.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "p must be in (0, 1]");
        if p >= 1.0 {
            return 1;
        }
        let u = 1.0 - self.uniform_f64(); // in (0, 1]
        let gap = (u.ln() / (1.0 - p).ln()).ceil();
        if gap < 1.0 {
            1
        } else {
            gap as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::seed_from(123);
        let mut b = SimRng::seed_from(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn streams_differ() {
        let mut a = SimRng::stream(123, 0);
        let mut b = SimRng::stream(123, 1);
        let same = (0..100).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(
            same < 3,
            "streams should be nearly disjoint, {same} collisions"
        );
    }

    #[test]
    fn uniform_below_is_in_range_and_roughly_uniform() {
        let mut rng = SimRng::seed_from(9);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[rng.uniform_below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!(
                (9_000..11_000).contains(&c),
                "bucket count {c} far from 10000"
            );
        }
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut rng = SimRng::seed_from(5);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.uniform_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        assert!((sum / 10_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    fn geometric_mean_matches_inverse_rate() {
        let mut rng = SimRng::seed_from(17);
        let p = 0.05;
        let n = 20_000;
        let total: u64 = (0..n).map(|_| rng.geometric(p)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 1.0 / p).abs() < 0.5, "mean {mean} vs {}", 1.0 / p);
    }

    #[test]
    fn geometric_at_p_one_is_always_one() {
        let mut rng = SimRng::seed_from(3);
        for _ in 0..100 {
            assert_eq!(rng.geometric(1.0), 1);
        }
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = SimRng::seed_from(11);
        let hits = (0..100_000).filter(|_| rng.bernoulli(0.3)).count();
        assert!((28_500..31_500).contains(&hits), "{hits}");
    }
}
