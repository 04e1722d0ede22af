//! Integer-valued histograms (latency distributions).

/// A dense histogram over non-negative integer values (e.g. cycle counts),
/// growing its bucket array on demand.
///
/// # Example
///
/// ```
/// use wormsim_stats::Histogram;
///
/// let mut h = Histogram::new();
/// for v in [5u64, 5, 7, 9, 100] {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 5);
/// assert_eq!(h.percentile(0.5), 7);
/// assert_eq!(h.max(), 100);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    total: u128,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let idx = value as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.total += value as u128;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total as f64 / self.count as f64
        }
    }

    /// The smallest recorded value; 0 when empty.
    pub fn min(&self) -> u64 {
        self.buckets.iter().position(|&c| c > 0).unwrap_or(0) as u64
    }

    /// The largest recorded value; 0 when empty.
    pub fn max(&self) -> u64 {
        self.buckets.iter().rposition(|&c| c > 0).unwrap_or(0) as u64
    }

    /// The `p`-quantile (0 ≤ p ≤ 1) by lower interpolation; 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (value, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return value as u64;
            }
        }
        self.max()
    }

    /// Iterates over `(value, count)` pairs with non-zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(v, &c)| (v as u64, c))
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.total += other.total;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_behaves() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.99), 0);
    }

    #[test]
    fn percentiles_are_order_statistics() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.01), 1);
        assert_eq!(h.percentile(0.5), 50);
        assert_eq!(h.percentile(1.0), 100);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = Histogram::new();
        a.record(1);
        a.record(2);
        let mut b = Histogram::new();
        b.record(2);
        b.record(50);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.max(), 50);
        let pairs: Vec<_> = a.iter().collect();
        assert_eq!(pairs, vec![(1, 1), (2, 2), (50, 1)]);
    }
}
