//! Order statistics over a handful of repeats.

/// One reported number: the median of `n` repeats with their quartiles
/// and extremes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Stat {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Stat {
    /// A number measured once (counts, memory high-water marks).
    pub fn single(value: f64) -> Stat {
        Stat::of(&[value])
    }

    /// Median, quartiles (linear interpolation between order statistics),
    /// minimum and maximum of `values`.
    ///
    /// # Panics
    ///
    /// On an empty slice or a NaN: both mean the caller measured nothing.
    pub fn of(values: &[f64]) -> Stat {
        assert!(!values.is_empty(), "a statistic needs at least one repeat");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
        let n = sorted.len();
        let quantile = |quarter: usize| {
            let position = quarter * (n - 1);
            let (below, rest) = (position / 4, (position % 4) as f64 / 4.0);
            let above = (below + 1).min(n - 1);
            sorted[below] * (1.0 - rest) + sorted[above] * rest
        };
        Stat {
            value: quantile(2),
            q1: quantile(1),
            q3: quantile(3),
            min: sorted[0],
            max: sorted[n - 1],
            n,
        }
    }

    /// Adds up statistics of independent parts of one round, quantile by
    /// quantile (`n` is the smallest part's).
    pub fn sum(parts: &[Stat]) -> Stat {
        let total = |field: fn(&Stat) -> f64| parts.iter().map(field).sum();
        Stat {
            value: total(|s| s.value),
            q1: total(|s| s.q1),
            q3: total(|s| s.q3),
            min: total(|s| s.min),
            max: total(|s| s.max),
            n: parts.iter().map(|s| s.n).min().unwrap_or(0),
        }
    }

    /// `count / self` per repeat: turns a wall-time statistic for a fixed
    /// amount of work into the matching rate (the slowest repeat becomes
    /// the minimum rate).
    pub fn rate_of(self, count: f64) -> Stat {
        Stat {
            value: count / self.value,
            q1: count / self.q3,
            q3: count / self.q1,
            min: count / self.max,
            max: count / self.min,
            n: self.n,
        }
    }
}

/// The median of `key` over `items`.
pub fn median_of<T>(items: &[T], key: impl Fn(&T) -> f64) -> f64 {
    Stat::of(&items.iter().map(key).collect::<Vec<_>>()).value
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_quartiles_and_extremes() {
        let odd = Stat::of(&[3.0, 1.0, 2.0]);
        assert_eq!((odd.value, odd.min, odd.max, odd.n), (2.0, 1.0, 3.0, 3));
        assert_eq!((odd.q1, odd.q3), (1.5, 2.5));
        let even = Stat::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((even.value, even.min, even.max, even.n), (2.5, 1.0, 4.0, 4));
        assert_eq!((even.q1, even.q3), (1.75, 3.25));
        let five = Stat::of(&[10.0, 20.0, 30.0, 40.0, 50.0]);
        assert_eq!((five.q1, five.value, five.q3), (20.0, 30.0, 40.0));
        let one = Stat::single(7.5);
        assert_eq!((one.q1, one.value, one.q3, one.n), (7.5, 7.5, 7.5, 1));
    }

    #[test]
    fn rate_inverts_the_order() {
        let wall = Stat::of(&[2.0, 4.0, 5.0]);
        let rate = wall.rate_of(20.0);
        assert_eq!(
            (rate.value, rate.min, rate.max, rate.n),
            (5.0, 4.0, 10.0, 3)
        );
        assert!(rate.q1 <= rate.value && rate.value <= rate.q3);
    }

    #[test]
    fn sums_add_quantile_by_quantile() {
        let total = Stat::sum(&[Stat::of(&[1.0, 2.0, 3.0]), Stat::of(&[10.0, 20.0])]);
        assert_eq!(
            (total.value, total.min, total.max, total.n),
            (17.0, 11.0, 23.0, 2)
        );
    }

    #[test]
    #[should_panic(expected = "at least one repeat")]
    fn empty_input_is_a_bug() {
        Stat::of(&[]);
    }
}
