//! Message-length distributions.

use crate::{SimRng, TrafficError};
use std::fmt;

/// How many flits a new message contains.
///
/// The paper fixes 16-flit messages ("in literature, fixed-length messages
/// with 16, 20, or 24 flits are commonly considered"); the mixed
/// distribution mirrors the 15/31-flit mix of Berman et al. that the paper
/// cites for comparison.
///
/// # Example
///
/// ```
/// use wormsim_traffic::{MessageLength, SimRng};
///
/// let len = MessageLength::fixed(16)?;
/// let mut rng = SimRng::seed_from(1);
/// assert_eq!(len.sample(&mut rng), 16);
/// assert_eq!(len.mean(), 16.0);
/// assert_eq!(len.max(), 16);
/// # Ok::<(), wormsim_traffic::TrafficError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MessageLength {
    /// Every message has exactly this many flits.
    Fixed {
        /// Flits per message.
        flits: u32,
    },
    /// Uniform between `min` and `max` flits inclusive.
    Uniform {
        /// Smallest message, in flits.
        min: u32,
        /// Largest message, in flits.
        max: u32,
    },
    /// Two fixed sizes: `long` with probability `long_fraction`, else
    /// `short`.
    Bimodal {
        /// The short message size, in flits.
        short: u32,
        /// The long message size, in flits.
        long: u32,
        /// Probability of a long message.
        long_fraction: f64,
    },
}

// The worker-wire form (`wormsim::wire`): adding or renaming a tag or
// field here is a wire-protocol change.
wormsim_observe::json_union!(MessageLength, "type" {
    Fixed = "fixed" { flits },
    Uniform = "uniform" { min, max },
    Bimodal = "bimodal" { short, long, long_fraction },
});

impl MessageLength {
    /// Fixed-size messages.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidLength`] if `flits` is zero.
    pub fn fixed(flits: u32) -> Result<Self, TrafficError> {
        if flits == 0 {
            return Err(TrafficError::InvalidLength);
        }
        Ok(MessageLength::Fixed { flits })
    }

    /// Uniformly distributed sizes in `min..=max`.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidLength`] if `min` is zero or exceeds
    /// `max`.
    pub fn uniform(min: u32, max: u32) -> Result<Self, TrafficError> {
        if min == 0 || min > max {
            return Err(TrafficError::InvalidLength);
        }
        Ok(MessageLength::Uniform { min, max })
    }

    /// Bimodal sizes.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidLength`] if either size is zero, and
    /// [`TrafficError::InvalidFraction`] if `long_fraction` is outside
    /// `[0, 1)`.
    pub fn bimodal(short: u32, long: u32, long_fraction: f64) -> Result<Self, TrafficError> {
        if short == 0 || long == 0 {
            return Err(TrafficError::InvalidLength);
        }
        if !(0.0..1.0).contains(&long_fraction) {
            return Err(TrafficError::InvalidFraction {
                value: long_fraction,
            });
        }
        Ok(MessageLength::Bimodal {
            short,
            long,
            long_fraction,
        })
    }

    /// Draws a message length in flits.
    pub fn sample(&self, rng: &mut SimRng) -> u32 {
        match *self {
            MessageLength::Fixed { flits } => flits,
            MessageLength::Uniform { min, max } => min + rng.uniform_below(max - min + 1),
            MessageLength::Bimodal {
                short,
                long,
                long_fraction,
            } => {
                if rng.bernoulli(long_fraction) {
                    long
                } else {
                    short
                }
            }
        }
    }

    /// The mean message length `m_l` used in the paper's Equations 2 and 4.
    pub fn mean(&self) -> f64 {
        match *self {
            MessageLength::Fixed { flits } => flits as f64,
            MessageLength::Uniform { min, max } => (min + max) as f64 / 2.0,
            MessageLength::Bimodal {
                short,
                long,
                long_fraction,
            } => long as f64 * long_fraction + short as f64 * (1.0 - long_fraction),
        }
    }

    /// The largest possible message, used to size cut-through and
    /// store-and-forward buffers.
    pub fn max(&self) -> u32 {
        match *self {
            MessageLength::Fixed { flits } => flits,
            MessageLength::Uniform { max, .. } => max,
            MessageLength::Bimodal { short, long, .. } => short.max(long),
        }
    }

    /// The smallest possible message. Zero only for distributions built by
    /// hand from the enum variants — the constructors reject it — and such
    /// configurations fail experiment validation.
    pub fn min(&self) -> u32 {
        match *self {
            MessageLength::Fixed { flits } => flits,
            MessageLength::Uniform { min, .. } => min,
            MessageLength::Bimodal { short, long, .. } => short.min(long),
        }
    }
}

impl fmt::Display for MessageLength {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MessageLength::Fixed { flits } => write!(f, "{flits} flits"),
            MessageLength::Uniform { min, max } => write!(f, "{min}-{max} flits"),
            MessageLength::Bimodal {
                short,
                long,
                long_fraction,
            } => {
                write!(
                    f,
                    "{short}/{long} flits ({:.0}% long)",
                    long_fraction * 100.0
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_always_same() {
        let len = MessageLength::fixed(16).unwrap();
        let mut rng = SimRng::seed_from(1);
        for _ in 0..100 {
            assert_eq!(len.sample(&mut rng), 16);
        }
    }

    #[test]
    fn uniform_covers_range_and_mean() {
        let len = MessageLength::uniform(4, 8).unwrap();
        let mut rng = SimRng::seed_from(2);
        let mut seen = [false; 9];
        let mut total = 0u64;
        let n = 50_000;
        for _ in 0..n {
            let s = len.sample(&mut rng);
            assert!((4..=8).contains(&s));
            seen[s as usize] = true;
            total += s as u64;
        }
        assert!(seen[4..=8].iter().all(|&s| s));
        assert!((total as f64 / n as f64 - len.mean()).abs() < 0.05);
    }

    #[test]
    fn bimodal_mixes() {
        let len = MessageLength::bimodal(15, 31, 0.5).unwrap();
        assert_eq!(len.mean(), 23.0);
        assert_eq!(len.max(), 31);
        let mut rng = SimRng::seed_from(3);
        let longs = (0..10_000).filter(|_| len.sample(&mut rng) == 31).count();
        assert!((4_700..5_300).contains(&longs));
    }

    #[test]
    fn rejects_invalid() {
        assert!(MessageLength::fixed(0).is_err());
        assert!(MessageLength::uniform(0, 4).is_err());
        assert!(MessageLength::uniform(5, 4).is_err());
        assert!(MessageLength::bimodal(0, 4, 0.5).is_err());
        assert!(MessageLength::bimodal(4, 8, 1.5).is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(MessageLength::fixed(16).unwrap().to_string(), "16 flits");
        assert_eq!(
            MessageLength::uniform(4, 8).unwrap().to_string(),
            "4-8 flits"
        );
    }
}
