//! Directions of travel along network dimensions.

use std::fmt;
use wormsim_observe::json::Value;
use wormsim_observe::{json_tags, Json};

/// The sign of travel along a dimension.
///
/// `Plus` increases the coordinate (modulo the radix on a torus); `Minus`
/// decreases it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Sign {
    /// Travel towards increasing coordinates.
    Plus,
    /// Travel towards decreasing coordinates.
    Minus,
}

impl Sign {
    /// Returns the opposite sign.
    ///
    /// ```
    /// use wormsim_topology::Sign;
    /// assert_eq!(Sign::Plus.opposite(), Sign::Minus);
    /// ```
    pub const fn opposite(self) -> Sign {
        match self {
            Sign::Plus => Sign::Minus,
            Sign::Minus => Sign::Plus,
        }
    }

    /// Returns `0` for `Plus` and `1` for `Minus`; used to pack directions.
    pub const fn bit(self) -> usize {
        match self {
            Sign::Plus => 0,
            Sign::Minus => 1,
        }
    }
}

json_tags!(Sign {
    Plus = "+",
    Minus = "-"
});

impl fmt::Display for Sign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A unidirectional direction of travel: a dimension plus a [`Sign`].
///
/// A node of an `n`-dimensional network has `2n` outgoing directions. The
/// packed form ([`Direction::index`]) enumerates them as
/// `dim * 2 + sign.bit()`, giving `+0, -0, +1, -1, ...`.
///
/// # Example
///
/// ```
/// use wormsim_topology::{Direction, Sign};
///
/// let d = Direction::new(1, Sign::Minus);
/// assert_eq!(d.index(), 3);
/// assert_eq!(Direction::from_index(3), d);
/// assert_eq!(d.opposite(), Direction::new(1, Sign::Plus));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Direction {
    dim: u8,
    sign: Sign,
}

impl Direction {
    /// Creates a direction along `dim` with the given `sign`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` exceeds `u8::MAX`.
    pub fn new(dim: usize, sign: Sign) -> Self {
        Direction {
            dim: u8::try_from(dim).expect("dimension out of range"),
            sign,
        }
    }

    /// The dimension this direction travels along.
    pub const fn dim(self) -> usize {
        self.dim as usize
    }

    /// The sign of travel.
    pub const fn sign(self) -> Sign {
        self.sign
    }

    /// The direction with the same dimension and opposite sign.
    pub const fn opposite(self) -> Direction {
        Direction {
            dim: self.dim,
            sign: self.sign.opposite(),
        }
    }

    /// Packs this direction into a dense index `dim * 2 + sign.bit()`.
    pub const fn index(self) -> usize {
        self.dim as usize * 2 + self.sign.bit()
    }

    /// Recovers a direction from its packed [`index`](Self::index).
    pub fn from_index(index: usize) -> Direction {
        let sign = if index.is_multiple_of(2) {
            Sign::Plus
        } else {
            Sign::Minus
        };
        Direction::new(index / 2, sign)
    }

    /// Iterates over all `2n` directions of an `n`-dimensional network,
    /// in packed-index order.
    ///
    /// ```
    /// use wormsim_topology::Direction;
    /// let dirs: Vec<_> = Direction::all(2).collect();
    /// assert_eq!(dirs.len(), 4);
    /// assert_eq!(dirs[0].index(), 0);
    /// ```
    pub fn all(num_dims: usize) -> impl Iterator<Item = Direction> {
        (0..num_dims * 2).map(Direction::from_index)
    }
}

/// A direction's JSON form is its packed [`index`](Direction::index),
/// range-checked on the way in: [`Direction::from_index`] panics past
/// dimension 255, and trace files and worker requests are outside input.
impl Json for Direction {
    fn write(&self, out: &mut String) {
        self.index().write(out);
    }

    fn read(value: &Value) -> Result<Self, String> {
        let index = usize::read(value)?;
        if index / 2 > usize::from(u8::MAX) {
            return Err(format!("{index} is out of packed-direction range"));
        }
        Ok(Direction::from_index(index))
    }
}

impl fmt::Debug for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.sign, self.dim)
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.sign, self.dim)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packed_index_roundtrip() {
        for i in 0..8 {
            assert_eq!(Direction::from_index(i).index(), i);
        }
    }

    #[test]
    fn opposite_is_involution() {
        for i in 0..8 {
            let d = Direction::from_index(i);
            assert_eq!(d.opposite().opposite(), d);
            assert_eq!(d.opposite().dim(), d.dim());
            assert_ne!(d.opposite().sign(), d.sign());
        }
    }

    #[test]
    fn all_enumerates_in_order() {
        let dirs: Vec<_> = Direction::all(3).collect();
        assert_eq!(dirs.len(), 6);
        for (i, d) in dirs.iter().enumerate() {
            assert_eq!(d.index(), i);
        }
    }

    #[test]
    fn json_form_is_the_checked_packed_index() {
        use wormsim_observe::{json, JsonRecord};
        let d = Direction::new(255, Sign::Minus);
        assert_eq!(d.to_json(), "511");
        assert_eq!(Direction::read(&json::from_str("511").unwrap()), Ok(d));
        assert!(Direction::read(&json::from_str("512").unwrap()).is_err());
        assert!(Direction::read(&json::from_str("1000").unwrap()).is_err());
        assert_eq!(
            Sign::read(&json::from_str("\"-\"").unwrap()),
            Ok(Sign::Minus)
        );
    }

    #[test]
    fn display_forms() {
        assert_eq!(Direction::new(0, Sign::Plus).to_string(), "+0");
        assert_eq!(Direction::new(2, Sign::Minus).to_string(), "-2");
    }
}
