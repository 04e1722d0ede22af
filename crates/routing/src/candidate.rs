//! Routing candidates: the output of a routing function.

use std::fmt;
use wormsim_topology::Direction;

/// One option for a message's next hop: a physical-channel [`Direction`] and
/// the virtual-channel *class* the message must reserve on it.
///
/// A class is an index into the algorithm's virtual-channel numbering
/// (`0..num_vc_classes`). The simulator may provision several physical VCs
/// per class (virtual-channel flow control in Dally's sense); a candidate
/// permits any of them.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Candidate {
    direction: Direction,
    vc_class: u8,
}

impl Candidate {
    /// Creates a candidate hop in `direction` on VC class `vc_class`.
    pub const fn new(direction: Direction, vc_class: u8) -> Self {
        Candidate {
            direction,
            vc_class,
        }
    }

    /// The physical-channel direction of this candidate.
    pub const fn direction(self) -> Direction {
        self.direction
    }

    /// The virtual-channel class the message must use.
    pub const fn vc_class(self) -> u8 {
        self.vc_class
    }
}

impl fmt::Debug for Candidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@c{}", self.direction, self.vc_class)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_topology::Sign;

    #[test]
    fn accessors_and_debug() {
        let c = Candidate::new(Direction::new(1, Sign::Minus), 3);
        assert_eq!(c.direction(), Direction::new(1, Sign::Minus));
        assert_eq!(c.vc_class(), 3);
        assert_eq!(format!("{c:?}"), "-1@c3");
    }
}
