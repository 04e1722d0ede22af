//! Bipartite node coloring used by the negative-hop routing schemes.

use std::fmt;

/// The parity (two-coloring class) of a node.
///
/// A node `x = (x_{n-1}, ..., x_0)` is **even** when the sum of its
/// coordinates is even, **odd** otherwise. On bipartite networks (meshes,
/// and tori whose radices are all even) adjacent nodes always have opposite
/// parity, which is the graph coloring the negative-hop schemes of
/// Gopal (1985) and Boppana & Chalasani rely on: a hop from an odd node to
/// an even node is a *negative* hop.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Parity {
    /// Coordinate sum is even (label 1 in the paper's coloring).
    Even,
    /// Coordinate sum is odd (label 2 in the paper's coloring).
    Odd,
}

impl Parity {
    /// Computes the parity of a coordinate sum.
    pub fn of_sum(sum: u64) -> Parity {
        if sum.is_multiple_of(2) {
            Parity::Even
        } else {
            Parity::Odd
        }
    }

    /// Returns the opposite parity.
    pub const fn opposite(self) -> Parity {
        match self {
            Parity::Even => Parity::Odd,
            Parity::Odd => Parity::Even,
        }
    }
}

impl fmt::Display for Parity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parity::Even => write!(f, "even"),
            Parity::Odd => write!(f, "odd"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parity_of_sums() {
        assert_eq!(Parity::of_sum(0), Parity::Even);
        assert_eq!(Parity::of_sum(7), Parity::Odd);
        assert_eq!(Parity::of_sum(8), Parity::Even);
    }

    #[test]
    fn opposite_flips() {
        assert_eq!(Parity::Even.opposite(), Parity::Odd);
        assert_eq!(Parity::Odd.opposite(), Parity::Even);
    }
}
