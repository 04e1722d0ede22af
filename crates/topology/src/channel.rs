//! Physical-channel identifiers.

use crate::{Direction, NodeId};
use std::fmt;

/// A unidirectional physical channel, identified by its *source* node and
/// the [`Direction`] it travels.
///
/// Channel ids are dense: a topology with `N` nodes and `n` dimensions uses
/// ids `0..N * 2n`, with `id = node * 2n + direction.index()`. Mesh boundary
/// positions that have no physical link still reserve an id (the simulator
/// simply never uses them), which keeps indexing branch-free.
///
/// # Example
///
/// ```
/// use wormsim_topology::{ChannelId, Direction, NodeId, Sign};
///
/// let c = ChannelId::new(NodeId::new(5), Direction::new(1, Sign::Plus), 2);
/// assert_eq!(c.source(2), NodeId::new(5));
/// assert_eq!(c.direction(2), Direction::new(1, Sign::Plus));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(u32);

impl ChannelId {
    /// Creates the channel leaving `source` in `direction`, for a network
    /// with `num_dims` dimensions.
    pub fn new(source: NodeId, direction: Direction, num_dims: usize) -> Self {
        ChannelId(source.index() * (2 * num_dims as u32) + direction.index() as u32)
    }

    /// Creates a channel id directly from its dense index.
    pub const fn from_index(index: u32) -> Self {
        ChannelId(index)
    }

    /// The dense index of this channel.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// The dense index as `usize`, convenient for table lookups.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// The node this channel leaves from.
    pub fn source(self, num_dims: usize) -> NodeId {
        NodeId::new(self.0 / (2 * num_dims as u32))
    }

    /// The direction this channel travels.
    pub fn direction(self, num_dims: usize) -> Direction {
        Direction::from_index((self.0 % (2 * num_dims as u32)) as usize)
    }
}

impl fmt::Debug for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sign;

    #[test]
    fn dense_packing_roundtrip() {
        for node in 0..10u32 {
            for dir_index in 0..6 {
                let dir = Direction::from_index(dir_index);
                let c = ChannelId::new(NodeId::new(node), dir, 3);
                assert_eq!(c.source(3), NodeId::new(node));
                assert_eq!(c.direction(3), dir);
            }
        }
    }

    #[test]
    fn index_layout_matches_formula() {
        let c = ChannelId::new(NodeId::new(3), Direction::new(1, Sign::Minus), 2);
        // 3 * 4 + (1*2 + 1) = 15
        assert_eq!(c.index(), 15);
        assert_eq!(ChannelId::from_index(15), c);
    }
}
