//! Node identifiers.

use std::fmt;
use wormsim_observe::json::Value;
use wormsim_observe::Json;

/// A node (router/processor) in the network, identified by a flat index.
///
/// Node indices are dense: a topology with `N` nodes uses ids `0..N`.
/// Coordinates are recovered through [`Topology::coords`].
///
/// [`Topology::coords`]: crate::Topology::coords
///
/// # Example
///
/// ```
/// use wormsim_topology::{NodeId, Topology};
///
/// let t = Topology::torus(&[4, 4]);
/// let n = NodeId::new(7);
/// assert_eq!(t.coords(n), vec![3, 1]); // dimension 0 varies fastest
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a flat index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the flat index of this node.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the flat index as a `usize`, convenient for table lookups.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A node's JSON form is its flat index.
impl Json for NodeId {
    fn write(&self, out: &mut String) {
        self.0.write(out);
    }

    fn read(value: &Value) -> Result<Self, String> {
        u32::read(value).map(NodeId)
    }
}

impl From<u32> for NodeId {
    fn from(index: u32) -> Self {
        NodeId(index)
    }
}

impl From<NodeId> for u32 {
    fn from(node: NodeId) -> Self {
        node.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_index() {
        let n = NodeId::new(42);
        assert_eq!(n.index(), 42);
        assert_eq!(n.as_usize(), 42);
        assert_eq!(u32::from(n), 42);
        assert_eq!(NodeId::from(42u32), n);
    }

    #[test]
    fn debug_and_display() {
        let n = NodeId::new(7);
        assert_eq!(format!("{n:?}"), "n7");
        assert_eq!(format!("{n}"), "7");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
    }
}
