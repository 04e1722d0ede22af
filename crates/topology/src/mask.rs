//! Fault masks: views of a [`Topology`] with some channels or nodes dead.
//!
//! A [`ChannelMask`] records which unidirectional physical channels and
//! which nodes of a topology are *dead*. The topology itself is immutable —
//! the mask is a cheap overlay that routing, deadlock analysis, and the
//! simulator consult when iterating channels or generating candidates, so
//! the same `Topology` value can be shared between a healthy network and
//! any number of degraded views of it.
//!
//! Killing a node kills every channel incident to it (both the node's own
//! outgoing channels and the neighbors' channels pointing at it), which
//! makes channel aliveness a single bit lookup on the hot path.
//!
//! # Example
//!
//! ```
//! use wormsim_topology::{ChannelMask, Direction, Sign, Topology};
//!
//! let topo = Topology::torus(&[4, 4]);
//! let mut mask = ChannelMask::all_alive(&topo);
//! assert!(mask.is_trivial());
//!
//! let n = topo.node_at(&[1, 1]);
//! let dir = Direction::new(0, Sign::Plus);
//! mask.kill_channel(topo.channel(n, dir));
//! assert!(!mask.channel_alive(topo.channel(n, dir)));
//! // The reverse channel is a distinct physical channel and stays alive.
//! let back = topo.channel(topo.neighbor(n, dir).unwrap(), dir.opposite());
//! assert!(mask.channel_alive(back));
//! ```

use crate::{ChannelId, Direction, NodeId, Topology};

fn words_for(bits: u32) -> usize {
    (bits as usize).div_ceil(64)
}

/// A set of dead channels and dead nodes overlaid on a [`Topology`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelMask {
    dead_channels: Vec<u64>,
    dead_nodes: Vec<u64>,
    dead_channel_count: u32,
    dead_node_count: u32,
}

impl ChannelMask {
    /// Creates a mask for `topo` with every channel and node alive.
    pub fn all_alive(topo: &Topology) -> Self {
        ChannelMask {
            dead_channels: vec![0; words_for(topo.num_channel_slots())],
            dead_nodes: vec![0; words_for(topo.num_nodes())],
            dead_channel_count: 0,
            dead_node_count: 0,
        }
    }

    /// Whether nothing is dead (the mask is a no-op view).
    pub fn is_trivial(&self) -> bool {
        self.dead_channel_count == 0 && self.dead_node_count == 0
    }

    /// Number of individually killed channels (channels killed as a side
    /// effect of [`kill_node`](Self::kill_node) are included).
    pub fn dead_channel_count(&self) -> u32 {
        self.dead_channel_count
    }

    /// Number of killed nodes.
    pub fn dead_node_count(&self) -> u32 {
        self.dead_node_count
    }

    /// Marks one unidirectional channel dead. Idempotent.
    pub fn kill_channel(&mut self, channel: ChannelId) {
        let i = channel.as_usize();
        let bit = 1u64 << (i % 64);
        if self.dead_channels[i / 64] & bit == 0 {
            self.dead_channels[i / 64] |= bit;
            self.dead_channel_count += 1;
        }
    }

    /// Marks `node` dead, killing every channel incident to it (its own
    /// outgoing channels and each neighbor's channel towards it). Idempotent.
    pub fn kill_node(&mut self, topo: &Topology, node: NodeId) {
        let i = node.index() as usize;
        let bit = 1u64 << (i % 64);
        if self.dead_nodes[i / 64] & bit == 0 {
            self.dead_nodes[i / 64] |= bit;
            self.dead_node_count += 1;
        }
        for dir in Direction::all(topo.num_dims()) {
            if topo.has_channel(node, dir) {
                self.kill_channel(topo.channel(node, dir));
            }
            if let Some(neighbor) = topo.neighbor(node, dir) {
                self.kill_channel(topo.channel(neighbor, dir.opposite()));
            }
        }
    }

    /// Whether `channel` is alive under this mask.
    #[inline]
    pub fn channel_alive(&self, channel: ChannelId) -> bool {
        let i = channel.as_usize();
        self.dead_channels[i / 64] & (1u64 << (i % 64)) == 0
    }

    /// Whether `node` is alive under this mask.
    #[inline]
    pub fn node_alive(&self, node: NodeId) -> bool {
        let i = node.index() as usize;
        self.dead_nodes[i / 64] & (1u64 << (i % 64)) == 0
    }
}

impl Topology {
    /// Like [`Topology::neighbor`], but returns `None` when the connecting
    /// channel is dead under `mask` (a dead destination node implies dead
    /// incident channels, so no separate node check is needed).
    pub fn masked_neighbor(
        &self,
        mask: &ChannelMask,
        node: NodeId,
        direction: Direction,
    ) -> Option<NodeId> {
        if !mask.channel_alive(self.channel(node, direction)) {
            return None;
        }
        self.neighbor(node, direction)
    }

    /// Iterates over all physical channels that exist *and* are alive
    /// under `mask`.
    pub fn live_channels<'a>(
        &'a self,
        mask: &'a ChannelMask,
    ) -> impl Iterator<Item = ChannelId> + 'a {
        self.nodes().flat_map(move |node| {
            Direction::all(self.num_dims()).filter_map(move |dir| {
                if self.has_channel(node, dir) {
                    let ch = self.channel(node, dir);
                    if mask.channel_alive(ch) {
                        return Some(ch);
                    }
                }
                None
            })
        })
    }

    /// BFS over the surviving subgraph: `reachable[d]` is true iff node `d`
    /// can be reached from `src` using only live channels. A dead `src`
    /// reaches nothing (not even itself).
    pub fn reachable_from(&self, mask: &ChannelMask, src: NodeId) -> Vec<bool> {
        let mut reachable = vec![false; self.num_nodes() as usize];
        if !mask.node_alive(src) {
            return reachable;
        }
        reachable[src.index() as usize] = true;
        let mut queue = std::collections::VecDeque::new();
        queue.push_back(src);
        while let Some(node) = queue.pop_front() {
            for dir in Direction::all(self.num_dims()) {
                if let Some(next) = self.masked_neighbor(mask, node, dir) {
                    let i = next.index() as usize;
                    if !reachable[i] {
                        reachable[i] = true;
                        queue.push_back(next);
                    }
                }
            }
        }
        reachable
    }

    /// Whether the surviving subgraph is strongly connected over its alive
    /// nodes (every alive node can reach every other alive node).
    ///
    /// With unidirectional channel faults reachability is not symmetric, so
    /// this checks a BFS from every alive node.
    pub fn surviving_graph_connected(&self, mask: &ChannelMask) -> bool {
        let alive: Vec<NodeId> = self.nodes().filter(|&n| mask.node_alive(n)).collect();
        if alive.is_empty() {
            return false;
        }
        for &src in &alive {
            let reach = self.reachable_from(mask, src);
            if alive.iter().any(|&d| !reach[d.index() as usize]) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sign;

    #[test]
    fn trivial_mask_changes_nothing() {
        let t = Topology::torus(&[4, 4]);
        let mask = ChannelMask::all_alive(&t);
        assert!(mask.is_trivial());
        assert_eq!(
            t.live_channels(&mask).count() as u32,
            t.num_physical_links()
        );
        for node in t.nodes() {
            assert!(mask.node_alive(node));
            for dir in Direction::all(2) {
                assert_eq!(t.masked_neighbor(&mask, node, dir), t.neighbor(node, dir));
            }
        }
    }

    #[test]
    fn kill_channel_is_unidirectional_and_idempotent() {
        let t = Topology::torus(&[4, 4]);
        let mut mask = ChannelMask::all_alive(&t);
        let n = t.node_at(&[1, 1]);
        let dir = Direction::new(0, Sign::Plus);
        mask.kill_channel(t.channel(n, dir));
        mask.kill_channel(t.channel(n, dir));
        assert_eq!(mask.dead_channel_count(), 1);
        assert_eq!(t.masked_neighbor(&mask, n, dir), None);
        let back_src = t.neighbor(n, dir).unwrap();
        assert_eq!(t.masked_neighbor(&mask, back_src, dir.opposite()), Some(n));
        assert_eq!(
            t.live_channels(&mask).count() as u32,
            t.num_physical_links() - 1
        );
    }

    #[test]
    fn kill_node_kills_all_incident_channels() {
        let t = Topology::torus(&[4, 4]);
        let mut mask = ChannelMask::all_alive(&t);
        let n = t.node_at(&[2, 2]);
        mask.kill_node(&t, n);
        assert!(!mask.node_alive(n));
        assert_eq!(mask.dead_node_count(), 1);
        // 4 outgoing + 4 incoming on a 2-D torus.
        assert_eq!(mask.dead_channel_count(), 8);
        for dir in Direction::all(2) {
            assert_eq!(t.masked_neighbor(&mask, n, dir), None);
            let neighbor = t.neighbor(n, dir).unwrap();
            assert_eq!(t.masked_neighbor(&mask, neighbor, dir.opposite()), None);
        }
    }

    #[test]
    fn mesh_boundary_kill_node_counts_only_real_channels() {
        let t = Topology::mesh(&[4, 4]);
        let mut mask = ChannelMask::all_alive(&t);
        mask.kill_node(&t, t.node_at(&[0, 0]));
        // The corner has 2 outgoing + 2 incoming real channels.
        assert_eq!(mask.dead_channel_count(), 4);
    }

    #[test]
    fn reachability_respects_the_mask() {
        let t = Topology::mesh(&[3]);
        // A 3-node line: kill the only forward channel 0 -> 1.
        let mut mask = ChannelMask::all_alive(&t);
        mask.kill_channel(t.channel(t.node_at(&[0]), Direction::new(0, Sign::Plus)));
        let reach = t.reachable_from(&mask, t.node_at(&[0]));
        assert!(reach[0]);
        assert!(!reach[1]);
        assert!(!reach[2]);
        // Backwards still works.
        let back = t.reachable_from(&mask, t.node_at(&[2]));
        assert!(back.iter().all(|&r| r));
        assert!(!t.surviving_graph_connected(&mask));
    }

    #[test]
    fn torus_survives_single_link_loss() {
        let t = Topology::torus(&[4, 4]);
        let mut mask = ChannelMask::all_alive(&t);
        mask.kill_channel(t.channel(t.node_at(&[0, 0]), Direction::new(0, Sign::Plus)));
        assert!(t.surviving_graph_connected(&mask));
    }

    #[test]
    fn dead_source_reaches_nothing() {
        let t = Topology::torus(&[4, 4]);
        let mut mask = ChannelMask::all_alive(&t);
        let n = t.node_at(&[0, 0]);
        mask.kill_node(&t, n);
        let reach = t.reachable_from(&mask, n);
        assert!(reach.iter().all(|&r| !r));
    }
}
