//! Per-message routing state carried by a message's head flit.

use crate::Candidate;
use wormsim_topology::{NodeId, Parity, Topology};

/// The routing metadata a message carries through the network.
///
/// All six algorithms read from (subsets of) this state and it is advanced
/// uniformly by [`MessageRouteState::advance`] after every hop:
///
/// * `hops_taken` — positive-hop (phop) class,
/// * `negative_hops` — negative-hop (nhop/nbc) class component,
/// * `base_class` — the class the first hop actually used (nbc bonus cards),
/// * `tag` — the 2pn direction tag, set once by `init_message`,
/// * `crossed_datelines` — per-dimension wrap-around crossing bits
///   (e-cube / north-last torus classes).
///
/// The struct is `Hash`/`Eq` so that the deadlock checker can enumerate
/// reachable states exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MessageRouteState {
    src: NodeId,
    dest: NodeId,
    hops_taken: u16,
    negative_hops: u16,
    base_class: u8,
    tag: u8,
    crossed_datelines: u8,
}

impl MessageRouteState {
    /// Creates the state of a freshly generated message from `src` to `dest`.
    ///
    /// Call [`RoutingAlgorithm::init_message`] before routing so
    /// algorithm-specific fields (the 2pn tag) are populated.
    ///
    /// [`RoutingAlgorithm::init_message`]: crate::RoutingAlgorithm::init_message
    pub fn new(src: NodeId, dest: NodeId) -> Self {
        MessageRouteState {
            src,
            dest,
            hops_taken: 0,
            negative_hops: 0,
            base_class: 0,
            tag: 0,
            crossed_datelines: 0,
        }
    }

    /// The source node.
    pub fn src(&self) -> NodeId {
        self.src
    }

    /// The destination node.
    pub fn dest(&self) -> NodeId {
        self.dest
    }

    /// Hops completed so far.
    pub fn hops_taken(&self) -> u32 {
        self.hops_taken as u32
    }

    /// Negative hops (hops leaving an odd-parity node) completed so far.
    pub fn negative_hops(&self) -> u32 {
        self.negative_hops as u32
    }

    /// The VC class used by the first hop (nbc's bonus-card head start).
    ///
    /// Zero until the first hop is taken.
    pub fn base_class(&self) -> u8 {
        self.base_class
    }

    /// The 2pn direction tag (bit `i` describes dimension `i`).
    pub fn tag(&self) -> u8 {
        self.tag
    }

    /// Sets the 2pn direction tag; called by `TwoPowerN::init_message`.
    pub fn set_tag(&mut self, tag: u8) {
        self.tag = tag;
    }

    /// Whether this message has crossed the wrap-around dateline of `dim`.
    pub fn crossed_dateline(&self, dim: usize) -> bool {
        self.crossed_datelines & (1 << dim) != 0
    }

    /// Total number of distinct dimension datelines crossed so far.
    ///
    /// Minimal routing crosses each dimension's dateline at most once, so
    /// this is at most `n`. North-last uses it as its VC class: it is
    /// non-decreasing along every path, and within one class the usable
    /// channels form a mesh, where the turn-model proof applies.
    pub fn datelines_crossed(&self) -> u32 {
        self.crossed_datelines.count_ones()
    }

    /// Whether the message is still at its source (no hops taken yet).
    pub fn at_source(&self) -> bool {
        self.hops_taken == 0
    }

    /// Advances the state after the message takes the hop described by
    /// `taken` out of node `from`.
    ///
    /// Updates the hop count, the negative-hop count (a hop leaving an
    /// odd-parity node is negative), the per-dimension dateline-crossing
    /// bits, and records the first hop's class as the `base_class`.
    pub fn advance(&mut self, topo: &Topology, from: NodeId, taken: Candidate) {
        if self.hops_taken == 0 {
            self.base_class = taken.vc_class();
        }
        if topo.parity(from) == Parity::Odd {
            self.negative_hops += 1;
        }
        if topo.is_wraparound(from, taken.direction()) {
            self.crossed_datelines |= 1 << taken.direction().dim();
        }
        self.hops_taken += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_topology::{Direction, Sign};

    #[test]
    fn advance_counts_hops_and_negative_hops() {
        let topo = Topology::torus(&[6, 6]);
        // The paper's Figure 2 walk: (4,4) -> (3,4) -> (3,3) -> (2,3) -> (2,2).
        let mut st = MessageRouteState::new(topo.node_at(&[4, 4]), topo.node_at(&[2, 2]));
        let minus0 = Candidate::new(Direction::new(0, Sign::Minus), 0);
        let minus1 = Candidate::new(Direction::new(1, Sign::Minus), 0);

        // (4,4) is even: positive hop.
        st.advance(&topo, topo.node_at(&[4, 4]), minus0);
        assert_eq!((st.hops_taken(), st.negative_hops()), (1, 0));
        // (3,4) is odd: negative hop.
        st.advance(&topo, topo.node_at(&[3, 4]), minus1);
        assert_eq!((st.hops_taken(), st.negative_hops()), (2, 1));
        // (3,3) is even.
        st.advance(&topo, topo.node_at(&[3, 3]), minus0);
        assert_eq!((st.hops_taken(), st.negative_hops()), (3, 1));
        // (2,3) is odd.
        st.advance(&topo, topo.node_at(&[2, 3]), minus1);
        assert_eq!((st.hops_taken(), st.negative_hops()), (4, 2));
    }

    #[test]
    fn advance_records_base_class_and_datelines() {
        let topo = Topology::torus(&[4, 4]);
        let mut st = MessageRouteState::new(topo.node_at(&[3, 0]), topo.node_at(&[1, 0]));
        assert!(st.at_source());
        let wrap = Candidate::new(Direction::new(0, Sign::Plus), 5);
        st.advance(&topo, topo.node_at(&[3, 0]), wrap);
        assert_eq!(st.base_class(), 5);
        assert!(st.crossed_dateline(0));
        assert!(!st.crossed_dateline(1));
        assert!(!st.at_source());
        // base_class is only set on the first hop.
        let second = Candidate::new(Direction::new(0, Sign::Plus), 7);
        st.advance(&topo, topo.node_at(&[0, 0]), second);
        assert_eq!(st.base_class(), 5);
    }

    #[test]
    fn tag_roundtrip() {
        let topo = Topology::torus(&[4, 4]);
        let mut st = MessageRouteState::new(topo.node_at(&[0, 0]), topo.node_at(&[1, 1]));
        st.set_tag(0b10);
        assert_eq!(st.tag(), 0b10);
    }
}
