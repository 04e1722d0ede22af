//! The [`RoutingAlgorithm`] trait.

use crate::{Candidate, MessageRouteState};
use std::fmt;
use wormsim_topology::{ChannelMask, NodeId, Topology};

/// How much freedom an algorithm has in choosing among minimal paths.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Adaptivity {
    /// Exactly one path per source/destination pair (e-cube).
    NonAdaptive,
    /// Some, but not all, minimal paths are allowed (north-last).
    PartiallyAdaptive,
    /// Every minimal path is allowed (2pn and the hop schemes).
    FullyAdaptive,
}

impl fmt::Display for Adaptivity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Adaptivity::NonAdaptive => write!(f, "non-adaptive"),
            Adaptivity::PartiallyAdaptive => write!(f, "partially-adaptive"),
            Adaptivity::FullyAdaptive => write!(f, "fully-adaptive"),
        }
    }
}

/// How well an algorithm copes with a set of dead channels/nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultTolerance {
    /// The algorithm's normal candidate sets remain connected and acyclic
    /// under the mask (trivially true when nothing is dead).
    Guaranteed,
    /// Misrouting/fallback lets the algorithm keep delivering wherever the
    /// surviving graph allows, but deadlock-freedom of the fallback paths
    /// is not proven — the simulator's livelock guard is the backstop.
    BestEffort,
    /// The algorithm has no answer for this mask: some source/destination
    /// pairs will never be delivered (the simulator excludes them from
    /// traffic generation rather than letting them time out).
    Unsupported,
}

impl FaultTolerance {
    /// The standard answer for an adaptive algorithm that can mis-route:
    /// `Guaranteed` when nothing is dead, `BestEffort` while the surviving
    /// subgraph stays strongly connected, `Unsupported` once it partitions.
    pub fn best_effort_if_connected(topo: &Topology, mask: &ChannelMask) -> FaultTolerance {
        if mask.is_trivial() {
            FaultTolerance::Guaranteed
        } else if topo.surviving_graph_connected(mask) {
            FaultTolerance::BestEffort
        } else {
            FaultTolerance::Unsupported
        }
    }
}

impl fmt::Display for FaultTolerance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultTolerance::Guaranteed => write!(f, "guaranteed"),
            FaultTolerance::BestEffort => write!(f, "best-effort"),
            FaultTolerance::Unsupported => write!(f, "unsupported"),
        }
    }
}

/// A minimal, deadlock-free wormhole routing algorithm.
///
/// Implementations are *pure*: they never hold network state, and
/// [`candidates`](Self::candidates) returns the same set for the same
/// arguments (the engine does not re-route a blocked head until one of its
/// candidate channels frees a virtual channel). The simulator calls [`candidates`](Self::candidates) when a head flit needs a next hop,
/// picks one of the returned options subject to resource availability, and
/// then advances the message's [`MessageRouteState`] via
/// [`MessageRouteState::advance`].
///
/// # Contract
///
/// * Every returned candidate must be a **minimal** hop (strictly decreases
///   the distance to the destination) on a physical channel that exists.
/// * `candidates` must return at least one option whenever the message is
///   not yet at its destination ("wait, never mis-route").
/// * VC classes must stay below [`num_vc_classes`](Self::num_vc_classes).
///
/// These invariants are exercised by this crate's property tests and by the
/// [`deadlock`](crate::deadlock) analysis.
pub trait RoutingAlgorithm: Send + Sync + fmt::Debug {
    /// Short lower-case name as used in the paper (e.g. `"phop"`).
    fn name(&self) -> &'static str;

    /// The adaptivity class of this algorithm.
    fn adaptivity(&self) -> Adaptivity;

    /// Number of virtual-channel *classes* this algorithm needs on every
    /// physical channel of the topology it was built for.
    fn num_vc_classes(&self) -> usize;

    /// Populates algorithm-specific fields of a fresh message's state
    /// (e.g. the 2pn tag). The default does nothing.
    fn init_message(&self, topo: &Topology, state: &mut MessageRouteState) {
        let _ = (topo, state);
    }

    /// Appends to `out` every `(direction, vc_class)` the message may use
    /// for its next hop from `here`. `out` is *not* cleared first.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `here` equals the destination (the
    /// caller must eject instead of routing) or if `here` is not reachable
    /// for this message state.
    fn candidates(
        &self,
        topo: &Topology,
        state: &MessageRouteState,
        here: NodeId,
        out: &mut Vec<Candidate>,
    );

    /// Whether the algorithm remains connected and deadlock-free when the
    /// channels/nodes dead under `mask` are removed.
    ///
    /// The conservative default claims [`FaultTolerance::Guaranteed`] only
    /// for a trivial (all-alive) mask and [`FaultTolerance::Unsupported`]
    /// otherwise; adaptive algorithms override this with
    /// [`FaultTolerance::best_effort_if_connected`]. The answer is
    /// advisory — the simulator still runs `Unsupported` configurations
    /// (demonstrating *why* adaptivity pays off under faults), it just
    /// cannot promise delivery for them.
    fn fault_tolerance(&self, topo: &Topology, mask: &ChannelMask) -> FaultTolerance {
        let _ = topo;
        if mask.is_trivial() {
            FaultTolerance::Guaranteed
        } else {
            FaultTolerance::Unsupported
        }
    }

    /// The congestion-control class of a freshly injected message.
    ///
    /// The paper's input-buffer-limit scheme counts in-node messages per
    /// class: hop schemes and 2pn use the virtual-channel number the message
    /// can use; e-cube and north-last use the particular first-hop virtual
    /// channel the message intends to use.
    fn injection_class(&self, topo: &Topology, state: &MessageRouteState) -> u32;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptivity_display() {
        assert_eq!(Adaptivity::NonAdaptive.to_string(), "non-adaptive");
        assert_eq!(
            Adaptivity::PartiallyAdaptive.to_string(),
            "partially-adaptive"
        );
        assert_eq!(Adaptivity::FullyAdaptive.to_string(), "fully-adaptive");
    }
}
