//! The partially adaptive west-first algorithm (Glass & Ni turn model).

use crate::{
    Adaptivity, Candidate, FaultTolerance, MessageRouteState, RoutingAlgorithm, RoutingError,
};
use wormsim_topology::{DimStep, NodeId, Sign, Topology};

/// West-first routing: the other canonical member of the Glass–Ni turn
/// model family the paper draws north-last from.
///
/// "West" is the `-` direction of dimension 0. All west travel happens
/// *first* and non-adaptively; afterwards the message routes fully
/// adaptively among the remaining minimal directions (never turning back
/// west — a torus half-way tie in dimension 0 resolves east).
///
/// Torus wrap-around uses the same dateline-crossing-count classes as
/// [`NorthLast`](crate::NorthLast) (`n + 1` classes; 1 on meshes). In two
/// dimensions that is machine-checked acyclic by the
/// [`deadlock`](crate::deadlock) analysis; in three the bounded checker
/// finds deadlocks (`mesh:3x3x3`, `torus:2x4x4`, `torus:3x3x3`), so the
/// algorithm is only built for 2D networks.
///
/// # Example
///
/// ```
/// use wormsim_topology::Topology;
/// use wormsim_routing::{WestFirst, MessageRouteState, RoutingAlgorithm};
///
/// let topo = Topology::mesh(&[10, 10]);
/// let wf = WestFirst::new(&topo)?;
/// // Westbound component: dimension 0 must be corrected first.
/// let state = MessageRouteState::new(topo.node_at(&[3, 3]), topo.node_at(&[1, 5]));
/// let mut out = Vec::new();
/// wf.candidates(&topo, &state, state.src(), &mut out);
/// assert_eq!(out.len(), 1);
/// assert_eq!(out[0].direction().dim(), 0);
/// # Ok::<(), wormsim_routing::RoutingError>(())
/// ```
#[derive(Clone, Debug)]
pub struct WestFirst {
    classes: usize,
}

impl WestFirst {
    /// Builds west-first for `topo`.
    ///
    /// # Errors
    ///
    /// Returns [`RoutingError::NeedsDimensions`] for one-dimensional
    /// networks, where the turn model degenerates, and
    /// [`RoutingError::TooManyDimensions`] beyond two, where west-first
    /// alone does not prevent deadlock.
    pub fn new(topo: &Topology) -> Result<Self, RoutingError> {
        if topo.num_dims() < 2 {
            return Err(RoutingError::NeedsDimensions {
                algorithm: "wfirst",
                needs: 2,
                got: topo.num_dims(),
            });
        }
        if topo.num_dims() > 2 {
            return Err(RoutingError::TooManyDimensions {
                algorithm: "wfirst",
                max: 2,
                got: topo.num_dims(),
            });
        }
        Ok(WestFirst {
            classes: if topo.wraps() { topo.num_dims() + 1 } else { 1 },
        })
    }
}

impl RoutingAlgorithm for WestFirst {
    fn name(&self) -> &'static str {
        "wfirst"
    }

    fn adaptivity(&self) -> Adaptivity {
        Adaptivity::PartiallyAdaptive
    }

    fn fault_tolerance(
        &self,
        topo: &Topology,
        mask: &wormsim_topology::ChannelMask,
    ) -> FaultTolerance {
        FaultTolerance::best_effort_if_connected(topo, mask)
    }

    fn num_vc_classes(&self) -> usize {
        self.classes
    }

    fn candidates(
        &self,
        topo: &Topology,
        state: &MessageRouteState,
        here: NodeId,
        out: &mut Vec<Candidate>,
    ) {
        let class = if topo.wraps() {
            state.datelines_crossed() as u8
        } else {
            0
        };
        // Phase 1: while west travel remains, it is the only option.
        if let DimStep::One {
            sign: Sign::Minus, ..
        } = topo.dim_step(here, state.dest(), 0)
        {
            out.push(Candidate::new(
                wormsim_topology::Direction::new(0, Sign::Minus),
                class,
            ));
            return;
        }
        // Phase 2: fully adaptive among remaining minimal directions,
        // never turning back west.
        for dim in 0..topo.num_dims() {
            let step = topo.dim_step(here, state.dest(), dim);
            for sign in [Sign::Plus, Sign::Minus] {
                if dim == 0 && sign == Sign::Minus {
                    continue;
                }
                if step.allows(sign) {
                    out.push(Candidate::new(
                        wormsim_topology::Direction::new(dim, sign),
                        class,
                    ));
                }
            }
        }
    }

    fn injection_class(&self, topo: &Topology, state: &MessageRouteState) -> u32 {
        let mut out = Vec::with_capacity(4);
        self.candidates(topo, state, state.src(), &mut out);
        match out.first() {
            Some(c) => (c.direction().index() * self.classes) as u32 + c.vc_class() as u32,
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadlock;
    use wormsim_topology::Direction;

    fn candidates_at(topo: &Topology, here: &[u16], dest: &[u16]) -> Vec<Candidate> {
        let algo = WestFirst::new(topo).unwrap();
        let state = MessageRouteState::new(topo.node_at(here), topo.node_at(dest));
        let mut out = Vec::new();
        algo.candidates(topo, &state, topo.node_at(here), &mut out);
        out
    }

    #[test]
    fn west_phase_is_forced_then_adaptive() {
        let topo = Topology::mesh(&[8, 8]);
        let c = candidates_at(&topo, &[5, 2], &[2, 6]);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].direction(), Direction::new(0, Sign::Minus));
        // Once dimension 0 is corrected, the rest is adaptive.
        let c = candidates_at(&topo, &[2, 2], &[2, 6]);
        assert_eq!(c.len(), 1); // only +1 remains here
        let c = candidates_at(&topo, &[1, 2], &[4, 6]);
        assert_eq!(c.len(), 2); // east + south, both adaptive
    }

    #[test]
    fn never_turns_back_west() {
        let topo = Topology::torus(&[6, 6]);
        for s in topo.nodes() {
            for d in topo.nodes() {
                if s == d {
                    continue;
                }
                let c = candidates_at(&topo, &topo.coords(s), &topo.coords(d));
                assert!(!c.is_empty());
                let west = c
                    .iter()
                    .filter(|c| c.direction() == Direction::new(0, Sign::Minus))
                    .count();
                if west > 0 {
                    assert_eq!(c.len(), 1, "west must be exclusive: {c:?}");
                }
            }
        }
    }

    #[test]
    fn acyclic_on_small_tori() {
        for dims in [[4u16, 4u16], [6, 6]] {
            let topo = Topology::torus(&dims);
            let algo = WestFirst::new(&topo).unwrap();
            assert!(deadlock::analyze(&topo, &algo).is_acyclic(), "{dims:?}");
        }
    }

    #[test]
    fn candidates_are_minimal() {
        let topo = Topology::torus(&[6, 6]);
        for s in topo.nodes() {
            for d in topo.nodes() {
                if s == d {
                    continue;
                }
                for c in candidates_at(&topo, &topo.coords(s), &topo.coords(d)) {
                    let next = topo.neighbor(s, c.direction()).unwrap();
                    assert_eq!(topo.distance(next, d), topo.distance(s, d) - 1);
                }
            }
        }
    }

    #[test]
    fn rejects_rings() {
        assert!(WestFirst::new(&Topology::torus(&[8])).is_err());
    }

    /// The three 3D networks the bounded checker refutes west-first on.
    #[test]
    fn rejects_three_dimensions() {
        for topo in [
            Topology::mesh(&[3, 3, 3]),
            Topology::torus(&[2, 4, 4]),
            Topology::torus(&[3, 3, 3]),
        ] {
            assert_eq!(
                WestFirst::new(&topo).unwrap_err(),
                RoutingError::TooManyDimensions {
                    algorithm: "wfirst",
                    max: 2,
                    got: 3
                },
                "{topo}"
            );
        }
    }
}
