//! Spatial constraints for randomly sampled faults.

use wormsim_topology::{NodeId, Topology};

/// Where randomly sampled faults may land.
///
/// Fault-tolerant routing results usually assume failures are clustered in
/// a *convex* region (a coordinate box) rather than scattered arbitrarily;
/// `Box` models that assumption, `Anywhere` drops it.
///
/// # Example
///
/// ```
/// use wormsim_faults::FaultRegion;
/// use wormsim_topology::Topology;
///
/// let topo = Topology::torus(&[8, 8]);
/// let region = FaultRegion::coordinate_box(&[6, 6], &[3, 3]);
/// // The box wraps around the torus dateline: (0, 0) is inside.
/// assert!(region.contains(&topo, topo.node_at(&[0, 0])));
/// assert!(!region.contains(&topo, topo.node_at(&[3, 3])));
/// assert!(FaultRegion::Anywhere.contains(&topo, topo.node_at(&[3, 3])));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultRegion {
    /// No spatial constraint.
    Anywhere,
    /// A convex coordinate box: in each dimension `d`, a node is inside iff
    /// its coordinate lies in `origin[d] .. origin[d] + extent[d]`
    /// (wrapping around the radix on a torus).
    Box {
        /// Lowest corner of the box, one coordinate per dimension.
        origin: Vec<u16>,
        /// Size of the box in each dimension (≥ 1 to be non-empty).
        extent: Vec<u16>,
    },
}

impl FaultRegion {
    /// Convenience constructor for [`FaultRegion::Box`].
    pub fn coordinate_box(origin: &[u16], extent: &[u16]) -> Self {
        FaultRegion::Box {
            origin: origin.to_vec(),
            extent: extent.to_vec(),
        }
    }

    /// Whether `node` lies inside this region on `topo`.
    ///
    /// # Panics
    ///
    /// Panics for `Box` if the origin/extent dimension count differs from
    /// the topology's.
    pub fn contains(&self, topo: &Topology, node: NodeId) -> bool {
        match self {
            FaultRegion::Anywhere => true,
            FaultRegion::Box { origin, extent } => {
                assert_eq!(
                    origin.len(),
                    topo.num_dims(),
                    "region dimensions must match the topology"
                );
                assert_eq!(
                    extent.len(),
                    topo.num_dims(),
                    "region dimensions must match the topology"
                );
                (0..topo.num_dims()).all(|d| {
                    let k = topo.radix(d);
                    let c = topo.coord(node, d);
                    let offset = if topo.wraps() {
                        (c + k - origin[d] % k) % k
                    } else if c >= origin[d] {
                        c - origin[d]
                    } else {
                        return false;
                    };
                    offset < extent[d]
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn box_is_convex_on_mesh() {
        let topo = Topology::mesh(&[8, 8]);
        let region = FaultRegion::coordinate_box(&[2, 2], &[3, 3]);
        let inside: u32 = topo.nodes().filter(|&n| region.contains(&topo, n)).count() as u32;
        assert_eq!(inside, 9);
        assert!(region.contains(&topo, topo.node_at(&[4, 4])));
        assert!(!region.contains(&topo, topo.node_at(&[5, 2])));
        // A mesh box never wraps.
        let edge = FaultRegion::coordinate_box(&[6, 0], &[4, 1]);
        assert!(!edge.contains(&topo, topo.node_at(&[0, 0])));
    }

    #[test]
    fn box_wraps_on_torus() {
        let topo = Topology::torus(&[8, 8]);
        let region = FaultRegion::coordinate_box(&[7, 7], &[2, 2]);
        for coords in [[7, 7], [0, 7], [7, 0], [0, 0]] {
            assert!(region.contains(&topo, topo.node_at(&coords)), "{coords:?}");
        }
        assert!(!region.contains(&topo, topo.node_at(&[1, 1])));
    }
}
