//! The [`Topology`] type: k-ary n-cubes (tori) and meshes.

use crate::distance::{DimStep, MinimalSteps};
use crate::{ChannelId, Direction, DistanceDistribution, NodeId, Parity, Sign};
use std::fmt;
use wormsim_observe::json::Value;
use wormsim_observe::{json_tags, Json, JsonObject};

/// Which family of direct network a [`Topology`] belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// k-ary n-cube: every dimension wraps around.
    Torus,
    /// Multi-dimensional mesh: no wrap-around links.
    Mesh,
}

json_tags!(TopologyKind {
    Torus = "torus",
    Mesh = "mesh"
});

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// Errors produced when constructing a [`Topology`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// No dimensions were given.
    NoDimensions,
    /// A dimension had radix smaller than 2.
    RadixTooSmall {
        /// The offending dimension.
        dim: usize,
        /// Its radix.
        radix: u16,
    },
    /// The node count overflows `u32`.
    TooManyNodes,
    /// The channel-id space (`nodes * 2 * dims`) overflows `u32`.
    ///
    /// [`ChannelId`] packs `node * 2n + direction` into a `u32`; a topology
    /// whose slot count exceeds that range would wrap silently, so it is
    /// rejected at construction instead.
    ChannelSpaceOverflow {
        /// The number of channel-id slots the topology would need.
        slots: u64,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoDimensions => write!(f, "topology needs at least one dimension"),
            TopologyError::RadixTooSmall { dim, radix } => {
                write!(f, "dimension {dim} has radix {radix}, need at least 2")
            }
            TopologyError::TooManyNodes => write!(f, "node count overflows u32"),
            TopologyError::ChannelSpaceOverflow { slots } => {
                write!(
                    f,
                    "channel-id space needs {slots} slots, which overflows u32"
                )
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A k-ary n-cube (torus) or n-dimensional mesh with two unidirectional
/// physical channels between each pair of adjacent nodes.
///
/// Dimensions are numbered `0..n`; nodes are numbered `0..k` in each
/// dimension, with dimension 0 varying fastest in the flat node index.
/// Radices may differ per dimension (e.g. an 8×4 torus), matching the
/// simulator's "multi-dimensional tori and meshes" scope from the paper.
///
/// # Example
///
/// ```
/// use wormsim_topology::{Topology, Direction, Sign, Parity};
///
/// let t = Topology::torus(&[16, 16]);
/// let a = t.node_at(&[15, 15]);
/// // +0 from (15, 15) wraps to (0, 15) and crosses the dateline.
/// let dir = Direction::new(0, Sign::Plus);
/// assert_eq!(t.coords(t.neighbor(a, dir).unwrap()), vec![0, 15]);
/// assert!(t.is_wraparound(a, dir));
/// assert_eq!(t.parity(a), Parity::Even);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    kind: TopologyKind,
    dims: Vec<u16>,
    strides: Vec<u32>,
    num_nodes: u32,
}

impl Topology {
    /// Creates a torus with the given per-dimension radices.
    ///
    /// # Errors
    ///
    /// Returns an error if `dims` is empty, any radix is below 2, or the
    /// node count overflows `u32`.
    pub fn try_torus(dims: &[u16]) -> Result<Self, TopologyError> {
        Self::build(TopologyKind::Torus, dims)
    }

    /// Creates a mesh with the given per-dimension radices.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Topology::try_torus`].
    pub fn try_mesh(dims: &[u16]) -> Result<Self, TopologyError> {
        Self::build(TopologyKind::Mesh, dims)
    }

    /// Creates a torus, panicking on invalid dimensions.
    ///
    /// # Panics
    ///
    /// Panics under the conditions [`Topology::try_torus`] reports as errors.
    pub fn torus(dims: &[u16]) -> Self {
        Self::try_torus(dims).expect("invalid torus dimensions")
    }

    /// Creates a mesh, panicking on invalid dimensions.
    ///
    /// # Panics
    ///
    /// Panics under the conditions [`Topology::try_mesh`] reports as errors.
    pub fn mesh(dims: &[u16]) -> Self {
        Self::try_mesh(dims).expect("invalid mesh dimensions")
    }

    /// Creates the k-ary n-cube `k^n` (the paper's `kn` notation).
    ///
    /// ```
    /// use wormsim_topology::Topology;
    /// let t = Topology::k_ary_n_cube(16, 2); // the paper's 16^2
    /// assert_eq!(t.num_nodes(), 256);
    /// ```
    pub fn k_ary_n_cube(k: u16, n: usize) -> Self {
        Self::torus(&vec![k; n])
    }

    fn build(kind: TopologyKind, dims: &[u16]) -> Result<Self, TopologyError> {
        if dims.is_empty() {
            return Err(TopologyError::NoDimensions);
        }
        for (dim, &radix) in dims.iter().enumerate() {
            if radix < 2 {
                return Err(TopologyError::RadixTooSmall { dim, radix });
            }
        }
        let mut strides = Vec::with_capacity(dims.len());
        let mut nodes: u64 = 1;
        for &radix in dims {
            strides.push(u32::try_from(nodes).map_err(|_| TopologyError::TooManyNodes)?);
            nodes *= radix as u64;
            if nodes > u32::MAX as u64 {
                return Err(TopologyError::TooManyNodes);
            }
        }
        let slots = nodes * 2 * dims.len() as u64;
        if slots > u32::MAX as u64 {
            return Err(TopologyError::ChannelSpaceOverflow { slots });
        }
        Ok(Topology {
            kind,
            dims: dims.to_vec(),
            strides,
            num_nodes: nodes as u32,
        })
    }

    /// The CLI-grammar label for this topology, e.g. `"torus:16x16"` or
    /// `"mesh:4x4x4"`.
    ///
    /// This is the form `--topo` accepts, so labels in benchmark reports and
    /// manifests can be pasted straight back into a command line. Contrast
    /// with [`fmt::Display`], which renders the prose form `"16x16 torus"`.
    ///
    /// ```
    /// use wormsim_topology::Topology;
    /// assert_eq!(Topology::k_ary_n_cube(8, 3).label(), "torus:8x8x8");
    /// ```
    pub fn label(&self) -> String {
        let dims: Vec<String> = self.dims.iter().map(|k| k.to_string()).collect();
        format!("{}:{}", self.kind, dims.join("x"))
    }

    /// The topology family.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Whether this topology wraps around (is a torus).
    pub fn wraps(&self) -> bool {
        self.kind == TopologyKind::Torus
    }

    /// Number of dimensions `n`.
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// The radix (number of nodes) of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    pub fn radix(&self, dim: usize) -> u16 {
        self.dims[dim]
    }

    /// All per-dimension radices.
    pub fn dims(&self) -> &[u16] {
        &self.dims
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Number of physical-channel id slots (`N * 2n`).
    ///
    /// For meshes this includes boundary slots that carry no link; see
    /// [`Topology::has_channel`].
    pub fn num_channel_slots(&self) -> u32 {
        self.num_nodes * 2 * self.num_dims() as u32
    }

    /// Number of physical channels that actually exist.
    ///
    /// Equal to [`Topology::num_channel_slots`] for tori; smaller for meshes.
    pub fn num_physical_links(&self) -> u32 {
        match self.kind {
            TopologyKind::Torus => self.num_channel_slots(),
            TopologyKind::Mesh => {
                let mut links = 0u32;
                for dim in 0..self.num_dims() {
                    let k = self.dims[dim] as u32;
                    // (k - 1) adjacent pairs per line, 2 channels each.
                    links += 2 * (k - 1) * (self.num_nodes / k);
                }
                links
            }
        }
    }

    /// The coordinate of `node` in dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    pub fn coord(&self, node: NodeId, dim: usize) -> u16 {
        ((node.index() / self.strides[dim]) % self.dims[dim] as u32) as u16
    }

    /// All coordinates of `node`, dimension 0 first.
    pub fn coords(&self, node: NodeId) -> Vec<u16> {
        (0..self.num_dims()).map(|d| self.coord(node, d)).collect()
    }

    /// The node at the given coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the number of coordinates differs from the number of
    /// dimensions or any coordinate is out of range.
    pub fn node_at(&self, coords: &[u16]) -> NodeId {
        assert_eq!(
            coords.len(),
            self.num_dims(),
            "coordinate count must match dimensions"
        );
        let mut index = 0u32;
        for (dim, &c) in coords.iter().enumerate() {
            assert!(
                c < self.dims[dim],
                "coordinate {c} out of range for dimension {dim} (radix {})",
                self.dims[dim]
            );
            index += c as u32 * self.strides[dim];
        }
        NodeId::new(index)
    }

    /// Iterates over all nodes.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes).map(NodeId::new)
    }

    /// Whether a physical channel leaves `node` in `direction`.
    ///
    /// Always true on a torus; false on mesh boundaries.
    pub fn has_channel(&self, node: NodeId, direction: Direction) -> bool {
        match self.kind {
            TopologyKind::Torus => true,
            TopologyKind::Mesh => {
                let c = self.coord(node, direction.dim());
                match direction.sign() {
                    Sign::Plus => c + 1 < self.dims[direction.dim()],
                    Sign::Minus => c > 0,
                }
            }
        }
    }

    /// The neighbor reached by one hop from `node` in `direction`, or `None`
    /// if no channel exists there (mesh boundary).
    pub fn neighbor(&self, node: NodeId, direction: Direction) -> Option<NodeId> {
        let dim = direction.dim();
        let k = self.dims[dim] as u32;
        let stride = self.strides[dim];
        let c = self.coord(node, dim) as u32;
        let new_c = match (self.kind, direction.sign()) {
            (TopologyKind::Torus, Sign::Plus) => (c + 1) % k,
            (TopologyKind::Torus, Sign::Minus) => (c + k - 1) % k,
            (TopologyKind::Mesh, Sign::Plus) => {
                if c + 1 >= k {
                    return None;
                }
                c + 1
            }
            (TopologyKind::Mesh, Sign::Minus) => {
                if c == 0 {
                    return None;
                }
                c - 1
            }
        };
        Some(NodeId::new(node.index() - c * stride + new_c * stride))
    }

    /// Whether the channel from `node` in `direction` is a wrap-around
    /// (dateline-crossing) link.
    ///
    /// Wrap-around links are the ones deadlock-free torus routing treats
    /// specially: in the `+` direction they leave coordinate `k-1`, in the
    /// `-` direction coordinate `0`. Always false on meshes.
    pub fn is_wraparound(&self, node: NodeId, direction: Direction) -> bool {
        if self.kind == TopologyKind::Mesh {
            return false;
        }
        let c = self.coord(node, direction.dim());
        match direction.sign() {
            Sign::Plus => c == self.dims[direction.dim()] - 1,
            Sign::Minus => c == 0,
        }
    }

    /// The channel id for the link leaving `node` in `direction`.
    pub fn channel(&self, node: NodeId, direction: Direction) -> ChannelId {
        ChannelId::new(node, direction, self.num_dims())
    }

    /// The parity (coordinate-sum two-coloring) of `node`.
    pub fn parity(&self, node: NodeId) -> Parity {
        let sum: u64 = (0..self.num_dims())
            .map(|d| self.coord(node, d) as u64)
            .sum();
        Parity::of_sum(sum)
    }

    /// Whether adjacent nodes always have opposite parity, i.e. the network
    /// graph is bipartite under the coordinate-sum coloring.
    ///
    /// True for meshes, and for tori whose radices are all even. The
    /// negative-hop schemes (nhop/nbc) require this.
    pub fn is_bipartite(&self) -> bool {
        match self.kind {
            TopologyKind::Mesh => true,
            TopologyKind::Torus => self.dims.iter().all(|&k| k % 2 == 0),
        }
    }

    /// The minimal per-dimension movement from `from` to `to` in `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    pub fn dim_step(&self, from: NodeId, to: NodeId, dim: usize) -> DimStep {
        let k = self.dims[dim];
        let s = self.coord(from, dim);
        let d = self.coord(to, dim);
        if s == d {
            return DimStep::Done;
        }
        match self.kind {
            TopologyKind::Mesh => {
                if d > s {
                    DimStep::One {
                        sign: Sign::Plus,
                        dist: d - s,
                    }
                } else {
                    DimStep::One {
                        sign: Sign::Minus,
                        dist: s - d,
                    }
                }
            }
            TopologyKind::Torus => {
                let plus = (d + k - s) % k;
                let minus = k - plus;
                use std::cmp::Ordering;
                match plus.cmp(&minus) {
                    Ordering::Less => DimStep::One {
                        sign: Sign::Plus,
                        dist: plus,
                    },
                    Ordering::Greater => DimStep::One {
                        sign: Sign::Minus,
                        dist: minus,
                    },
                    Ordering::Equal => DimStep::Both { dist: plus },
                }
            }
        }
    }

    /// The complete minimal-path structure from `from` to `to`.
    pub fn minimal_steps(&self, from: NodeId, to: NodeId) -> MinimalSteps {
        MinimalSteps::new(
            (0..self.num_dims())
                .map(|dim| self.dim_step(from, to, dim))
                .collect(),
        )
    }

    /// The minimal-path distance (number of hops) from `from` to `to`.
    pub fn distance(&self, from: NodeId, to: NodeId) -> u32 {
        (0..self.num_dims())
            .map(|dim| self.dim_step(from, to, dim).dist() as u32)
            .sum()
    }

    /// The network diameter (largest minimal-path distance).
    pub fn diameter(&self) -> u32 {
        self.dims
            .iter()
            .map(|&k| match self.kind {
                TopologyKind::Torus => (k / 2) as u32,
                TopologyKind::Mesh => (k - 1) as u32,
            })
            .sum()
    }

    /// The maximum number of *negative* hops any minimal path can contain
    /// under the bipartite coloring: `ceil(diameter / 2)`.
    ///
    /// This is the paper's `⌈n⌊k/2⌋/2⌉` bound that sizes the nhop/nbc
    /// virtual-channel classes.
    pub fn max_negative_hops(&self) -> u32 {
        self.diameter().div_ceil(2)
    }

    /// The exact distance distribution under uniform traffic.
    ///
    /// Convenience wrapper around [`DistanceDistribution::uniform`].
    pub fn uniform_distance_distribution(&self) -> DistanceDistribution {
        DistanceDistribution::uniform(self)
    }

    /// The mean minimal distance under uniform traffic (destination chosen
    /// uniformly among the other `N-1` nodes).
    pub fn uniform_avg_distance(&self) -> f64 {
        self.uniform_distance_distribution().mean()
    }

    /// Histogram of per-dimension distances: entry `d` is the number of
    /// destination coordinates at ring/line distance `d` from a source
    /// coordinate, averaged over source coordinates.
    ///
    /// Used internally by [`DistanceDistribution::uniform`]; exposed for
    /// traffic-pattern weight computations.
    pub fn per_dim_distance_histogram(&self, dim: usize) -> Vec<f64> {
        let k = self.dims[dim] as usize;
        match self.kind {
            TopologyKind::Torus => {
                let half = k / 2;
                let mut h = vec![0.0; half + 1];
                h[0] = 1.0;
                for item in h.iter_mut().take(half).skip(1) {
                    *item = 2.0;
                }
                if k.is_multiple_of(2) {
                    h[half] = 1.0;
                } else if half >= 1 {
                    h[half] = 2.0;
                }
                h
            }
            TopologyKind::Mesh => {
                let mut h = vec![0.0; k];
                h[0] = 1.0;
                for (d, item) in h.iter_mut().enumerate().skip(1) {
                    *item = 2.0 * (k - d) as f64 / k as f64;
                }
                h
            }
        }
    }
}

/// A topology's JSON form is `{"kind":"torus","dims":[8,8]}`; reading it
/// runs the same validation as [`Topology::try_torus`].
impl Json for Topology {
    fn write(&self, out: &mut String) {
        let mut object = JsonObject::begin(out);
        object.field("kind", &self.kind).field("dims", &self.dims);
        object.finish();
    }

    fn read(value: &Value) -> Result<Self, String> {
        let dims: Vec<u16> = value.field("dims")?;
        Self::build(value.field("kind")?, &dims).map_err(|e| format!("invalid topology: {e:?}"))
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dims: Vec<String> = self.dims.iter().map(|k| k.to_string()).collect();
        write!(f, "{} {}", dims.join("x"), self.kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert_eq!(Topology::try_torus(&[]), Err(TopologyError::NoDimensions));
        assert_eq!(
            Topology::try_mesh(&[4, 1]),
            Err(TopologyError::RadixTooSmall { dim: 1, radix: 1 })
        );
        assert!(Topology::try_torus(&[16, 16]).is_ok());
    }

    #[test]
    fn coordinate_roundtrip() {
        let t = Topology::torus(&[5, 7, 3]);
        for node in t.nodes() {
            let coords = t.coords(node);
            assert_eq!(t.node_at(&coords), node);
        }
    }

    #[test]
    fn torus_neighbors_wrap() {
        let t = Topology::torus(&[4, 4]);
        let n = t.node_at(&[3, 0]);
        assert_eq!(
            t.neighbor(n, Direction::new(0, Sign::Plus)),
            Some(t.node_at(&[0, 0]))
        );
        assert_eq!(
            t.neighbor(n, Direction::new(1, Sign::Minus)),
            Some(t.node_at(&[3, 3]))
        );
    }

    #[test]
    fn mesh_boundaries_have_no_channel() {
        let t = Topology::mesh(&[4, 4]);
        let corner = t.node_at(&[0, 0]);
        assert_eq!(t.neighbor(corner, Direction::new(0, Sign::Minus)), None);
        assert!(!t.has_channel(corner, Direction::new(1, Sign::Minus)));
        assert!(t.has_channel(corner, Direction::new(0, Sign::Plus)));
    }

    #[test]
    fn wraparound_detection() {
        let t = Topology::torus(&[16, 16]);
        let edge = t.node_at(&[15, 3]);
        assert!(t.is_wraparound(edge, Direction::new(0, Sign::Plus)));
        assert!(!t.is_wraparound(edge, Direction::new(0, Sign::Minus)));
        let zero = t.node_at(&[0, 3]);
        assert!(t.is_wraparound(zero, Direction::new(0, Sign::Minus)));
        let m = Topology::mesh(&[4, 4]);
        assert!(!m.is_wraparound(m.node_at(&[3, 3]), Direction::new(0, Sign::Plus)));
    }

    #[test]
    fn distances_on_torus() {
        let t = Topology::torus(&[16, 16]);
        let a = t.node_at(&[0, 0]);
        let b = t.node_at(&[15, 1]);
        // Wraparound makes (0 -> 15) a single hop.
        assert_eq!(t.distance(a, b), 2);
        assert_eq!(t.diameter(), 16);
        // The paper's example: (4,4) -> (2,2) in 6^2 takes 4 hops.
        let s = Topology::torus(&[6, 6]);
        assert_eq!(s.distance(s.node_at(&[4, 4]), s.node_at(&[2, 2])), 4);
    }

    #[test]
    fn distances_on_mesh() {
        let t = Topology::mesh(&[10, 10]);
        let a = t.node_at(&[3, 3]);
        let b = t.node_at(&[1, 1]);
        assert_eq!(t.distance(a, b), 4);
        assert_eq!(t.diameter(), 18);
    }

    #[test]
    fn tie_distance_reports_both() {
        let t = Topology::torus(&[8, 8]);
        let a = t.node_at(&[0, 0]);
        let b = t.node_at(&[4, 0]);
        assert_eq!(t.dim_step(a, b, 0), DimStep::Both { dist: 4 });
        assert_eq!(t.dim_step(a, b, 1), DimStep::Done);
    }

    #[test]
    fn parity_alternates_on_even_torus() {
        let t = Topology::torus(&[16, 16]);
        assert!(t.is_bipartite());
        for node in t.nodes() {
            for dir in Direction::all(2) {
                let n = t.neighbor(node, dir).unwrap();
                assert_eq!(t.parity(n), t.parity(node).opposite());
            }
        }
    }

    #[test]
    fn odd_torus_is_not_bipartite() {
        assert!(!Topology::torus(&[5, 5]).is_bipartite());
        assert!(Topology::mesh(&[5, 5]).is_bipartite());
    }

    #[test]
    fn paper_vc_counts() {
        // 16^2: phop needs n*floor(k/2)+1 = 17 classes, nhop needs
        // ceil(n*floor(k/2)/2)+1 = 9 classes.
        let t = Topology::torus(&[16, 16]);
        assert_eq!(t.diameter() + 1, 17);
        assert_eq!(t.max_negative_hops() + 1, 9);
    }

    #[test]
    fn physical_link_counts() {
        let t = Topology::torus(&[4, 4]);
        assert_eq!(t.num_physical_links(), 16 * 4);
        let m = Topology::mesh(&[4, 4]);
        // Per dimension: 3 pairs per line * 4 lines * 2 directions = 24.
        assert_eq!(m.num_physical_links(), 48);
        assert_eq!(m.num_channel_slots(), 64);
    }

    #[test]
    fn minimal_steps_example() {
        let t = Topology::torus(&[6, 6]);
        let steps = t.minimal_steps(t.node_at(&[4, 4]), t.node_at(&[2, 2]));
        assert_eq!(steps.total_distance(), 4);
        assert!(!steps.is_done());
        assert_eq!(steps.uncorrected_dims().collect::<Vec<_>>(), vec![0, 1]);
        for (_, s) in steps.iter() {
            assert_eq!(
                s,
                DimStep::One {
                    sign: Sign::Minus,
                    dist: 2
                }
            );
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(Topology::torus(&[16, 16]).to_string(), "16x16 torus");
        assert_eq!(Topology::mesh(&[10, 10]).to_string(), "10x10 mesh");
    }

    #[test]
    fn label_is_cli_grammar() {
        assert_eq!(Topology::torus(&[16, 16]).label(), "torus:16x16");
        assert_eq!(Topology::mesh(&[4, 6, 8]).label(), "mesh:4x6x8");
        assert_eq!(Topology::k_ary_n_cube(16, 3).label(), "torus:16x16x16");
    }

    #[test]
    fn channel_space_overflow_rejected() {
        // 46341^2 nodes fits u32 (≈ 2.147e9) but needs 4 channel slots per
        // node, which does not.
        assert_eq!(
            Topology::try_torus(&[46341, 46341]),
            Err(TopologyError::ChannelSpaceOverflow {
                slots: 46341u64 * 46341 * 4,
            })
        );
        // Node count itself overflowing still reports TooManyNodes.
        assert_eq!(
            Topology::try_torus(&[65535, 65535, 65535]),
            Err(TopologyError::TooManyNodes)
        );
        // Large-but-valid sizes still build.
        assert!(Topology::try_torus(&[64, 64]).is_ok());
        assert!(Topology::try_torus(&[16, 16, 16]).is_ok());
    }
}
