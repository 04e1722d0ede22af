//! Declarative fault plans: what fails, and when.

use crate::FaultRegion;
use std::fmt;
use wormsim_observe::json::Value;
use wormsim_observe::{Json, JsonObject};
use wormsim_topology::{ChannelMask, Direction, NodeId, Topology};
use wormsim_traffic::SimRng;

/// What a single fault kills.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultTarget {
    /// One unidirectional physical channel: the link leaving `node` in
    /// `direction`. The reverse channel is a separate target.
    Link {
        /// Source node of the channel.
        node: NodeId,
        /// Direction the channel travels.
        direction: Direction,
    },
    /// A whole node, including every channel incident to it.
    Node {
        /// The failing node.
        node: NodeId,
    },
}

impl fmt::Display for FaultTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultTarget::Link { node, direction } => {
                write!(f, "link {}{direction}", node.index())
            }
            FaultTarget::Node { node } => write!(f, "node {}", node.index()),
        }
    }
}

/// One fault: a target plus its failure window.
///
/// The fault is in effect from `fail_at` (inclusive) until `repair_at`
/// (exclusive); `repair_at: None` means the fault is permanent.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// What fails.
    pub target: FaultTarget,
    /// First cycle the target is dead.
    pub fail_at: u64,
    /// First cycle the target is alive again, or `None` if never repaired.
    pub repair_at: Option<u64>,
}

impl Fault {
    /// Whether this fault is in effect at `cycle`.
    pub fn active_at(&self, cycle: u64) -> bool {
        self.fail_at <= cycle && self.repair_at.is_none_or(|r| r > cycle)
    }

    /// Whether this fault is static: dead from cycle 0, never repaired.
    pub fn is_static(&self) -> bool {
        self.fail_at == 0 && self.repair_at.is_none()
    }
}

/// A fault's JSON form flattens its target into the fault object —
/// `{"target":"link","node":50,"dim":1,"sign":"+","fail_at":0,"repair_at":null}`,
/// or `"target":"node"` without `dim`/`sign`. This is the worker-wire form
/// (`wormsim::wire`): changing it is a wire-protocol change.
impl Json for Fault {
    fn write(&self, out: &mut String) {
        let mut object = JsonObject::begin(out);
        match self.target {
            FaultTarget::Link { node, direction } => object
                .field_str("target", "link")
                .field("node", &node)
                .field("dim", &direction.dim())
                .field("sign", &direction.sign()),
            FaultTarget::Node { node } => object.field_str("target", "node").field("node", &node),
        };
        object
            .field("fail_at", &self.fail_at)
            .field("repair_at", &self.repair_at);
        object.finish();
    }

    fn read(value: &Value) -> Result<Self, String> {
        let node = value.field("node")?;
        let target = match value.get("target").and_then(Value::as_str) {
            // `dim` is read as the `u8` a `Direction` stores, so an
            // out-of-range dimension is an error here, not a panic in
            // `Direction::new`.
            Some("link") => FaultTarget::Link {
                node,
                direction: Direction::new(
                    usize::from(value.field::<u8>("dim")?),
                    value.field("sign")?,
                ),
            },
            Some("node") => FaultTarget::Node { node },
            other => return Err(format!("unknown fault target {other:?}")),
        };
        Ok(Fault {
            target,
            fail_at: value.field("fail_at")?,
            repair_at: value.field_or("repair_at", None)?,
        })
    }
}

/// Errors produced by [`FaultPlan::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultPlanError {
    /// A link fault names a channel slot that carries no physical link
    /// (a mesh boundary).
    NonexistentChannel {
        /// Source node of the missing channel.
        node: NodeId,
        /// Direction of the missing channel.
        direction: Direction,
    },
    /// A fault names a node outside the topology.
    NodeOutOfRange {
        /// The out-of-range node index.
        node: NodeId,
        /// Number of nodes in the topology.
        num_nodes: u32,
    },
    /// A fault's repair cycle is not after its failure cycle.
    RepairBeforeFailure {
        /// The offending fault's target.
        target: FaultTarget,
        /// Cycle the fault takes effect.
        fail_at: u64,
        /// The repair cycle that is not after `fail_at`.
        repair_at: u64,
    },
    /// Every node of the topology is statically dead: nothing can ever be
    /// simulated.
    AllNodesFaulted,
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::NonexistentChannel { node, direction } => write!(
                f,
                "fault on nonexistent channel: node {} has no link in direction {direction}",
                node.index()
            ),
            FaultPlanError::NodeOutOfRange { node, num_nodes } => write!(
                f,
                "fault on node {} but the topology has only {num_nodes} nodes",
                node.index()
            ),
            FaultPlanError::RepairBeforeFailure {
                target,
                fail_at,
                repair_at,
            } => write!(
                f,
                "{target} repairs at cycle {repair_at}, not after its failure at {fail_at}"
            ),
            FaultPlanError::AllNodesFaulted => {
                write!(f, "every node is statically faulted; nothing to simulate")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// A set of [`Fault`]s applied to one simulated network.
///
/// Build a plan from explicit targets
/// ([`push_dead_link`](Self::push_dead_link),
/// [`push_dead_node`](Self::push_dead_node),
/// [`push`](Self::push) for transient windows) or sample one randomly
/// ([`random_links`](Self::random_links)). The simulator asks for the
/// [`ChannelMask`] in effect at each fault transition via
/// [`mask_at`](Self::mask_at).
///
/// # Example
///
/// ```
/// use wormsim_faults::{Fault, FaultPlan, FaultTarget};
/// use wormsim_topology::{Direction, Sign, Topology};
///
/// let topo = Topology::torus(&[4, 4]);
/// let mut plan = FaultPlan::new();
/// // One link dead for cycles 100..200, then repaired.
/// plan.push(Fault {
///     target: FaultTarget::Link {
///         node: topo.node_at(&[1, 2]),
///         direction: Direction::new(1, Sign::Minus),
///     },
///     fail_at: 100,
///     repair_at: Some(200),
/// });
/// plan.validate(&topo).unwrap();
/// assert_eq!(plan.transition_cycles(), vec![100, 200]);
/// assert!(plan.mask_at(&topo, 50).is_trivial());
/// assert_eq!(plan.mask_at(&topo, 150).dead_channel_count(), 1);
/// assert!(plan.mask_at(&topo, 200).is_trivial());
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

/// A plan's JSON form is the array of its faults, in insertion order.
impl Json for FaultPlan {
    fn write(&self, out: &mut String) {
        self.faults.write(out);
    }

    fn read(value: &Value) -> Result<Self, String> {
        Vec::read(value).map(|faults| FaultPlan { faults })
    }
}

impl FaultPlan {
    /// Creates an empty plan (a healthy network).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of faults in the plan.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// The faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Adds a fault.
    pub fn push(&mut self, fault: Fault) {
        self.faults.push(fault);
    }

    /// Adds a link dead from cycle 0, never repaired.
    pub fn push_dead_link(&mut self, node: NodeId, direction: Direction) {
        self.push(Fault {
            target: FaultTarget::Link { node, direction },
            fail_at: 0,
            repair_at: None,
        });
    }

    /// Adds a node dead from cycle 0, never repaired.
    pub fn push_dead_node(&mut self, node: NodeId) {
        self.push(Fault {
            target: FaultTarget::Node { node },
            fail_at: 0,
            repair_at: None,
        });
    }

    /// Samples `count` distinct static link faults uniformly among the
    /// physical channels whose source node lies in `region`, using a
    /// dedicated deterministic RNG stream of `seed`.
    ///
    /// If the region contains fewer than `count` channels, all of them are
    /// used (check [`len`](Self::len) if that matters).
    pub fn random_links(topo: &Topology, count: usize, seed: u64, region: &FaultRegion) -> Self {
        let mut pool: Vec<(NodeId, Direction)> = Vec::new();
        for node in topo.nodes() {
            if !region.contains(topo, node) {
                continue;
            }
            for dir in Direction::all(topo.num_dims()) {
                if topo.has_channel(node, dir) {
                    pool.push((node, dir));
                }
            }
        }
        let count = count.min(pool.len());
        // Partial Fisher-Yates on its own stream keeps the draw independent
        // of every simulation stream.
        let mut rng = SimRng::stream(seed, 0xFA);
        let mut plan = FaultPlan::new();
        for i in 0..count {
            let j = i + rng.uniform_below((pool.len() - i) as u32) as usize;
            pool.swap(i, j);
            let (node, direction) = pool[i];
            plan.push_dead_link(node, direction);
        }
        plan
    }

    /// Checks the plan against a topology.
    ///
    /// # Errors
    ///
    /// Returns the first [`FaultPlanError`] found: a fault on a node
    /// outside the topology or on a mesh-boundary channel slot, a repair
    /// cycle not after its failure cycle, or a plan that statically kills
    /// every node.
    pub fn validate(&self, topo: &Topology) -> Result<(), FaultPlanError> {
        for fault in &self.faults {
            let node = match fault.target {
                FaultTarget::Link { node, .. } | FaultTarget::Node { node } => node,
            };
            if node.index() >= topo.num_nodes() {
                return Err(FaultPlanError::NodeOutOfRange {
                    node,
                    num_nodes: topo.num_nodes(),
                });
            }
            if let FaultTarget::Link { node, direction } = fault.target {
                if !topo.has_channel(node, direction) {
                    return Err(FaultPlanError::NonexistentChannel { node, direction });
                }
            }
            if let Some(repair_at) = fault.repair_at {
                if repair_at <= fault.fail_at {
                    return Err(FaultPlanError::RepairBeforeFailure {
                        target: fault.target,
                        fail_at: fault.fail_at,
                        repair_at,
                    });
                }
            }
        }
        let statically_dead = topo
            .nodes()
            .filter(|&n| {
                self.faults.iter().any(|f| {
                    f.is_static() && matches!(f.target, FaultTarget::Node { node } if node == n)
                })
            })
            .count() as u32;
        if statically_dead == topo.num_nodes() {
            return Err(FaultPlanError::AllNodesFaulted);
        }
        Ok(())
    }

    /// Whether all faults are static (in effect from cycle 0, forever).
    pub fn is_static(&self) -> bool {
        self.faults.iter().all(Fault::is_static)
    }

    /// The sorted, deduplicated cycles at which the fault mask changes
    /// (failures taking effect or repairs completing), excluding cycle 0 —
    /// the cycle-0 mask is applied before the simulation starts.
    pub fn transition_cycles(&self) -> Vec<u64> {
        let mut cycles: Vec<u64> = self
            .faults
            .iter()
            .flat_map(|f| [Some(f.fail_at), f.repair_at])
            .flatten()
            .filter(|&c| c > 0)
            .collect();
        cycles.sort_unstable();
        cycles.dedup();
        cycles
    }

    /// The [`ChannelMask`] in effect at `cycle`.
    pub fn mask_at(&self, topo: &Topology, cycle: u64) -> ChannelMask {
        let mut mask = ChannelMask::all_alive(topo);
        for fault in &self.faults {
            if !fault.active_at(cycle) {
                continue;
            }
            match fault.target {
                FaultTarget::Link { node, direction } => {
                    if topo.has_channel(node, direction) {
                        mask.kill_channel(topo.channel(node, direction));
                    }
                }
                FaultTarget::Node { node } => mask.kill_node(topo, node),
            }
        }
        mask
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_topology::Sign;

    #[test]
    fn validation_catches_each_error() {
        let topo = Topology::mesh(&[4, 4]);
        let mut bad_link = FaultPlan::new();
        bad_link.push_dead_link(topo.node_at(&[0, 0]), Direction::new(0, Sign::Minus));
        assert!(matches!(
            bad_link.validate(&topo),
            Err(FaultPlanError::NonexistentChannel { .. })
        ));

        let mut bad_node = FaultPlan::new();
        bad_node.push_dead_node(NodeId::new(99));
        assert!(matches!(
            bad_node.validate(&topo),
            Err(FaultPlanError::NodeOutOfRange { num_nodes: 16, .. })
        ));

        let mut bad_repair = FaultPlan::new();
        bad_repair.push(Fault {
            target: FaultTarget::Node {
                node: topo.node_at(&[1, 1]),
            },
            fail_at: 10,
            repair_at: Some(10),
        });
        assert!(matches!(
            bad_repair.validate(&topo),
            Err(FaultPlanError::RepairBeforeFailure { .. })
        ));

        let mut all_dead = FaultPlan::new();
        for node in topo.nodes() {
            all_dead.push_dead_node(node);
        }
        assert_eq!(
            all_dead.validate(&topo),
            Err(FaultPlanError::AllNodesFaulted)
        );
    }

    #[test]
    fn random_links_is_deterministic_and_distinct() {
        let topo = Topology::torus(&[8, 8]);
        let a = FaultPlan::random_links(&topo, 10, 42, &FaultRegion::Anywhere);
        let b = FaultPlan::random_links(&topo, 10, 42, &FaultRegion::Anywhere);
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        let mut targets: Vec<_> = a.faults().iter().map(|f| f.target).collect();
        targets.sort_by_key(|t| format!("{t:?}"));
        targets.dedup();
        assert_eq!(targets.len(), 10, "sampled faults must be distinct");
        let c = FaultPlan::random_links(&topo, 10, 43, &FaultRegion::Anywhere);
        assert_ne!(a, c, "different seeds give different draws");
    }

    #[test]
    fn random_links_respects_region_and_pool_size() {
        let topo = Topology::torus(&[8, 8]);
        let region = FaultRegion::coordinate_box(&[0, 0], &[2, 2]);
        let plan = FaultPlan::random_links(&topo, 1000, 7, &region);
        // 4 nodes in the box, 4 outgoing channels each.
        assert_eq!(plan.len(), 16);
        for fault in plan.faults() {
            match fault.target {
                FaultTarget::Link { node, .. } => {
                    assert!(region.contains(&topo, node));
                }
                FaultTarget::Node { .. } => panic!("random_links samples links only"),
            }
        }
    }

    #[test]
    fn transient_windows_drive_the_mask() {
        let topo = Topology::torus(&[4, 4]);
        let mut plan = FaultPlan::new();
        plan.push(Fault {
            target: FaultTarget::Node {
                node: topo.node_at(&[2, 2]),
            },
            fail_at: 500,
            repair_at: Some(900),
        });
        plan.push_dead_link(topo.node_at(&[0, 0]), Direction::new(0, Sign::Plus));
        assert!(!plan.is_static());
        assert_eq!(plan.transition_cycles(), vec![500, 900]);
        assert_eq!(plan.mask_at(&topo, 0).dead_channel_count(), 1);
        let mid = plan.mask_at(&topo, 500);
        assert_eq!(mid.dead_node_count(), 1);
        assert_eq!(mid.dead_channel_count(), 9);
        assert_eq!(plan.mask_at(&topo, 900).dead_channel_count(), 1);
    }
}
