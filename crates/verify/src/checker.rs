//! The bounded model checker: from `Cyclic`-but-inconclusive to a
//! definitive verdict.
//!
//! The CDG analysis ([`wormsim_routing::deadlock`]) proves deadlock-freedom
//! when the dependency graph is acyclic, but a *cyclic* CDG is inconclusive
//! for adaptive algorithms: a blocked message with several candidates
//! deadlocks only if **all** of them are simultaneously unavailable
//! (Duato's criterion). This module closes that gap on small networks by
//! exhaustively enumerating *holding configurations* — every way a worm can
//! be blocked while occupying a virtual channel — and computing the
//! greatest set of configurations that is mutually self-supporting:
//!
//! 1. **Enumerate.** Read the hops of [`wormsim_routing::deadlock::walk`],
//!    the walk the CDG is built from. Each non-terminal hop yields a
//!    configuration: the virtual channel just acquired (`held`), the node
//!    the head now stalls at, and the set of virtual channels the algorithm
//!    would request next (`waits`). Under a fault mask, a configuration
//!    whose entire next-candidate set is dead has an **empty** wait set: a
//!    minimal ("wait, never mis-route") worm reaching it is stranded and
//!    holds its channel forever.
//! 2. **Fixpoint.** Repeatedly delete any configuration with a waited
//!    channel that no surviving configuration holds — that channel must
//!    eventually free up (its occupants all drain or advance), so the
//!    blocked worm progresses. One free wait is enough, where the CDG
//!    peels a channel off only once *every* successor is gone: that is the
//!    whole difference between the two verdicts. Stranded configurations
//!    never progress and are never deleted. The deletion order does not
//!    matter; the result is the unique greatest fixpoint.
//! 3. **Verdict.** An empty fixpoint is [`SafetyVerdict::ProvenFree`]: no
//!    set of blocked worms can sustain itself, so every reachable blocking
//!    configuration eventually drains. A non-empty fixpoint yields a
//!    constructive [`DeadlockWitness`]: one worm per contended virtual
//!    channel, each holding what another waits for — a concrete stable
//!    configuration in which no worm can ever advance.
//!
//! # Soundness
//!
//! `ProvenFree` is sound for the algorithm's *own* candidate sets (the
//! engine's misrouting fallback explores extra states this enumeration
//! deliberately excludes — its safety is exactly what
//! [`crate::adversary`] probes). Suppose the engine reaches a real
//! deadlock: a set `D` of worms, each flit occupying a virtual channel,
//! none able to advance. Every channel segment any worm of `D` occupies
//! corresponds to an enumerated configuration (the worm's head passed
//! through that `(node, state)` on the way), and each such configuration's
//! waits are covered inside `D` — either by another worm of `D` or by the
//! worm's own downstream segment. That closed set survives the fixpoint,
//! so the fixpoint could not have been empty. Contrapositive: empty
//! fixpoint, no deadlock. The argument is independent of the number of VC
//! replicas per class (extra replicas only add resources to the same
//! dependency structure) and of message length (a longer worm holds more
//! segments, each individually enumerated).
//!
//! The witness direction is heuristic in the other sense: the fixpoint
//! over-approximates reachability, so a witness is a locally stable
//! configuration that may in principle not be reachable from an empty
//! network. In practice witnesses found here replay: the workspace
//! property tests drive the engine into a deadlock for every algorithm
//! this checker refutes (see `tests/verify_acceptance.rs`).

use crate::VerifyError;
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use wormsim_routing::deadlock::{walk, VirtualChannelId};
use wormsim_routing::{MessageRouteState, RoutingAlgorithm};
use wormsim_topology::{ChannelMask, NodeId, Topology};

/// Hard cap on network size for the exhaustive expansion. The checker is
/// meant for the ≤4×4 safety-audit regime; 128 nodes keeps 4-ary 3-cubes
/// and 8×8 tori reachable in release builds while refusing anything that
/// would silently take hours.
pub const MAX_NODES: u32 = 128;

/// One worm of a deadlock witness: where it comes from, the exact channel
/// path it acquires, and the stall that pins it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlockedWorm {
    /// Injection node.
    pub src: NodeId,
    /// Destination (never reached).
    pub dest: NodeId,
    /// Virtual channels acquired in order; the last one is [`held`].
    ///
    /// [`held`]: Self::held
    pub path: Vec<VirtualChannelId>,
    /// The virtual channel the worm occupies while blocked.
    pub held: VirtualChannelId,
    /// The node the head stalls at (sink of [`held`](Self::held)).
    pub node: NodeId,
    /// Every virtual channel the algorithm would accept next, all of which
    /// are held by other worms of the witness. Empty means the worm is
    /// *stranded*: a fault mask killed its entire candidate set.
    pub waits: Vec<VirtualChannelId>,
}

impl BlockedWorm {
    /// Whether this worm is stranded by the fault mask (no live candidate
    /// at all) rather than blocked on contended channels.
    pub fn is_stranded(&self) -> bool {
        self.waits.is_empty()
    }
}

/// A concrete, stable configuration of blocked worms: each holds a distinct
/// virtual channel, and every channel any of them waits for is held by
/// another worm of the set — no worm can ever advance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeadlockWitness {
    /// The blocked worms, sorted by held virtual channel.
    pub worms: Vec<BlockedWorm>,
    /// Suggested injection order (indices into [`worms`](Self::worms)):
    /// stranded worms first, then in closure-discovery order, so each
    /// worm's path is clear of later arrivals when it is injected.
    pub schedule: Vec<usize>,
}

impl DeadlockWitness {
    /// Number of stranded worms in the witness.
    pub fn stranded(&self) -> usize {
        self.worms.iter().filter(|w| w.is_stranded()).count()
    }
}

/// What the bounded checker concluded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SafetyVerdict {
    /// The greatest self-supporting set of blocked configurations is
    /// empty: no deadlock is possible under the algorithm's own candidate
    /// sets, whatever the injection pattern.
    ProvenFree,
    /// A stable blocked configuration exists; here is one.
    Deadlock(DeadlockWitness),
}

impl SafetyVerdict {
    /// Whether the verdict is [`SafetyVerdict::ProvenFree`].
    pub fn is_proven_free(&self) -> bool {
        matches!(self, SafetyVerdict::ProvenFree)
    }

    /// The witness, if the verdict found one.
    pub fn witness(&self) -> Option<&DeadlockWitness> {
        match self {
            SafetyVerdict::ProvenFree => None,
            SafetyVerdict::Deadlock(w) => Some(w),
        }
    }
}

/// The checker's full output: the verdict plus the exploration statistics
/// that calibrate how much evidence backs it.
#[derive(Clone, Debug)]
pub struct CheckReport {
    /// The verdict.
    pub verdict: SafetyVerdict,
    /// Holding configurations enumerated.
    pub configs: usize,
    /// Configurations surviving the fixpoint (0 iff proven free).
    pub survivors: usize,
    /// Surviving configurations with an empty (all-dead) wait set.
    pub stranded: usize,
    /// Ordered pairs excluded because the mask kills or disconnects an
    /// endpoint (0 for the unmasked check).
    pub excluded_pairs: u64,
    /// The physical channels held by *any* surviving configuration —
    /// a superset of every possible deadlock's contended channels. An
    /// engine-observed wait-for cycle must run inside this set.
    pub survivor_channels: Vec<u64>,
}

/// One enumerated holding configuration.
struct Config {
    held: VirtualChannelId,
    node: NodeId,
    src: NodeId,
    dest: NodeId,
    path: Vec<VirtualChannelId>,
    waits: Vec<VirtualChannelId>,
}

/// Checks `algo` on a healthy `topo`.
///
/// # Errors
///
/// [`VerifyError::NetworkTooLarge`] beyond [`MAX_NODES`] nodes.
pub fn check(topo: &Topology, algo: &dyn RoutingAlgorithm) -> Result<CheckReport, VerifyError> {
    check_masked(topo, &ChannelMask::all_alive(topo), algo)
}

/// Checks `algo` on the subgraph of `topo` surviving `mask`.
///
/// Pairs whose destination is dead or unreachable are excluded (the
/// simulator's [`Reachability`](wormsim_faults::Reachability) excludes them
/// from traffic generation the same way); candidates on dead channels are
/// dropped, and a configuration losing its whole candidate set becomes a
/// permanent holder — which is why a mask can introduce deadlocks the
/// masked CDG (which only ever *loses* edges) cannot see.
///
/// # Errors
///
/// [`VerifyError::NetworkTooLarge`] beyond [`MAX_NODES`] nodes.
pub fn check_masked(
    topo: &Topology,
    mask: &ChannelMask,
    algo: &dyn RoutingAlgorithm,
) -> Result<CheckReport, VerifyError> {
    if topo.num_nodes() > MAX_NODES {
        return Err(VerifyError::NetworkTooLarge {
            nodes: topo.num_nodes(),
            limit: MAX_NODES,
        });
    }
    let mut configs: Vec<Config> = Vec::new();
    // One configuration per (held, state-at-stall), the state naming the
    // pair: different approach paths to the same stall add nothing to the
    // fixpoint. A terminal hop is none: the worm drains, holding nothing
    // for long.
    let mut emitted: HashSet<(VirtualChannelId, MessageRouteState)> = HashSet::new();
    let counts = walk(topo, mask, algo, topo.nodes(), |hop| {
        if !hop.terminal && emitted.insert((hop.held, hop.state)) {
            configs.push(Config {
                held: hop.held,
                node: hop.node,
                src: hop.state.src(),
                dest: hop.state.dest(),
                path: hop.path(),
                waits: hop.waits.to_vec(),
            });
        }
    });
    let total = configs.len();
    let alive = fixpoint(&configs);
    let survivors = alive.iter().filter(|&&a| a).count();
    let stranded = configs
        .iter()
        .zip(&alive)
        .filter(|(c, &a)| a && c.waits.is_empty())
        .count();
    let mut survivor_channels: Vec<u64> = configs
        .iter()
        .zip(&alive)
        .filter(|(_, &a)| a)
        .map(|(c, _)| u64::from(c.held.channel.index()))
        .collect();
    survivor_channels.sort_unstable();
    survivor_channels.dedup();
    let verdict = if survivors == 0 {
        SafetyVerdict::ProvenFree
    } else {
        SafetyVerdict::Deadlock(extract_witness(&configs, &alive))
    };
    Ok(CheckReport {
        verdict,
        configs: total,
        survivors,
        stranded,
        excluded_pairs: counts.excluded_pairs,
        survivor_channels,
    })
}

/// Greatest fixpoint: repeatedly deletes configurations with a waited
/// channel no surviving configuration holds. Returns the survival mask.
fn fixpoint(configs: &[Config]) -> Vec<bool> {
    let mut alive = vec![true; configs.len()];
    let mut holders: BTreeMap<VirtualChannelId, usize> = BTreeMap::new();
    for c in configs {
        *holders.entry(c.held).or_insert(0) += 1;
    }
    // Reverse index: which configurations wait on a given channel.
    let mut waiters: BTreeMap<VirtualChannelId, Vec<usize>> = BTreeMap::new();
    for (i, c) in configs.iter().enumerate() {
        for &w in &c.waits {
            waiters.entry(w).or_default().push(i);
        }
    }
    let mut queue: VecDeque<usize> = configs
        .iter()
        .enumerate()
        .filter(|(_, c)| !c.waits.is_empty() && c.waits.iter().any(|w| !holders.contains_key(w)))
        .map(|(i, _)| i)
        .collect();
    while let Some(i) = queue.pop_front() {
        if !alive[i] {
            continue;
        }
        alive[i] = false;
        let held = configs[i].held;
        let count = holders.get_mut(&held).expect("alive config was counted");
        *count -= 1;
        if *count == 0 {
            holders.remove(&held);
            if let Some(ws) = waiters.get(&held) {
                for &j in ws {
                    if alive[j] {
                        queue.push_back(j);
                    }
                }
            }
        }
    }
    alive
}

/// Builds a concrete witness from the surviving configurations: pick one
/// holder per virtual channel, close over the wait sets, and order the
/// worms deterministically.
fn extract_witness(configs: &[Config], alive: &[bool]) -> DeadlockWitness {
    // Canonical holder for each channel: the first surviving config in
    // enumeration order (deterministic; BFS-minimal paths come first).
    let mut chosen: BTreeMap<VirtualChannelId, usize> = BTreeMap::new();
    for (i, c) in configs.iter().enumerate() {
        if alive[i] {
            chosen.entry(c.held).or_insert(i);
        }
    }
    // Seed the closure at a stranded survivor when one exists (the
    // fault-mask story starts there), else at the first survivor.
    let seed = configs
        .iter()
        .enumerate()
        .position(|(i, c)| alive[i] && c.waits.is_empty())
        .or_else(|| alive.iter().position(|&a| a))
        .expect("witness extraction requires survivors");
    let seed = chosen[&configs[seed].held].min(seed);
    let mut in_witness: HashSet<usize> = HashSet::new();
    let mut order: Vec<usize> = Vec::new();
    let mut work: VecDeque<usize> = VecDeque::new();
    in_witness.insert(seed);
    work.push_back(seed);
    while let Some(i) = work.pop_front() {
        order.push(i);
        for w in &configs[i].waits {
            let j = chosen[w];
            if in_witness.insert(j) {
                work.push_back(j);
            }
        }
    }
    // Stranded worms first in the suggested injection order, then
    // discovery order; worms themselves sorted by held channel.
    order.sort_by_key(|&i| (!configs[i].waits.is_empty(), configs[i].held));
    let worms: Vec<BlockedWorm> = {
        let mut sorted = order.clone();
        sorted.sort_by_key(|&i| configs[i].held);
        sorted
            .iter()
            .map(|&i| {
                let c = &configs[i];
                BlockedWorm {
                    src: c.src,
                    dest: c.dest,
                    path: c.path.clone(),
                    held: c.held,
                    node: c.node,
                    waits: c.waits.clone(),
                }
            })
            .collect()
    };
    let index_of: HashMap<VirtualChannelId, usize> = worms
        .iter()
        .enumerate()
        .map(|(w, worm)| (worm.held, w))
        .collect();
    let schedule: Vec<usize> = order.iter().map(|&i| index_of[&configs[i].held]).collect();
    DeadlockWitness { worms, schedule }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_routing::AlgorithmKind;

    fn check_kind(kind: AlgorithmKind, topo: &Topology) -> CheckReport {
        let algo = kind.build(topo).unwrap();
        check(topo, algo.as_ref()).unwrap()
    }

    #[test]
    fn ecube_is_proven_free_on_4x4_torus() {
        let topo = Topology::torus(&[4, 4]);
        let report = check_kind(AlgorithmKind::Ecube, &topo);
        assert!(report.verdict.is_proven_free(), "{report:?}");
        assert!(report.configs > 0);
        assert_eq!(report.survivors, 0);
    }

    #[test]
    fn five_paper_algorithms_proven_free_and_2pn_refuted_on_4x4_torus() {
        // The headline acceptance fact, settled both ways. Five of the
        // paper's six algorithms are deadlock-free at their paper VC
        // counts on a 4x4 torus, and the checker proves it exhaustively.
        //
        // The sixth — 2pn in its published 2D Eq.1 form — is *refuted*.
        // PR-6 flagged its CDG as cyclic-but-inconclusive and kept the
        // published definition; this checker settles that open question
        // the other way: the Eq.1 class tag is constant over a 2D
        // journey, so within a class the torus rings stay cyclic and a
        // stable all-candidates-held configuration exists. The extracted
        // witness contains a hand-verified core 4-cycle (all class 01):
        //
        //   (1,3)->(3,1) holds (2,0)+x, stalled at (3,0) on {(3,0)+y}
        //   (0,3)->(2,1) holds (3,0)+y, stalled at (3,1) on {(3,1)-x}
        //   (0,1)->(2,0) holds (3,1)-x, stalled at (2,1) on {(2,1)-y}
        //   (1,1)->(3,0) holds (2,1)-y, stalled at (2,0) on {(2,0)+x}
        //
        // Every stall's candidate set is a singleton, so Duato's escape
        // condition never fires. The witness is also dynamically real:
        // replayed with aligned injection timing under random VC
        // selection, the engine deadlocks on exactly this cycle (see the
        // workspace-level verify_acceptance tests). The >=3D variant
        // (travel-sign tags x dateline levels) remains ProvenFree — see
        // `two_pn_is_proven_free_on_2x4x4_torus` below.
        let topo = Topology::torus(&[4, 4]);
        for kind in AlgorithmKind::all() {
            let report = check_kind(kind, &topo);
            if kind == AlgorithmKind::TwoPowerN {
                let witness = report.verdict.witness().expect("2pn-2D must be refuted");
                assert_eq!(witness.stranded(), 0, "healthy network cannot strand");
                assert!(witness.worms.len() >= 4);
            } else {
                assert!(
                    report.verdict.is_proven_free(),
                    "{kind}: expected ProvenFree, got {} survivors of {} configs",
                    report.survivors,
                    report.configs
                );
            }
        }
    }

    #[test]
    fn two_pn_is_proven_free_on_2x4x4_torus() {
        // In >=3D tori 2pn switches to travel-sign tags crossed with
        // dateline levels; the bounded checker confirms that variant is
        // genuinely safe, so the 2D refutation above reflects Eq.1's
        // class collapse, not checker pessimism.
        let topo = Topology::torus(&[2, 4, 4]);
        let report = check_kind(AlgorithmKind::TwoPowerN, &topo);
        assert!(report.verdict.is_proven_free(), "{report:?}");
    }

    #[test]
    fn naive_minimal_has_a_witness_on_4x4_torus() {
        let topo = Topology::torus(&[4, 4]);
        let report = check_kind(AlgorithmKind::NaiveMinimal, &topo);
        let witness = report.verdict.witness().expect("naive must deadlock");
        assert!(witness.worms.len() >= 2);
        assert_eq!(witness.schedule.len(), witness.worms.len());
        // Structural validity: every wait is held by exactly one worm of
        // the witness, and no two worms hold the same channel.
        let held: HashSet<VirtualChannelId> = witness.worms.iter().map(|w| w.held).collect();
        assert_eq!(held.len(), witness.worms.len(), "holders must be distinct");
        for worm in &witness.worms {
            assert!(!worm.is_stranded(), "healthy network cannot strand");
            assert_eq!(*worm.path.last().unwrap(), worm.held);
            for w in &worm.waits {
                assert!(held.contains(w), "wait {w:?} has no holder");
            }
        }
    }

    #[test]
    fn naive_minimal_is_proven_free_on_mesh() {
        // Minimal adaptive routing cannot deadlock on a (VC-free) mesh...
        // is false in general for wormhole (turn cycles), and the checker
        // must say so: keep this as a regression that the checker is not
        // trivially optimistic.
        let topo = Topology::mesh(&[4, 4]);
        let report = check_kind(AlgorithmKind::NaiveMinimal, &topo);
        assert!(
            !report.verdict.is_proven_free(),
            "single-class fully-adaptive mesh routing has turn cycles"
        );
    }

    #[test]
    fn stranding_mask_produces_stranded_witness() {
        use wormsim_topology::{Direction, Sign};
        // Mesh + minimal routing: killing the only channel on some pair's
        // unique minimal path strands worms (cf. the masked-CDG doctest).
        let topo = Topology::mesh(&[4, 4]);
        let mut mask = ChannelMask::all_alive(&topo);
        mask.kill_channel(topo.channel(topo.node_at(&[1, 0]), Direction::new(0, Sign::Plus)));
        let algo = AlgorithmKind::PositiveHop.build(&topo).unwrap();
        let report = check_masked(&topo, &mask, algo.as_ref()).unwrap();
        match &report.verdict {
            SafetyVerdict::Deadlock(witness) => {
                assert!(witness.stranded() > 0, "mask must strand a worm");
                assert!(report.stranded > 0);
            }
            SafetyVerdict::ProvenFree => panic!("stranding mask must refute: {report:?}"),
        }
    }

    #[test]
    fn rejects_oversized_networks() {
        let topo = Topology::torus(&[16, 16]);
        let algo = AlgorithmKind::Ecube.build(&topo).unwrap();
        assert!(matches!(
            check(&topo, algo.as_ref()),
            Err(VerifyError::NetworkTooLarge { nodes: 256, .. })
        ));
    }
}
