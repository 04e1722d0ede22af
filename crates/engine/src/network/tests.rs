//! Engine unit tests: indexing, cancellation, zero-load latency, the
//! worklist bitmap, the sleeping route phase against its always-retry
//! reference, and fault handling.

use super::*;
use crate::config::SelectionPolicy;
use crate::NetworkBuilder;
use proptest::prelude::*;
use wormsim_routing::AlgorithmKind;

fn tiny(algorithm: AlgorithmKind) -> Network {
    NetworkBuilder::new(Topology::torus(&[4, 4]), algorithm)
        .seed(1)
        .build()
        .unwrap()
}

#[test]
fn every_lane_decodes_to_its_node_port_and_vc() {
    let net = tiny(AlgorithmKind::PositiveHop);
    let mut seen = vec![false; net.lanes.count()];
    for node in 0..16u32 {
        for port in 0..=net.dirs {
            for vc in 0..net.vcs {
                let ivc = if port == net.dirs {
                    net.inj_ivc(node, vc)
                } else {
                    // A network lane is numbered by the output VC feeding it.
                    let dir = Direction::from_index(port);
                    let up = net
                        .topo
                        .neighbor(NodeId::new(node), dir.opposite())
                        .unwrap();
                    net.ovc_index(up.index(), port, vc) as u32
                };
                assert_eq!(net.lane_parts(ivc), (node, port, vc));
                assert!(!std::mem::replace(&mut seen[ivc as usize], true));
            }
        }
    }
    assert!(seen.iter().all(|&s| s), "a torus uses every lane");
}

#[test]
fn empty_network_steps_quietly() {
    let mut net = tiny(AlgorithmKind::Ecube);
    net.run(1000);
    assert_eq!(net.metrics().generated, 0);
    assert_eq!(net.flits_in_flight(), 0);
    assert!(net.deadlock_report().is_none());
    assert_eq!(net.cycle(), 1000);
}

#[test]
fn cancelled_token_stops_run_promptly() {
    let token = crate::CancelToken::new();
    token.cancel();
    let mut net = tiny(AlgorithmKind::Ecube);
    net.set_cancel_token(token.clone());
    net.run(1_000_000);
    assert_eq!(net.cycle(), 0, "pre-cancelled run executes no cycles");

    // The drain path honors the token too: an injected message never
    // delivers because run_until_empty returns at its first check.
    let src = net.topology().node_at(&[0, 0]);
    let dest = net.topology().node_at(&[2, 1]);
    net.inject(src, dest, 16);
    assert!(!net.run_until_empty(1_000));
    assert_eq!(net.cycle(), 0);
}

#[test]
fn uncancelled_token_changes_nothing() {
    // Same seed, one with an (untripped) token: bit-identical traffic.
    let busy = || {
        NetworkBuilder::new(Topology::torus(&[4, 4]), AlgorithmKind::PositiveHop)
            .arrival(wormsim_traffic::ArrivalProcess::geometric(0.02).unwrap())
            .seed(7)
            .build()
            .unwrap()
    };
    let mut plain = busy();
    let mut tokened = busy();
    tokened.set_cancel_token(crate::CancelToken::new());
    plain.run(3_000);
    tokened.run(3_000);
    assert_eq!(plain.cycle(), tokened.cycle());
    assert_eq!(plain.metrics().generated, tokened.metrics().generated);
    assert_eq!(plain.metrics().delivered, tokened.metrics().delivered);
    assert_eq!(plain.metrics().flit_hops, tokened.metrics().flit_hops);
}

#[test]
fn mid_run_cancellation_is_stride_bounded() {
    let token = crate::CancelToken::new();
    let mut net = tiny(AlgorithmKind::Ecube);
    net.set_cancel_token(token.clone());
    net.run(500); // below the check stride: runs to completion
    assert_eq!(net.cycle(), 500);
    token.cancel();
    net.run(100_000);
    // The first check (n == 0) sees the tripped token immediately.
    assert_eq!(net.cycle(), 500);
}

#[test]
fn single_message_zero_load_latency() {
    // Equation 2 with w = 0: latency = m_l + d - 1.
    for algorithm in [
        AlgorithmKind::Ecube,
        AlgorithmKind::NorthLast,
        AlgorithmKind::TwoPowerN,
        AlgorithmKind::PositiveHop,
        AlgorithmKind::NegativeHop,
        AlgorithmKind::NegativeHopBonusCards,
    ] {
        let mut net = tiny(algorithm);
        let src = net.topology().node_at(&[0, 0]);
        let dest = net.topology().node_at(&[2, 1]);
        net.inject(src, dest, 16);
        assert!(net.run_until_empty(1_000), "{algorithm} should drain");
        let delivered = net.drain_delivered();
        assert_eq!(delivered.len(), 1, "{algorithm}");
        let d = delivered[0];
        assert_eq!(d.hop_class, 3, "{algorithm}");
        assert_eq!(d.latency, 16 + 3 - 1, "{algorithm}: zero-load latency");
        assert_eq!(d.source_wait, 0, "{algorithm}");
    }
}

#[test]
fn single_flit_message_latency() {
    let mut net = tiny(AlgorithmKind::Ecube);
    let src = net.topology().node_at(&[0, 0]);
    let dest = net.topology().node_at(&[1, 0]);
    net.inject(src, dest, 1);
    assert!(net.run_until_empty(100));
    let d = net.drain_delivered();
    assert_eq!(d[0].latency, 1);
}

#[test]
fn flit_conservation() {
    let mut net = tiny(AlgorithmKind::NegativeHop);
    for i in 0..10u32 {
        let src = NodeId::new(i % 16);
        let dest = NodeId::new((i * 7 + 3) % 16);
        if src != dest {
            net.inject(src, dest, 4 + i % 5);
        }
    }
    let injected_flits = net.flits_in_flight();
    assert!(net.run_until_empty(10_000));
    assert_eq!(net.metrics().flits_ejected, injected_flits);
    assert_eq!(
        net.metrics().delivered as usize,
        net.drain_delivered().len()
    );
    assert_eq!(net.live_messages(), 0);
}

#[test]
fn deterministic_given_seed() {
    let run = |seed: u64| {
        let mut net = NetworkBuilder::new(Topology::torus(&[4, 4]), AlgorithmKind::PositiveHop)
            .arrival(wormsim_traffic::ArrivalProcess::geometric(0.02).unwrap())
            .message_length(wormsim_traffic::MessageLength::fixed(8).unwrap())
            .seed(seed)
            .build()
            .unwrap();
        net.run(2_000);
        (
            net.metrics().generated,
            net.metrics().delivered,
            net.metrics().flit_hops,
        )
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43));
}

/// Everything `retain` visits, in order, keeping the indices `keep` accepts.
fn visit(set: &mut BitSet, keep: impl Fn(usize) -> bool) -> Vec<usize> {
    let mut seen = Vec::new();
    set.retain(|i| {
        seen.push(i);
        keep(i)
    });
    seen
}

#[test]
fn bitset_retain_visits_ascending_and_clears_exactly_the_rejected_bits() {
    // 64 * 64 = 4096 indices per summary word: 5000 spans two of them.
    let mut set = BitSet::new(5_000);
    for i in [4_999, 0, 4_096, 63, 4_095, 64, 1_000] {
        set.insert(i);
    }
    let all = [0, 63, 64, 1_000, 4_095, 4_096, 4_999];
    assert_eq!(visit(&mut set, |i| i % 2 == 1), all);
    assert_eq!(visit(&mut set, |_| true), [63, 4_095, 4_999]);
}

#[test]
fn bitset_emptied_word_leaves_and_rejoins_the_summary() {
    let mut set = BitSet::new(5_000);
    set.insert(130);
    set.insert(4_500);
    visit(&mut set, |i| i != 130);
    assert_eq!(set.summary, [0, 1 << (4_500 / 64 - 64)], "word 2 emptied");
    set.insert(129);
    assert_eq!(set.summary[0], 1 << 2, "a later insert sets it again");
    visit(&mut set, |_| false);
    assert_eq!(set.summary, [0, 0]);
    assert!(
        visit(&mut set, |_| true).is_empty(),
        "an empty set visits nothing"
    );
    assert!(visit(&mut BitSet::default(), |_| true).is_empty());
}

/// Which faults a differential case runs under.
#[derive(Clone, Copy, Debug)]
enum FaultCase {
    Healthy,
    /// `count` random links dead from cycle 0.
    Static {
        count: usize,
        seed: u64,
    },
    /// One random link dead over `[fail_at, fail_at + lasts)`.
    Transient {
        seed: u64,
        fail_at: u64,
        lasts: u64,
    },
}

impl FaultCase {
    fn plan(self, topo: &Topology) -> Option<wormsim_faults::FaultPlan> {
        use wormsim_faults::{FaultPlan, FaultRegion};
        match self {
            FaultCase::Healthy => None,
            FaultCase::Static { count, seed } => Some(FaultPlan::random_links(
                topo,
                count,
                seed,
                &FaultRegion::Anywhere,
            )),
            FaultCase::Transient {
                seed,
                fail_at,
                lasts,
            } => {
                let link = FaultPlan::random_links(topo, 1, seed, &FaultRegion::Anywhere);
                let mut plan = FaultPlan::new();
                plan.push(wormsim_faults::Fault {
                    fail_at,
                    repair_at: Some(fail_at + lasts),
                    ..link.faults()[0]
                });
                Some(plan)
            }
        }
    }
}

/// One randomized configuration of the differential test below.
#[derive(Clone, Debug)]
struct Differential {
    topo: Topology,
    algorithm: AlgorithmKind,
    selection: SelectionPolicy,
    switching: Switching,
    replicas: u32,
    load: f64,
    faults: FaultCase,
    seed: u64,
    /// Cycles run before the registry is switched on, and after.
    cycles: (u64, u64),
}

impl Differential {
    fn build(&self, always_retry: bool) -> Option<Network> {
        let length = 8;
        let rate = self.load * 2.0 * self.topo.num_dims() as f64
            / (f64::from(length) * self.topo.uniform_avg_distance());
        let mut builder = NetworkBuilder::new(self.topo.clone(), self.algorithm)
            .arrival(wormsim_traffic::ArrivalProcess::geometric(rate.min(1.0)).unwrap())
            .message_length(wormsim_traffic::MessageLength::fixed(length).unwrap())
            .selection(self.selection)
            .switching(self.switching)
            .vc_replicas(self.replicas)
            .seed(self.seed);
        if let Some(plan) = self.faults.plan(&self.topo) {
            builder = builder.faults(plan);
        }
        // nhop/nbc reject non-bipartite tori; nlast rejects some shapes.
        let mut net = builder.build().ok()?;
        net.always_retry = always_retry;
        Some(net)
    }
}

fn arb_differential() -> impl Strategy<Value = Differential> {
    let topo = prop_oneof![
        Just(Topology::torus(&[4, 4])),
        Just(Topology::torus(&[6, 4])),
        Just(Topology::mesh(&[5, 5])),
        Just(Topology::torus(&[4, 4, 4])),
        Just(Topology::mesh(&[3, 3, 3])),
    ];
    let algorithm = prop_oneof![
        Just(AlgorithmKind::Ecube),
        Just(AlgorithmKind::NorthLast),
        Just(AlgorithmKind::TwoPowerN),
        Just(AlgorithmKind::PositiveHop),
        Just(AlgorithmKind::NegativeHop),
        Just(AlgorithmKind::NegativeHopBonusCards),
    ];
    let selection = prop_oneof![
        Just(SelectionPolicy::MostCredits),
        Just(SelectionPolicy::FirstFree),
        Just(SelectionPolicy::Random),
    ];
    let switching = prop_oneof![
        (1u32..=3).prop_map(|d| Switching::Wormhole { buffer_depth: d }),
        Just(Switching::VirtualCutThrough),
        Just(Switching::StoreAndForward),
    ];
    let faults = prop_oneof![
        Just(FaultCase::Healthy),
        Just(FaultCase::Healthy),
        (1usize..=4, any::<u64>()).prop_map(|(count, seed)| FaultCase::Static { count, seed }),
        (any::<u64>(), 50u64..300, 20u64..200).prop_map(|(seed, fail_at, lasts)| {
            FaultCase::Transient {
                seed,
                fail_at,
                lasts,
            }
        }),
    ];
    (
        topo,
        algorithm,
        selection,
        switching,
        1u32..=2,
        0.3f64..1.0,
        faults,
        any::<u64>(),
        (100u64..400, 100u64..400),
    )
        .prop_map(
            |(topo, algorithm, selection, switching, replicas, load, faults, seed, cycles)| {
                Differential {
                    topo,
                    algorithm,
                    selection,
                    switching,
                    replicas,
                    load,
                    faults,
                    seed,
                    cycles,
                }
            },
        )
}

/// Everything a run leaves behind that the sleeping route phase must
/// not move: the counters (work counters aside), the delivery records
/// and the registry report's per-channel / per-class arrays.
fn observable(net: &mut Network) -> (String, Vec<DeliveredMessage>, [Vec<u64>; 6], u64) {
    let mut metrics = net.metrics();
    metrics.route_attempts = 0;
    metrics.route_sleeps = 0;
    let report = net
        .metrics_report("differential")
        .expect("switched on mid-run");
    let arrays = [
        report.channel_flits,
        report.channel_blocked,
        report.channel_alloc_fail,
        report.class_flits,
        report.class_blocked,
        report.class_alloc_fail,
    ];
    (
        format!("{metrics:?} {:?}", net.deadlock_report()),
        net.drain_delivered(),
        arrays,
        report.latency.count,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The route phase with sleeping heads against the always-retry
    /// reference: same simulation, same telemetry, and every skipped
    /// entry is an attempt the reference made.
    #[test]
    fn sleeping_heads_match_the_always_retry_reference(case in arb_differential()) {
        let (Some(mut net), Some(mut reference)) = (case.build(false), case.build(true))
        else {
            return Ok(());
        };
        for n in [&mut net, &mut reference] {
            n.run(case.cycles.0);
            n.observer().metrics_on();
            n.run(case.cycles.1);
        }
        prop_assert_eq!(observable(&mut net), observable(&mut reference));
        prop_assert_eq!(reference.metrics().route_sleeps, 0);
        prop_assert_eq!(
            reference.metrics().route_attempts,
            net.metrics().route_attempts + net.metrics().route_sleeps
        );
        if !matches!(case.faults, FaultCase::Healthy) {
            prop_assert_eq!(net.metrics().route_sleeps, 0, "heads never sleep under faults");
        }
    }
}

#[test]
fn blocked_heads_sleep_at_saturation() {
    let case = Differential {
        topo: Topology::torus(&[4, 4]),
        algorithm: AlgorithmKind::Ecube,
        selection: SelectionPolicy::MostCredits,
        switching: Switching::wormhole(),
        replicas: 1,
        load: 0.9,
        faults: FaultCase::Healthy,
        seed: 1993,
        cycles: (0, 1_000),
    };
    let mut net = case.build(false).unwrap();
    net.run(1_000);
    let m = net.metrics();
    assert!(
        m.route_sleeps > m.route_attempts,
        "at saturation most pending heads are asleep: {} sleeps, {} attempts",
        m.route_sleeps,
        m.route_attempts
    );
}

#[test]
fn adaptive_traffic_flows_around_static_link_faults() {
    let topo = Topology::torus(&[4, 4]);
    let plan = wormsim_faults::FaultPlan::random_links(
        &topo,
        6,
        7,
        &wormsim_faults::FaultRegion::Anywhere,
    );
    let mut net = NetworkBuilder::new(topo, AlgorithmKind::PositiveHop)
        .arrival(wormsim_traffic::ArrivalProcess::geometric(0.01).unwrap())
        .message_length(wormsim_traffic::MessageLength::fixed(8).unwrap())
        .faults(plan)
        .hop_budget(Some(200))
        .seed(1993)
        .build()
        .unwrap();
    net.run(3_000);
    assert_eq!(net.fault_mask().unwrap().dead_channel_count(), 6);
    assert!(net.metrics().generated > 0);
    assert!(
        net.metrics().delivered > 0,
        "traffic must route around faults"
    );
}

#[test]
fn severed_in_flight_message_is_aborted_and_resources_reclaimed() {
    // A 4-node line; the worm 0 -> 3 is cut mid-flight when the channel
    // out of node 1 dies at cycle 4.
    let topo = Topology::mesh(&[4]);
    let mut plan = wormsim_faults::FaultPlan::new();
    plan.push(wormsim_faults::Fault {
        target: wormsim_faults::FaultTarget::Link {
            node: NodeId::new(1),
            direction: Direction::new(0, wormsim_topology::Sign::Plus),
        },
        fail_at: 4,
        repair_at: None,
    });
    let mut net = NetworkBuilder::new(topo, AlgorithmKind::Ecube)
        .faults(plan)
        .seed(1)
        .build()
        .unwrap();
    net.inject(NodeId::new(0), NodeId::new(3), 8);
    assert!(net.run_until_empty(1_000));
    let m = net.metrics();
    assert_eq!(m.messages_aborted, 1);
    assert_eq!(m.delivered, 0);
    assert!(m.flits_dropped > 0);
    assert_eq!(net.flits_in_flight(), 0);
    assert_eq!(net.live_messages(), 0);
    assert!(net.deadlock_report().is_none());
}

#[test]
fn queued_messages_park_during_partition_and_resume_after_repair() {
    // Two nodes; the only forward channel dies for cycles 2..50. The
    // streaming message is severed; the two still-queued messages park
    // (exempt from the watchdog) and deliver after the repair.
    let topo = Topology::mesh(&[2]);
    let mut plan = wormsim_faults::FaultPlan::new();
    plan.push(wormsim_faults::Fault {
        target: wormsim_faults::FaultTarget::Link {
            node: NodeId::new(0),
            direction: Direction::new(0, wormsim_topology::Sign::Plus),
        },
        fail_at: 2,
        repair_at: Some(50),
    });
    let mut net = NetworkBuilder::new(topo, AlgorithmKind::Ecube)
        .faults(plan)
        .congestion_limit(None)
        .seed(1)
        .build()
        .unwrap();
    for _ in 0..3 {
        net.inject(NodeId::new(0), NodeId::new(1), 4);
    }
    net.run(10);
    let aborted = net.metrics().messages_aborted;
    assert!(aborted >= 1, "the in-flight worm is severed");
    assert_eq!(net.metrics().delivered, 0);
    assert_eq!(net.parked_messages() + aborted as usize, 3);
    assert!(net.parked_messages() >= 1);
    assert_eq!(net.active_flits(), 0, "parked flits do not count as active");
    assert!(net.run_until_empty(1_000));
    assert_eq!(net.parked_messages(), 0);
    assert_eq!(net.metrics().delivered, 3 - aborted);
    assert_eq!(net.live_messages(), 0);
    assert!(net.deadlock_report().is_none());
}

#[test]
fn livelock_guard_flags_messages_over_budget() {
    // The sole forward channel is dead from cycle 0 and never repaired;
    // a manually injected message (which bypasses the reachability check
    // at generation) waits forever. The age budget flags it.
    let topo = Topology::mesh(&[2]);
    let mut plan = wormsim_faults::FaultPlan::new();
    plan.push_dead_link(
        NodeId::new(0),
        Direction::new(0, wormsim_topology::Sign::Plus),
    );
    let mut net = NetworkBuilder::new(topo, AlgorithmKind::Ecube)
        .faults(plan)
        .age_budget(Some(100))
        .seed(1)
        .build()
        .unwrap();
    net.inject(NodeId::new(0), NodeId::new(1), 4);
    net.run(600);
    let report = net.livelock_report().expect("age budget must trip");
    assert!(report.max_age > 100);
    assert_eq!(report.messages_over_budget, 1);
}
