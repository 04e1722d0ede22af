//! End-to-end behavioral tests of the flit-level simulator.

use wormsim_engine::{EjectionModel, Network, NetworkBuilder, SelectionPolicy, Switching};
use wormsim_routing::AlgorithmKind;
use wormsim_topology::Topology;
use wormsim_traffic::{ArrivalProcess, MessageLength, TrafficConfig};

const PAPER_ALGOS: [AlgorithmKind; 6] = [
    AlgorithmKind::NegativeHopBonusCards,
    AlgorithmKind::PositiveHop,
    AlgorithmKind::NegativeHop,
    AlgorithmKind::TwoPowerN,
    AlgorithmKind::Ecube,
    AlgorithmKind::NorthLast,
];

fn loaded(algorithm: AlgorithmKind, rate: f64, seed: u64) -> Network {
    NetworkBuilder::new(Topology::torus(&[8, 8]), algorithm)
        .traffic(TrafficConfig::Uniform)
        .arrival(ArrivalProcess::geometric(rate).unwrap())
        .message_length(MessageLength::fixed(16).unwrap())
        .seed(seed)
        .build()
        .unwrap()
}

/// All six paper algorithms survive heavy overload on a torus without
/// watchdog-detected deadlock, and keep delivering.
///
/// This is the empirical counterpart of the deadlock-freedom claims: the
/// CDG checker proves e-cube and the hop schemes acyclic, while 2pn and
/// north-last (cyclic-but-claimed-safe) are validated here.
#[test]
fn saturation_without_deadlock() {
    for algorithm in PAPER_ALGOS {
        // Offered load far beyond saturation for an 8x8 torus.
        let mut net = loaded(algorithm, 0.05, 7);
        net.run(30_000);
        assert!(
            net.deadlock_report().is_none(),
            "{algorithm}: {:?}",
            net.deadlock_report()
        );
        let delivered = net.metrics().delivered;
        assert!(delivered > 1_000, "{algorithm}: only {delivered} delivered");
    }
}

/// The naive single-class strawman deadlocks under the same overload, and
/// the watchdog reports it.
#[test]
fn naive_routing_deadlocks_and_watchdog_fires() {
    let mut net = NetworkBuilder::new(Topology::torus(&[8, 8]), AlgorithmKind::NaiveMinimal)
        .traffic(TrafficConfig::Uniform)
        .arrival(ArrivalProcess::geometric(0.05).unwrap())
        .message_length(MessageLength::fixed(16).unwrap())
        .watchdog_cycles(5_000)
        .seed(3)
        .build()
        .unwrap();
    net.run(60_000);
    let report = net
        .deadlock_report()
        .expect("naive torus routing must deadlock");
    assert!(report.flits_in_flight > 0);
    assert!(report.detected_at >= report.last_progress + 5_000);
}

/// Store-and-forward zero-load latency is `d × m_l` (a full store per hop),
/// versus `m_l + d - 1` for wormhole and cut-through.
#[test]
fn switching_mode_zero_load_latencies() {
    for (switching, expected) in [
        (Switching::wormhole(), 16 + 3 - 1),
        (Switching::VirtualCutThrough, 16 + 3 - 1),
        (Switching::StoreAndForward, 3 * 16),
    ] {
        let mut net = NetworkBuilder::new(Topology::torus(&[8, 8]), AlgorithmKind::Ecube)
            .switching(switching)
            .seed(1)
            .build()
            .unwrap();
        let topo = net.topology().clone();
        net.inject(topo.node_at(&[0, 0]), topo.node_at(&[2, 1]), 16);
        assert!(net.run_until_empty(1_000));
        let d = net.drain_delivered();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].latency, expected, "{switching:?}");
    }
}

/// Under blocking contention, virtual cut-through keeps upstream channels
/// free: with two messages forced through a shared channel, the follower's
/// latency penalty under VCT is no worse than under wormhole.
#[test]
fn contention_resolves_in_all_modes() {
    for switching in [
        Switching::wormhole(),
        Switching::VirtualCutThrough,
        Switching::StoreAndForward,
    ] {
        let mut net = NetworkBuilder::new(Topology::torus(&[8, 8]), AlgorithmKind::Ecube)
            .switching(switching)
            .seed(1)
            .build()
            .unwrap();
        let topo = net.topology().clone();
        // Both messages need the +0 channel out of (1,0): e-cube gives them
        // the same deterministic path segment.
        net.inject(topo.node_at(&[0, 0]), topo.node_at(&[3, 0]), 16);
        net.inject(topo.node_at(&[1, 0]), topo.node_at(&[3, 1]), 16);
        assert!(net.run_until_empty(2_000), "{switching:?}");
        let delivered = net.drain_delivered();
        assert_eq!(delivered.len(), 2);
        // The shared channel serializes the worms: someone waited.
        assert!(
            delivered.iter().any(|m| m.latency > 16 + 3 - 1),
            "{switching:?}: contention should delay at least one message"
        );
    }
}

/// Congestion control refuses excess messages instead of queueing them
/// without bound; with no limit nothing is ever refused.
#[test]
fn congestion_control_refusal() {
    let mut limited = loaded(AlgorithmKind::Ecube, 0.08, 11);
    limited.run(10_000);
    assert!(
        limited.metrics().refused > 0,
        "overload must trigger refusals"
    );

    let mut unlimited = NetworkBuilder::new(Topology::torus(&[8, 8]), AlgorithmKind::Ecube)
        .traffic(TrafficConfig::Uniform)
        .arrival(ArrivalProcess::geometric(0.08).unwrap())
        .message_length(MessageLength::fixed(16).unwrap())
        .congestion_limit(None)
        .seed(11)
        .build()
        .unwrap();
    unlimited.run(10_000);
    assert_eq!(unlimited.metrics().refused, 0);
    // Without refusal the backlog grows without bound.
    assert!(unlimited.live_messages() > limited.live_messages());
}

/// The processor-router port is a real channel: a node injecting several
/// messages at once serializes their flits at one per cycle.
#[test]
fn injection_bandwidth_serializes() {
    let mut net = NetworkBuilder::new(Topology::torus(&[8, 8]), AlgorithmKind::PositiveHop)
        .seed(1)
        .build()
        .unwrap();
    let topo = net.topology().clone();
    let src = topo.node_at(&[0, 0]);
    // Four 16-flit messages to distinct destinations: 64 flits through a
    // 1-flit/cycle port.
    for dest in [[1u16, 0u16], [0, 1], [7, 0], [0, 7]] {
        net.inject(src, topo.node_at(&dest), 16);
    }
    assert!(net.run_until_empty(2_000));
    let delivered = net.drain_delivered();
    assert_eq!(delivered.len(), 4);
    let worst = delivered.iter().map(|m| m.latency).max().unwrap();
    // The last tail cannot leave the source before cycle 64.
    assert!(
        worst >= 64,
        "worst latency {worst} ignores injection bandwidth"
    );
}

/// A single shared ejection channel throttles delivery to a hotspot node,
/// while per-VC delivery does not.
#[test]
fn ejection_models_differ_under_convergent_traffic() {
    let run = |ejection: EjectionModel| {
        let mut net = NetworkBuilder::new(Topology::torus(&[8, 8]), AlgorithmKind::PositiveHop)
            .ejection(ejection)
            .seed(5)
            .build()
            .unwrap();
        let topo = net.topology().clone();
        let hot = topo.node_at(&[4, 4]);
        // Four neighbors each send 4 messages to the same destination.
        for s in [[3u16, 4u16], [5, 4], [4, 3], [4, 5]] {
            for _ in 0..4 {
                net.inject(topo.node_at(&s), hot, 16);
            }
        }
        assert!(net.run_until_empty(10_000));
        net.drain_delivered()
            .iter()
            .map(|m| m.latency)
            .max()
            .unwrap()
    };
    let single = run(EjectionModel::SingleChannel);
    let per_vc = run(EjectionModel::PerVc);
    assert!(
        single > per_vc,
        "single ejection channel ({single}) should be slower than per-VC ({per_vc})"
    );
    // 16 messages x 16 flits through one ejection channel need >= 256 cycles.
    assert!(single >= 256);
}

/// Selection policies are all deadlock-free and deliver equivalent totals
/// at moderate load (they only differ in which free VC they pick).
#[test]
fn selection_policies_all_work() {
    for policy in [
        SelectionPolicy::MostCredits,
        SelectionPolicy::FirstFree,
        SelectionPolicy::Random,
    ] {
        let mut net = NetworkBuilder::new(
            Topology::torus(&[8, 8]),
            AlgorithmKind::NegativeHopBonusCards,
        )
        .traffic(TrafficConfig::Uniform)
        .arrival(ArrivalProcess::geometric(0.01).unwrap())
        .message_length(MessageLength::fixed(16).unwrap())
        .selection(policy)
        .seed(9)
        .build()
        .unwrap();
        net.run(10_000);
        assert!(net.deadlock_report().is_none(), "{policy:?}");
        assert!(net.metrics().delivered > 500, "{policy:?}");
    }
}

/// Meshes work end to end (boundary channels never used, e-cube single
/// class), including with traffic.
#[test]
fn mesh_simulation() {
    let mut net = NetworkBuilder::new(Topology::mesh(&[8, 8]), AlgorithmKind::Ecube)
        .traffic(TrafficConfig::Uniform)
        .arrival(ArrivalProcess::geometric(0.01).unwrap())
        .message_length(MessageLength::fixed(16).unwrap())
        .seed(2)
        .build()
        .unwrap();
    net.run(10_000);
    assert!(net.deadlock_report().is_none());
    assert!(net.metrics().delivered > 500);
}

/// Multiple VC replicas per class (Dally's virtual-channel flow control)
/// improve e-cube throughput under load.
#[test]
fn vc_replicas_increase_ecube_throughput() {
    let run = |replicas: u32| {
        let mut net = NetworkBuilder::new(Topology::torus(&[8, 8]), AlgorithmKind::Ecube)
            .traffic(TrafficConfig::Uniform)
            .arrival(ArrivalProcess::geometric(0.04).unwrap())
            .message_length(MessageLength::fixed(16).unwrap())
            .vc_replicas(replicas)
            .seed(13)
            .build()
            .unwrap();
        net.run(20_000);
        assert!(net.deadlock_report().is_none());
        net.metrics().delivered
    };
    let one = run(1);
    let four = run(4);
    assert!(
        four as f64 > one as f64 * 1.10,
        "4 VCs/class ({four}) should clearly beat 1 ({one})"
    );
}

/// Hotspot traffic delivers and the hotspot node receives the most.
#[test]
fn hotspot_traffic_concentrates() {
    let mut net = NetworkBuilder::new(Topology::torus(&[8, 8]), AlgorithmKind::PositiveHop)
        .traffic(TrafficConfig::Hotspot {
            nodes: vec![vec![7, 7]],
            fraction: 0.1,
        })
        .arrival(ArrivalProcess::geometric(0.005).unwrap())
        .message_length(MessageLength::fixed(16).unwrap())
        .seed(17)
        .build()
        .unwrap();
    net.run(20_000);
    assert!(net.metrics().delivered > 500);
    assert!(net.deadlock_report().is_none());
}

/// Per-class flit counters expose the load imbalance the paper discusses:
/// under nhop, class 0 carries far more traffic than the top class.
#[test]
fn nhop_class_load_is_skewed_and_nbc_flatter() {
    let class_loads = |algorithm: AlgorithmKind| {
        let mut net = loaded(algorithm, 0.02, 23);
        net.run(20_000);
        net.metrics().class_flits.clone()
    };
    let nhop = class_loads(AlgorithmKind::NegativeHop);
    let nbc = class_loads(AlgorithmKind::NegativeHopBonusCards);
    // nhop: every message starts at class 0; the top class is nearly idle.
    assert!(nhop[0] > 20 * nhop[nhop.len() - 1].max(1));
    // nbc spreads first hops over classes: its ratio is much flatter.
    let ratio = |v: &[u64]| v[0] as f64 / v[v.len() - 1].max(1) as f64;
    assert!(
        ratio(&nbc) < ratio(&nhop) / 4.0,
        "nbc ratio {} vs nhop ratio {}",
        ratio(&nbc),
        ratio(&nhop)
    );
}

/// Reseeding streams changes subsequent traffic but not the past; metrics
/// reset does not disturb in-flight state.
#[test]
fn sampling_controls() {
    let mut net = loaded(AlgorithmKind::PositiveHop, 0.01, 31);
    net.run(5_000);
    let before = net.metrics().delivered;
    assert!(before > 0);
    net.reset_metrics();
    assert_eq!(net.metrics().delivered, 0);
    net.reseed_streams(1);
    net.run(5_000);
    assert!(net.metrics().delivered > 0);
    assert!(net.deadlock_report().is_none());
    // Conservation across the reset: messages drain cleanly afterwards.
    net.stop_arrivals();
    assert!(net.run_until_empty(10_000));
}

/// Channel-load tracking records activity on every used channel.
#[test]
fn channel_load_tracking() {
    let mut net = NetworkBuilder::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube)
        .seed(1)
        .build()
        .unwrap();
    net.observer().metrics_on();
    let topo = net.topology().clone();
    net.inject(topo.node_at(&[0, 0]), topo.node_at(&[2, 0]), 4);
    assert!(net.run_until_empty(100));
    let loads = net.metrics_report("loads").unwrap().channel_flits;
    let total: u64 = loads.iter().sum();
    assert_eq!(total, net.metrics().flit_hops);
    assert_eq!(total, 8, "4 flits x 2 hops");
}
