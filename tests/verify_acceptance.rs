//! Workspace acceptance tests for the adversarial safety verification
//! stack: the `wormsim-verify` bounded checker cross-validated against
//! the CDG analysis and the real engine, three ways.
//!
//! * A bounded-checker [`DeadlockWitness`] is not a paper artifact: its
//!   worms, replayed as real traffic with aligned injection timing,
//!   genuinely wedge the engine — for 2pn (the published 2D variant the
//!   checker refuted) and for the naive strawman. The first deadlocking
//!   seed is pinned, so these double as determinism tests.
//! * Agreement properties: a clean masked CDG implies a `ProvenFree`
//!   bounded-checker verdict, and a `ProvenFree` verdict implies no
//!   engine stall ever triages as a confirmed circular wait.
//! * The converse fails, as it should: Duato's construction (minimal fully
//!   adaptive routing with e-cube as its escape) has a cyclic CDG, the
//!   checker proves it free and the engine never wedges it; without the
//!   escape both verdicts flip.
//! * The adversary's minimized fault plans are real: the pinned phop
//!   single-fault refutation replayed through a full `Experiment` leaves
//!   evidence the run records.
//!
//! [`DeadlockWitness`]: wormsim::verify::DeadlockWitness

use proptest::prelude::*;
use wormsim::engine::{Network, NetworkBuilder, SelectionPolicy};
use wormsim::routing::deadlock::{analyze, analyze_masked};
use wormsim::routing::{Adaptivity, Candidate, Ecube, MessageRouteState, RoutingAlgorithm};
use wormsim::topology::{Direction, NodeId, Sign, Topology};
use wormsim::verify::{
    check, check_masked, search_faults, triage, AdversaryConfig, CheckReport, SafetyVerdict,
    TriageReport,
};
use wormsim::{
    AlgorithmKind, ArrivalProcess, Experiment, FaultPlan, MessageLength, RunOutcome, TrafficConfig,
};

/// Replays the checker's witness for `kind` on the 4×4 torus as real
/// traffic: each witness worm is injected (length 2, so the header runs
/// ahead while the tail still pins the injection VC) with its start
/// offset chosen so all final channel acquisitions align, under random VC
/// selection. Scans `seeds` and returns the static report plus the first
/// seed whose run the watchdog declared deadlocked, with its triage.
fn replay_witness(
    kind: AlgorithmKind,
    seeds: std::ops::Range<u64>,
) -> (CheckReport, Option<(u64, TriageReport)>) {
    let topo = Topology::torus(&[4, 4]);
    let algo = kind.build(&topo).expect("algorithm builds");
    let report = check(&topo, algo.as_ref()).expect("network is small enough");
    let max_len = {
        let SafetyVerdict::Deadlock(witness) = &report.verdict else {
            panic!("{kind:?} must have a witness to replay");
        };
        witness.worms.iter().map(|w| w.path.len()).max().unwrap()
    };
    for seed in seeds {
        let mut net = NetworkBuilder::new(topo.clone(), kind)
            .congestion_limit(None)
            .selection(SelectionPolicy::Random)
            .watchdog_cycles(200)
            .seed(seed)
            .build()
            .expect("network builds");
        net.stop_arrivals();
        let SafetyVerdict::Deadlock(witness) = &report.verdict else {
            unreachable!();
        };
        for t in 0..max_len {
            for worm in &witness.worms {
                if max_len - worm.path.len() == t {
                    net.inject(worm.src, worm.dest, 2);
                }
            }
            net.step();
        }
        if !net.run_until_empty(1_000) && net.deadlock_report().is_some() {
            let verdict = triage(&net.wait_for_snapshot("replay"));
            return (report, Some((seed, verdict)));
        }
    }
    (report, None)
}

fn assert_replay_confirms(kind: AlgorithmKind, scan: std::ops::Range<u64>, pinned_seed: u64) {
    let (report, hit) = replay_witness(kind, scan);
    let (seed, verdict) = hit.expect("the witness must be dynamically reachable");
    assert_eq!(
        seed, pinned_seed,
        "first deadlocking seed is deterministic in the replay schedule"
    );
    assert!(
        verdict.is_confirmed_unsafe(),
        "a genuine deadlock must triage as a validated circular wait: {verdict:?}"
    );
    assert!(verdict.cycle_messages.len() >= 2);
    // The engine's observed cycle lives inside the checker's surviving
    // configuration set — the static and dynamic analyses agree on
    // *which* channels can wedge.
    for channel in &verdict.cycle_channels {
        assert!(
            report.survivor_channels.contains(channel),
            "engine cycle channel {channel} missing from checker survivors {:?}",
            report.survivor_channels
        );
    }
}

/// The checker's 2pn refutation on the published 2D torus variant is not
/// static pessimism: the witness deadlocks the real engine.
#[test]
fn two_pn_checker_witness_deadlocks_the_real_engine() {
    assert_replay_confirms(AlgorithmKind::TwoPowerN, 0..2_100, 2_018);
}

/// Same dynamic confirmation for the naive strawman's witness.
#[test]
fn naive_checker_witness_deadlocks_the_real_engine() {
    assert_replay_confirms(AlgorithmKind::NaiveMinimal, 0..3_700, 3_652);
}

/// The adversary's pinned phop refutation is a real failure, and of the
/// exact kind only the bounded checker predicts: the minimized
/// single-fault plan wedges a loaded run — the watchdog fires — yet the
/// wait-for snapshot holds **no** validated channel cycle (the stall is a
/// stranded worm holding its channels forever, with everyone else queued
/// behind it in a chain), and the masked CDG is acyclic too. Triage
/// therefore reads `budget_artifact`; the refutation's `stranded > 0`
/// plus `masked_cyclic == false` is the only analysis that explains the
/// wedge.
#[test]
fn adversary_refutation_plan_wedges_a_real_run_without_a_cycle() {
    let topo = Topology::torus(&[4, 4]);
    let algo = AlgorithmKind::PositiveHop.build(&topo).unwrap();
    let config = AdversaryConfig {
        max_faults: 1,
        ..AdversaryConfig::default()
    };
    let report = search_faults(&topo, algo.as_ref(), &config).unwrap();
    // The empty plan is proven free; every one of the 64 single-link
    // plans on the 4x4 torus strands some minimal-only worm.
    assert_eq!(report.plans_tried, 65);
    assert_eq!(report.plans_refuted, 64);
    let refutation = &report.refutations[0];
    assert_eq!(refutation.plan.len(), 1);
    assert!(refutation.stranded > 0, "stranding is phop's failure mode");
    assert!(
        !refutation.masked_cyclic,
        "the masked CDG must be blind to this refutation"
    );

    // Rebuild the minimized plan as a static fault and run it for real.
    let mut plan = FaultPlan::new();
    for fault in refutation.plan.faults() {
        plan.push(*fault);
    }
    let result = Experiment::new(topo, AlgorithmKind::PositiveHop)
        .faults(plan)
        .offered_load(0.6)
        .congestion_limit(None)
        .quick()
        .watchdog_cycles(1_000)
        .seed(1)
        .run()
        .expect("fault plan is valid");
    assert_eq!(result.outcome, RunOutcome::Deadlocked);
    let verdict = result.triage.expect("stalled runs are always triaged");
    assert!(
        !verdict.is_confirmed_unsafe(),
        "a stranded-holder wedge has no circular wait; got {verdict:?}"
    );
}

/// Duato's construction, the specimen of a cyclic CDG that is still
/// deadlock-free: minimal fully adaptive routing on one class above
/// e-cube's, plus e-cube's own hop as the escape. The adaptive class alone
/// is the naive strawman, so the CDG is cyclic either way; with the escape
/// every blocked worm always has one candidate whose dependencies are
/// acyclic, and that is exactly the "any free wait" rule the bounded
/// checker applies. Without it (`escape: false`) no configuration drains.
#[derive(Debug)]
struct Duato {
    ecube: Ecube,
    escape: bool,
}

impl Duato {
    fn new(topo: &Topology, escape: bool) -> Self {
        let ecube = Ecube::new(topo).expect("e-cube builds everywhere");
        Duato { ecube, escape }
    }

    fn adaptive_class(&self) -> u8 {
        self.ecube.num_vc_classes() as u8
    }
}

impl RoutingAlgorithm for Duato {
    fn name(&self) -> &'static str {
        "duato"
    }

    fn adaptivity(&self) -> Adaptivity {
        Adaptivity::FullyAdaptive
    }

    fn num_vc_classes(&self) -> usize {
        self.ecube.num_vc_classes() + 1
    }

    fn candidates(
        &self,
        topo: &Topology,
        state: &MessageRouteState,
        here: NodeId,
        out: &mut Vec<Candidate>,
    ) {
        for dim in 0..topo.num_dims() {
            let step = topo.dim_step(here, state.dest(), dim);
            for sign in [Sign::Plus, Sign::Minus] {
                if step.allows(sign) {
                    out.push(Candidate::new(
                        Direction::new(dim, sign),
                        self.adaptive_class(),
                    ));
                }
            }
        }
        if self.escape {
            out.extend(self.ecube.next_hop(topo, state, here));
        }
    }

    fn injection_class(&self, _: &Topology, _: &MessageRouteState) -> u32 {
        0
    }
}

/// Runs the specimen in the engine under saturating uniform traffic
/// (16-flit messages, geometric rate 0.2, no congestion limit) for 40k
/// cycles and returns the network, stopped early if the watchdog fired.
fn run_duato(topo: &Topology, escape: bool, seed: u64) -> Network {
    let cfg = NetworkBuilder::new(topo.clone(), AlgorithmKind::Ecube)
        .arrival(ArrivalProcess::geometric(0.2).unwrap())
        .message_length(MessageLength::fixed(16).unwrap())
        .congestion_limit(None)
        .watchdog_cycles(2_000)
        .seed(seed)
        .into_config();
    let pattern = TrafficConfig::Uniform.build(topo).unwrap();
    let mut net = Network::with_parts(cfg, Box::new(Duato::new(topo, escape)), pattern).unwrap();
    net.run(40_000);
    net
}

/// The checker's reason to exist: Duato's specimen has a cyclic CDG, yet
/// the checker proves it free, and the engine agrees. Dropping the escape
/// flips both verdicts: every configuration survives the fixpoint, and
/// the engine wedges on a circular wait that runs inside the checker's
/// survivor channels.
#[test]
fn duato_escape_is_free_on_a_cyclic_cdg_and_dropping_it_deadlocks() {
    for (topo, configs) in [
        (Topology::torus(&[4, 4]), 2_240),
        (Topology::torus(&[2, 4, 4]), 26_560),
        (Topology::mesh(&[4, 4]), 2_464),
        (Topology::torus(&[3, 3]), 108),
        (Topology::mesh(&[3, 3]), 336),
    ] {
        let label = topo.label();
        let duato = Duato::new(&topo, true);
        assert!(
            !analyze(&topo, &duato).is_acyclic(),
            "{label}: CDG must be cyclic"
        );
        let report = check(&topo, &duato).unwrap();
        assert_eq!(report.verdict, SafetyVerdict::ProvenFree, "{label}");
        assert_eq!((report.configs, report.survivors), (configs, 0), "{label}");

        let bare = check(&topo, &Duato::new(&topo, false)).unwrap();
        assert!(
            bare.verdict.witness().is_some(),
            "{label}: no escape, no proof"
        );
        assert_eq!(bare.survivors, bare.configs, "{label}: nothing drains");
    }

    for topo in [Topology::torus(&[4, 4]), Topology::mesh(&[4, 4])] {
        let label = topo.label();
        let free = run_duato(&topo, true, 1);
        assert!(
            free.deadlock_report().is_none(),
            "{label}: the escape keeps it moving"
        );
        let wedged = run_duato(&topo, false, 1);
        assert!(
            wedged.deadlock_report().is_some(),
            "{label}: without it the watchdog fires"
        );
        let verdict = triage(&wedged.wait_for_snapshot("duato"));
        assert!(verdict.is_confirmed_unsafe(), "{label}: {verdict:?}");
        let bare = check(&topo, &Duato::new(&topo, false)).unwrap();
        for channel in &verdict.cycle_channels {
            assert!(
                bare.survivor_channels.contains(channel),
                "{label}: {channel}"
            );
        }
    }
}

fn arb_small_setup() -> impl Strategy<Value = (Topology, AlgorithmKind)> {
    let topo = prop_oneof![
        Just(Topology::torus(&[4, 4])),
        Just(Topology::torus(&[3, 3])),
        Just(Topology::mesh(&[4, 4])),
        Just(Topology::mesh(&[3, 3])),
        Just(Topology::torus(&[2, 4, 4])),
    ];
    let kind = prop_oneof![
        Just(AlgorithmKind::Ecube),
        Just(AlgorithmKind::NorthLast),
        Just(AlgorithmKind::TwoPowerN),
        Just(AlgorithmKind::PositiveHop),
        Just(AlgorithmKind::NegativeHop),
        Just(AlgorithmKind::NegativeHopBonusCards),
        Just(AlgorithmKind::WestFirst),
        Just(AlgorithmKind::NaiveMinimal),
    ];
    (topo, kind)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Duato-criterion soundness, healthy networks: an acyclic CDG (with
    /// nothing stranded — vacuous on a full mask) implies the bounded
    /// checker proves deadlock freedom. The converse does not hold: the
    /// `Duato` specimen above has a cyclic CDG and is proven free. Among
    /// the algorithms drawn here, a cyclic CDG happens always to come with
    /// a witness (2pn on 2D tori, `naive`).
    #[test]
    fn clean_cdg_implies_proven_free((topo, kind) in arb_small_setup()) {
        let algo = match kind.build(&topo) {
            Ok(a) => a,
            Err(_) => return Ok(()), // e.g. nhop on an odd-radius torus
        };
        let mask = wormsim::topology::ChannelMask::all_alive(&topo);
        let masked = analyze_masked(&topo, &mask, algo.as_ref());
        prop_assume!(masked.is_clean());
        let report = check(&topo, algo.as_ref()).unwrap();
        prop_assert_eq!(
            &report.verdict,
            &SafetyVerdict::ProvenFree,
            "acyclic CDG but the checker found a witness on {} / {:?}",
            topo.label(),
            kind
        );
    }

    /// Masked three-way agreement on the 4×4 torus: for a random ≤2-fault
    /// plan, a clean masked CDG implies the masked bounded checker proves
    /// freedom; and whenever the checker proves freedom, a loaded engine
    /// run under the same faults never produces a stall that triages as a
    /// validated circular wait.
    #[test]
    fn masked_verdicts_agree_with_the_engine(
        kind in prop_oneof![
            Just(AlgorithmKind::Ecube),
            Just(AlgorithmKind::PositiveHop),
            Just(AlgorithmKind::NegativeHopBonusCards),
        ],
        faults in proptest::collection::vec((0u32..16, 0usize..2, prop::bool::ANY), 0..=2),
        seed in 0u64..1_000,
    ) {
        let topo = Topology::torus(&[4, 4]);
        let algo = kind.build(&topo).unwrap();
        let mut plan = FaultPlan::new();
        for (node, dim, plus) in faults {
            let sign = if plus {
                wormsim::topology::Sign::Plus
            } else {
                wormsim::topology::Sign::Minus
            };
            plan.push_dead_link(
                wormsim::NodeId::new(node),
                wormsim::topology::Direction::new(dim, sign),
            );
        }
        prop_assume!(plan.validate(&topo).is_ok());
        let mask = plan.mask_at(&topo, 0);
        let masked_cdg = analyze_masked(&topo, &mask, algo.as_ref());
        let checked = check_masked(&topo, &mask, algo.as_ref()).unwrap();
        if masked_cdg.is_clean() {
            prop_assert_eq!(
                &checked.verdict,
                &SafetyVerdict::ProvenFree,
                "clean masked CDG but a witness exists under {:?} / {:?}",
                plan,
                kind
            );
        }
        if checked.verdict == SafetyVerdict::ProvenFree {
            let result = Experiment::new(topo, kind)
                .faults(plan)
                .offered_load(0.5)
                .congestion_limit(None)
                .quick()
                .watchdog_cycles(500)
                .cycle_budget(Some(20_000))
                .seed(seed)
                .run()
                .unwrap();
            let confirmed = result
                .triage
                .as_ref()
                .is_some_and(TriageReport::is_confirmed_unsafe);
            prop_assert!(
                !confirmed,
                "checker proved freedom but the engine triaged a validated \
                 cycle: outcome {:?}, seed {seed}",
                result.outcome
            );
        }
    }
}
