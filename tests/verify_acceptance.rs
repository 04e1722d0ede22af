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
//! * The adversary's minimized fault plans are real: the pinned phop
//!   single-fault refutation replayed through a full `Experiment` leaves
//!   evidence the run records.
//!
//! [`DeadlockWitness`]: wormsim::verify::DeadlockWitness

use proptest::prelude::*;
use wormsim::engine::{NetworkBuilder, SelectionPolicy};
use wormsim::routing::deadlock::analyze_masked;
use wormsim::topology::Topology;
use wormsim::verify::{
    check, check_masked, search_faults, triage, AdversaryConfig, CheckReport, SafetyVerdict,
    TriageReport,
};
use wormsim::{AlgorithmKind, Experiment, FaultPlan, RunOutcome};

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
    /// checker proves deadlock freedom. The converse is deliberately
    /// *not* asserted: a cyclic CDG need not deadlock, though no algorithm
    /// here is such a specimen yet — every one of the paper's six has an
    /// acyclic CDG on these networks.
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
