//! Adversarial fault-mask search: refuting `fault_tolerance()` claims.
//!
//! Every routing algorithm advertises a fault-tolerance claim per mask
//! ([`RoutingAlgorithm::fault_tolerance`]): `Guaranteed` on a healthy
//! network, `BestEffort` when the surviving graph stays connected,
//! `Unsupported` otherwise. The claim is cheap to state and — before this
//! module — was never checked against anything stronger than the masked
//! CDG, which only ever *loses* edges under faults and so can never catch
//! the failure mode faults actually introduce: a minimal ("wait, never
//! mis-route") worm whose entire candidate set is dead holds its channel
//! forever, and a worm queued behind a permanent holder is as deadlocked
//! as a worm in a cycle.
//!
//! [`search_faults`] plays the adversary:
//!
//! 1. **Enumerate fault plans.** Exhaustively, every combination of up to
//!    [`AdversaryConfig::max_faults`] static faults drawn from the target
//!    pool — every unidirectional link, plus every whole node when
//!    [`AdversaryConfig::node_faults`] is set (the empty plan included —
//!    it is what refutes a `Guaranteed` claim on a broken algorithm).
//!    Beyond that, [`AdversaryConfig::random_plans`] seeded-random static
//!    link plans via [`FaultPlan::random_links`], and
//!    [`AdversaryConfig::transient_plans`] seeded-random *transient*
//!    plans: staggered fail/repair windows over the same target pool.
//! 2. **Admit.** A plan counts only if it validates against the topology
//!    and the simulator's own [`Reachability`] would still generate
//!    traffic under *every* epoch mask (at least one routable pair) — the
//!    adversary may not claim victory on a network the simulator would
//!    refuse to run.
//! 3. **Refute.** A plan's mask is piecewise-constant in time; each
//!    *epoch* (cycle 0 plus every [`FaultPlan::transition_cycles`] point)
//!    gets the masked CDG *and* the bounded checker
//!    ([`crate::checker::check_masked`]) on its surviving subgraph. A
//!    [`SafetyVerdict::Deadlock`] under any epoch whose claim is not
//!    `Unsupported` refutes the plan: the adversary chooses the schedule,
//!    so a configuration that deadlocks while a window is active can be
//!    held deadlocked for as long as the adversary stretches that window.
//!    (Whether a *particular* finite window dissolves on repair is the
//!    runtime question [`crate::triage`](fn@crate::triage) answers; the claim being checked
//!    here is about the mask, and the mask refutes it.) Static plans have
//!    exactly one epoch, so their verdict is unchanged from the
//!    link-only searcher.
//! 4. **Minimize.** Greedily drop faults from a refuting plan while it
//!    still refutes (and is still admitted), until no single fault can be
//!    removed — a locally minimal counterexample, small enough to read.
//!
//! Everything is deterministic: plans are enumerated in pool order (links
//! in channel order, then nodes), random and transient plans come off
//! dedicated RNG streams of [`AdversaryConfig::seed`], and minimization
//! scans faults left-to-right, so the same refutation plans come out on
//! every run and can be pinned in goldens.
//!
//! [`RoutingAlgorithm::fault_tolerance`]: wormsim_routing::RoutingAlgorithm::fault_tolerance
//! [`Reachability`]: wormsim_faults::Reachability

use crate::checker::{check_masked, CheckReport, DeadlockWitness, SafetyVerdict};
use crate::VerifyError;
use wormsim_faults::{Fault, FaultPlan, FaultRegion, FaultTarget, Reachability};
use wormsim_routing::deadlock::analyze_masked;
use wormsim_routing::{FaultTolerance, RoutingAlgorithm};
use wormsim_topology::{ChannelMask, Direction, Topology};
use wormsim_traffic::SimRng;

/// Search-space knobs for [`search_faults`].
#[derive(Clone, Debug)]
pub struct AdversaryConfig {
    /// Exhaustively enumerate every combination of up to this many static
    /// faults (0 still tries the empty plan).
    pub max_faults: usize,
    /// Include whole-node faults in the exhaustive pool (after the links,
    /// so link-only plan orders — and pinned goldens — are unchanged when
    /// this is off).
    pub node_faults: bool,
    /// Seeded-random static link plans to try beyond the exhaustive tier.
    pub random_plans: usize,
    /// Link faults per random plan.
    pub random_faults: usize,
    /// Seeded-random transient fail/repair plans to try.
    pub transient_plans: usize,
    /// Faults per transient plan, each with its own staggered window.
    pub transient_faults: usize,
    /// Window length in cycles for transient faults; fault *j* of a plan
    /// fails at `j * window / 2` and repairs a full window later, so
    /// adjacent windows overlap and the epochs sweep one-fault and
    /// two-fault masks plus the all-repaired tail.
    pub transient_window: u64,
    /// Seed for the random tiers (stream-isolated; reuse the sweep seed).
    pub seed: u64,
    /// Keep at most this many refutations in the report (the count of
    /// refuting plans is always exact; storing thousands of witnesses is
    /// not useful).
    pub max_stored: usize,
}

impl Default for AdversaryConfig {
    fn default() -> Self {
        AdversaryConfig {
            max_faults: 2,
            node_faults: false,
            random_plans: 0,
            random_faults: 3,
            transient_plans: 0,
            transient_faults: 2,
            transient_window: 64,
            seed: 1993,
            max_stored: 4,
        }
    }
}

/// One refuted claim: the minimized plan and the evidence.
#[derive(Clone, Debug)]
pub struct Refutation {
    /// The claim the algorithm made for the refuting epoch's mask.
    pub claim: FaultTolerance,
    /// The minimized fault plan (still admitted, still refuting).
    pub plan: FaultPlan,
    /// Fault count before minimization.
    pub original_len: usize,
    /// The cycle whose mask the witness deadlocks under — always 0 for a
    /// static plan; for a transient plan, the start of the deadlocking
    /// fault window.
    pub epoch: u64,
    /// Whether the masked CDG was already cyclic under the minimized plan
    /// (`false` means the CDG alone would have missed this — the
    /// stranded-holder failure mode only the bounded checker sees).
    pub masked_cyclic: bool,
    /// Stranded worms in the witness (worms whose whole candidate set the
    /// mask killed).
    pub stranded: usize,
    /// Surviving configurations backing the witness.
    pub survivors: usize,
    /// The concrete deadlock under the minimized plan.
    pub witness: DeadlockWitness,
}

/// The adversary's full accounting for one algorithm.
#[derive(Clone, Debug)]
pub struct AdversaryReport {
    /// Algorithm name (from [`RoutingAlgorithm::name`]).
    ///
    /// [`RoutingAlgorithm::name`]: wormsim_routing::RoutingAlgorithm::name
    pub algorithm: String,
    /// Plans generated (exhaustive + random + transient).
    pub plans_tried: u64,
    /// Plans admitted (valid + reachability-routable at every epoch).
    pub plans_admitted: u64,
    /// Admitted plans the algorithm declared `Unsupported` at every epoch
    /// (claim vacuously holds; not checked further).
    pub plans_unsupported: u64,
    /// Admitted, claimed plans the bounded checker proved safe at every
    /// claimed epoch.
    pub plans_proven_free: u64,
    /// Admitted, claimed plans the bounded checker refuted (exact count).
    pub plans_refuted: u64,
    /// Stored refutations, minimized, capped at
    /// [`AdversaryConfig::max_stored`].
    pub refutations: Vec<Refutation>,
}

/// Runs the adversarial search for one algorithm on one topology.
///
/// # Errors
///
/// [`VerifyError::NetworkTooLarge`] if the topology exceeds the bounded
/// checker's cap, [`VerifyError::InvalidPlan`] if the exhaustive
/// enumerator ever generates a plan the validator rejects (a bug, not a
/// usage error).
pub fn search_faults(
    topo: &Topology,
    algo: &dyn RoutingAlgorithm,
    config: &AdversaryConfig,
) -> Result<AdversaryReport, VerifyError> {
    let mut report = AdversaryReport {
        algorithm: algo.name().to_string(),
        plans_tried: 0,
        plans_admitted: 0,
        plans_unsupported: 0,
        plans_proven_free: 0,
        plans_refuted: 0,
        refutations: Vec::new(),
    };
    // The target pool: links in (node, direction) enumeration order — the
    // same order `FaultPlan::random_links` samples from — then whole
    // nodes when enabled, so link-only plan orders are stable.
    let mut pool: Vec<FaultTarget> = topo
        .nodes()
        .flat_map(|node| {
            Direction::all(topo.num_dims())
                .filter(move |&dir| topo.has_channel(node, dir))
                .map(move |direction| FaultTarget::Link { node, direction })
        })
        .collect();
    if config.node_faults {
        pool.extend(topo.nodes().map(|node| FaultTarget::Node { node }));
    }
    // Exhaustive tier: all combinations of 0..=max_faults targets, in
    // lexicographic index order.
    let mut combo: Vec<usize> = Vec::new();
    try_plan(
        topo,
        algo,
        &materialize(&combo, &pool),
        config,
        &mut report,
        true,
    )?;
    for k in 1..=config.max_faults.min(pool.len()) {
        combo.clear();
        combo.extend(0..k);
        loop {
            try_plan(
                topo,
                algo,
                &materialize(&combo, &pool),
                config,
                &mut report,
                true,
            )?;
            if !next_combination(&mut combo, pool.len()) {
                break;
            }
        }
    }
    // Random tier: static link plans bigger than the exhaustive horizon,
    // one fresh derived seed each so plans differ.
    for r in 0..config.random_plans {
        let plan = FaultPlan::random_links(
            topo,
            config.random_faults,
            config.seed.wrapping_add(r as u64),
            &FaultRegion::Anywhere,
        );
        try_plan(topo, algo, plan.faults(), config, &mut report, false)?;
    }
    // Transient tier: staggered fail/repair windows over the pool, on a
    // dedicated RNG stream so the draw is independent of every simulation
    // stream and of the static random tier.
    let mut rng = SimRng::stream(config.seed, 0xAD);
    for _ in 0..config.transient_plans {
        let count = config.transient_faults.min(pool.len());
        let window = config.transient_window.max(2);
        let mut indices: Vec<usize> = (0..pool.len()).collect();
        let mut faults = Vec::with_capacity(count);
        for j in 0..count {
            let pick = j + rng.uniform_below((indices.len() - j) as u32) as usize;
            indices.swap(j, pick);
            let fail_at = j as u64 * (window / 2);
            faults.push(Fault {
                target: pool[indices[j]],
                fail_at,
                repair_at: Some(fail_at + window),
            });
        }
        try_plan(topo, algo, &faults, config, &mut report, false)?;
    }
    Ok(report)
}

/// Advances `combo` to the next k-combination of `0..n` in lexicographic
/// order; returns `false` after the last one.
fn next_combination(combo: &mut [usize], n: usize) -> bool {
    let k = combo.len();
    let mut i = k;
    while i > 0 {
        i -= 1;
        if combo[i] != i + n - k {
            combo[i] += 1;
            for j in i + 1..k {
                combo[j] = combo[j - 1] + 1;
            }
            return true;
        }
    }
    false
}

/// Static faults for a set of pool indices.
fn materialize(indices: &[usize], pool: &[FaultTarget]) -> Vec<Fault> {
    indices
        .iter()
        .map(|&i| Fault {
            target: pool[i],
            fail_at: 0,
            repair_at: None,
        })
        .collect()
}

/// Builds a [`FaultPlan`] from a fault list.
fn plan_of(faults: &[Fault]) -> FaultPlan {
    let mut plan = FaultPlan::new();
    for &fault in faults {
        plan.push(fault);
    }
    plan
}

/// What checking every epoch of one admitted plan concluded.
enum PlanOutcome {
    /// Every epoch's claim was `Unsupported`; nothing to check.
    Unsupported,
    /// Every claimed epoch was proven free.
    ProvenFree,
    /// Some claimed epoch deadlocked.
    Refuted {
        claim: FaultTolerance,
        epoch: u64,
        checked: CheckReport,
    },
}

/// Admits a plan, checks its claim at every epoch, and (on refutation)
/// minimizes + records it.
fn try_plan(
    topo: &Topology,
    algo: &dyn RoutingAlgorithm,
    faults: &[Fault],
    config: &AdversaryConfig,
    report: &mut AdversaryReport,
    exhaustive: bool,
) -> Result<(), VerifyError> {
    report.plans_tried += 1;
    let plan = plan_of(faults);
    let Some(epochs) = admit(topo, &plan, exhaustive)? else {
        return Ok(());
    };
    report.plans_admitted += 1;
    match check_epochs(topo, algo, &epochs)? {
        PlanOutcome::Unsupported => report.plans_unsupported += 1,
        PlanOutcome::ProvenFree => report.plans_proven_free += 1,
        PlanOutcome::Refuted {
            claim,
            epoch,
            checked,
        } => {
            report.plans_refuted += 1;
            if report.refutations.len() < config.max_stored {
                let refutation = minimize(topo, algo, faults, claim, epoch, checked)?;
                report.refutations.push(refutation);
            }
        }
    }
    Ok(())
}

/// Runs the bounded checker over every epoch mask whose claim is not
/// `Unsupported`, stopping at the first deadlock.
fn check_epochs(
    topo: &Topology,
    algo: &dyn RoutingAlgorithm,
    epochs: &[(u64, ChannelMask)],
) -> Result<PlanOutcome, VerifyError> {
    let mut any_claimed = false;
    for (cycle, mask) in epochs {
        let claim = algo.fault_tolerance(topo, mask);
        if claim == FaultTolerance::Unsupported {
            continue;
        }
        any_claimed = true;
        let checked = check_masked(topo, mask, algo)?;
        if let SafetyVerdict::Deadlock(_) = checked.verdict {
            return Ok(PlanOutcome::Refuted {
                claim,
                epoch: *cycle,
                checked,
            });
        }
    }
    Ok(if any_claimed {
        PlanOutcome::ProvenFree
    } else {
        PlanOutcome::Unsupported
    })
}

/// Greedy fault-removal shrinking: scan left-to-right, drop any fault
/// whose removal keeps the plan admitted *and* refuting, repeat until a
/// full pass removes nothing.
fn minimize(
    topo: &Topology,
    algo: &dyn RoutingAlgorithm,
    faults: &[Fault],
    claim: FaultTolerance,
    epoch: u64,
    full_check: CheckReport,
) -> Result<Refutation, VerifyError> {
    let original_len = faults.len();
    let mut kept: Vec<Fault> = faults.to_vec();
    let mut best = (claim, epoch, full_check);
    let mut changed = true;
    while changed && !kept.is_empty() {
        changed = false;
        let mut i = 0;
        while i < kept.len() {
            let mut candidate = kept.clone();
            candidate.remove(i);
            let plan = plan_of(&candidate);
            // Dropping a fault from an admitted plan keeps it valid, but
            // re-check admission (reachability can only improve).
            if let Some(epochs) = admit(topo, &plan, true)? {
                if let PlanOutcome::Refuted {
                    claim,
                    epoch,
                    checked,
                } = check_epochs(topo, algo, &epochs)?
                {
                    kept = candidate;
                    best = (claim, epoch, checked);
                    changed = true;
                    continue; // same i now names the next fault
                }
            }
            i += 1;
        }
    }
    let (claim, epoch, checked) = best;
    let plan = plan_of(&kept);
    let mask = plan.mask_at(topo, epoch);
    let masked_cyclic = !analyze_masked(topo, &mask, algo).report.is_acyclic();
    let SafetyVerdict::Deadlock(witness) = checked.verdict else {
        unreachable!("minimize only keeps refuting plans");
    };
    Ok(Refutation {
        claim,
        plan,
        original_len,
        epoch,
        masked_cyclic,
        stranded: checked.stranded,
        survivors: checked.survivors,
        witness,
    })
}

/// Admission: the plan must validate and the simulator's reachability
/// analysis must leave at least one routable pair under *every* epoch
/// mask. Returns the `(cycle, mask)` epochs for admitted plans (a static
/// plan has exactly one, at cycle 0), `None` for rejected ones. An
/// invalid plan is an enumeration bug when `exhaustive` (error), a silent
/// rejection for externally supplied fault lists.
fn admit(
    topo: &Topology,
    plan: &FaultPlan,
    exhaustive: bool,
) -> Result<Option<Vec<(u64, ChannelMask)>>, VerifyError> {
    if let Err(e) = plan.validate(topo) {
        if exhaustive {
            return Err(VerifyError::InvalidPlan(e.to_string()));
        }
        return Ok(None);
    }
    let mut cycles = vec![0u64];
    cycles.extend(plan.transition_cycles());
    let mut epochs = Vec::with_capacity(cycles.len());
    for cycle in cycles {
        let mask = plan.mask_at(topo, cycle);
        if Reachability::compute(topo, &mask).routable_pairs() == 0 {
            return Ok(None);
        }
        epochs.push((cycle, mask));
    }
    Ok(Some(epochs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim_routing::AlgorithmKind;

    #[test]
    fn empty_plan_refutes_naive_guaranteed_claim() {
        let topo = Topology::torus(&[4, 4]);
        let algo = AlgorithmKind::NaiveMinimal.build(&topo).unwrap();
        let config = AdversaryConfig {
            max_faults: 0,
            ..AdversaryConfig::default()
        };
        let report = search_faults(&topo, algo.as_ref(), &config).unwrap();
        assert_eq!(report.plans_tried, 1);
        assert_eq!(report.plans_refuted, 1);
        let refutation = &report.refutations[0];
        assert!(refutation.plan.is_empty(), "empty plan must stay empty");
        assert_eq!(refutation.claim, FaultTolerance::Guaranteed);
        assert_eq!(refutation.epoch, 0);
        assert!(!refutation.witness.worms.is_empty());
    }

    #[test]
    fn single_fault_refutes_phop_best_effort_on_torus() {
        let topo = Topology::torus(&[4, 4]);
        let algo = AlgorithmKind::PositiveHop.build(&topo).unwrap();
        let config = AdversaryConfig {
            max_faults: 1,
            max_stored: 2,
            ..AdversaryConfig::default()
        };
        let report = search_faults(&topo, algo.as_ref(), &config).unwrap();
        // 1 empty + 64 single-link plans on a 4x4 torus.
        assert_eq!(report.plans_tried, 65);
        assert_eq!(report.plans_admitted, 65);
        // The healthy network is proven free...
        assert!(report.plans_proven_free >= 1);
        // ...but a single dead link strands minimal-only worms.
        assert!(report.plans_refuted > 0, "{report:?}");
        let refutation = &report.refutations[0];
        assert_eq!(refutation.plan.len(), 1, "must minimize to one fault");
        assert_eq!(refutation.claim, FaultTolerance::BestEffort);
        assert!(refutation.stranded > 0, "stranding is the failure mode");
        assert!(
            !refutation.masked_cyclic || refutation.stranded > 0,
            "refutation must carry evidence the CDG alone lacks or confirm its cycle"
        );
    }

    /// Pinned node-fault result on the 4×4 torus: the pool grows to
    /// 64 links + 16 nodes, every single-link plan still refutes PHop's
    /// best-effort claim (stranding), but every single-*node* plan is
    /// PROVEN FREE — on a 4-ring the only worm with a unique minimal
    /// candidate into the dead node is one whose *destination is the dead
    /// node*, and those pairs leave the traffic population with it; every
    /// other worm keeps a live minimal alternative. Dead links strand,
    /// dead nodes do not — a distinction the link-only adversary could
    /// never state.
    #[test]
    fn single_node_fault_is_proven_free_for_phop_on_torus() {
        let topo = Topology::torus(&[4, 4]);
        let algo = AlgorithmKind::PositiveHop.build(&topo).unwrap();
        let config = AdversaryConfig {
            max_faults: 1,
            node_faults: true,
            max_stored: usize::MAX,
            ..AdversaryConfig::default()
        };
        let report = search_faults(&topo, algo.as_ref(), &config).unwrap();
        // 1 empty + 64 single-link + 16 single-node plans.
        assert_eq!(report.plans_tried, 81);
        assert_eq!(report.plans_admitted, 81);
        // Every link plan refutes; the empty plan and all 16 node plans
        // are proven free.
        assert_eq!(report.plans_refuted, 64);
        assert_eq!(report.plans_proven_free, 17);
        assert_eq!(report.plans_unsupported, 0);
        assert!(
            report.refutations.iter().all(|r| {
                r.plan
                    .faults()
                    .iter()
                    .all(|f| matches!(f.target, FaultTarget::Link { .. }))
            }),
            "no dead-node plan may strand PHop on the 4x4 torus"
        );
    }

    /// Pinned transient result on the 4×4 torus: a seeded fail/repair
    /// schedule refutes PHop's claim *during* a fault window — the epoch
    /// is inside the window, the plan is not static, and the healthy
    /// epochs (before the first failure, after the last repair) are not
    /// what refutes it.
    #[test]
    fn transient_window_refutes_phop_while_the_fault_is_active() {
        let topo = Topology::torus(&[4, 4]);
        let algo = AlgorithmKind::PositiveHop.build(&topo).unwrap();
        let config = AdversaryConfig {
            max_faults: 0,
            transient_plans: 4,
            transient_faults: 2,
            transient_window: 64,
            seed: 1993,
            max_stored: 8,
            ..AdversaryConfig::default()
        };
        let report = search_faults(&topo, algo.as_ref(), &config).unwrap();
        // 1 empty + 4 transient plans.
        assert_eq!(report.plans_tried, 5);
        assert!(report.plans_refuted > 0, "{report:?}");
        let refutation = report
            .refutations
            .iter()
            .find(|r| !r.plan.is_static())
            .expect("a transient refutation must survive minimization");
        assert!(
            refutation.epoch > 0 || refutation.plan.faults().iter().any(|f| f.fail_at == 0),
            "the refuting epoch must sit inside a fault window"
        );
        assert!(
            refutation
                .plan
                .faults()
                .iter()
                .any(|f| f.active_at(refutation.epoch)),
            "some fault must be active at the refuting epoch"
        );
        assert!(refutation.stranded > 0, "stranding is the failure mode");
    }

    /// CI's exhaustive verification tier (release-only, run with
    /// `-- --ignored`): every fault plan of up to two dead links on the
    /// 4×4 torus, for all six paper algorithms — 2081 plans each. The
    /// safety contract under test: no plan the adversary admits may
    /// refute a [`FaultTolerance::Guaranteed`] claim. Refutations of
    /// `BestEffort` claims are expected (that is the adversary's job);
    /// a `Guaranteed` refutation would mean an algorithm promised
    /// deadlock freedom on a mask where the bounded checker found a
    /// witness.
    #[test]
    #[ignore = "exhaustive two-fault sweep; run in release via CI's verification tier"]
    fn exhaustive_two_fault_sweep_refutes_no_guaranteed_claim() {
        let topo = Topology::torus(&[4, 4]);
        for kind in AlgorithmKind::all() {
            let algo = kind.build(&topo).unwrap();
            let config = AdversaryConfig {
                max_faults: 2,
                // Store everything: the Guaranteed assertion must see
                // every refutation, not a capped prefix.
                max_stored: usize::MAX,
                ..AdversaryConfig::default()
            };
            let report = search_faults(&topo, algo.as_ref(), &config).unwrap();
            // 1 empty + 64 single-link + C(64,2) = 2016 pair plans.
            assert_eq!(report.plans_tried, 2_081, "{kind}");
            assert_eq!(
                report.refutations.len() as u64,
                report.plans_refuted,
                "{kind}"
            );
            for refutation in &report.refutations {
                assert_ne!(
                    refutation.claim,
                    FaultTolerance::Guaranteed,
                    "{kind}: a Guaranteed claim was refuted by {:?}",
                    refutation.plan
                );
            }
        }
    }

    #[test]
    fn random_tier_is_deterministic() {
        let topo = Topology::torus(&[4, 4]);
        let algo = AlgorithmKind::PositiveHop.build(&topo).unwrap();
        let config = AdversaryConfig {
            max_faults: 0,
            random_plans: 3,
            random_faults: 2,
            seed: 1993,
            max_stored: 8,
            ..AdversaryConfig::default()
        };
        let a = search_faults(&topo, algo.as_ref(), &config).unwrap();
        let b = search_faults(&topo, algo.as_ref(), &config).unwrap();
        assert_eq!(a.plans_tried, b.plans_tried);
        assert_eq!(a.plans_refuted, b.plans_refuted);
        let plans_a: Vec<_> = a.refutations.iter().map(|r| r.plan.clone()).collect();
        let plans_b: Vec<_> = b.refutations.iter().map(|r| r.plan.clone()).collect();
        assert_eq!(plans_a, plans_b);
    }

    #[test]
    fn transient_tier_is_deterministic() {
        let topo = Topology::torus(&[4, 4]);
        let algo = AlgorithmKind::PositiveHop.build(&topo).unwrap();
        let config = AdversaryConfig {
            max_faults: 0,
            node_faults: true,
            transient_plans: 3,
            transient_faults: 2,
            seed: 1993,
            max_stored: 8,
            ..AdversaryConfig::default()
        };
        let a = search_faults(&topo, algo.as_ref(), &config).unwrap();
        let b = search_faults(&topo, algo.as_ref(), &config).unwrap();
        assert_eq!(a.plans_tried, b.plans_tried);
        assert_eq!(a.plans_refuted, b.plans_refuted);
        let plans_a: Vec<_> = a.refutations.iter().map(|r| r.plan.clone()).collect();
        let plans_b: Vec<_> = b.refutations.iter().map(|r| r.plan.clone()).collect();
        assert_eq!(plans_a, plans_b);
        let epochs_a: Vec<u64> = a.refutations.iter().map(|r| r.epoch).collect();
        let epochs_b: Vec<u64> = b.refutations.iter().map(|r| r.epoch).collect();
        assert_eq!(epochs_a, epochs_b);
    }
}
