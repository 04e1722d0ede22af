//! Fault-injection integration tests.
//!
//! Two guarantees are pinned here:
//!
//! * **Termination**: a deadlock-prone algorithm under load ends with
//!   [`RunOutcome::Deadlocked`] in bounded time — the watchdog converts a
//!   wedged network into a result instead of a hung test suite.
//! * **Determinism**: a run with transient (fail-then-repair) faults is
//!   bit-identical under a pinned seed, golden-checked alongside the
//!   zero-fault goldens in `tests/determinism.rs`. Regenerate deliberately
//!   changed goldens with `WORMSIM_UPDATE_GOLDEN=1 cargo test --test faults`.

use wormsim::faults::{Fault, FaultPlan, FaultRegion, FaultTarget};
use wormsim::observe::{json, JsonObject, ObserveConfig, WaitForSnapshot, WaitKind};
use wormsim::topology::{Direction, Sign, Topology};
use wormsim::{AlgorithmKind, Experiment, RunOutcome, RunResult};
use wormsim_suite::{assert_matches_golden, temp_dir};

const SEED: u64 = 1993;

fn fault_result_json(r: &RunResult) -> String {
    let mut out = String::new();
    let mut obj = JsonObject::begin(&mut out);
    obj.field_str("algorithm", &r.algorithm)
        .field_str("outcome", r.outcome.tag())
        .field_f64("latency_mean", r.latency.mean())
        .field_u64_array("latency_percentiles", &r.latency_percentiles)
        .field_u64("latency_max", r.latency_max)
        .field_f64("achieved_utilization", r.achieved_utilization)
        .field_f64("delivery_rate", r.delivery_rate)
        .field_u64("messages_measured", r.messages_measured)
        .field_u64("samples", r.samples as u64)
        .field_u64("cycles_simulated", r.cycles_simulated)
        .field_u64("dropped_events", r.dropped_events);
    obj.finish();
    out
}

/// A transient plan on the 8×8 torus: four random static link kills plus
/// one link that dies mid-measurement and is later repaired.
fn transient_plan(topo: &Topology) -> FaultPlan {
    let mut plan = FaultPlan::random_links(topo, 4, SEED, &FaultRegion::Anywhere);
    plan.push(Fault {
        target: FaultTarget::Link {
            node: topo.node_at(&[3, 3]),
            direction: Direction::new(1, Sign::Plus),
        },
        fail_at: 2_000,
        repair_at: Some(4_000),
    });
    plan
}

/// The deadlock watchdog must turn a wedged run into a
/// `RunOutcome::Deadlocked` result, never a hang: the deliberately
/// deadlock-prone naive algorithm on a dense torus under heavy load wedges
/// within the quick schedule once the watchdog window is tightened.
#[test]
fn naive_minimal_under_load_reports_deadlock_not_a_hang() {
    let result = Experiment::new(Topology::torus(&[4, 4]), AlgorithmKind::NaiveMinimal)
        .offered_load(0.7)
        .congestion_limit(None)
        .quick()
        .watchdog_cycles(1_000)
        .seed(SEED)
        .run()
        .expect("configuration is valid; deadlock is a result, not an error");
    assert_eq!(result.outcome, RunOutcome::Deadlocked);
    let report = result.deadlock.expect("outcome implies a report");
    assert!(report.flits_in_flight > 0);
    assert!(!result.is_converged());
    // The stall is triaged inline: a genuine deadlock carries a validated
    // circular wait, refining the watchdog's budget-based verdict.
    let triage = result.triage.expect("stalled runs are always triaged");
    assert!(triage.is_confirmed_unsafe());
    assert!(triage.cycle_messages.len() >= 2);
}

/// A deadlocked observed run must leave forensic evidence: the
/// `waitfor.jsonl` snapshot's wait-for graph contains a concrete channel
/// cycle — proof the watchdog fired on a real deadlock, not congestion.
#[test]
fn deadlocked_run_exports_wait_for_cycle_evidence() {
    let dir = temp_dir("waitfor");
    std::fs::create_dir_all(&dir).unwrap();
    let result = Experiment::new(Topology::torus(&[4, 4]), AlgorithmKind::NaiveMinimal)
        .offered_load(0.7)
        .congestion_limit(None)
        .quick()
        .watchdog_cycles(1_000)
        .seed(SEED)
        .observe(ObserveConfig {
            out_dir: Some(dir.clone()),
            prefix: "wf".to_owned(),
            metrics: true,
            ..ObserveConfig::default()
        })
        .run()
        .expect("deadlock is a result, not an error");
    assert_eq!(result.outcome, RunOutcome::Deadlocked);

    let text = std::fs::read_to_string(dir.join("wf-naive-uniform-l0.70-s1993.waitfor.jsonl"))
        .expect("deadlocked run writes a wait-for snapshot");
    let mut snapshots = Vec::new();
    for value in json::StreamDeserializer::new(&text) {
        snapshots.push(WaitForSnapshot::from_json(&value.unwrap()).unwrap());
    }
    assert_eq!(snapshots.len(), 1, "one snapshot per watchdog trigger");
    let snapshot = &snapshots[0];
    assert_eq!(snapshot.reason, "deadlocked");
    assert!(snapshot.live_messages > 0);
    assert!(snapshot.flits_in_flight > 0);
    assert!(
        !snapshot.edges.is_empty(),
        "stalled worms wait on resources"
    );
    assert!(
        snapshot.cycle_found,
        "a real deadlock shows a channel cycle, got edges: {:?}",
        snapshot.edges.len()
    );
    assert!(
        snapshot.cycle_messages.len() >= 2,
        "a cycle needs >= 2 worms"
    );
    assert_eq!(
        snapshot.cycle_messages.len(),
        snapshot.cycle_channels.len(),
        "each cycle hop names the channel it waits through"
    );
    // Every cycle hop is backed by a recorded edge: message i waits on
    // channel i, held by message i+1 (wrapping).
    for (i, (&msg, &ch)) in snapshot
        .cycle_messages
        .iter()
        .zip(snapshot.cycle_channels.iter())
        .enumerate()
    {
        let next = snapshot.cycle_messages[(i + 1) % snapshot.cycle_messages.len()];
        assert!(
            snapshot
                .edges
                .iter()
                .any(|e| e.msg == msg && e.channel == ch && e.holder == next),
            "cycle hop {msg} --[{ch}]-> {next} missing from the edge list"
        );
    }
    // VC waits dominate a wormhole deadlock, but whatever kinds appear
    // must round-trip.
    assert!(snapshot
        .edges
        .iter()
        .all(|e| matches!(e.kind, WaitKind::Vc | WaitKind::Credit)));

    // The metrics sidecars are written even for deadlocked runs.
    assert!(dir
        .join("wf-naive-uniform-l0.70-s1993.metrics.json")
        .exists());
    assert!(dir
        .join("wf-naive-uniform-l0.70-s1993.heatmap.csv")
        .exists());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A transient partition end to end: the two outgoing links of a mesh
/// corner die mid-stream, which severs the worm in flight and parks the
/// still-queued messages behind it (their destinations became
/// unreachable); the repair unparks them, and the run completes — no
/// watchdog, no hang, no lost queued traffic.
#[test]
fn transient_partition_parks_messages_until_repair_then_completes() {
    use wormsim::engine::NetworkBuilder;
    let topo = Topology::mesh(&[4, 4]);
    let corner = topo.node_at(&[0, 0]);
    let mut plan = FaultPlan::new();
    for dim in [0, 1] {
        plan.push(Fault {
            target: FaultTarget::Link {
                node: corner,
                direction: Direction::new(dim, Sign::Plus),
            },
            fail_at: 4,
            repair_at: Some(400),
        });
    }
    let mut net = NetworkBuilder::new(topo.clone(), AlgorithmKind::PositiveHop)
        .faults(plan)
        .congestion_limit(None)
        .seed(SEED)
        .build()
        .expect("network builds");
    net.stop_arrivals();
    // One long worm streaming out of the corner when its only exits die,
    // and a burst queued behind it. Injection drains the queue into free
    // injection VCs immediately, so the burst must be deeper than the VC
    // count to leave messages in the source queue at the fault transition
    // — those are the ones that park instead of dying.
    net.inject(corner, topo.node_at(&[3, 3]), 24);
    for i in 0..12u16 {
        net.inject(corner, topo.node_at(&[1 + i % 3, 3 - i % 2]), 4);
    }
    net.run(50);
    assert!(
        net.metrics().messages_aborted >= 1,
        "in-flight worms are severed"
    );
    let parked = net.parked_messages();
    assert!(
        parked >= 1,
        "queued messages with unreachable destinations park"
    );
    assert!(
        net.run_until_empty(2_000),
        "the repair at cycle 400 must unpark and drain the network"
    );
    assert_eq!(net.parked_messages(), 0);
    assert!(
        net.metrics().delivered >= parked as u64,
        "every parked message completes after the repair"
    );
    assert!(net.deadlock_report().is_none());
}

/// Transient faults (fail at cycle 2000, repair at 4000) on top of static
/// link kills: adaptive and deterministic routing both produce bit-identical
/// results under seed 1993, including the fault bookkeeping.
#[test]
fn transient_fault_runs_match_golden() {
    let topo = Topology::torus(&[8, 8]);
    let mut lines = Vec::new();
    for algorithm in [AlgorithmKind::Ecube, AlgorithmKind::PositiveHop] {
        let result = Experiment::new(topo.clone(), algorithm)
            .faults(transient_plan(&topo))
            .offered_load(0.2)
            .quick()
            .seed(SEED)
            .run()
            .expect("fault plan is valid");
        lines.push(fault_result_json(&result));
    }
    let mut snapshot = lines.join("\n");
    snapshot.push('\n');
    assert_matches_golden("faults_transient_seed1993.jsonl", &snapshot);
}

/// The same fault-mode experiment twice in-process: equality is the cheap
/// half of the determinism guarantee the golden extends across builds.
#[test]
fn repeated_fault_runs_are_identical() {
    let topo = Topology::torus(&[8, 8]);
    let run = || {
        let r = Experiment::new(topo.clone(), AlgorithmKind::NegativeHopBonusCards)
            .faults(transient_plan(&topo))
            .offered_load(0.3)
            .quick()
            .seed(SEED)
            .run()
            .expect("runs");
        fault_result_json(&r)
    };
    assert_eq!(run(), run());
}
