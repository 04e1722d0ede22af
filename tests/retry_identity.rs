//! Retry identity: points the sweep runs more than once — transient
//! budget trips, and stalls the triage blames on a tight budget — must
//! journal the same attempts, the same retry decision and the same bytes
//! on the local pool and on a loopback worker.

use std::path::PathBuf;
use wormsim::observe::fnv1a_hex;
use wormsim::topology::Topology;
use wormsim::verify::{search_faults, AdversaryConfig};
use wormsim::{AlgorithmKind, Experiment, FaultPlan, MeasurementSchedule};
use wormsim_bench::worker::LoopbackWorker;
use wormsim_bench::{run_sweep, BackendChoice, SweepOptions, SweepPlan};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wormsim-retry-identity-{}-{name}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Runs `experiments` once on the local pool and once on a loopback
/// worker (default `--retries 1` both times), requires byte-identical
/// journals whose FNV-1a digest is `digest` (captured before the retry
/// policy moved into the supervisor), and returns the journal's lines.
fn journal_lines(name: &str, experiments: Vec<Experiment>, digest: &str) -> Vec<String> {
    let plan = SweepPlan::new(experiments).fail_fast(true);
    let local_dir = temp_dir(&format!("{name}-local"));
    let remote_dir = temp_dir(&format!("{name}-remote"));
    let local = SweepOptions {
        schedule: MeasurementSchedule::quick(),
        out_dir: local_dir.display().to_string(),
        threads: 2,
        ..SweepOptions::default()
    };
    let local_run = run_sweep(&plan, &local).expect("local sweep");
    let worker = LoopbackWorker::spawn(2).expect("bind loopback");
    let remote = SweepOptions {
        schedule: MeasurementSchedule::quick(),
        out_dir: remote_dir.display().to_string(),
        backend: BackendChoice::Remote {
            workers: vec![worker.addr.to_string()],
        },
        ..SweepOptions::default()
    };
    let remote_run = run_sweep(&plan, &remote).expect("remote sweep");
    worker.kill();
    assert_eq!(local_run.attempts, remote_run.attempts);
    let local_bytes = std::fs::read_to_string(&local_run.journal).expect("local journal");
    let remote_bytes = std::fs::read_to_string(&remote_run.journal).expect("remote journal");
    assert_eq!(
        local_bytes, remote_bytes,
        "journals must be byte-identical across backends"
    );
    assert_eq!(fnv1a_hex(&local_bytes), digest, "journal bytes changed");
    std::fs::remove_dir_all(&local_dir).ok();
    std::fs::remove_dir_all(&remote_dir).ok();
    local_bytes.lines().map(str::to_owned).collect()
}

/// The adversary's minimized single-fault refutation of phop on the 4x4
/// torus, loaded until it wedges: the watchdog fires, and the triage
/// finds no circular wait, so the stall reads `budget_artifact`.
fn wedged_phop_point() -> Experiment {
    let topo = Topology::torus(&[4, 4]);
    let algo = AlgorithmKind::PositiveHop.build(&topo).unwrap();
    let config = AdversaryConfig {
        max_faults: 1,
        ..AdversaryConfig::default()
    };
    let report = search_faults(&topo, algo.as_ref(), &config).unwrap();
    let mut plan = FaultPlan::new();
    for fault in report.refutations[0].plan.faults() {
        plan.push(*fault);
    }
    Experiment::new(topo, AlgorithmKind::PositiveHop)
        .faults(plan)
        .offered_load(0.6)
        .congestion_limit(None)
        .quick()
        .watchdog_cycles(1_000)
        .seed(1)
}

#[test]
fn budget_trips_are_retried_once_on_both_backends() {
    let experiments = [AlgorithmKind::Ecube, AlgorithmKind::PositiveHop]
        .into_iter()
        .flat_map(|algorithm| {
            [0.1, 0.2].map(|load| {
                Experiment::new(Topology::torus(&[6, 6]), algorithm)
                    .offered_load(load)
                    .quick()
                    .seed(1993)
                    .cycle_budget(Some(3_000))
            })
        })
        .collect();
    let lines = journal_lines("budget", experiments, "bb77ec55ceed4faf");
    assert_eq!(lines.len(), 4);
    for line in &lines {
        assert!(line.contains("\"attempts\":2,"), "{line}");
        assert!(line.contains("\"outcome\":\"budget_exceeded\""), "{line}");
        assert!(!line.contains("retry_decision"), "{line}");
    }
}

#[test]
fn a_budget_artifact_stall_is_retried_at_a_raised_budget() {
    let point = wedged_phop_point().cycle_budget(Some(100_000));
    let lines = journal_lines("artifact", vec![point], "7e6c055d6a94741a");
    let [line] = lines.as_slice() else {
        panic!("one point, one line: {lines:?}");
    };
    assert!(line.contains("\"attempts\":2,"), "{line}");
    assert!(
        line.contains("\"retry_decision\":\"budget_artifact_retried\""),
        "{line}"
    );
}

#[test]
fn a_budget_artifact_stall_without_a_budget_is_not_retried() {
    let lines = journal_lines("no-budget", vec![wedged_phop_point()], "f6e089918e157d69");
    let [line] = lines.as_slice() else {
        panic!("one point, one line: {lines:?}");
    };
    assert!(line.contains("\"attempts\":1,"), "{line}");
    assert!(
        line.contains("\"retry_decision\":\"budget_artifact_not_retried\""),
        "{line}"
    );
}
