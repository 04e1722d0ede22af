//! Serial vs loopback identity: the same plan through the local pool and
//! through an in-process loopback worker must leave byte-identical
//! journal files — the distributed determinism contract, checked by the
//! root suite.

use std::path::PathBuf;
use wormsim::{presets, AlgorithmKind, MeasurementSchedule};
use wormsim_bench::worker::LoopbackWorker;
use wormsim_bench::{run_sweep, BackendChoice, SweepOptions, SweepPlan};

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "wormsim-loopback-identity-{}-{name}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn local_and_remote_backends_write_identical_journals() {
    let mut spec = presets::fig3();
    spec.loads = vec![0.1, 0.3];
    spec.algorithms = vec![AlgorithmKind::Ecube, AlgorithmKind::PositiveHop];
    let experiments = presets::experiments_for(&spec, MeasurementSchedule::quick(), 1993);
    let plan = SweepPlan::new(experiments).fail_fast(true);
    let local_dir = temp_dir("local");
    let remote_dir = temp_dir("remote");
    let local = SweepOptions {
        schedule: MeasurementSchedule::quick(),
        out_dir: local_dir.display().to_string(),
        threads: 2,
        ..SweepOptions::default()
    };
    run_sweep(&plan, &local).expect("local sweep");
    let worker = LoopbackWorker::spawn(2).expect("bind loopback");
    let remote = SweepOptions {
        schedule: MeasurementSchedule::quick(),
        out_dir: remote_dir.display().to_string(),
        backend: BackendChoice::Remote {
            workers: vec![worker.addr.to_string()],
        },
        ..SweepOptions::default()
    };
    run_sweep(&plan, &remote).expect("remote sweep");
    let local_bytes = std::fs::read(local_dir.join("sweep.journal.jsonl")).unwrap();
    let remote_bytes = std::fs::read(remote_dir.join("sweep.journal.jsonl")).unwrap();
    assert!(!local_bytes.is_empty());
    assert_eq!(
        local_bytes, remote_bytes,
        "journals must be byte-identical across backends"
    );
    // The worker is long-lived: a second sweep (what `study headline
    // --backend remote` does per figure) must not collide with the job
    // ids the first one left behind.
    let again = plan.journal_name("again.journal.jsonl");
    run_sweep(&again, &remote).expect("second sweep against the same worker");
    let again_bytes = std::fs::read(remote_dir.join("again.journal.jsonl")).unwrap();
    assert_eq!(
        local_bytes, again_bytes,
        "a worker's second sweep must be as byte-identical as its first"
    );
    worker.kill();
    std::fs::remove_dir_all(&local_dir).ok();
    std::fs::remove_dir_all(&remote_dir).ok();
}
