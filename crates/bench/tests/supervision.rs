//! End-to-end sweep supervision under real process-level faults: workers
//! are killed, crash on a chaos cue, hang with SIGSTOP or a stalled
//! point, and corrupt their responses mid-sweep — and the merged CSV
//! *and* journal must still come out byte-identical to a serial run.
//! Drives the supervision CLI flags (`--point-deadline`, `--hedge-after`,
//! `--quarantine-after`) through `study`, and checks the counts each
//! scenario leaves in the supervision manifest: a hung worker is written
//! off, a hedged straggler's duplicate is discarded, and a poison point
//! exits `study sweep` and `study faults_sweep` alike with the distinct
//! quarantine code.

mod common;

use common::{
    long_sweep_args, manifest_count, remote_study, run_serial, sweep_args, sweep_outputs, temp_dir,
    WorkerProc,
};
use std::path::Path;
use std::process::Stdio;
use std::time::Duration;
use wormsim_bench::worker::CHAOS_CRASH_EXIT;

/// Asserts a remote sweep in `remote_dir` wrote exactly the serial bytes.
fn assert_identical(scenario: &str, serial: &(Vec<u8>, Vec<u8>), remote_dir: &Path) {
    let (csv, journal) = sweep_outputs(remote_dir);
    assert!(
        serial.0 == csv,
        "{scenario} must not perturb a byte of the CSV"
    );
    assert!(
        serial.1 == journal,
        "{scenario} must not perturb a byte of the journal"
    );
}

/// The chaos gauntlet: five workers — one clean, one corrupting 20% of
/// its response bodies, one that crashes on its second submit, one
/// killed 300 ms in, one frozen with SIGSTOP 300 ms in — and the sweep
/// must finish with bytes identical to serial. The doomed and frozen
/// workers each stall their first point, so both still hold work when
/// the faults land; the crasher's first point is running when it dies.
#[test]
fn killed_crashing_hung_and_corrupting_workers_stay_byte_identical() {
    let local_dir = temp_dir("gauntlet-local");
    let serial = run_serial(&long_sweep_args(&local_dir), &local_dir);

    let clean = WorkerProc::spawn(2, &[]);
    let garbler = WorkerProc::spawn(2, &["--chaos", "corrupt=0.2,delay-ms=10@0.3"]);
    let doomed = WorkerProc::spawn(2, &["--chaos", "stall-submit=1"]);
    let frozen = WorkerProc::spawn(2, &["--chaos", "stall-submit=1"]);
    let mut crasher = WorkerProc::spawn(2, &["--chaos", "crash-submit=2"]);
    let remote_dir = temp_dir("gauntlet-remote");
    let sweep = remote_study(
        &long_sweep_args(&remote_dir),
        &[&clean, &garbler, &doomed, &frozen, &crasher],
    )
    // Small RPC timeout so the frozen worker's unanswered polls are
    // declared lost in seconds, not the 10 s production default.
    .env("WORMSIM_RPC_TIMEOUT_MS", "500")
    .stderr(Stdio::piped())
    .spawn()
    .expect("spawn remote sweep");
    std::thread::sleep(Duration::from_millis(300));
    drop(doomed); // kill -9, mid-point
    frozen.signal("STOP"); // hung, socket still open, mid-point
    let output = sweep.wait_with_output().expect("sweep finishes");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "sweep must survive the gauntlet; stderr was:\n{stderr}"
    );
    assert!(
        stderr.contains("re-dispatching"),
        "losing workers must be announced; stderr was:\n{stderr}"
    );
    assert_eq!(
        crasher.exit_status(Duration::from_secs(10)).code(),
        Some(CHAOS_CRASH_EXIT),
        "the crasher must die of the crash it was armed with"
    );
    assert_identical("the gauntlet", &serial, &remote_dir);
    assert!(
        manifest_count(&remote_dir, "sweep", "points_redispatched") >= 1,
        "the manifest must record the re-dispatches"
    );

    std::fs::remove_dir_all(&local_dir).ok();
    std::fs::remove_dir_all(&remote_dir).ok();
}

/// `--point-deadline` through the CLI: a worker whose first point stalls
/// with its heartbeat frozen (chaos `stall-submit=1`) is written off, the
/// point fails over to the clean worker, and the sweep stays
/// byte-identical.
///
/// The stalling worker is listed first and has one slot, so it takes
/// exactly one point. The clean worker has a slot for every point, so
/// the failover never queues a point behind a full pool, where its
/// heartbeat would sit at zero as well.
#[test]
fn hung_worker_is_written_off_and_its_point_fails_over() {
    let local_dir = temp_dir("write-off-local");
    let serial = run_serial(&sweep_args(&local_dir), &local_dir);

    let staller = WorkerProc::spawn(1, &["--chaos", "stall-submit=1"]);
    let clean = WorkerProc::spawn(6, &[]);
    let remote_dir = temp_dir("write-off-remote");
    let output = remote_study(&sweep_args(&remote_dir), &[&staller, &clean])
        .args(["--point-deadline", "0.4", "--quarantine-after", "0"])
        .stderr(Stdio::piped())
        .output()
        .expect("spawn remote sweep");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "the sweep must outlive a hung worker; stderr was:\n{stderr}"
    );
    assert!(
        stderr.contains("re-dispatching"),
        "the failover must be announced; stderr was:\n{stderr}"
    );
    assert_identical("a write-off", &serial, &remote_dir);
    assert!(
        manifest_count(&remote_dir, "sweep", "workers_written_off") >= 1,
        "the manifest must record the write-off"
    );

    std::fs::remove_dir_all(&local_dir).ok();
    std::fs::remove_dir_all(&remote_dir).ok();
}

/// `--hedge-after` through the CLI: a worker whose first point stalls
/// forever (chaos `stall-submit=1`) is rescued by a hedged re-dispatch,
/// the sweep stays byte-identical, and the supervision manifest records
/// the hedge and the discarded duplicate.
#[test]
fn hedged_straggler_is_rescued_and_recorded() {
    let local_dir = temp_dir("hedge-local");
    let serial = run_serial(&sweep_args(&local_dir), &local_dir);

    let staller = WorkerProc::spawn(2, &["--chaos", "stall-submit=1"]);
    let clean = WorkerProc::spawn(2, &[]);
    let remote_dir = temp_dir("hedge-remote");
    let status = remote_study(&sweep_args(&remote_dir), &[&staller, &clean])
        .args(["--hedge-after", "0.3", "--quarantine-after", "0"])
        .status()
        .expect("spawn remote sweep");
    assert!(status.success(), "hedged sweep failed: {status}");
    assert_identical("hedging", &serial, &remote_dir);
    assert!(
        manifest_count(&remote_dir, "sweep", "points_hedged") >= 1,
        "the manifest must record the hedge"
    );
    assert!(
        manifest_count(&remote_dir, "sweep", "duplicates_discarded") >= 1,
        "the stalled copy the hedge beat must be discarded"
    );

    std::fs::remove_dir_all(&local_dir).ok();
    std::fs::remove_dir_all(&remote_dir).ok();
}

/// `--point-deadline` + `--quarantine-after` through the CLI of both
/// sweep studies: a point that hangs every worker it touches is
/// quarantined, the sweep exits with the distinct quarantine code (4),
/// the poison point lands in the quarantine sidecar instead of the
/// journal, the point that did complete is flushed to the partial CSV,
/// and the manifest counts one quarantine and the write-off behind it.
///
/// Each worker stalls its first submit. Point 0 goes to the two-slot
/// worker and hangs; point 1 takes that worker's second slot and
/// completes long before the deadline. Writing the first worker off
/// loses point 0's only dispatch, which spends its budget of one: it is
/// quarantined at once, and the second worker is never touched.
#[test]
fn poison_point_quarantines_with_distinct_exit_code() {
    let scenarios: [(&str, &[&str]); 2] = [
        ("sweep", &["--algos", "phop", "--loads", "0.1,0.2"]),
        (
            "faults_sweep",
            &["--algos", "phop", "--loads", "0.1", "--max-faults", "1"],
        ),
    ];
    for (stem, axes) in scenarios {
        let staller_a = WorkerProc::spawn(2, &["--chaos", "stall-submit=1"]);
        let staller_b = WorkerProc::spawn(1, &["--chaos", "stall-submit=1"]);
        let out_dir = temp_dir(&format!("quarantine-{stem}"));
        let study = [stem, "--topo", "torus:4x4", "--quick", "--seed", "1993"];
        let output = remote_study(&study, &[&staller_a, &staller_b])
            .arg("--out")
            .arg(&out_dir)
            .args(axes)
            .args(["--point-deadline", "0.5"])
            .args(["--quarantine-after", "1"])
            .stderr(Stdio::piped())
            .output()
            .expect("spawn quarantine sweep");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(4),
            "{stem}: quarantine must exit with its own code; stderr was:\n{stderr}"
        );
        assert!(
            stderr.contains("quarantin"),
            "{stem}: quarantine must be announced; stderr was:\n{stderr}"
        );
        let sidecar =
            std::fs::read_to_string(out_dir.join(format!("{stem}.journal.quarantine.jsonl")))
                .expect("quarantine sidecar");
        let poison_hash = sidecar
            .split("\"point_hash\":\"")
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_else(|| panic!("{stem}: sidecar must name the poison point: {sidecar}"));
        assert_eq!(sidecar.lines().count(), 1, "{stem}: one poison point");
        assert!(
            sidecar.contains("\"dispatches\":1"),
            "{stem}: quarantine must fire on the first lost dispatch: {sidecar}"
        );
        let journal = std::fs::read_to_string(out_dir.join(format!("{stem}.journal.jsonl")))
            .expect("journal exists");
        assert_eq!(journal.lines().count(), 1, "{stem}: the healthy point");
        assert!(
            !journal.contains(poison_hash),
            "{stem}: the poison point must not reach the journal: {journal}"
        );
        let partial = std::fs::read_to_string(out_dir.join(format!("{stem}.partial.csv")))
            .expect("partial CSV");
        assert_eq!(
            partial.lines().count(),
            2,
            "{stem}: header plus the healthy point: {partial}"
        );
        assert!(
            !out_dir.join(format!("{stem}.csv")).exists(),
            "{stem}: an incomplete sweep must not pass for a whole one"
        );
        assert_eq!(
            manifest_count(&out_dir, stem, "points_quarantined"),
            1,
            "{stem}: the manifest must count the quarantine"
        );
        assert!(
            manifest_count(&out_dir, stem, "workers_written_off") >= 1,
            "{stem}: the manifest must count the write-off behind it"
        );

        std::fs::remove_dir_all(&out_dir).ok();
    }
}
