//! End-to-end distributed determinism: run the same sweep once with the
//! in-process thread pool and once sharded across two loopback
//! `wormsim-worker` processes, and demand the merged CSV *and* the journal
//! are byte-identical. Also covers an unreachable worker and the worker's
//! SIGTERM drain.

mod common;

use common::{remote_study, run_serial, sweep_args, sweep_outputs, temp_dir, WorkerProc, STUDY};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;
use std::time::{Duration, Instant};
use wormsim::observe::JsonRecord;
use wormsim::{AlgorithmKind, Experiment, RunResult, Topology};
use wormsim_bench::{PointJob, PointStatus, RemoteBackend, WorkerBackend};

#[test]
fn remote_sweep_is_byte_identical_to_local() {
    // 1. The reference: the ordinary in-process sweep.
    let local_dir = temp_dir("local");
    let local = run_serial(&sweep_args(&local_dir), &local_dir);

    // 2. The same sweep sharded across two concurrent loopback workers.
    let workers = [WorkerProc::spawn(2, &[]), WorkerProc::spawn(2, &[])];
    let remote_dir = temp_dir("remote");
    let status = remote_study(&sweep_args(&remote_dir), &[&workers[0], &workers[1]])
        .status()
        .expect("spawn remote sweep");
    assert!(status.success(), "remote sweep failed: {status}");

    // 3. The contract: identical bytes, CSV and journal both.
    let (remote_csv, remote_journal) = sweep_outputs(&remote_dir);
    assert!(
        local.0 == remote_csv,
        "remote sweep must reproduce the local CSV byte for byte"
    );
    assert!(
        local.1 == remote_journal,
        "remote sweep must reproduce the local journal byte for byte"
    );

    std::fs::remove_dir_all(&local_dir).ok();
    std::fs::remove_dir_all(&remote_dir).ok();
}

#[test]
fn remote_sweep_without_reachable_workers_is_a_clean_error() {
    let dir = temp_dir("deadworker");
    let output = Command::new(STUDY)
        .args(sweep_args(&dir))
        .args(["--backend", "remote", "--worker", "127.0.0.1:1"])
        .output()
        .expect("spawn sweep");
    assert_eq!(output.status.code(), Some(1), "got: {}", output.status);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("worker 127.0.0.1:1"),
        "the error must name the unreachable worker; stderr was:\n{stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// One raw HTTP exchange with a worker: the status code and the body.
fn http(addr: &str, method: &str, target: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to worker");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let status = response
        .split(' ')
        .nth(1)
        .and_then(|code| code.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"));
    let body = response.split_once("\r\n\r\n").map_or("", |(_, body)| body);
    (status, body.to_owned())
}

/// A result's bytes without the machine-dependent wall fields.
fn canonical(mut result: RunResult) -> String {
    result.wall_seconds = 0.0;
    result.cycles_per_sec = 0.0;
    result.to_json()
}

#[test]
fn sigterm_drains_the_in_flight_point_and_exits_zero() {
    // Job 0 runs; job 1 is chaos-stalled, so one job is pending however
    // fast job 0 finishes. A drain waits for running jobs, not stalled ones.
    // Two slots: the backend sends a worker no more jobs than it has.
    let mut worker = WorkerProc::spawn(2, &["--drain-secs", "10", "--chaos", "stall-submit=2"]);
    let experiment = Experiment::new(Topology::torus(&[16, 16]), AlgorithmKind::PositiveHop)
        .offered_load(0.2)
        .quick()
        .seed(1993);
    let job = |index| PointJob {
        point_hash: experiment.point_hash(),
        experiment: experiment.clone(),
        index,
        inject_panic: false,
    };
    let mut backend = RemoteBackend::connect(&[worker.addr.clone()]).expect("handshake");
    let running = backend.submit(job(0)).expect("submit the running point");
    backend.submit(job(1)).expect("submit the stalled point");

    worker.signal("TERM");
    // Delivery is asynchronous: wait until the worker refuses new work.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = http(&worker.addr, "POST", "/submit", "{}");
        if status == 503 {
            assert!(body.contains("draining"), "{body}");
            break;
        }
        assert!(
            Instant::now() < deadline,
            "never refused a submit: {status} {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let (status, body) = http(&worker.addr, "GET", "/status?job=1", "");
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"state\":\"pending\"") && body.contains("\"draining\":true"),
        "{body}"
    );

    let deadline = Instant::now() + Duration::from_secs(60);
    let remote = loop {
        assert!(
            Instant::now() < deadline,
            "the drained point never finished"
        );
        match backend.poll(running) {
            PointStatus::Pending { .. } => std::thread::sleep(Duration::from_millis(10)),
            PointStatus::Done { result, .. } => break result.expect("the point runs"),
            PointStatus::Lost(err) => panic!("a draining worker is not dead: {err}"),
        }
    };
    let local = experiment.run().expect("local run");
    assert_eq!(canonical(remote), canonical(local));

    let exit = worker.exit_status(Duration::from_secs(30));
    assert_eq!(exit.code(), Some(0), "{exit}");
}
