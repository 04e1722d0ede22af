//! End-to-end distributed determinism: run the same sweep once with the
//! in-process thread pool and once sharded across two loopback
//! `wormsim-worker` processes, and demand the merged CSV *and* the journal
//! are byte-identical. Also covers torn-journal recovery: truncate a
//! journal mid-record, resume, and get the same bytes back, and the
//! worker's SIGTERM drain.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use wormsim::observe::{json, JsonRecord};
use wormsim::{AlgorithmKind, Experiment, RunResult, Topology};
use wormsim_bench::{PointJob, PointStatus, RemoteBackend, WorkerBackend};

const STUDY: &str = env!("CARGO_BIN_EXE_study");
const WORKER: &str = env!("CARGO_BIN_EXE_wormsim-worker");

/// A worker subprocess that dies with the test, pass or fail.
struct WorkerProc {
    child: Child,
    addr: String,
}

impl WorkerProc {
    /// Starts a worker on an ephemeral loopback port with `extra` flags
    /// (a chaos plan, a drain budget), and reads the bound address from
    /// its announcement line on stdout.
    fn spawn(threads: usize, extra: &[&str]) -> WorkerProc {
        let mut child = Command::new(WORKER)
            .args(["--listen", "127.0.0.1:0", "--threads", &threads.to_string()])
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn wormsim-worker");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read announcement");
        let addr = line
            .trim()
            .strip_prefix("wormsim-worker listening on ")
            .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
            .to_owned();
        WorkerProc { child, addr }
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// The shared sweep shape — small enough to finish in seconds, big enough
/// (six points) that two workers genuinely interleave.
fn sweep_args(out_dir: &Path) -> Vec<String> {
    [
        "sweep",
        "--topo",
        "torus:6x6",
        "--algos",
        "ecube,phop",
        "--loads",
        "0.1,0.2,0.3",
        "--quick",
        "--seed",
        "1993",
        "--threads",
        "2",
        "--out",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .chain([out_dir.display().to_string()])
    .collect()
}

/// A longer sweep (twelve 8×8 points) for the crash test: it must still
/// be running when the doomed worker is killed 300 ms in, so the failover
/// path genuinely re-dispatches in-flight work.
fn failover_sweep_args(out_dir: &Path) -> Vec<String> {
    [
        "sweep",
        "--topo",
        "torus:8x8",
        "--algos",
        "ecube,phop,nbc",
        "--loads",
        "0.1,0.2,0.3,0.4",
        "--quick",
        "--seed",
        "1993",
        "--threads",
        "2",
        "--out",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .chain([out_dir.display().to_string()])
    .collect()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wormsim-dist-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn remote_sweep_is_byte_identical_to_local() {
    // 1. The reference: the ordinary in-process sweep.
    let local_dir = temp_dir("local");
    let status = Command::new(STUDY)
        .args(sweep_args(&local_dir))
        .status()
        .expect("spawn local sweep");
    assert!(status.success(), "local sweep failed: {status}");
    let local_csv = std::fs::read(local_dir.join("sweep.csv")).expect("local CSV");
    let local_journal =
        std::fs::read(local_dir.join("sweep.journal.jsonl")).expect("local journal");

    // 2. The same sweep sharded across two concurrent loopback workers.
    let workers = [WorkerProc::spawn(2, &[]), WorkerProc::spawn(2, &[])];
    let remote_dir = temp_dir("remote");
    let status = Command::new(STUDY)
        .args(sweep_args(&remote_dir))
        .args(["--backend", "remote"])
        .args(["--worker", &workers[0].addr])
        .args(["--worker", &workers[1].addr])
        .status()
        .expect("spawn remote sweep");
    assert!(status.success(), "remote sweep failed: {status}");

    // 3. The contract: identical bytes, CSV and journal both.
    let remote_csv = std::fs::read(remote_dir.join("sweep.csv")).expect("remote CSV");
    let remote_journal =
        std::fs::read(remote_dir.join("sweep.journal.jsonl")).expect("remote journal");
    assert_eq!(
        local_csv, remote_csv,
        "remote sweep must reproduce the local CSV byte for byte"
    );
    assert_eq!(
        local_journal, remote_journal,
        "remote sweep must reproduce the local journal byte for byte"
    );

    std::fs::remove_dir_all(&local_dir).ok();
    std::fs::remove_dir_all(&remote_dir).ok();
}

#[test]
fn worker_crash_mid_sweep_fails_over_and_stays_byte_identical() {
    // 1. The reference: the ordinary in-process sweep.
    let local_dir = temp_dir("failover-local");
    let status = Command::new(STUDY)
        .args(failover_sweep_args(&local_dir))
        .status()
        .expect("spawn local sweep");
    assert!(status.success(), "local sweep failed: {status}");
    let local_csv = std::fs::read(local_dir.join("sweep.csv")).expect("local CSV");
    let local_journal =
        std::fs::read(local_dir.join("sweep.journal.jsonl")).expect("local journal");

    // 2. The same sweep across two workers — and one of them is murdered
    //    shortly after the sweep starts, with points in flight. Its first
    //    point stalls until the kill, so the crash always strands work.
    //    The backend must write it off, the supervisor re-dispatch its
    //    point to the survivor, and the sweep finish.
    let doomed = WorkerProc::spawn(1, &["--chaos", "stall-submit=1"]);
    let survivor = WorkerProc::spawn(2, &[]);
    let remote_dir = temp_dir("failover-remote");
    let sweep = Command::new(STUDY)
        .args(failover_sweep_args(&remote_dir))
        .args(["--backend", "remote"])
        .args(["--worker", &doomed.addr])
        .args(["--worker", &survivor.addr])
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn remote sweep");
    std::thread::sleep(std::time::Duration::from_millis(300));
    drop(doomed); // kill -9, mid-point
    let output = sweep.wait_with_output().expect("sweep finishes");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "sweep must survive a worker crash; stderr was:\n{stderr}"
    );
    assert!(
        stderr.contains("re-dispatching"),
        "the failover must be announced; stderr was:\n{stderr}"
    );

    // 3. The contract holds across the crash: identical bytes.
    let remote_csv = std::fs::read(remote_dir.join("sweep.csv")).expect("remote CSV");
    let remote_journal =
        std::fs::read(remote_dir.join("sweep.journal.jsonl")).expect("remote journal");
    assert_eq!(
        local_csv, remote_csv,
        "failover must reproduce the local CSV byte for byte"
    );
    assert_eq!(
        local_journal, remote_journal,
        "failover must reproduce the local journal byte for byte"
    );
    let manifest = std::fs::read_to_string(remote_dir.join("sweep.journal.supervision.json"))
        .expect("a failover leaves a supervision manifest");
    let redispatched: u64 = json::from_str(&manifest)
        .unwrap_or_else(|e| panic!("supervision manifest {manifest}: {e}"))
        .field("points_redispatched")
        .unwrap_or_else(|e| panic!("supervision manifest {manifest}: {e}"));
    assert!(
        redispatched >= 1,
        "the manifest must record the re-dispatch"
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

#[test]
fn truncated_journal_recovers_and_resumes_to_identical_csv() {
    // 1. A complete sweep: CSV plus a six-line journal.
    let dir = temp_dir("torn");
    let status = Command::new(STUDY)
        .args(sweep_args(&dir))
        .status()
        .expect("spawn sweep");
    assert!(status.success(), "clean sweep failed: {status}");
    let clean_csv = std::fs::read(dir.join("sweep.csv")).expect("CSV written");
    let journal = dir.join("sweep.journal.jsonl");
    let text = std::fs::read_to_string(&journal).expect("journal readable");
    assert_eq!(text.lines().count(), 6);

    // 2. Tear the final record in half, as a crash mid-append would.
    let keep = text.len() - text.lines().last().unwrap().len() / 2;
    std::fs::write(&journal, &text[..keep]).expect("truncate journal");

    // 3. Resume: the valid prefix splices, the torn point re-runs.
    let output = Command::new(STUDY)
        .args(sweep_args(&dir))
        .args(["--resume", &journal.display().to_string()])
        .output()
        .expect("spawn sweep");
    assert!(output.status.success(), "resume failed: {}", output.status);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("torn append"),
        "recovery must be announced; stderr was:\n{stderr}"
    );
    assert!(
        stderr.contains("resuming: 5/6 points"),
        "five valid points must splice; stderr was:\n{stderr}"
    );

    // 4. Identical CSV, and a journal healed back to six parseable lines.
    let resumed_csv = std::fs::read(dir.join("sweep.csv")).expect("resumed CSV");
    assert_eq!(
        clean_csv, resumed_csv,
        "recovery resume must reproduce the CSV byte for byte"
    );
    let healed = std::fs::read_to_string(&journal).expect("journal readable");
    assert_eq!(
        healed, text,
        "the healed journal must match the uninterrupted one byte for byte"
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
    let mut worker = WorkerProc::spawn(1, &["--drain-secs", "10", "--chaos", "stall-submit=2"]);
    let experiment = Experiment::new(Topology::torus(&[16, 16]), AlgorithmKind::PositiveHop)
        .offered_load(0.2)
        .quick()
        .seed(1993);
    let job = |index| PointJob {
        point_hash: experiment.point_hash(),
        experiment: experiment.clone(),
        index,
        retries: 1,
        inject_panic: false,
        resumed_from: None,
    };
    let mut backend = RemoteBackend::connect(&[worker.addr.clone()]).expect("handshake");
    let running = backend.submit(job(0)).expect("submit the running point");
    backend.submit(job(1)).expect("submit the stalled point");

    let killed = Command::new("kill")
        .args(["-TERM", &worker.child.id().to_string()])
        .status()
        .expect("run kill");
    assert!(killed.success());
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

    let deadline = Instant::now() + Duration::from_secs(30);
    let exit = loop {
        if let Some(exit) = worker.child.try_wait().expect("poll the worker") {
            break exit;
        }
        assert!(Instant::now() < deadline, "the drained worker never exited");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(exit.code(), Some(0), "{exit}");
}
