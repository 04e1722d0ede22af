//! The harness the process-level tests share: the `study` and
//! `wormsim-worker` binaries, a worker subprocess that dies with its test,
//! the two sweep shapes, and readers for what a sweep leaves in its
//! output directory.

// Each test crate compiles this module and uses a subset of it.
#![allow(dead_code)]

use std::ffi::OsStr;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};
use wormsim::observe::json;

pub const STUDY: &str = env!("CARGO_BIN_EXE_study");
pub const WORKER: &str = env!("CARGO_BIN_EXE_wormsim-worker");

/// A worker subprocess that dies with the test, pass or fail.
pub struct WorkerProc {
    pub child: Child,
    pub addr: String,
}

impl WorkerProc {
    /// Starts a worker on an ephemeral loopback port with `extra` flags
    /// (a chaos plan, a drain budget), and reads the bound address from
    /// its announcement line on stdout.
    pub fn spawn(threads: usize, extra: &[&str]) -> WorkerProc {
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

    /// Sends the worker `signal` (`STOP`, `TERM`) through kill(1).
    pub fn signal(&self, signal: &str) {
        let status = Command::new("kill")
            .args([&format!("-{signal}"), &self.child.id().to_string()])
            .status()
            .expect("run kill");
        assert!(status.success(), "SIG{signal} failed: {status}");
    }

    /// How the worker exited, waiting up to `within` for it to.
    pub fn exit_status(&mut self, within: Duration) -> ExitStatus {
        let deadline = Instant::now() + within;
        loop {
            if let Some(exit) = self.child.try_wait().expect("poll the worker") {
                return exit;
            }
            assert!(Instant::now() < deadline, "the worker never exited");
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        // SIGKILL also reaps stopped processes.
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// A fresh scratch path for this test process.
pub fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wormsim-test-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// `study sweep` over `topo` × `algos` × `loads` at the quick schedule,
/// seed 1993, on two threads, writing to `out_dir`.
fn sweep_of(topo: &str, algos: &str, loads: &str, out_dir: &Path) -> Vec<String> {
    let out = out_dir.display().to_string();
    let axes = ["--topo", topo, "--algos", algos, "--loads", loads];
    let harness = ["--quick", "--seed", "1993", "--threads", "2", "--out", &out];
    std::iter::once("sweep")
        .chain(axes)
        .chain(harness)
        .map(str::to_owned)
        .collect()
}

/// A six-point 6×6 sweep: small enough to finish in seconds, big enough
/// that two workers genuinely interleave.
pub fn sweep_args(out_dir: &Path) -> Vec<String> {
    sweep_of("torus:6x6", "ecube,phop", "0.1,0.2,0.3", out_dir)
}

/// A twelve-point 8×8 sweep: long enough that faults injected 300 ms in
/// genuinely hit in-flight work.
pub fn long_sweep_args(out_dir: &Path) -> Vec<String> {
    sweep_of("torus:8x8", "ecube,phop,nbc", "0.1,0.2,0.3,0.4", out_dir)
}

/// `study` with `args`, sharded across `workers`.
pub fn remote_study<S: AsRef<OsStr>>(args: &[S], workers: &[&WorkerProc]) -> Command {
    let mut command = Command::new(STUDY);
    command.args(args);
    for worker in workers {
        command.args(["--worker", &worker.addr]);
    }
    command
}

/// The CSV and journal a finished `study sweep` left in `out_dir`.
pub fn sweep_outputs(out_dir: &Path) -> (Vec<u8>, Vec<u8>) {
    (
        std::fs::read(out_dir.join("sweep.csv")).expect("sweep CSV"),
        std::fs::read(out_dir.join("sweep.journal.jsonl")).expect("sweep journal"),
    )
}

/// Runs `study` with `args` on the in-process pool and returns the CSV
/// and journal it wrote to `out_dir`: the serial reference.
pub fn run_serial(args: &[String], out_dir: &Path) -> (Vec<u8>, Vec<u8>) {
    let status = Command::new(STUDY)
        .args(args)
        .status()
        .expect("spawn local sweep");
    assert!(status.success(), "local sweep failed: {status}");
    sweep_outputs(out_dir)
}

/// The count `key` in the supervision manifest a sweep left in `out_dir`.
pub fn manifest_count(out_dir: &Path, stem: &str, key: &str) -> u64 {
    let path = out_dir.join(format!("{stem}.journal.supervision.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("supervision manifest {}: {e}", path.display()));
    let manifest = json::from_str(&text).unwrap_or_else(|e| panic!("manifest {text}: {e}"));
    manifest
        .field(key)
        .unwrap_or_else(|e| panic!("manifest {text}: {e}"))
}
