//! The `wormsim-worker` server: the local pool behind HTTP.
//!
//! A worker is a headless process that accepts serialized
//! [`Experiment`]s and runs each accepted job on a [`LocalThreadBackend`]
//! — the same pool, executor, heartbeat and cancellation a local sweep
//! uses — and serves results back as [`RunResult`]
//! JSON. This module only adds the HTTP protocol, chaos injection, the
//! SIGTERM drain and a job table. The protocol (see
//! `docs/DISTRIBUTION.md`) has four endpoints, and its three structured
//! bodies (`HandshakeBody`, `SubmitBody`, `StatusBody`) are
//! declared once below, for this server and the orchestrator's
//! [`RemoteBackend`](crate::RemoteBackend) alike:
//!
//! * `GET /handshake` — wire protocol version, config digest, slot
//!   count, draining flag, and the first job id this worker has not
//!   seen (so one long-lived worker serves sweep after sweep).
//! * `POST /submit` — enqueue a job (rejected with 409 on digest
//!   mismatch, 400 on undecodable payloads, 503 while draining).
//! * `GET /status?job=ID` — `pending` (with the job's simulation
//!   heartbeat, so a supervisor can tell hung from slow), `done` (with
//!   the result of the job's one attempt), or `failed` (with the
//!   configuration error). Whether a point runs again is the
//!   orchestrator's decision, never the worker's.
//! * `POST /cancel` — cancel every job the pool holds.
//!
//! Simulation results are bit-deterministic in the experiment config, so
//! a worker on any machine produces byte-identical result JSON — the
//! foundation of the distributed byte-identity guarantee.
//!
//! Two robustness features live here rather than in the orchestrator:
//!
//! * **Graceful drain.** SIGTERM flips the worker into draining mode:
//!   `/submit` answers 503, status responses carry `"draining": true`,
//!   in-flight runs get up to `--drain-secs` to finish (then are
//!   cancelled), and the process exits 0. The orchestrator treats a
//!   draining worker as zero-capacity, not dead.
//! * **Chaos injection.** `--chaos <spec>` arms a seeded [`ChaosPlan`]
//!   that crashes or stalls the worker on the Nth submit and
//!   delays/drops/corrupts/truncates responses — the adversarial rig the
//!   sweep supervisor is validated against
//!   (`crates/bench/tests/supervision.rs`).

use crate::backend::{LocalThreadBackend, PointJob, PointStatus, WorkHandle, WorkerBackend};
use crate::chaos::{salt, ChaosPlan};
use crate::cli::{self, Flag};
use crate::http;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};
use wormsim::observe::{json, json_record, json_union, JsonObject, JsonRecord};
use wormsim::{wire_digest, CancelToken, Experiment, RunResult, WIRE_PROTOCOL};

/// The `/handshake` body.
pub(crate) struct HandshakeBody {
    pub(crate) wire: u32,
    pub(crate) digest: String,
    pub(crate) threads: usize,
    pub(crate) draining: bool,
    /// The first job id this worker has not seen.
    pub(crate) next_job: u64,
}

json_record!(HandshakeBody {
    wire,
    digest = String::new(),
    threads,
    draining = false,
    next_job = 0,
});

/// The `/submit` body: job `job`, for a worker built with wire `digest`.
pub(crate) struct SubmitBody {
    pub(crate) digest: String,
    pub(crate) job: u64,
    pub(crate) experiment: Experiment,
}

json_record!(SubmitBody {
    digest,
    job,
    experiment,
});

/// The `/status` body.
pub(crate) enum StatusBody {
    /// Not finished. `heartbeat` is the engine's cycle heartbeat: 0 until
    /// the simulation starts, then monotonically advancing, so a
    /// supervisor that sees the same value across its point deadline
    /// knows this worker is hung, not slow.
    Pending {
        heartbeat: u64,
        draining: bool,
    },
    Done {
        result: RunResult,
    },
    /// The job's configuration error, rendered.
    Failed {
        error: String,
    },
}

json_union!(StatusBody, "state" {
    Pending = "pending" { heartbeat, draining },
    Done = "done" { result },
    Failed = "failed" { error },
});

/// Configuration for [`serve`].
pub struct WorkerConfig {
    /// Listen address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub listen: String,
    /// Simulation slots (concurrent points). At least one.
    pub threads: usize,
    /// Seeded fault injection (`--chaos`); default injects nothing.
    pub chaos: ChaosPlan,
    /// Seconds SIGTERM waits for in-flight runs before cancelling them.
    pub drain_secs: u64,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            listen: "127.0.0.1:0".to_owned(),
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            chaos: ChaosPlan::default(),
            drain_secs: 30,
        }
    }
}

/// The `wormsim-worker` command line.
impl cli::Args for WorkerConfig {
    const SYNOPSIS: &'static str = "wormsim-worker";

    #[rustfmt::skip] // one row per line
    fn flags() -> Vec<Flag<Self>> {
        vec![
            Flag { name: "--listen", metavar: Some("HOST:PORT"), apply: |c, v| { c.listen = v.to_owned(); Ok(()) }, help: "bind address (default 127.0.0.1:0, announced on stdout)" },
            Flag { name: "--threads", metavar: Some("N"), apply: |c, v| { c.threads = cli::parse_int("thread count", v, 1)?; Ok(()) }, help: "concurrent simulation slots (default: all cores)" },
            Flag { name: "--drain-secs", metavar: Some("S"), apply: |c, v| { c.drain_secs = cli::parse_int("drain budget", v, 0)?; Ok(()) }, help: "SIGTERM grace for in-flight runs (default 30)" },
            Flag { name: "--chaos", metavar: Some("SPEC"), apply: |c, v| { c.chaos = ChaosPlan::parse(v).map_err(|e| e.to_string())?; Ok(()) }, help: "seeded fault injection, e.g. seed=7,crash-submit=3,corrupt=0.2 (keys: docs/DISTRIBUTION.md)" },
        ]
    }
}

/// Process exit status of a chaos-injected crash, distinct from real
/// failures so a test can assert the crash it asked for.
pub const CHAOS_CRASH_EXIT: i32 = 42;

const SIGTERM: i32 = 15;

/// Tripped by SIGTERM. Process-global because a signal handler has no
/// other way to reach server state.
static DRAINING: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_signum: i32) {
    // Only async-signal-safe work here: one atomic store.
    DRAINING.store(true, Ordering::SeqCst);
}

/// One accepted job.
enum Job {
    /// Chaos-stalled: accepted, reported pending, never started — the
    /// simulation heartbeat stays frozen at zero forever.
    Stalled,
    Running(WorkHandle),
    /// How the pool reported the job's end, kept so a status poll whose
    /// response was lost can be answered again.
    Done(PointStatus),
}

impl Job {
    /// `Ok(heartbeat)` while the job is pending, else how it ended. A
    /// running job is polled on the pool, and its end recorded.
    fn poll(&mut self, pool: &mut LocalThreadBackend) -> Result<u64, &PointStatus> {
        if let Job::Running(handle) = *self {
            match pool.poll(handle) {
                PointStatus::Pending { heartbeat } => return Ok(heartbeat.unwrap_or(0)),
                ended => *self = Job::Done(ended),
            }
        }
        match self {
            Job::Done(ended) => Err(ended),
            // A stalled job's heartbeat stays frozen at zero.
            _ => Ok(0),
        }
    }
}

struct WorkerState {
    pool: LocalThreadBackend,
    /// Every job ever accepted, by id. Ids are never forgotten, so a later
    /// sweep against this worker numbers its jobs above them.
    jobs: HashMap<u64, Job>,
}

struct Shared {
    state: Mutex<WorkerState>,
    digest: String,
    chaos: ChaosPlan,
    /// Accepted submits, for the crash/stall-on-Nth-submit injections.
    submits: AtomicU64,
    /// Responses written, indexing the seeded chaos decision streams.
    responses: AtomicU64,
}

impl Shared {
    fn new(threads: usize, chaos: ChaosPlan) -> Shared {
        Shared {
            state: Mutex::new(WorkerState {
                pool: LocalThreadBackend::new(threads, CancelToken::new()),
                jobs: HashMap::new(),
            }),
            digest: wire_digest(),
            chaos,
            submits: AtomicU64::new(0),
            responses: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, WorkerState> {
        self.state.lock().expect("no poisoned worker state")
    }
}

/// Binds the listen address, announces the bound port on stdout (so
/// wrappers can bind port 0 and parse the real port), installs the
/// SIGTERM drain handler, and serves until killed or drained.
///
/// # Errors
///
/// Propagates bind/accept failures; per-connection errors are contained.
pub fn serve(config: &WorkerConfig) -> std::io::Result<()> {
    let listener = TcpListener::bind(&config.listen)?;
    let addr = listener.local_addr()?;
    use std::io::Write as _;
    println!("wormsim-worker listening on {addr}");
    std::io::stdout().flush()?;
    // SAFETY: `on_sigterm` makes one atomic store.
    unsafe { crate::sweep::install_signal_handler(SIGTERM, on_sigterm) };
    let shared = Arc::new(Shared::new(config.threads, config.chaos.clone()));
    let drain_secs = config.drain_secs;
    let drainer = Arc::clone(&shared);
    std::thread::spawn(move || drain_watcher(&drainer, drain_secs));
    serve_until(&listener, &shared, &AtomicBool::new(false));
    Ok(())
}

fn serve_until(listener: &TcpListener, shared: &Shared, stop: &AtomicBool) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(mut stream) => handle_connection(&mut stream, shared),
            Err(err) => eprintln!("wormsim-worker: accept failed: {err}"),
        }
    }
}

/// Waits for SIGTERM, then drains: no new submits (the connection handler
/// rejects them), in-flight runs get `drain_secs` to finish, stragglers
/// are cancelled, a short linger lets the orchestrator collect final
/// statuses, and the process exits 0.
fn drain_watcher(shared: &Shared, drain_secs: u64) {
    while !DRAINING.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("wormsim-worker: SIGTERM — draining in-flight runs (up to {drain_secs}s)");
    let deadline = Instant::now() + Duration::from_secs(drain_secs);
    loop {
        let mut state = shared.lock();
        let WorkerState { pool, jobs } = &mut *state;
        let idle = jobs
            .values_mut()
            .all(|job| matches!(job, Job::Stalled) || job.poll(pool).is_err());
        if idle {
            break;
        }
        if Instant::now() >= deadline {
            eprintln!("wormsim-worker: drain budget exhausted; cancelling in-flight runs");
            pool.cancel();
            break;
        }
        drop(state);
        std::thread::sleep(Duration::from_millis(50));
    }
    // Give the orchestrator one last polling window to read the final
    // statuses off this socket before it disappears.
    std::thread::sleep(Duration::from_secs(1));
    eprintln!("wormsim-worker: drained; exiting");
    std::process::exit(0);
}

/// An in-process worker on an ephemeral loopback port, served from a
/// detached thread: the `wormsim-worker` protocol without a process, for
/// tests and tools. It has no SIGTERM drain, and a chaos plan's crash
/// injections exit the whole process, so in-process callers stick to
/// stalls and the response-level injections.
pub struct LoopbackWorker {
    /// The bound address, for `--worker` or
    /// [`RemoteBackend::connect`](crate::RemoteBackend::connect).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
}

impl LoopbackWorker {
    /// Starts a worker with `threads` simulation slots.
    ///
    /// # Errors
    ///
    /// When no loopback port can be bound.
    pub fn spawn(threads: usize) -> std::io::Result<LoopbackWorker> {
        LoopbackWorker::with_chaos(threads, ChaosPlan::default())
    }

    /// Starts a worker with `threads` slots, armed with `chaos`.
    ///
    /// # Errors
    ///
    /// When no loopback port can be bound.
    pub fn with_chaos(threads: usize, chaos: ChaosPlan) -> std::io::Result<LoopbackWorker> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let shared = Shared::new(threads, chaos);
        std::thread::spawn(move || serve_until(&listener, &shared, &flag));
        Ok(LoopbackWorker { addr, stop })
    }

    /// Closes the listener and cancels the worker's jobs: to an
    /// orchestrator the worker crashed, and every later RPC is refused.
    pub fn kill(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the accept loop so it observes the flag and drops the
        // socket; the connection itself is never answered.
        let _ = TcpStream::connect(self.addr);
    }
}

fn handle_connection(stream: &mut TcpStream, shared: &Shared) {
    let request = match http::read_request(stream) {
        Ok(request) => request,
        Err(err) => {
            let _ = http::write_response(stream, 400, &error_body(&err.to_string()));
            return;
        }
    };
    let (path, query) = request
        .target
        .split_once('?')
        .unwrap_or((request.target.as_str(), ""));
    let draining = DRAINING.load(Ordering::SeqCst);
    let (status, body) = match (request.method.as_str(), path) {
        ("GET", "/handshake") => handshake(shared, draining),
        ("POST", "/submit") if draining => (
            503,
            error_body("worker is draining; not accepting new jobs"),
        ),
        ("POST", "/submit") => submit(&request.body, shared),
        ("GET", "/status") => job_status(query, shared, draining),
        ("POST", "/cancel") => cancel_all(shared),
        _ => (404, error_body("unknown endpoint")),
    };
    respond_with_chaos(stream, shared, path, status, &body);
}

/// Writes one response through the chaos plan: maybe delayed, dropped,
/// corrupted, truncated, or (handshakes only) dribbled out slow-loris
/// style. An inactive plan is a straight [`http::write_response`].
///
/// `/handshake` bodies are exempt from drop/corrupt/truncate — the
/// orchestrator's connect is deliberately unforgiving (a garbled
/// handshake means a wrong-version worker), and a chaos worker still has
/// to be able to join the pool it is sabotaging. `slow-handshake-ms`
/// covers that path instead.
fn respond_with_chaos(
    stream: &mut TcpStream,
    shared: &Shared,
    path: &str,
    status: u16,
    body: &str,
) {
    let chaos = &shared.chaos;
    if !chaos.is_active() {
        let _ = http::write_response(stream, status, body);
        return;
    }
    let n = shared.responses.fetch_add(1, Ordering::SeqCst);
    if chaos.delay_p > 0.0 && chaos.coin(salt::DELAY, n) < chaos.delay_p {
        std::thread::sleep(Duration::from_millis(chaos.delay_ms));
    }
    if path == "/handshake" {
        if chaos.slow_handshake_ms > 0 {
            let rendered = http::render_response(status, body);
            let bytes = rendered.as_bytes();
            let pause = Duration::from_millis((chaos.slow_handshake_ms / 16).max(1));
            for chunk in bytes.chunks(bytes.len().div_ceil(16).max(1)) {
                if http::write_raw(stream, chunk).is_err() {
                    return;
                }
                std::thread::sleep(pause);
            }
            return;
        }
        let _ = http::write_response(stream, status, body);
        return;
    }
    if chaos.drop_p > 0.0 && chaos.coin(salt::DROP, n) < chaos.drop_p {
        // Close without a byte of response; the client sees a torn
        // connection and retries at the transport layer.
        return;
    }
    if chaos.truncate_p > 0.0 && chaos.coin(salt::TRUNCATE, n) < chaos.truncate_p {
        let rendered = http::render_response(status, body);
        let half = rendered.len() / 2;
        let _ = http::write_raw(stream, &rendered.as_bytes()[..half]);
        return;
    }
    if chaos.corrupt_p > 0.0 && chaos.coin(salt::CORRUPT, n) < chaos.corrupt_p {
        // Framing stays valid; the JSON does not. Exercises the
        // orchestrator's garbled-response strikes rather than its
        // transport retries.
        let garbled = body.replace(['{', '['], "#");
        let _ = http::write_response(stream, status, &garbled);
        return;
    }
    let _ = http::write_response(stream, status, body);
}

fn error_body(message: &str) -> String {
    let mut out = String::new();
    let mut obj = JsonObject::begin(&mut out);
    obj.field_str("error", message);
    obj.finish();
    out
}

fn handshake(shared: &Shared, draining: bool) -> (u16, String) {
    let state = shared.lock();
    let body = HandshakeBody {
        wire: WIRE_PROTOCOL,
        digest: shared.digest.clone(),
        threads: state.pool.capacity(),
        draining,
        next_job: state.jobs.keys().max().map_or(0, |id| id + 1),
    };
    (200, body.to_json())
}

fn submit(body: &str, shared: &Shared) -> (u16, String) {
    match accept(body, shared) {
        Ok(response) | Err(response) => response,
    }
}

/// Decodes a `/submit` body into its job id and experiment; `Err` is the
/// refusal to send.
fn decode_submit(body: &str, worker_digest: &str) -> Result<(u64, Experiment), (u16, String)> {
    let bad_request = |what: String| (400, error_body(&format!("submit body: {what}")));
    let value = json::from_str(body).map_err(|err| bad_request(err.to_string()))?;
    // The digest is checked before anything else is decoded: a worker
    // built from other sources may not even read this experiment format.
    let digest: String = value.field("digest").map_err(bad_request)?;
    if digest != worker_digest {
        return Err((
            409,
            error_body(&format!(
                "wire digest mismatch: orchestrator {digest}, worker {worker_digest} — rebuild both from the same source"
            )),
        ));
    }
    let SubmitBody {
        job, experiment, ..
    } = SubmitBody::from_json(&value).map_err(bad_request)?;
    Ok((job, experiment))
}

/// Decodes and enqueues one submitted job; `Err` is the refusal to send.
fn accept(body: &str, shared: &Shared) -> Result<(u16, String), (u16, String)> {
    let (id, experiment) = decode_submit(body, &shared.digest)?;
    let nth_submit = shared.submits.fetch_add(1, Ordering::SeqCst) + 1;
    if shared.chaos.crash_submit == Some(nth_submit) {
        // A poison pill: die hard before responding, exactly like a
        // worker host that panics the kernel mid-accept.
        eprintln!("wormsim-worker: chaos crash on submit #{nth_submit}");
        std::process::exit(CHAOS_CRASH_EXIT);
    }
    let stalled = shared.chaos.stall_submit == Some(nth_submit);
    let point_hash = experiment.point_hash();
    let mut state = shared.lock();
    if state.jobs.contains_key(&id) {
        return Err((400, error_body(&format!("duplicate job id {id}"))));
    }
    let job = if stalled {
        // The job is accepted and will be reported pending forever, its
        // heartbeat frozen at zero: a hung worker, as seen from outside.
        eprintln!("wormsim-worker: chaos stall on submit #{nth_submit}");
        Job::Stalled
    } else {
        let handle = state
            .pool
            .submit(PointJob {
                experiment,
                index: id as usize,
                point_hash,
                inject_panic: false,
            })
            .map_err(|err| (500, error_body(&err.to_string())))?;
        Job::Running(handle)
    };
    state.jobs.insert(id, job);
    drop(state);
    let mut out = String::new();
    let mut obj = JsonObject::begin(&mut out);
    obj.field_u64("job", id);
    obj.finish();
    Ok((200, out))
}

fn job_status(query: &str, shared: &Shared, draining: bool) -> (u16, String) {
    let Some(id) = query
        .strip_prefix("job=")
        .and_then(|raw| raw.parse::<u64>().ok())
    else {
        return (400, error_body("status query must be ?job=ID"));
    };
    let mut state = shared.lock();
    let WorkerState { pool, jobs } = &mut *state;
    let Some(job) = jobs.get_mut(&id) else {
        return (404, error_body(&format!("unknown job {id}")));
    };
    let body = match job.poll(pool) {
        Ok(heartbeat) => StatusBody::Pending {
            heartbeat,
            draining,
        },
        Err(PointStatus::Done { result: Ok(result) }) => StatusBody::Done {
            result: result.clone(),
        },
        Err(PointStatus::Done { result: Err(err) }) => StatusBody::Failed {
            error: err.to_string(),
        },
        Err(lost) => return (500, error_body(&format!("job {id}: {lost:?}"))),
    };
    (200, body.to_json())
}

fn cancel_all(shared: &Shared) -> (u16, String) {
    let mut state = shared.lock();
    state.pool.cancel();
    let cancelled = state.jobs.len() as u64;
    drop(state);
    let mut out = String::new();
    let mut obj = JsonObject::begin(&mut out);
    obj.field_u64("cancelled", cancelled);
    obj.finish();
    (200, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::Corruptor;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use wormsim::observe::Json;
    use wormsim::topology::{Direction, Topology};
    use wormsim::{AlgorithmKind, FaultPlan, NodeId, TrafficConfig};

    /// One body of each kind, byte for byte as the worker wrote it when
    /// each was built field by field. The experiment and result inside
    /// the submit and done bodies are pinned by `tests/codec_golden.rs`.
    #[test]
    fn protocol_bodies_keep_their_bytes() {
        let shared = Shared::new(2, ChaosPlan::default());
        let digest = &shared.digest;
        assert_eq!(
            handshake(&shared, false).1,
            format!(
                r#"{{"wire":2,"digest":"{digest}","threads":2,"draining":false,"next_job":0}}"#
            )
        );
        let experiment = Experiment::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube)
            .offered_load(0.05)
            .quick()
            .seed(1993);
        let submit = SubmitBody {
            digest: "0123abcd".to_owned(),
            job: 7,
            experiment: experiment.clone(),
        };
        assert_eq!(
            submit.to_json(),
            format!(
                r#"{{"digest":"0123abcd","job":7,"experiment":{}}}"#,
                experiment.to_json()
            )
        );
        let result = experiment.run().expect("tiny run");
        let error = Experiment::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube)
            .offered_load(0.0)
            .run()
            .expect_err("load 0 is refused");
        let mut state = shared.lock();
        state.jobs.insert(3, Job::Stalled);
        let ended = PointStatus::Done {
            result: Ok(result.clone()),
        };
        state.jobs.insert(4, Job::Done(ended));
        state
            .jobs
            .insert(5, Job::Done(PointStatus::Done { result: Err(error) }));
        drop(state);
        let handshake = handshake(&shared, true).1;
        assert_eq!(
            handshake,
            format!(r#"{{"wire":2,"digest":"{digest}","threads":2,"draining":true,"next_job":6}}"#)
        );
        let bodies = [3, 4, 5].map(|id| job_status(&format!("job={id}"), &shared, true));
        assert_eq!(
            bodies.clone().map(|(status, _)| status),
            [200, 200, 200],
            "{bodies:?}"
        );
        assert_eq!(
            bodies[0].1,
            r#"{"state":"pending","heartbeat":0,"draining":true}"#
        );
        assert_eq!(
            bodies[1].1,
            format!(r#"{{"state":"done","result":{}}}"#, result.to_json())
        );
        assert_eq!(
            bodies[2].1,
            r#"{"state":"failed","error":"offered load 0 out of range (0, 1]"}"#
        );
        // The orchestrator's side of each declaration reads them back.
        let read = |body: &str| json::from_str(body).expect("valid JSON");
        let back = HandshakeBody::from_json(&read(&handshake)).expect("handshake");
        assert!(back.draining && back.next_job == 6 && back.threads == 2);
        assert_eq!(
            SubmitBody::from_json(&read(&submit.to_json()))
                .expect("submit")
                .job,
            7
        );
        assert!(matches!(
            StatusBody::read(&read(&bodies[0].1)),
            Ok(StatusBody::Pending {
                heartbeat: 0,
                draining: true
            })
        ));
        assert!(matches!(
            StatusBody::read(&read(&bodies[1].1)),
            Ok(StatusBody::Done { result: back }) if back.to_json() == result.to_json()
        ));
        assert!(matches!(
            StatusBody::read(&read(&bodies[2].1)),
            Ok(StatusBody::Failed { error }) if error.starts_with("offered load 0")
        ));
    }

    #[test]
    fn a_silent_client_does_not_hold_up_the_handshake() {
        let worker = LoopbackWorker::spawn(1).expect("bind loopback");
        // Connects and never sends a byte. The worker accepts connections
        // in arrival order and serves them one at a time, so this one is
        // read before the handshake below.
        let _silent = TcpStream::connect(worker.addr).expect("connect");
        let started = Instant::now();
        let (status, body) = http::call(
            &worker.addr.to_string(),
            "GET",
            "/handshake",
            "",
            Duration::from_secs(30),
        )
        .expect("the handshake is answered");
        assert_eq!(status, 200, "{body}");
        let waited = started.elapsed();
        assert!(
            waited < http::REQUEST_DEADLINE * 2 + Duration::from_secs(1),
            "answered after {waited:?}"
        );
        worker.kill();
    }

    #[test]
    fn corrupted_submit_bodies_are_refused_or_decoded_and_never_panic() {
        const ROUNDS: u64 = 40;
        let digest = wire_digest();
        let mut faults = FaultPlan::new();
        faults.push_dead_link(NodeId::new(3), Direction::from_index(2));
        let experiments = [
            Experiment::new(Topology::torus(&[6, 6]), AlgorithmKind::PositiveHop)
                .offered_load(0.2)
                .quick()
                .seed(1993)
                .cycle_budget(Some(3_000)),
            Experiment::new(
                Topology::torus(&[4, 4]),
                AlgorithmKind::NegativeHopBonusCards,
            )
            .traffic(TrafficConfig::Transpose)
            .faults(faults),
        ];
        let corruptor = Corruptor::new(1993);
        let (mut decoded, mut refused) = (0, 0);
        for (i, experiment) in experiments.iter().enumerate() {
            let body = SubmitBody {
                digest: digest.clone(),
                job: i as u64,
                experiment: experiment.clone(),
            }
            .to_json();
            assert!(decode_submit(&body, &digest).is_ok(), "{body}");
            for round in 0..ROUNDS {
                for corrupted in corruptor.corrupt(&body, i as u64 * ROUNDS + round) {
                    let outcome =
                        catch_unwind(AssertUnwindSafe(|| decode_submit(&corrupted, &digest)))
                            .unwrap_or_else(|_| {
                                panic!("/submit decoding panicked on: {corrupted}")
                            });
                    match outcome {
                        Ok(_) => decoded += 1,
                        Err((status, _)) => {
                            assert!(status == 400 || status == 409, "{status}: {corrupted}");
                            refused += 1;
                        }
                    }
                }
            }
        }
        assert!(refused > 100, "{refused} refused");
        assert!(decoded > 0, "{decoded} decoded");
    }
}
