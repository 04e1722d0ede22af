//! The `wormsim-worker` server: runs sweep points submitted over HTTP.
//!
//! A worker is a headless process that accepts serialized
//! [`Experiment`]s, runs them through the same retrying executor the
//! local backend uses ([`execute_point`](crate::backend::execute_point)),
//! and serves results back as [`RunResult`] JSON. The protocol (see
//! `docs/DISTRIBUTION.md`) has four endpoints:
//!
//! * `GET /handshake` — wire protocol version, config digest, slot
//!   count, draining flag, and the first job id this worker has not
//!   seen (so one long-lived worker serves sweep after sweep).
//! * `POST /submit` — enqueue a job (rejected with 409 on digest
//!   mismatch, 400 on undecodable payloads, 503 while draining).
//! * `GET /status?job=ID` — `pending` (with the job's simulation
//!   heartbeat, so a supervisor can tell hung from slow), `done` (with
//!   the result and any retry decision), or `failed` (with the
//!   configuration error).
//! * `POST /cancel` — trip every job's cancellation token.
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
//!   sweep supervisor is validated against (`chaos_soak`).

use crate::backend::{execute_point, PointJob};
use crate::chaos::{salt, ChaosPlan};
use crate::http;
use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use wormsim::observe::{json, JsonObject};
use wormsim::{wire_digest, CancelToken, Experiment, ExperimentError, RunResult, WIRE_PROTOCOL};

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

/// Process exit status of a chaos-injected crash, distinct from real
/// failures so the soak harness can assert the crash it asked for.
pub const CHAOS_CRASH_EXIT: i32 = 42;

const SIGTERM: i32 = 15;

/// Tripped by SIGTERM. Process-global because a signal handler has no
/// other way to reach server state.
static DRAINING: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_signum: i32) {
    // Only async-signal-safe work here: one atomic store.
    DRAINING.store(true, Ordering::SeqCst);
}

extern "C" {
    // Vendored libc-free binding, same as the SIGINT hook in lib.rs.
    fn signal(signum: i32, handler: usize) -> usize;
}

enum JobPhase {
    Queued,
    /// Chaos-stalled: accepted, reported pending, never started — the
    /// simulation heartbeat stays frozen at zero forever.
    Stalled,
    Running,
    Done(Result<RunResult, ExperimentError>, u64, Option<String>),
}

struct JobRecord {
    experiment: Experiment,
    point_hash: String,
    retries: u32,
    resumed_from: Option<String>,
    cancel: CancelToken,
    phase: JobPhase,
}

struct WorkerState {
    queue: VecDeque<u64>,
    jobs: HashMap<u64, JobRecord>,
}

struct Shared {
    state: Mutex<WorkerState>,
    ready: Condvar,
    digest: String,
    threads: usize,
    chaos: ChaosPlan,
    /// Accepted submits, for the crash/stall-on-Nth-submit injections.
    submits: AtomicU64,
    /// Responses written, indexing the seeded chaos decision streams.
    responses: AtomicU64,
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
    // SAFETY: `on_sigterm` is async-signal-safe (a single atomic store)
    // and has the exact `extern "C" fn(i32)` shape signal(2) expects; the
    // handler address stays valid for the process lifetime.
    unsafe {
        signal(SIGTERM, on_sigterm as *const () as usize);
    }
    serve_until(
        listener,
        config.threads.max(1),
        None,
        config.chaos.clone(),
        Some(config.drain_secs),
    )
}

#[cfg(test)]
fn serve_on(listener: TcpListener, threads: usize) -> std::io::Result<()> {
    serve_until(listener, threads, None, ChaosPlan::default(), None)
}

fn serve_until(
    listener: TcpListener,
    threads: usize,
    stop: Option<Arc<AtomicBool>>,
    chaos: ChaosPlan,
    drain_secs: Option<u64>,
) -> std::io::Result<()> {
    let shared = Arc::new(Shared {
        state: Mutex::new(WorkerState {
            queue: VecDeque::new(),
            jobs: HashMap::new(),
        }),
        ready: Condvar::new(),
        digest: wire_digest(),
        threads,
        chaos,
        submits: AtomicU64::new(0),
        responses: AtomicU64::new(0),
    });
    for _ in 0..threads {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || sim_loop(&shared));
    }
    if let Some(drain_secs) = drain_secs {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || drain_watcher(&shared, drain_secs));
    }
    for stream in listener.incoming() {
        if stop
            .as_ref()
            .is_some_and(|f| f.load(std::sync::atomic::Ordering::SeqCst))
        {
            break;
        }
        match stream {
            Ok(mut stream) => handle_connection(&mut stream, &shared),
            Err(err) => eprintln!("wormsim-worker: accept failed: {err}"),
        }
    }
    Ok(())
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
        let idle = {
            let state = shared.state.lock().expect("no poisoned worker state");
            state.queue.is_empty()
                && state
                    .jobs
                    .values()
                    .all(|r| matches!(r.phase, JobPhase::Done(..) | JobPhase::Stalled))
        };
        if idle {
            break;
        }
        if Instant::now() >= deadline {
            eprintln!("wormsim-worker: drain budget exhausted; cancelling in-flight runs");
            let state = shared.state.lock().expect("no poisoned worker state");
            for record in state.jobs.values() {
                record.cancel.cancel();
            }
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    // Give the orchestrator one last polling window to read the final
    // statuses off this socket before it disappears.
    std::thread::sleep(Duration::from_secs(1));
    eprintln!("wormsim-worker: drained; exiting");
    std::process::exit(0);
}

/// Test hook: serve on an ephemeral loopback port from a detached thread
/// (dies with the test process) and return the bound address.
#[cfg(test)]
pub(crate) fn spawn_local(threads: usize) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        let _ = serve_on(listener, threads);
    });
    addr
}

/// Test hook: an in-process worker with a chaos plan. Crash injections
/// would kill the test process, so callers stick to the response-level
/// injections (delay/drop/corrupt/truncate) and stalls.
#[cfg(test)]
pub(crate) fn spawn_chaotic(threads: usize, chaos: ChaosPlan) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    std::thread::spawn(move || {
        let _ = serve_until(listener, threads, None, chaos, None);
    });
    addr
}

/// Test hook: a [`spawn_local`] worker with a kill switch. [`kill`]
/// drops the listener, so from the orchestrator's point of view the
/// worker process crashed — every subsequent RPC is refused — while any
/// point already running keeps its (detached) simulation thread busy,
/// exactly like a host that died mid-job.
///
/// [`kill`]: KillableWorker::kill
#[cfg(test)]
pub(crate) struct KillableWorker {
    pub(crate) addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
}

#[cfg(test)]
impl KillableWorker {
    pub(crate) fn kill(&self) {
        self.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        // Poke the accept loop so it observes the flag and drops the
        // socket; the connection itself is never answered.
        let _ = TcpStream::connect(self.addr);
    }
}

#[cfg(test)]
pub(crate) fn spawn_killable(threads: usize) -> KillableWorker {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    std::thread::spawn(move || {
        let _ = serve_until(listener, threads, Some(flag), ChaosPlan::default(), None);
    });
    KillableWorker { addr, stop }
}

fn sim_loop(shared: &Shared) {
    loop {
        let (id, job, cancel) = {
            let mut state = shared.state.lock().expect("no poisoned worker state");
            let id = loop {
                if let Some(id) = state.queue.pop_front() {
                    break id;
                }
                state = shared.ready.wait(state).expect("no poisoned worker state");
            };
            let record = state.jobs.get_mut(&id).expect("queued job has a record");
            record.phase = JobPhase::Running;
            let job = PointJob {
                experiment: record
                    .experiment
                    .clone()
                    .cancel_token(record.cancel.clone()),
                index: id as usize,
                point_hash: record.point_hash.clone(),
                retries: record.retries,
                inject_panic: false,
                resumed_from: record.resumed_from.clone(),
            };
            (id, job, record.cancel.clone())
        };
        let (result, attempts, retry_decision) = execute_point(&job, &cancel);
        let mut state = shared.state.lock().expect("no poisoned worker state");
        if let Some(record) = state.jobs.get_mut(&id) {
            record.phase = JobPhase::Done(result, attempts, retry_decision);
        }
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
    let mut out = String::new();
    let mut obj = JsonObject::begin(&mut out);
    obj.field_u64("wire", u64::from(WIRE_PROTOCOL));
    obj.field_str("digest", &shared.digest);
    obj.field_u64("threads", shared.threads as u64);
    obj.field_bool("draining", draining);
    // Job ids are never forgotten, so a later sweep against this worker
    // must number its jobs above every id an earlier sweep used.
    let state = shared.state.lock().expect("no poisoned worker state");
    obj.field_u64("next_job", state.jobs.keys().max().map_or(0, |id| id + 1));
    obj.finish();
    (200, out)
}

fn submit(body: &str, shared: &Shared) -> (u16, String) {
    match accept(body, shared) {
        Ok(response) | Err(response) => response,
    }
}

/// Decodes and enqueues one submitted job; `Err` is the refusal to send.
fn accept(body: &str, shared: &Shared) -> Result<(u16, String), (u16, String)> {
    let bad_request = |what: String| (400, error_body(&format!("submit body: {what}")));
    let value = json::from_str(body).map_err(|err| bad_request(err.to_string()))?;
    // The digest is checked before anything else is decoded: a worker
    // built from other sources may not even read this experiment format.
    let digest: String = value.field("digest").map_err(bad_request)?;
    if digest != shared.digest {
        return Err((
            409,
            error_body(&format!(
                "wire digest mismatch: orchestrator {digest}, worker {} — rebuild both from the same source",
                shared.digest
            )),
        ));
    }
    let id: u64 = value.field("job").map_err(bad_request)?;
    let retries: u32 = value.field_or("retries", 0).map_err(bad_request)?;
    let resumed_from = value.field_or("resumed_from", None).map_err(bad_request)?;
    let experiment: Experiment = value.field("experiment").map_err(bad_request)?;
    let nth_submit = shared.submits.fetch_add(1, Ordering::SeqCst) + 1;
    if shared.chaos.crash_submit == Some(nth_submit) {
        // A poison pill: die hard before responding, exactly like a
        // worker host that panics the kernel mid-accept.
        eprintln!("wormsim-worker: chaos crash on submit #{nth_submit}");
        std::process::exit(CHAOS_CRASH_EXIT);
    }
    let stalled = shared.chaos.stall_submit == Some(nth_submit);
    let point_hash = experiment.point_hash();
    let mut state = shared.state.lock().expect("no poisoned worker state");
    if state.jobs.contains_key(&id) {
        return Err((400, error_body(&format!("duplicate job id {id}"))));
    }
    state.jobs.insert(
        id,
        JobRecord {
            experiment,
            point_hash,
            retries,
            resumed_from,
            cancel: CancelToken::new(),
            phase: if stalled {
                JobPhase::Stalled
            } else {
                JobPhase::Queued
            },
        },
    );
    if stalled {
        // The job is accepted and will be reported pending forever, its
        // heartbeat frozen at zero: a hung worker, as seen from outside.
        eprintln!("wormsim-worker: chaos stall on submit #{nth_submit}");
    } else {
        state.queue.push_back(id);
    }
    drop(state);
    shared.ready.notify_one();
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
    let state = shared.state.lock().expect("no poisoned worker state");
    let Some(record) = state.jobs.get(&id) else {
        return (404, error_body(&format!("unknown job {id}")));
    };
    let mut out = String::new();
    let mut obj = JsonObject::begin(&mut out);
    match &record.phase {
        JobPhase::Queued | JobPhase::Running | JobPhase::Stalled => {
            obj.field_str("state", "pending");
            // The engine's cycle heartbeat: 0 until the simulation
            // starts, then monotonically advancing. A supervisor that
            // sees the same value across its point deadline knows this
            // worker is hung, not slow.
            obj.field_u64("heartbeat", record.cancel.heartbeat());
            obj.field_bool("draining", draining);
        }
        JobPhase::Done(Ok(result), attempts, retry_decision) => {
            obj.field_str("state", "done")
                .field("attempts", attempts)
                .field_some("retry_decision", retry_decision)
                .field("result", result);
        }
        JobPhase::Done(Err(err), attempts, _) => {
            obj.field_str("state", "failed");
            obj.field_u64("attempts", *attempts);
            obj.field_str("error", &err.to_string());
        }
    }
    obj.finish();
    (200, out)
}

fn cancel_all(shared: &Shared) -> (u16, String) {
    let state = shared.state.lock().expect("no poisoned worker state");
    let mut cancelled = 0u64;
    for record in state.jobs.values() {
        record.cancel.cancel();
        cancelled += 1;
    }
    drop(state);
    let mut out = String::new();
    let mut obj = JsonObject::begin(&mut out);
    obj.field_u64("cancelled", cancelled);
    obj.finish();
    (200, out)
}
