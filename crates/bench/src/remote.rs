//! The remote backend: sweep points executed by `wormsim-worker`
//! processes over HTTP submit/poll.
//!
//! [`RemoteBackend::connect`] handshakes every worker up front and
//! refuses any whose wire protocol or config digest disagrees with this
//! binary — a mismatched worker would run the *wrong interpretation* of
//! the same bytes, which is worse than a refusal. Each RPC gets bounded,
//! jittered transport retries plus socket timeouts, so one dropped packet
//! does not kill an overnight sweep.
//!
//! The backend is a transport: it reports what became of a dispatch and
//! never re-dispatches on its own. A worker that stays unreachable past
//! those retries, answers with an error status, or sends
//! [`GARBLE_STRIKES`] garbled bodies in a row is written off — it gets no
//! further jobs and counts no capacity — and every point it held polls as
//! [`PointStatus::Lost`]. Whether and when a lost point runs again is the
//! supervisor's decision (`supervisor.rs`), which never holds more jobs
//! than the live workers have slots: [`submit`] picks a worker with a
//! free slot, and fails only when none is left.
//!
//! [`submit`]: WorkerBackend::submit

use crate::backend::{
    unknown_handle, BackendError, PointJob, PointStatus, WorkHandle, WorkerBackend,
};
use crate::http;
use crate::worker::{HandshakeBody, StatusBody, SubmitBody};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Duration;
use wormsim::observe::{json, Json, JsonRecord};
use wormsim::{wire_digest, Experiment, ExperimentError, WIRE_PROTOCOL};

/// Socket timeout per connect/read/write within one RPC (overridable via
/// `WORMSIM_RPC_TIMEOUT_MS`, chiefly so fault-injection tests can detect
/// a frozen worker in milliseconds instead of tens of seconds).
const RPC_TIMEOUT: Duration = Duration::from_secs(10);
/// Transport attempts per RPC before the backend gives up on a worker.
const RPC_ATTEMPTS: u64 = 3;
/// Malformed (garbled) status bodies tolerated per dispatch before the
/// worker is treated as lost. A single corrupted response — a flaky NIC,
/// a chaos injection — should not cost a worker; a stream of them means
/// the process on the other side is not speaking the protocol anymore.
const GARBLE_STRIKES: u32 = 3;

fn rpc_timeout() -> Duration {
    static TIMEOUT: OnceLock<Duration> = OnceLock::new();
    *TIMEOUT.get_or_init(|| {
        std::env::var("WORMSIM_RPC_TIMEOUT_MS")
            .ok()
            .and_then(|raw| raw.parse::<u64>().ok())
            .filter(|&ms| ms > 0)
            .map_or(RPC_TIMEOUT, Duration::from_millis)
    })
}

struct Worker {
    addr: String,
    slots: usize,
    /// Jobs sent and not yet finished or forgotten.
    in_flight: usize,
    /// Set once an RPC to this worker exhausts its transport retries;
    /// dead workers receive no further jobs and count no capacity.
    dead: bool,
    /// Set when the worker reports it is draining (SIGTERM received):
    /// zero capacity for new jobs, but its in-flight points are still
    /// polled to completion — a draining worker is retiring, not dead.
    draining: bool,
}

struct InFlight {
    worker: usize,
    /// Kept so a worker-side configuration failure can be re-derived as a
    /// structured [`ExperimentError`] locally (validation is
    /// deterministic in the experiment alone).
    experiment: Experiment,
    /// Consecutive garbled status bodies from the worker.
    garbles: u32,
}

/// Why a submit to one specific worker did not take.
enum SendError {
    /// HTTP 503: the worker is draining. Not a failure — pick another.
    Draining,
    /// Transport or protocol failure: the worker is gone.
    Failed(BackendError),
}

/// A pool of `wormsim-worker` processes behind the [`WorkerBackend`]
/// trait. Capacity is the sum of live worker slot counts; jobs go to the
/// live worker with the most free slots.
pub struct RemoteBackend {
    workers: Vec<Worker>,
    jobs: HashMap<u64, InFlight>,
    next_id: u64,
    digest: String,
}

/// Backoff before transport retry `attempt` of an RPC to `addr`: an
/// exponential base so repeated failures spread out, plus a per-address
/// jitter so many orchestrators hitting one flaky worker do not retry in
/// lockstep. Deterministic in (addr, attempt) — no wall clock, no global
/// RNG.
fn backoff_ms(addr: &str, attempt: u64) -> u64 {
    let digest = wormsim::observe::fnv1a_hex(&format!("{addr}:retry:{attempt}"));
    let jitter = u64::from_str_radix(&digest[..4], 16).unwrap_or(0) % 64;
    (25u64 << attempt.min(5)) + jitter
}

/// One RPC with transport-level retries: transient socket failures back
/// off and try again; an HTTP-level error response is returned to the
/// caller for protocol handling.
fn rpc(addr: &str, method: &str, target: &str, body: &str) -> Result<(u16, String), BackendError> {
    let mut last = String::new();
    for attempt in 1..=RPC_ATTEMPTS {
        match http::call(addr, method, target, body, rpc_timeout()) {
            Ok(response) => return Ok(response),
            Err(err) => last = err,
        }
        if attempt < RPC_ATTEMPTS {
            std::thread::sleep(Duration::from_millis(backoff_ms(addr, attempt)));
        }
    }
    Err(BackendError {
        worker: addr.to_owned(),
        message: format!("rpc {method} {target} failed after {RPC_ATTEMPTS} attempts: {last}"),
    })
}

fn parse_body(body: &str, addr: &str) -> Result<json::Value, BackendError> {
    json::from_str(body).map_err(|err| BackendError {
        worker: addr.to_owned(),
        message: format!("unparseable response body: {err}"),
    })
}

impl RemoteBackend {
    /// Handshakes every address and builds the pool.
    ///
    /// # Errors
    ///
    /// If any worker is unreachable, speaks a different wire protocol
    /// version, or reports a different config digest than this binary.
    pub fn connect(addrs: &[String]) -> Result<RemoteBackend, BackendError> {
        let digest = wire_digest();
        let mut workers = Vec::with_capacity(addrs.len());
        // A long-lived worker remembers the job ids of earlier sweeps:
        // number this sweep's jobs above every worker's highest.
        let mut next_id = 0;
        for raw in addrs {
            let addr = http::normalize_addr(raw);
            let (status, body) = rpc(&addr, "GET", "/handshake", "")?;
            if status != 200 {
                return Err(BackendError {
                    worker: addr,
                    message: format!("handshake returned HTTP {status}: {body}"),
                });
            }
            let value = parse_body(&body, &addr)?;
            let garbled = |message: String| BackendError {
                worker: addr.clone(),
                message: format!("handshake response: {message}"),
            };
            // The version is read on its own first: a worker speaking
            // another protocol need not send the rest of this handshake.
            let wire: u32 = value.field("wire").map_err(garbled)?;
            if wire != WIRE_PROTOCOL {
                return Err(BackendError {
                    worker: addr,
                    message: format!(
                        "wire protocol mismatch: orchestrator v{WIRE_PROTOCOL}, worker v{wire}"
                    ),
                });
            }
            let handshake = HandshakeBody::from_json(&value).map_err(garbled)?;
            if handshake.digest != digest {
                return Err(BackendError {
                    worker: addr,
                    message: format!(
                        "config digest mismatch: orchestrator {digest}, worker {} — rebuild both from the same source",
                        handshake.digest
                    ),
                });
            }
            next_id = next_id.max(handshake.next_job);
            workers.push(Worker {
                addr,
                slots: handshake.threads.max(1),
                in_flight: 0,
                dead: false,
                draining: handshake.draining,
            });
        }
        if workers.is_empty() {
            return Err(BackendError {
                worker: "<none>".to_owned(),
                message: "remote backend needs at least one worker address".to_owned(),
            });
        }
        Ok(RemoteBackend {
            workers,
            jobs: HashMap::new(),
            next_id,
            digest,
        })
    }

    /// A worker-side failure arrives as a rendered string; configuration
    /// errors are deterministic in the experiment alone, so building the
    /// network locally recovers the structured variant — validation and
    /// the build-time rejections (a routing algorithm or traffic pattern
    /// that does not fit the topology) alike. Anything else (which should
    /// not happen) is preserved verbatim as an I/O error.
    fn rederive_error(experiment: &Experiment, message: &str, addr: &str) -> ExperimentError {
        experiment
            .build_network()
            .err()
            .unwrap_or_else(|| ExperimentError::Io {
                message: format!("worker {addr} reported: {message}"),
            })
    }

    /// Writes a worker off (idempotent): no further jobs, no capacity, and
    /// every point it was running polls as lost.
    fn mark_dead(&mut self, slot: usize, cause: &BackendError) {
        if !self.workers[slot].dead {
            self.workers[slot].dead = true;
            eprintln!(
                "worker {} lost ({}); sending it no further jobs",
                self.workers[slot].addr, cause.message
            );
        }
    }

    /// The next submit target among live, non-draining workers: the one
    /// with the most free slots (ties go to the first index), so
    /// heterogeneous workers drain proportionally instead of the first
    /// address soaking up every job. `None` when no such worker has a
    /// free slot.
    fn pick_live(&self) -> Option<usize> {
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.dead && !w.draining && w.in_flight < w.slots)
            .max_by_key(|(i, w)| (w.slots - w.in_flight, Reverse(*i)))
            .map(|(i, _)| i)
    }

    /// POSTs one `/submit` body to one worker; counts the job in flight on
    /// success.
    fn send_job(&mut self, slot: usize, body: &str) -> Result<(), SendError> {
        let addr = self.workers[slot].addr.clone();
        let (status, response) = rpc(&addr, "POST", "/submit", body).map_err(SendError::Failed)?;
        if status == 503 {
            // The worker is shutting down gracefully: no new jobs, but
            // everything it already has will finish. Retire it from the
            // pool without writing it off.
            if !self.workers[slot].draining {
                self.workers[slot].draining = true;
                eprintln!(
                    "worker {} is draining; sending no further jobs",
                    self.workers[slot].addr
                );
            }
            return Err(SendError::Draining);
        }
        if status != 200 {
            return Err(SendError::Failed(BackendError {
                worker: addr,
                message: format!("submit returned HTTP {status}: {response}"),
            }));
        }
        self.workers[slot].in_flight += 1;
        Ok(())
    }

    /// One `/status` round-trip for job `id` on worker `slot`. `Err` is
    /// the verdict that the dispatch is lost; the caller writes the
    /// worker off.
    fn poll_worker(&mut self, id: u64, slot: usize) -> Result<PointStatus, BackendError> {
        let addr = self.workers[slot].addr.clone();
        let lost = |message: String| BackendError {
            worker: addr.clone(),
            message,
        };
        if self.workers[slot].dead {
            // Written off by an earlier failure (its own RPC, another
            // point's poll, or the supervisor): no doomed round-trip.
            return Err(lost("worker is gone".to_owned()));
        }
        let (status, body) = rpc(&addr, "GET", &format!("/status?job={id}"), "")?;
        if status != 200 {
            return Err(lost(format!("status returned HTTP {status}: {body}")));
        }
        let in_flight = self.jobs.get_mut(&id).expect("caller checked the handle");
        let result = match decode_status(&body) {
            Err(garble) => {
                // The transport delivered bytes, but not the protocol's.
                // Tolerate a few (a corrupted response costs nothing —
                // the next poll asks again) before treating the worker
                // as lost.
                in_flight.garbles += 1;
                if in_flight.garbles < GARBLE_STRIKES {
                    return Ok(PointStatus::Pending { heartbeat: None });
                }
                return Err(lost(format!(
                    "{GARBLE_STRIKES} garbled status responses; last: {garble}"
                )));
            }
            Ok(StatusBody::Pending {
                heartbeat,
                draining,
            }) => {
                in_flight.garbles = 0;
                if draining && !self.workers[slot].draining {
                    self.workers[slot].draining = true;
                    eprintln!("worker {addr} is draining; sending no further jobs");
                }
                return Ok(PointStatus::Pending {
                    heartbeat: Some(heartbeat),
                });
            }
            Ok(StatusBody::Done { result }) => Ok(result),
            Ok(StatusBody::Failed { error }) => Err(error),
        };
        let in_flight = self.jobs.remove(&id).expect("caller checked the handle");
        self.workers[slot].in_flight -= 1;
        let result =
            result.map_err(|message| Self::rederive_error(&in_flight.experiment, &message, &addr));
        Ok(PointStatus::Done { result })
    }

    /// Writes off the worker holding job `id` and drops the job.
    fn lose(&mut self, id: u64, cause: &BackendError) {
        if let Some(in_flight) = self.jobs.remove(&id) {
            self.mark_dead(in_flight.worker, cause);
        }
    }
}

/// Decodes a `/status` body; `Err` renders why it is not one. Decoding
/// is separated from transport so a *garbled* body (chaos corruption, a
/// flaky link) can be treated as a strike against the worker rather than
/// a fatal protocol error.
fn decode_status(body: &str) -> Result<StatusBody, String> {
    let value = json::from_str(body).map_err(|err| format!("unparseable response body: {err}"))?;
    StatusBody::read(&value)
}

impl WorkerBackend for RemoteBackend {
    fn submit(&mut self, job: PointJob) -> Result<WorkHandle, BackendError> {
        let id = self.next_id;
        self.next_id += 1;
        let submit = SubmitBody {
            digest: self.digest.clone(),
            job: id,
            experiment: job.experiment,
        };
        let body = submit.to_json();
        let mut cause = BackendError {
            worker: "<pool>".to_owned(),
            message: "no live worker left".to_owned(),
        };
        while let Some(slot) = self.pick_live() {
            match self.send_job(slot, &body) {
                Ok(()) => {
                    self.jobs.insert(
                        id,
                        InFlight {
                            worker: slot,
                            experiment: submit.experiment,
                            garbles: 0,
                        },
                    );
                    return Ok(WorkHandle(id));
                }
                Err(SendError::Draining) => {
                    // Marked draining inside send_job; the next pick
                    // skips it.
                }
                Err(SendError::Failed(err)) => {
                    self.mark_dead(slot, &err);
                    cause = err;
                }
            }
        }
        Err(cause)
    }

    fn poll(&mut self, handle: WorkHandle) -> PointStatus {
        let Some(slot) = self.jobs.get(&handle.0).map(|j| j.worker) else {
            return PointStatus::Lost(unknown_handle(handle));
        };
        self.poll_worker(handle.0, slot).unwrap_or_else(|cause| {
            self.lose(handle.0, &cause);
            PointStatus::Lost(cause)
        })
    }

    fn capacity(&self) -> usize {
        self.workers
            .iter()
            .filter(|w| !w.dead && !w.draining)
            .map(|w| w.slots)
            .sum()
    }

    fn cancel(&mut self) {
        // Best-effort broadcast; a worker that is already gone cannot
        // hold up shutdown.
        for worker in self.workers.iter().filter(|w| !w.dead) {
            let _ = rpc(&worker.addr, "POST", "/cancel", "{}");
        }
    }

    fn poll_interval(&self) -> Duration {
        // HTTP polls are orders of magnitude costlier than a mutex peek;
        // back off accordingly.
        Duration::from_millis(25)
    }

    fn write_off(&mut self, handle: WorkHandle) -> BackendError {
        let Some(slot) = self.jobs.get(&handle.0).map(|j| j.worker) else {
            return unknown_handle(handle);
        };
        let cause = BackendError {
            worker: self.workers[slot].addr.clone(),
            message: "written off by the supervisor: simulation heartbeat frozen".to_owned(),
        };
        self.lose(handle.0, &cause);
        cause
    }

    fn forget(&mut self, handle: WorkHandle) {
        if let Some(in_flight) = self.jobs.remove(&handle.0) {
            self.workers[in_flight.worker].in_flight -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::{Event, SupervisePolicy, Supervisor};
    use crate::worker::LoopbackWorker;
    use std::time::Instant;
    use wormsim::topology::Topology;
    use wormsim::{AlgorithmKind, RunResult};

    fn loopback(threads: usize) -> std::net::SocketAddr {
        LoopbackWorker::spawn(threads).expect("bind loopback").addr
    }

    fn job_for(experiment: Experiment, index: usize) -> PointJob {
        PointJob {
            point_hash: experiment.point_hash(),
            experiment,
            index,
            inject_panic: false,
        }
    }

    /// Polls `handle` until it resolves, returning the `Done` or `Lost`.
    fn wait(backend: &mut RemoteBackend, handle: WorkHandle) -> PointStatus {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            assert!(Instant::now() < deadline, "remote worker hung");
            match backend.poll(handle) {
                PointStatus::Pending { .. } => std::thread::sleep(Duration::from_millis(10)),
                resolved => return resolved,
            }
        }
    }

    fn wait_done(
        backend: &mut RemoteBackend,
        handle: WorkHandle,
    ) -> Result<RunResult, ExperimentError> {
        match wait(backend, handle) {
            PointStatus::Done { result } => result,
            other => panic!("expected the point to finish, got {other:?}"),
        }
    }

    /// Drives `job` through a [`Supervisor`] over `backend` until the
    /// point finishes.
    fn supervise_done(backend: &mut RemoteBackend, job: PointJob) -> RunResult {
        let mut supervisor = Supervisor::new(SupervisePolicy::default(), vec![job]);
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            assert!(Instant::now() < deadline, "supervised point hung");
            match supervisor
                .tick(backend)
                .expect("a live worker remains")
                .pop()
            {
                Some(Event::Done { result, .. }) => return result.expect("the point runs"),
                Some(Event::Quarantined(record)) => panic!("unexpected quarantine: {record:?}"),
                None => std::thread::sleep(Duration::from_millis(10)),
            }
        }
    }

    #[test]
    fn malformed_submit_is_refused_and_the_worker_keeps_serving() {
        let addr = loopback(1).to_string();
        let mut plan = wormsim::FaultPlan::new();
        plan.push_dead_link(
            wormsim::NodeId::new(3),
            wormsim::topology::Direction::from_index(2),
        );
        let experiment =
            Experiment::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube).faults(plan);
        let submit = |experiment: String| {
            let body = format!(
                "{{\"digest\":\"{}\",\"job\":0,\"experiment\":{experiment}}}",
                wire_digest()
            );
            http::call(&addr, "POST", "/submit", &body, rpc_timeout()).expect("worker answers")
        };
        // A fault dimension no `Direction` can hold used to panic the
        // accept thread, and a bracket bomb to overflow its stack.
        let wire = experiment.to_wire_json();
        for hostile in [
            wire.replace("\"dim\":1", "\"dim\":300"),
            "[".repeat(100_000),
        ] {
            let (status, response) = submit(hostile);
            assert_eq!(status, 400, "{response}");
            assert!(response.contains("submit body"), "{response}");
        }
        let (status, response) = submit(wire);
        assert_eq!(status, 200, "{response}");
    }

    #[test]
    fn remote_point_matches_local_run_exactly() {
        let addr = loopback(2);
        let mut backend =
            RemoteBackend::connect(&[addr.to_string()]).expect("handshake with loopback worker");
        assert_eq!(backend.capacity(), 2);
        let experiment = Experiment::new(Topology::torus(&[6, 6]), AlgorithmKind::PositiveHop)
            .offered_load(0.2)
            .quick()
            .seed(1993);
        let local = experiment.clone().run().expect("local run");
        let handle = backend.submit(job_for(experiment, 0)).expect("submit");
        let remote = wait_done(&mut backend, handle).expect("remote run succeeds");
        // Bit-exact equality across process + wire + JSON round-trip,
        // minus machine-dependent wall timing.
        assert_eq!(
            remote.latency.mean().to_bits(),
            local.latency.mean().to_bits()
        );
        assert_eq!(remote.cycles_simulated, local.cycles_simulated);
        assert_eq!(remote.messages_measured, local.messages_measured);
        assert_eq!(remote.latency_percentiles, local.latency_percentiles);
    }

    #[test]
    fn worker_reports_configuration_errors_as_structured_failures() {
        let addr = loopback(1);
        let mut backend = RemoteBackend::connect(&[addr.to_string()]).expect("handshake");
        // offered_load of 0 is rejected by Experiment::validate.
        let experiment = Experiment::new(Topology::torus(&[6, 6]), AlgorithmKind::Ecube)
            .offered_load(0.0)
            .quick();
        let handle = backend.submit(job_for(experiment, 0)).expect("submit");
        let err = wait_done(&mut backend, handle).expect_err("invalid load must fail");
        assert!(
            matches!(err, ExperimentError::InvalidLoad { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn poll_failure_fails_over_to_the_surviving_worker() {
        let doomed = LoopbackWorker::spawn(1).expect("bind loopback");
        let survivor = loopback(1);
        let mut backend = RemoteBackend::connect(&[doomed.addr.to_string(), survivor.to_string()])
            .expect("handshake both workers");
        assert_eq!(backend.capacity(), 2);
        let experiment = Experiment::new(Topology::torus(&[6, 6]), AlgorithmKind::PositiveHop)
            .offered_load(0.2)
            .quick()
            .seed(1993);
        let local = experiment.clone().run().expect("local reference run");
        // Submission goes to the first worker with a free slot — the
        // doomed one. Kill it mid-point; the next poll's RPC failure must
        // report the dispatch lost, not re-dispatch it behind our back.
        let handle = backend
            .submit(job_for(experiment.clone(), 0))
            .expect("submit");
        doomed.kill();
        let PointStatus::Lost(cause) = wait(&mut backend, handle) else {
            panic!("a killed worker's point must poll as lost");
        };
        assert_eq!(cause.worker, doomed.addr.to_string());
        assert_eq!(
            backend.capacity(),
            1,
            "the dead worker must drop out of the capacity count"
        );
        // The supervisor's dispatch lands on the survivor.
        let remote = supervise_done(&mut backend, job_for(experiment, 0));
        assert_eq!(
            remote.latency.mean().to_bits(),
            local.latency.mean().to_bits(),
            "the re-dispatched point must reproduce the local result bit for bit"
        );
        assert_eq!(remote.cycles_simulated, local.cycles_simulated);
    }

    #[test]
    fn garbling_worker_is_cut_loose_and_the_point_lands_on_the_survivor() {
        // Every response body (except the chaos-exempt handshake) is
        // corrupted (valid HTTP framing, broken JSON), dropped (the
        // connection closes without a byte) or truncated halfway. The
        // backend must write the worker off instead of trusting a byte
        // of it.
        let experiment = Experiment::new(Topology::torus(&[6, 6]), AlgorithmKind::PositiveHop)
            .offered_load(0.2)
            .quick()
            .seed(1993);
        let local = experiment.clone().run().expect("local reference run");
        for spec in ["corrupt=1", "drop=1", "truncate=1"] {
            let chaos = crate::chaos::ChaosPlan::parse(spec).unwrap();
            let garbler = LoopbackWorker::with_chaos(1, chaos)
                .expect("bind loopback")
                .addr;
            let survivor = loopback(1);
            let mut backend = RemoteBackend::connect(&[garbler.to_string(), survivor.to_string()])
                .expect("handshake is exempt from response chaos");
            assert_eq!(backend.capacity(), 2, "{spec}");
            if spec == "corrupt=1" {
                // A corrupted `/submit` answer still frames as HTTP 200,
                // so the garbling shows on `/status`.
                let handle = backend
                    .submit(job_for(experiment.clone(), 0))
                    .expect("submit");
                let PointStatus::Lost(cause) = wait(&mut backend, handle) else {
                    panic!("a garbling worker's point must poll as lost");
                };
                assert!(cause.message.contains("garbled"), "got: {cause}");
                assert_eq!(backend.capacity(), 1, "the garbler must be written off");
            }
            // A dropped or truncated `/submit` answer fails the submit
            // itself, which moves on to the survivor.
            let remote = supervise_done(&mut backend, job_for(experiment.clone(), 0));
            assert_eq!(
                backend.capacity(),
                1,
                "{spec}: the faulty worker must be written off"
            );
            assert_eq!(
                remote.latency.mean().to_bits(),
                local.latency.mean().to_bits(),
                "{spec}: the survivor must reproduce the local result bit for bit"
            );
            assert_eq!(remote.cycles_simulated, local.cycles_simulated, "{spec}");
        }
    }

    #[test]
    fn a_point_whose_worker_dies_under_its_submit_waits_for_a_free_slot() {
        // The clean worker is listed first, so it takes point 0. Point 1
        // goes to the worker that drops every `/submit` answer, which is
        // written off under that very submit while the clean one is full.
        let clean = loopback(1);
        let dropper =
            LoopbackWorker::with_chaos(1, crate::chaos::ChaosPlan::parse("drop=1").unwrap())
                .expect("bind loopback")
                .addr;
        let mut backend = RemoteBackend::connect(&[clean.to_string(), dropper.to_string()])
            .expect("handshake is exempt from response chaos");
        let experiment = Experiment::new(Topology::torus(&[6, 6]), AlgorithmKind::PositiveHop)
            .offered_load(0.2)
            .quick()
            .seed(1993);
        let local = experiment.clone().run().expect("local reference run");
        let jobs = (0..2).map(|i| job_for(experiment.clone(), i)).collect();
        let mut supervisor = Supervisor::new(SupervisePolicy::default(), jobs);
        let mut events = supervisor
            .tick(&mut backend)
            .expect("a live worker remains");
        assert_eq!(backend.capacity(), 1, "the dropper must be written off");
        assert_eq!(
            backend.jobs.len(),
            1,
            "point 1 must wait, not queue behind point 0 on the full worker"
        );
        let deadline = Instant::now() + Duration::from_secs(120);
        while events.len() < 2 {
            assert!(Instant::now() < deadline, "supervised points hung");
            std::thread::sleep(Duration::from_millis(10));
            events.extend(
                supervisor
                    .tick(&mut backend)
                    .expect("a live worker remains"),
            );
        }
        for event in events {
            let Event::Done { result, .. } = event else {
                panic!("no point may be quarantined");
            };
            let remote = result.expect("the point runs");
            assert_eq!(
                remote.latency.mean().to_bits(),
                local.latency.mean().to_bits()
            );
        }
    }

    #[test]
    fn connect_rejects_a_dead_worker() {
        let err = RemoteBackend::connect(&["127.0.0.1:1".to_owned()])
            .err()
            .expect("port 1 must refuse the handshake");
        assert!(
            err.message.contains("handshake") || err.message.contains("rpc"),
            "got: {err}"
        );
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let a = backoff_ms("10.0.0.2:9000", 1);
        assert_eq!(
            a,
            backoff_ms("10.0.0.2:9000", 1),
            "same inputs, same backoff"
        );
        assert_ne!(
            backoff_ms("10.0.0.2:9000", 1),
            backoff_ms("10.0.0.3:9000", 1),
            "different workers jitter differently"
        );
        for attempt in 1..=10 {
            let ms = backoff_ms("10.0.0.2:9000", attempt);
            assert!((25..=25 * 32 + 63).contains(&(ms as usize)), "got {ms}");
        }
    }

    #[test]
    fn corrupted_status_bodies_decode_to_ok_or_err_and_never_panic() {
        use wormsim::observe::JsonRecord;
        const ROUNDS: u64 = 40;
        let result = Experiment::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube)
            .offered_load(0.05)
            .quick()
            .run()
            .expect("tiny run");
        let bodies = [
            r#"{"state":"pending","heartbeat":1234,"draining":false}"#.to_owned(),
            format!(r#"{{"state":"done","result":{}}}"#, result.to_json()),
            r#"{"state":"failed","error":"invalid offered load 0"}"#.to_owned(),
        ];
        let corruptor = crate::chaos::Corruptor::new(1993);
        let (mut decoded, mut garbled) = (0, 0);
        for (i, body) in bodies.iter().enumerate() {
            assert!(decode_status(body).is_ok(), "{body}");
            for round in 0..ROUNDS {
                for corrupted in corruptor.corrupt(body, i as u64 * ROUNDS + round) {
                    let outcome = std::panic::catch_unwind(|| decode_status(&corrupted))
                        .unwrap_or_else(|_| panic!("/status decoding panicked on: {corrupted}"));
                    match outcome {
                        Ok(_) => decoded += 1,
                        Err(_) => garbled += 1,
                    }
                }
            }
        }
        assert!(garbled > 100, "{garbled} garbled");
        assert!(decoded > 0, "{decoded} decoded");
    }
}
