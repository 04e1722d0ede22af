//! The remote backend: sweep points executed by `wormsim-worker`
//! processes over HTTP submit/poll.
//!
//! [`RemoteBackend::connect`] handshakes every worker up front and
//! refuses any whose wire protocol or config digest disagrees with this
//! binary — a mismatched worker would run the *wrong interpretation* of
//! the same bytes, which is worse than a refusal. Each RPC gets the same
//! bounded, seed-jittered retry treatment the simulator applies to
//! transient points, plus socket timeouts, so one dropped packet does not
//! kill an overnight sweep.
//!
//! A worker that stays unreachable past those retries is treated as
//! crashed: it is written off, its in-flight points are re-dispatched
//! verbatim to the survivors, and the sweep continues at reduced
//! capacity. Because results are bit-deterministic in the experiment
//! config, a re-run point produces the identical bytes the lost worker
//! would have — failover never perturbs the journal or the CSV. Only
//! when *every* worker is gone does the failure surface as a
//! [`BackendError`].

use crate::backend::{backoff_ms, BackendError, PointJob, PointStatus, WorkHandle, WorkerBackend};
use crate::http;
use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Duration;
use wormsim::observe::{json, JsonObject};
use wormsim::{wire_digest, Experiment, ExperimentError, RunResult, WIRE_PROTOCOL};

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
    /// The complete job, kept for two reasons: a worker-side
    /// configuration failure is re-derived as a structured
    /// [`ExperimentError`] locally (validation is deterministic in the
    /// experiment alone), and a crashed worker's in-flight points are
    /// re-dispatched verbatim to a survivor.
    job: PointJob,
    /// Times this job has been dispatched (1 = original submit; each
    /// failover re-dispatch increments). The supervisor's poison-point
    /// quarantine reads this via `dispatch_history`.
    dispatches: u64,
    /// The infrastructure error behind the latest re-dispatch.
    last_error: Option<String>,
    /// Simulation heartbeat last reported by a pending `/status` poll;
    /// the supervisor compares successive values to detect hung workers.
    beat: Option<u64>,
    /// Consecutive garbled status bodies from the current worker.
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
/// trait. Capacity is the sum of worker slot counts; jobs go to the first
/// worker with a free slot.
pub struct RemoteBackend {
    workers: Vec<Worker>,
    jobs: HashMap<u64, InFlight>,
    next_id: u64,
    digest: String,
}

/// One RPC with transport-level retries: transient socket failures back
/// off (seed-jittered, like point retries) and try again; an HTTP-level
/// error response is returned to the caller for protocol handling.
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
            let wire: u32 = value.field("wire").map_err(garbled)?;
            if wire != WIRE_PROTOCOL {
                return Err(BackendError {
                    worker: addr,
                    message: format!(
                        "wire protocol mismatch: orchestrator v{WIRE_PROTOCOL}, worker v{wire}"
                    ),
                });
            }
            let theirs = value.field_or("digest", String::new()).map_err(garbled)?;
            if theirs != digest {
                return Err(BackendError {
                    worker: addr,
                    message: format!(
                        "config digest mismatch: orchestrator {digest}, worker {theirs} — rebuild both from the same source"
                    ),
                });
            }
            let slots = value.field::<usize>("threads").map_err(garbled)?.max(1);
            next_id = next_id.max(value.field_or("next_job", 0).map_err(garbled)?);
            let draining = value.field_or("draining", false).map_err(garbled)?;
            workers.push(Worker {
                addr,
                slots,
                in_flight: 0,
                dead: false,
                draining,
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
    /// errors are deterministic in the experiment alone, so re-validating
    /// locally recovers the structured variant. Anything else (which
    /// should not happen) is preserved verbatim as an I/O error.
    fn rederive_error(experiment: &Experiment, message: &str, addr: &str) -> ExperimentError {
        match experiment.validate() {
            Err(err) => err,
            Ok(()) => ExperimentError::Io {
                message: format!("worker {addr} reported: {message}"),
            },
        }
    }

    /// Writes a worker off (idempotent): no further jobs, no capacity.
    /// Its in-flight accounting is zeroed — every point it was running is
    /// re-dispatched as its handle gets polled.
    fn mark_dead(&mut self, slot: usize, cause: &BackendError) {
        if !self.workers[slot].dead {
            self.workers[slot].dead = true;
            self.workers[slot].in_flight = 0;
            eprintln!(
                "worker {} lost ({}); re-dispatching its in-flight points to the survivors",
                self.workers[slot].addr, cause.message
            );
        }
    }

    /// The next submit target among live, non-draining workers: the one
    /// with the most free slots (ties go to the first index), so
    /// heterogeneous workers drain proportionally instead of the first
    /// address soaking up every job. When `oversubscribe` (failover
    /// re-dispatch, where the dead worker's points can exceed the
    /// survivors' free slots), falls back to the least-loaded live
    /// worker. `None` when every worker is dead or draining (or, strict
    /// case, merely full).
    fn pick_live(&self, oversubscribe: bool) -> Option<usize> {
        let free = self
            .workers
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.dead && !w.draining && w.in_flight < w.slots)
            .max_by_key(|(i, w)| (w.slots - w.in_flight, self.workers.len() - i))
            .map(|(i, _)| i);
        if free.is_some() || !oversubscribe {
            return free;
        }
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, w)| !w.dead && !w.draining)
            .min_by_key(|(_, w)| w.in_flight)
            .map(|(i, _)| i)
    }

    /// POSTs one job to one worker; counts it in flight on success.
    fn send_job(&mut self, slot: usize, id: u64, job: &PointJob) -> Result<(), SendError> {
        let mut body = String::new();
        let mut obj = JsonObject::begin(&mut body);
        obj.field("digest", &self.digest)
            .field("job", &id)
            .field("retries", &job.retries)
            .field("resumed_from", &job.resumed_from)
            .field("experiment", &job.experiment);
        obj.finish();
        let addr = self.workers[slot].addr.clone();
        let (status, response) = rpc(&addr, "POST", "/submit", &body).map_err(SendError::Failed)?;
        if status == 503 {
            // The worker is shutting down gracefully: no new jobs, but
            // everything it already has will finish. Retire it from the
            // pool without the failover fanfare.
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

    /// Re-dispatches one in-flight job after its worker failed: mark the
    /// worker dead, resubmit the job verbatim to a survivor, report the
    /// point as still pending. Only when *no* worker survives does the
    /// infrastructure failure reach the orchestrator.
    ///
    /// If the "dead" worker was merely slow and finishes its copy anyway,
    /// nothing diverges: results are bit-deterministic in the experiment,
    /// so the copies are identical and only the re-dispatched one is ever
    /// polled.
    fn fail_over(&mut self, id: u64, mut cause: BackendError) -> Result<PointStatus, BackendError> {
        let slot = self
            .jobs
            .get(&id)
            .expect("caller verified the handle")
            .worker;
        self.mark_dead(slot, &cause);
        let job = self
            .jobs
            .get(&id)
            .expect("caller verified the handle")
            .job
            .clone();
        loop {
            let Some(target) = self.pick_live(true) else {
                return Err(cause);
            };
            match self.send_job(target, id, &job) {
                Ok(()) => {
                    let in_flight = self.jobs.get_mut(&id).expect("caller verified the handle");
                    in_flight.worker = target;
                    in_flight.dispatches += 1;
                    in_flight.last_error = Some(cause.message.clone());
                    in_flight.beat = None;
                    in_flight.garbles = 0;
                    return Ok(PointStatus::Pending);
                }
                Err(SendError::Draining) => {
                    // Marked draining inside send_job; try the next one.
                }
                Err(SendError::Failed(err)) => {
                    self.mark_dead(target, &err);
                    cause = err;
                }
            }
        }
    }
}

/// A fully decoded `/status` body. Decoding is separated from transport
/// so a *garbled* body (chaos corruption, a flaky link) can be treated as
/// a strike against the worker rather than a fatal protocol error.
enum StatusBody {
    Pending {
        heartbeat: Option<u64>,
        draining: bool,
    },
    Done {
        result: RunResult,
        attempts: u64,
        retry_decision: Option<String>,
    },
    Failed {
        message: String,
        attempts: u64,
    },
}

fn decode_status(body: &str) -> Result<StatusBody, String> {
    let value = json::from_str(body).map_err(|err| format!("unparseable response body: {err}"))?;
    match value.get("state").and_then(json::Value::as_str) {
        Some("pending") => Ok(StatusBody::Pending {
            heartbeat: value.field_or("heartbeat", None)?,
            draining: value.field_or("draining", false)?,
        }),
        Some("done") => Ok(StatusBody::Done {
            result: value.field("result")?,
            attempts: value.field("attempts")?,
            retry_decision: value.field_or("retry_decision", None)?,
        }),
        Some("failed") => Ok(StatusBody::Failed {
            message: value.field_or("error", "unspecified worker failure".to_owned())?,
            attempts: value.field("attempts")?,
        }),
        other => Err(format!("unknown job state {other:?} in: {body}")),
    }
}

impl WorkerBackend for RemoteBackend {
    fn submit(&mut self, job: PointJob) -> Result<WorkHandle, BackendError> {
        let id = self.next_id;
        self.next_id += 1;
        // A fresh submit insists on a free slot (the orchestrator sized
        // its in-flight window by `capacity`); but once a worker dies
        // mid-submit the pool has shrunk under the orchestrator's feet,
        // so the retries may oversubscribe a survivor.
        let mut oversubscribe = false;
        let mut cause = BackendError {
            worker: "<pool>".to_owned(),
            message: "submit called with every worker slot occupied".to_owned(),
        };
        loop {
            let Some(slot) = self.pick_live(oversubscribe) else {
                return Err(cause);
            };
            match self.send_job(slot, id, &job) {
                Ok(()) => {
                    self.jobs.insert(
                        id,
                        InFlight {
                            worker: slot,
                            job,
                            dispatches: 1,
                            last_error: None,
                            beat: None,
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
                    oversubscribe = true;
                }
            }
        }
    }

    fn poll(&mut self, handle: WorkHandle) -> Result<PointStatus, BackendError> {
        let (slot, addr) = {
            let in_flight = self.jobs.get(&handle.0).ok_or_else(|| BackendError {
                worker: "<pool>".to_owned(),
                message: format!("poll of unknown handle {}", handle.0),
            })?;
            (
                in_flight.worker,
                self.workers[in_flight.worker].addr.clone(),
            )
        };
        // The worker was already written off by an earlier failure (its
        // own RPC, or another point's poll): re-dispatch without a doomed
        // round-trip.
        if self.workers[slot].dead {
            let cause = BackendError {
                worker: addr,
                message: "worker is gone".to_owned(),
            };
            return self.fail_over(handle.0, cause);
        }
        let (status, body) = match rpc(&addr, "GET", &format!("/status?job={}", handle.0), "") {
            Ok(response) => response,
            Err(err) => return self.fail_over(handle.0, err),
        };
        if status != 200 {
            let cause = BackendError {
                worker: addr,
                message: format!("status returned HTTP {status}: {body}"),
            };
            return self.fail_over(handle.0, cause);
        }
        match decode_status(&body) {
            Err(garble) => {
                // The transport delivered bytes, but not the protocol's.
                // Tolerate a few (a corrupted response costs nothing —
                // the next poll asks again) before treating the worker
                // as lost.
                let in_flight = self.jobs.get_mut(&handle.0).expect("handle checked above");
                in_flight.garbles += 1;
                if in_flight.garbles < GARBLE_STRIKES {
                    return Ok(PointStatus::Pending);
                }
                let cause = BackendError {
                    worker: addr,
                    message: format!("{GARBLE_STRIKES} garbled status responses; last: {garble}"),
                };
                self.fail_over(handle.0, cause)
            }
            Ok(StatusBody::Pending {
                heartbeat,
                draining,
            }) => {
                let in_flight = self.jobs.get_mut(&handle.0).expect("handle checked above");
                in_flight.garbles = 0;
                if let Some(beat) = heartbeat {
                    in_flight.beat = Some(beat);
                }
                if draining && !self.workers[slot].draining {
                    self.workers[slot].draining = true;
                    eprintln!("worker {addr} is draining; sending no further jobs");
                }
                Ok(PointStatus::Pending)
            }
            Ok(StatusBody::Done {
                result,
                attempts,
                retry_decision,
            }) => {
                self.jobs.remove(&handle.0);
                self.workers[slot].in_flight = self.workers[slot].in_flight.saturating_sub(1);
                Ok(PointStatus::Done {
                    result: Ok(result),
                    attempts,
                    retry_decision,
                })
            }
            Ok(StatusBody::Failed { message, attempts }) => {
                let in_flight = self.jobs.remove(&handle.0).expect("handle checked above");
                self.workers[slot].in_flight = self.workers[slot].in_flight.saturating_sub(1);
                Ok(PointStatus::Done {
                    result: Err(Self::rederive_error(
                        &in_flight.job.experiment,
                        &message,
                        &addr,
                    )),
                    attempts,
                    retry_decision: None,
                })
            }
        }
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

    fn heartbeat(&mut self, handle: WorkHandle) -> Option<u64> {
        self.jobs.get(&handle.0).and_then(|j| j.beat)
    }

    fn dispatch_history(&self, handle: WorkHandle) -> (u64, Option<String>) {
        self.jobs
            .get(&handle.0)
            .map_or((1, None), |j| (j.dispatches, j.last_error.clone()))
    }

    fn write_off(&mut self, handle: WorkHandle) {
        let Some(slot) = self.jobs.get(&handle.0).map(|j| j.worker) else {
            return;
        };
        let cause = BackendError {
            worker: self.workers[slot].addr.clone(),
            message: "written off by the supervisor: simulation heartbeat frozen".to_owned(),
        };
        self.mark_dead(slot, &cause);
    }

    fn forget(&mut self, handle: WorkHandle) {
        if let Some(in_flight) = self.jobs.remove(&handle.0) {
            let worker = &mut self.workers[in_flight.worker];
            if !worker.dead {
                worker.in_flight = worker.in_flight.saturating_sub(1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::spawn_local;
    use std::time::Instant;
    use wormsim::topology::Topology;
    use wormsim::AlgorithmKind;

    fn job_for(experiment: Experiment, index: usize) -> PointJob {
        PointJob {
            point_hash: experiment.point_hash(),
            experiment,
            index,
            retries: 1,
            inject_panic: false,
            resumed_from: None,
        }
    }

    fn wait_done(
        backend: &mut RemoteBackend,
        handle: WorkHandle,
    ) -> (Result<RunResult, ExperimentError>, u64) {
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            assert!(Instant::now() < deadline, "remote worker hung");
            match backend.poll(handle).expect("poll") {
                PointStatus::Pending => std::thread::sleep(Duration::from_millis(10)),
                PointStatus::Done {
                    result, attempts, ..
                } => return (result, attempts),
            }
        }
    }

    #[test]
    fn malformed_submit_is_refused_and_the_worker_keeps_serving() {
        let addr = spawn_local(1).to_string();
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
        let addr = spawn_local(2);
        let mut backend =
            RemoteBackend::connect(&[addr.to_string()]).expect("handshake with loopback worker");
        assert_eq!(backend.capacity(), 2);
        let experiment = Experiment::new(Topology::torus(&[6, 6]), AlgorithmKind::PositiveHop)
            .offered_load(0.2)
            .quick()
            .seed(1993);
        let local = experiment.clone().run().expect("local run");
        let handle = backend.submit(job_for(experiment, 0)).expect("submit");
        let (result, attempts) = wait_done(&mut backend, handle);
        assert_eq!(attempts, 1);
        let remote = result.expect("remote run succeeds");
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
        let addr = spawn_local(1);
        let mut backend = RemoteBackend::connect(&[addr.to_string()]).expect("handshake");
        // offered_load of 0 is rejected by Experiment::validate.
        let experiment = Experiment::new(Topology::torus(&[6, 6]), AlgorithmKind::Ecube)
            .offered_load(0.0)
            .quick();
        let handle = backend.submit(job_for(experiment, 0)).expect("submit");
        let (result, _) = wait_done(&mut backend, handle);
        let err = result.expect_err("invalid load must fail");
        assert!(
            matches!(err, ExperimentError::InvalidLoad { .. }),
            "got {err:?}"
        );
    }

    #[test]
    fn poll_failure_fails_over_to_the_surviving_worker() {
        let doomed = crate::worker::spawn_killable(1);
        let survivor = spawn_local(1);
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
        // re-dispatch the job to the survivor, not surface an error.
        let handle = backend.submit(job_for(experiment, 0)).expect("submit");
        doomed.kill();
        let (result, _) = wait_done(&mut backend, handle);
        let remote = result.expect("failover completes the point");
        assert_eq!(
            remote.latency.mean().to_bits(),
            local.latency.mean().to_bits(),
            "the re-dispatched point must reproduce the local result bit for bit"
        );
        assert_eq!(remote.cycles_simulated, local.cycles_simulated);
        assert_eq!(
            backend.capacity(),
            1,
            "the dead worker must drop out of the capacity count"
        );
    }

    #[test]
    fn garbling_worker_is_cut_loose_and_the_point_lands_on_the_survivor() {
        // Every response body (except the chaos-exempt handshake) is
        // corrupted: valid HTTP framing, broken JSON. The backend must
        // write the worker off instead of trusting a byte of it.
        let garbler =
            crate::worker::spawn_chaotic(1, crate::chaos::ChaosPlan::parse("corrupt=1").unwrap());
        let survivor = spawn_local(1);
        let mut backend = RemoteBackend::connect(&[garbler.to_string(), survivor.to_string()])
            .expect("handshake is exempt from response corruption");
        assert_eq!(backend.capacity(), 2);
        let experiment = Experiment::new(Topology::torus(&[6, 6]), AlgorithmKind::PositiveHop)
            .offered_load(0.2)
            .quick()
            .seed(1993);
        let local = experiment.clone().run().expect("local reference run");
        let handle = backend.submit(job_for(experiment, 0)).expect("submit");
        let (result, _) = wait_done(&mut backend, handle);
        let remote = result.expect("the point must land on the survivor");
        assert_eq!(
            remote.latency.mean().to_bits(),
            local.latency.mean().to_bits(),
            "the survivor must reproduce the local result bit for bit"
        );
        assert_eq!(
            backend.capacity(),
            1,
            "the garbling worker must be written off"
        );
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
}
