//! The [`WorkerBackend`] abstraction: where sweep points actually run.
//!
//! The orchestrator ([`run_sweep`](crate::run_sweep)) is backend-agnostic:
//! it submits [`PointJob`]s, polls their [`PointStatus`], and records
//! completed points in the journal. Two backends exist:
//!
//! * [`LocalThreadBackend`] — the classic in-process pool, one OS thread
//!   per slot. Behavior-preserving port of the old scoped-thread
//!   orchestrator: per-point panic isolation, bounded seed-jittered
//!   retries, cooperative shutdown.
//! * [`RemoteBackend`](crate::remote::RemoteBackend) — HTTP submit/poll
//!   against one or more `wormsim-worker` processes (see
//!   [`worker`](crate::worker) and `docs/DISTRIBUTION.md`).
//!
//! Both run the identical per-point retry loop ([`execute_point`]), so a
//! point produces the same result and the same attempt count no matter
//! where it runs — the property that, with the journal's index order,
//! makes journals byte-identical.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use wormsim::stats::{ConfidenceInterval, ConvergenceStatus};
use wormsim::verify::TriageVerdict;
use wormsim::{CancelToken, Experiment, ExperimentError, PanicInfo, RunOutcome, RunResult};

/// One schedulable sweep point: the experiment plus the orchestration
/// context a backend needs to run it faithfully anywhere.
#[derive(Clone, Debug)]
pub struct PointJob {
    /// The fully configured experiment (simulation settings only matter on
    /// the wire; observability and cancellation stay with the executor).
    pub experiment: Experiment,
    /// Index in the sweep's deterministic order (provenance and the panic
    /// injection hook; the journal is keyed by hash, not index).
    pub index: usize,
    /// The point's stable configuration digest
    /// ([`Experiment::point_hash`]).
    pub point_hash: String,
    /// Extra attempts for transient outcomes (budget trips, panics).
    pub retries: u32,
    /// Test hook: panic inside the executor on every attempt.
    pub inject_panic: bool,
    /// Journal path this sweep resumed from, if any (provenance, surfaced
    /// in run manifests).
    pub resumed_from: Option<String>,
}

/// A backend's receipt for a submitted job; pass it back to
/// [`WorkerBackend::poll`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct WorkHandle(pub(crate) u64);

/// What [`WorkerBackend::poll`] reports for a handle.
#[derive(Debug)]
pub enum PointStatus {
    /// Still queued or running.
    Pending {
        /// The last progress heartbeat of the executor (the engine's cycle
        /// counter, offset by one), or `None` when the backend cannot
        /// observe per-job progress (the local pool shares one token
        /// across jobs). The supervisor uses a frozen heartbeat to tell a
        /// *hung* executor from a slow one.
        heartbeat: Option<u64>,
    },
    /// Finished: the point's outcome and the attempts it consumed.
    Done {
        /// The run result, or the configuration error that rejected it.
        result: Result<RunResult, ExperimentError>,
        /// Attempts consumed (1 = first try).
        attempts: u64,
        /// What the triage-aware retry policy decided for this point, if
        /// it engaged at all (see [`execute_point`]). Deterministic, so it
        /// journals identically on every backend.
        retry_decision: Option<String>,
    },
    /// The dispatch is gone: its executor crashed, stopped answering or
    /// stopped speaking the protocol. Consumed like `Done`; deciding
    /// whether to dispatch the point again is the caller's business.
    Lost(BackendError),
}

/// A backend infrastructure failure: the *machinery* (a worker process, a
/// connection) failed, as opposed to a point's simulation outcome.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BackendError {
    /// Which worker (address or label) failed.
    pub worker: String,
    /// What went wrong, rendered.
    pub message: String,
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker {}: {}", self.worker, self.message)
    }
}

impl std::error::Error for BackendError {}

/// Which backend a sweep runs on (`--backend local|remote`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// In-process thread pool (the default).
    #[default]
    Local,
    /// HTTP submit/poll against `wormsim-worker` processes.
    Remote {
        /// Worker addresses (`HOST:PORT`, from repeated `--worker` flags).
        workers: Vec<String>,
    },
}

/// Where sweep points execute: a transport that runs what it is given and
/// reports what became of it. Submit up to [`capacity`] jobs, poll their
/// handles until each one is `Done` or `Lost`. The backend never
/// dispatches a job twice on its own; that decision belongs to the sweep's
/// supervisor (`supervisor.rs`).
///
/// [`capacity`]: WorkerBackend::capacity
pub trait WorkerBackend {
    /// Queues a job; returns a handle to poll.
    ///
    /// # Errors
    ///
    /// Only when no executor is left to take the job (e.g. every worker
    /// is dead or draining). Point-level failures are never `Err` here —
    /// they surface through [`PointStatus::Done`].
    fn submit(&mut self, job: PointJob) -> Result<WorkHandle, BackendError>;

    /// Reports the current status of a submitted job. `Done` and `Lost`
    /// are consumed: polling the same handle again is unspecified.
    fn poll(&mut self, handle: WorkHandle) -> PointStatus;

    /// How many jobs the backend can usefully hold in flight. The
    /// orchestrator keeps at most this many submitted-but-unfinished jobs.
    fn capacity(&self) -> usize;

    /// Best-effort cancellation broadcast: make in-flight points stop at
    /// their next boundary. Idempotent.
    fn cancel(&mut self);

    /// How long the orchestrator should sleep between poll rounds that
    /// made no progress.
    fn poll_interval(&self) -> Duration {
        Duration::from_millis(2)
    }

    /// Declares a pending job's executor dead (its heartbeat froze past
    /// the supervisor's deadline) and drops the handle, returning the
    /// loss as [`PointStatus::Lost`] would have reported it. A remote pool
    /// sends the worker no further jobs; the default, for a pool whose
    /// threads cannot be declared dead, only forgets the handle.
    fn write_off(&mut self, handle: WorkHandle) -> BackendError {
        self.forget(handle);
        BackendError {
            worker: "local".to_owned(),
            message: "written off: simulation heartbeat frozen".to_owned(),
        }
    }

    /// Abandons a job entirely: the backend forgets the handle and
    /// discards any result it may still produce. Used to drop the losing
    /// duplicates of a hedged point.
    fn forget(&mut self, _handle: WorkHandle) {}
}

/// Seed-jittered backoff before retry `attempt` of the point with digest
/// `point_hash`: exponential base so repeated transients spread out, plus
/// a per-point jitter so a thundering herd of failed points does not
/// retry in lockstep. Deterministic in (hash, attempt) — no wall clock,
/// no global RNG.
pub(crate) fn backoff_ms(point_hash: &str, attempt: u64) -> u64 {
    let digest = wormsim::observe::fnv1a_hex(&format!("{point_hash}:retry:{attempt}"));
    let jitter = u64::from_str_radix(&digest[..4], 16).unwrap_or(0) % 64;
    (25u64 << attempt.min(5)) + jitter
}

/// Sleeps up to `ms` milliseconds, returning early (within ~10ms) once
/// `cancel` trips — so a SIGINT during retry backoff stops the worker at
/// once instead of waiting out the full exponential delay.
pub(crate) fn cancellable_sleep(ms: u64, cancel: &CancelToken) {
    let deadline = Instant::now() + Duration::from_millis(ms);
    while !cancel.is_cancelled() {
        let now = Instant::now();
        if now >= deadline {
            return;
        }
        std::thread::sleep((deadline - now).min(Duration::from_millis(10)));
    }
}

/// Renders a worker panic into a placeholder [`RunResult`] carrying
/// [`RunOutcome::Harness`], so the surrounding sweep records the failure
/// and keeps running instead of poisoning the pool.
fn panic_result(experiment: &Experiment, payload: &(dyn std::any::Any + Send)) -> RunResult {
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    };
    RunResult {
        algorithm: experiment.sim().algorithm.name().to_owned(),
        traffic: experiment.sim().traffic.to_string(),
        offered_load: experiment.offered_load_value(),
        injection_rate: 0.0,
        latency: ConfidenceInterval::new(0.0, f64::INFINITY),
        latency_percentiles: [0, 0, 0],
        latency_max: 0,
        class_latencies: Vec::new(),
        achieved_utilization: 0.0,
        delivery_rate: 0.0,
        acceptance_rate: 0.0,
        refused_fraction: 0.0,
        messages_measured: 0,
        convergence: ConvergenceStatus::NeedMoreSamples,
        samples: 0,
        cycles_simulated: 0,
        wall_seconds: 0.0,
        cycles_per_sec: 0.0,
        outcome: RunOutcome::Harness(PanicInfo { message }),
        dropped_events: 0,
        deadlock: None,
        livelock: None,
        triage: None,
    }
}

/// Budget multiplier for the final attempt of a `budget_artifact` retry
/// chain: the re-run gets this many times the configured cycle budget, so
/// a stall the triage blamed on a tight budget has real headroom to
/// finish instead of deterministically reproducing itself.
pub(crate) const RAISED_BUDGET_FACTOR: u64 = 4;

/// Retry decision recorded when a stalled point was triaged
/// `confirmed_unsafe`: the stall is a validated circular wait, retrying
/// is deterministic futility, the result journals as-is.
pub(crate) const DECISION_CONFIRMED_UNSAFE: &str = "confirmed_unsafe_no_retry";
/// Retry decision recorded when a `budget_artifact` stall triggered a
/// retry (the final attempt ran with [`RAISED_BUDGET_FACTOR`]× budget).
pub(crate) const DECISION_BUDGET_RETRIED: &str = "budget_artifact_retried";
/// Retry decision recorded when a `budget_artifact` stall could not be
/// retried: either the retry budget was already spent or the experiment
/// has no cycle budget to raise (re-running the identical configuration
/// would reproduce the identical stall).
pub(crate) const DECISION_BUDGET_NO_RETRY: &str = "budget_artifact_not_retried";

/// The stall triage of a run result, when the run stalled at all.
fn stall_verdict(result: &Result<RunResult, ExperimentError>) -> Option<TriageVerdict> {
    match result {
        Ok(r) if matches!(r.outcome, RunOutcome::Deadlocked | RunOutcome::LiveLocked) => {
            r.triage.as_ref().map(|t| t.verdict)
        }
        _ => None,
    }
}

/// Runs one point with panic isolation and bounded retries — the single
/// executor both backends share. Panics become [`RunOutcome::Harness`]
/// results; transient outcomes (budget trips, panics) retry up to
/// `job.retries` extra times with seed-jittered, cancellation-aware
/// backoff, reusing the identical simulation seed. Configuration errors
/// never retry — they are deterministic.
///
/// Stalled runs go through the triage-aware policy: a stall triaged
/// `confirmed_unsafe` (a validated circular wait) is **never** retried —
/// it is deterministic, and re-running it would only burn budget to
/// reproduce the same deadlock. A stall triaged `budget_artifact` *is*
/// retry-eligible when the experiment has a cycle budget to raise: the
/// final attempt of such a chain runs with [`RAISED_BUDGET_FACTOR`]× the
/// configured budget, giving a congestion-starved run real headroom.
/// The decision taken is returned alongside the result so the journal
/// records it; everything here is deterministic in the job alone, so
/// local and remote executions decide (and journal) identically.
///
/// Returns the final result, the attempts consumed, and the retry
/// decision (when the stall policy engaged).
pub(crate) fn execute_point(
    job: &PointJob,
    cancel: &CancelToken,
) -> (Result<RunResult, ExperimentError>, u64, Option<String>) {
    let max_attempts = u64::from(job.retries).saturating_add(1);
    let raisable_budget = job.experiment.cycle_budget_value();
    let mut attempt = 1u64;
    let mut budget_retry_engaged = false;
    loop {
        let mut attempt_experiment = job
            .experiment
            .clone()
            .attempt(attempt as u32)
            .resumed_from(job.resumed_from.clone());
        if budget_retry_engaged && attempt == max_attempts {
            if let Some(budget) = raisable_budget {
                attempt_experiment = attempt_experiment
                    .cycle_budget(Some(budget.saturating_mul(RAISED_BUDGET_FACTOR)));
            }
        }
        let run = catch_unwind(AssertUnwindSafe(|| {
            if job.inject_panic {
                panic!("injected harness panic at point {}", job.index);
            }
            attempt_experiment.run()
        }));
        let result = match run {
            Ok(inner) => inner,
            Err(payload) => Ok(panic_result(&job.experiment, payload.as_ref())),
        };
        let transient = matches!(&result, Ok(r) if r.outcome.is_transient());
        let stall = stall_verdict(&result);
        // Only a budget-artifact stall with a budget to raise is worth a
        // deterministic re-run; confirmed-unsafe stalls never retry.
        let stall_retryable =
            stall == Some(TriageVerdict::BudgetArtifact) && raisable_budget.is_some();
        if (transient || stall_retryable) && attempt < max_attempts && !cancel.is_cancelled() {
            if stall_retryable {
                budget_retry_engaged = true;
            }
            cancellable_sleep(backoff_ms(&job.point_hash, attempt), cancel);
            attempt += 1;
            continue;
        }
        let decision = match stall {
            Some(TriageVerdict::ConfirmedUnsafe) => Some(DECISION_CONFIRMED_UNSAFE.to_owned()),
            Some(TriageVerdict::BudgetArtifact) if budget_retry_engaged => {
                Some(DECISION_BUDGET_RETRIED.to_owned())
            }
            Some(TriageVerdict::BudgetArtifact) => Some(DECISION_BUDGET_NO_RETRY.to_owned()),
            None if budget_retry_engaged => Some(DECISION_BUDGET_RETRIED.to_owned()),
            None => None,
        };
        return (result, attempt, decision);
    }
}

type Finished = (Result<RunResult, ExperimentError>, u64, Option<String>);

struct LocalState {
    queue: VecDeque<(u64, PointJob)>,
    done: HashMap<u64, Finished>,
    quit: bool,
}

struct Shared {
    state: Mutex<LocalState>,
    ready: Condvar,
}

/// The in-process backend: a fixed pool of OS threads draining a shared
/// job queue. Jobs run under [`execute_point`] with the sweep's shutdown
/// token attached, so SIGINT interrupts in-flight points at their next
/// sampling boundary exactly as the pre-backend orchestrator did.
pub struct LocalThreadBackend {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
    shutdown: CancelToken,
    next_handle: u64,
}

impl LocalThreadBackend {
    /// Spawns a pool of `threads` workers (at least one) wired to the
    /// sweep's `shutdown` token.
    pub fn new(threads: usize, shutdown: CancelToken) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(LocalState {
                queue: VecDeque::new(),
                done: HashMap::new(),
                quit: false,
            }),
            ready: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                let shutdown = shutdown.clone();
                std::thread::spawn(move || loop {
                    let job = {
                        let mut state = shared.state.lock().expect("no poisoned backend state");
                        loop {
                            if state.quit {
                                return;
                            }
                            if let Some(job) = state.queue.pop_front() {
                                break job;
                            }
                            state = shared.ready.wait(state).expect("no poisoned backend state");
                        }
                    };
                    let (id, job) = job;
                    let finished = execute_point(&job, &shutdown);
                    shared
                        .state
                        .lock()
                        .expect("no poisoned backend state")
                        .done
                        .insert(id, finished);
                })
            })
            .collect();
        LocalThreadBackend {
            shared,
            workers,
            shutdown,
            next_handle: 0,
        }
    }
}

impl WorkerBackend for LocalThreadBackend {
    fn submit(&mut self, mut job: PointJob) -> Result<WorkHandle, BackendError> {
        // Attach the sweep's shutdown token so an in-flight run stops at
        // its next sampling boundary; an uncancelled token never perturbs
        // the simulation.
        job.experiment = job.experiment.cancel_token(self.shutdown.clone());
        let id = self.next_handle;
        self.next_handle += 1;
        self.shared
            .state
            .lock()
            .expect("no poisoned backend state")
            .queue
            .push_back((id, job));
        self.shared.ready.notify_one();
        Ok(WorkHandle(id))
    }

    fn poll(&mut self, handle: WorkHandle) -> PointStatus {
        let mut state = self.shared.state.lock().expect("no poisoned backend state");
        match state.done.remove(&handle.0) {
            Some((result, attempts, retry_decision)) => PointStatus::Done {
                result,
                attempts,
                retry_decision,
            },
            None => PointStatus::Pending { heartbeat: None },
        }
    }

    fn capacity(&self) -> usize {
        self.workers.len()
    }

    fn cancel(&mut self) {
        // The shutdown token is shared with every job; tripping it (the
        // orchestrator already has) is the whole mechanism.
        self.shutdown.cancel();
    }

    fn forget(&mut self, handle: WorkHandle) {
        // Drop the job if still queued and discard any finished result; a
        // job already running simply completes into the void.
        let mut state = self.shared.state.lock().expect("no poisoned backend state");
        state.queue.retain(|(id, _)| *id != handle.0);
        state.done.remove(&handle.0);
    }
}

impl Drop for LocalThreadBackend {
    fn drop(&mut self) {
        self.shared
            .state
            .lock()
            .expect("no poisoned backend state")
            .quit = true;
        self.ready_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl LocalThreadBackend {
    fn ready_all(&self) {
        self.shared.ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim::topology::Topology;
    use wormsim::AlgorithmKind;

    fn tiny_job(index: usize) -> PointJob {
        let experiment = Experiment::new(Topology::torus(&[6, 6]), AlgorithmKind::Ecube)
            .offered_load(0.1)
            .quick()
            .seed(5);
        PointJob {
            point_hash: experiment.point_hash(),
            experiment,
            index,
            retries: 0,
            inject_panic: false,
            resumed_from: None,
        }
    }

    #[test]
    fn local_backend_runs_jobs_to_done() {
        let mut backend = LocalThreadBackend::new(2, CancelToken::new());
        assert_eq!(backend.capacity(), 2);
        let handles: Vec<WorkHandle> = (0..3)
            .map(|i| backend.submit(tiny_job(i)).unwrap())
            .collect();
        let mut done = 0;
        let deadline = Instant::now() + Duration::from_secs(60);
        let mut pending: Vec<WorkHandle> = handles;
        while !pending.is_empty() {
            assert!(Instant::now() < deadline, "backend hung");
            pending.retain(|&h| match backend.poll(h) {
                PointStatus::Pending { heartbeat } => {
                    assert_eq!(heartbeat, None, "the local pool reports no heartbeat");
                    true
                }
                PointStatus::Done {
                    result,
                    attempts,
                    retry_decision,
                } => {
                    assert_eq!(attempts, 1);
                    assert_eq!(retry_decision, None);
                    let r = result.expect("valid config");
                    assert!(r.outcome.has_statistics());
                    done += 1;
                    false
                }
                PointStatus::Lost(err) => panic!("the local pool never loses a job: {err}"),
            });
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(done, 3);
    }

    #[test]
    fn injected_panic_is_contained_and_retried() {
        let mut backend = LocalThreadBackend::new(1, CancelToken::new());
        let mut job = tiny_job(7);
        job.inject_panic = true;
        job.retries = 2;
        let handle = backend.submit(job).unwrap();
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            assert!(Instant::now() < deadline, "backend hung");
            match backend.poll(handle) {
                PointStatus::Pending { .. } => std::thread::sleep(Duration::from_millis(5)),
                PointStatus::Lost(err) => panic!("the local pool never loses a job: {err}"),
                PointStatus::Done {
                    result, attempts, ..
                } => {
                    assert_eq!(attempts, 3, "1 try + 2 retries");
                    let r = result.expect("panic becomes a Harness result");
                    let RunOutcome::Harness(info) = &r.outcome else {
                        panic!("expected Harness outcome, got {:?}", r.outcome);
                    };
                    assert!(info.message.contains("point 7"), "got: {}", info.message);
                    break;
                }
            }
        }
    }

    #[test]
    fn backoff_sleep_returns_early_on_cancel() {
        let token = CancelToken::new();
        let tripper = token.clone();
        let start = Instant::now();
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            tripper.cancel();
        });
        cancellable_sleep(10_000, &token);
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "sleep must not wait out the full 10s backoff"
        );
        handle.join().unwrap();
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let a = backoff_ms("abc123", 1);
        assert_eq!(a, backoff_ms("abc123", 1), "same inputs, same backoff");
        assert_ne!(
            backoff_ms("abc123", 1),
            backoff_ms("def456", 1),
            "different points jitter differently"
        );
        for attempt in 1..=10 {
            let ms = backoff_ms("abc123", attempt);
            assert!((25..=25 * 32 + 63).contains(&(ms as usize)), "got {ms}");
        }
    }
}
