//! The [`WorkerBackend`] abstraction: where sweep points actually run.
//!
//! The orchestrator ([`run_sweep`](crate::run_sweep)) is backend-agnostic:
//! it submits [`PointJob`]s, polls their [`PointStatus`], and records
//! completed points in the journal. There is one in-process pool and two
//! front ends over it:
//!
//! * [`LocalThreadBackend`] — the pool itself, one OS thread per slot.
//!   Every job runs under [`execute_point`] (per-point panic isolation,
//!   bounded seed-jittered retries) with a cancellation token of its own,
//!   so each job reports its own heartbeat and can be stopped alone.
//! * [`RemoteBackend`](crate::remote::RemoteBackend) — HTTP submit/poll
//!   against one or more `wormsim-worker` processes, each of which is a
//!   `LocalThreadBackend` behind HTTP (see [`worker`](crate::worker) and
//!   `docs/DISTRIBUTION.md`).
//!
//! A point therefore produces the same result and the same attempt count
//! no matter where it runs — the property that, with the journal's index
//! order, makes journals byte-identical.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
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
        /// counter, offset by one; `0` until the run starts), or `None`
        /// when the backend cannot observe it (a garbled remote status).
        /// The supervisor uses a frozen heartbeat to tell a *hung*
        /// executor from a slow one.
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
    /// threads cannot be declared dead, only forgets the job.
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

/// The loss reported for a handle the backend does not hold.
pub(crate) fn unknown_handle(handle: WorkHandle) -> BackendError {
    BackendError {
        worker: "<pool>".to_owned(),
        message: format!("unknown handle {}", handle.0),
    }
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
    RunResult::unmeasured(
        experiment.sim().algorithm.name(),
        experiment.sim().traffic.to_string(),
        experiment.offered_load_value(),
        RunOutcome::Harness(PanicInfo { message }),
    )
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
/// executor, run by every [`LocalThreadBackend`] thread. Panics become
/// [`RunOutcome::Harness`] results; transient outcomes (budget trips,
/// panics) retry up to `job.retries` extra times with seed-jittered,
/// cancellation-aware backoff, reusing the identical simulation seed.
/// Configuration errors never retry — they are deterministic.
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
fn execute_point(
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
    /// Jobs waiting for a thread, in submission order.
    queue: VecDeque<(u64, PointJob)>,
    /// Every submitted job not yet consumed by `poll` or `forget`: its own
    /// cancellation token, and its result once it finished.
    jobs: HashMap<u64, (CancelToken, Option<Finished>)>,
    quit: bool,
}

struct Shared {
    state: Mutex<LocalState>,
    ready: Condvar,
}

impl Shared {
    fn lock(&self) -> MutexGuard<'_, LocalState> {
        self.state.lock().expect("no poisoned backend state")
    }
}

/// The in-process pool: a fixed set of OS threads draining a shared job
/// queue through [`execute_point`]. Each job runs under a child of the
/// `shutdown` token given to [`new`](Self::new), so `poll` reports that
/// job's own heartbeat, `cancel` and `forget` stop jobs without touching
/// the pool's future, and tripping `shutdown` (SIGINT) interrupts every
/// job at its next sampling boundary.
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
                jobs: HashMap::new(),
                quit: false,
            }),
            ready: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || loop {
                    let (id, job, cancel) = {
                        let mut state = shared.lock();
                        loop {
                            if state.quit {
                                return;
                            }
                            if let Some((id, job)) = state.queue.pop_front() {
                                let cancel = state.jobs[&id].0.clone();
                                break (id, job, cancel);
                            }
                            state = shared.ready.wait(state).expect("no poisoned backend state");
                        }
                    };
                    let finished = execute_point(&job, &cancel);
                    // A job forgotten while it ran has no entry left: its
                    // late result is dropped here.
                    if let Some(entry) = shared.lock().jobs.get_mut(&id) {
                        entry.1 = Some(finished);
                    }
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
        // An uncancelled token never perturbs the simulation.
        let cancel = self.shutdown.child();
        job.experiment = job.experiment.cancel_token(cancel.clone());
        let id = self.next_handle;
        self.next_handle += 1;
        let mut state = self.shared.lock();
        state.jobs.insert(id, (cancel, None));
        state.queue.push_back((id, job));
        drop(state);
        self.shared.ready.notify_one();
        Ok(WorkHandle(id))
    }

    fn poll(&mut self, handle: WorkHandle) -> PointStatus {
        let mut state = self.shared.lock();
        let Some((cancel, finished)) = state.jobs.get_mut(&handle.0) else {
            return PointStatus::Lost(unknown_handle(handle));
        };
        let Some((result, attempts, retry_decision)) = finished.take() else {
            return PointStatus::Pending {
                heartbeat: Some(cancel.heartbeat()),
            };
        };
        state.jobs.remove(&handle.0);
        PointStatus::Done {
            result,
            attempts,
            retry_decision,
        }
    }

    fn capacity(&self) -> usize {
        self.workers.len()
    }

    fn cancel(&mut self) {
        // Only the jobs held now: the next one submitted runs normally.
        for (cancel, _) in self.shared.lock().jobs.values() {
            cancel.cancel();
        }
    }

    fn forget(&mut self, handle: WorkHandle) {
        let mut state = self.shared.lock();
        if let Some((cancel, _)) = state.jobs.remove(&handle.0) {
            cancel.cancel();
            state.queue.retain(|(id, _)| *id != handle.0);
        }
    }
}

impl Drop for LocalThreadBackend {
    fn drop(&mut self) {
        // Drop must not panic; tripping tokens and setting `quit` are
        // valid on any state a panicking thread could have left.
        let mut state = self
            .shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for (cancel, _) in state.jobs.values() {
            cancel.cancel();
        }
        state.quit = true;
        drop(state);
        self.shared.ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wormsim::topology::Topology;
    use wormsim::{AlgorithmKind, MeasurementSchedule};

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

    /// A point whose warm-up alone would take days: it ends only when
    /// stopped.
    fn endless_job() -> PointJob {
        let mut job = tiny_job(0);
        job.experiment = job.experiment.schedule(MeasurementSchedule {
            warmup_cycles: 1 << 40,
            ..MeasurementSchedule::quick()
        });
        job.point_hash = job.experiment.point_hash();
        job
    }

    fn deadline() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    /// Polls `handle` until it resolves.
    fn wait(backend: &mut LocalThreadBackend, handle: WorkHandle) -> PointStatus {
        let deadline = deadline();
        loop {
            assert!(Instant::now() < deadline, "backend hung");
            match backend.poll(handle) {
                PointStatus::Pending { .. } => std::thread::sleep(Duration::from_millis(2)),
                resolved => return resolved,
            }
        }
    }

    /// Polls a pending `handle` until its heartbeat passes `above`.
    fn beat_above(backend: &mut LocalThreadBackend, handle: WorkHandle, above: u64) -> u64 {
        let deadline = deadline();
        loop {
            assert!(Instant::now() < deadline, "heartbeat never passed {above}");
            match backend.poll(handle) {
                PointStatus::Pending {
                    heartbeat: Some(beat),
                } if beat > above => return beat,
                PointStatus::Pending { .. } => std::thread::sleep(Duration::from_millis(2)),
                other => panic!("expected a running job, got {other:?}"),
            }
        }
    }

    fn outcome(status: PointStatus) -> RunOutcome {
        match status {
            PointStatus::Done { result, .. } => result.expect("valid config").outcome,
            other => panic!("expected the job to finish, got {other:?}"),
        }
    }

    #[test]
    fn local_backend_runs_jobs_to_done() {
        let mut backend = LocalThreadBackend::new(2, CancelToken::new());
        assert_eq!(backend.capacity(), 2);
        for handle in (0..3)
            .map(|i| backend.submit(tiny_job(i)).unwrap())
            .collect::<Vec<_>>()
        {
            let PointStatus::Done {
                result,
                attempts,
                retry_decision,
            } = wait(&mut backend, handle)
            else {
                panic!("the local pool never loses a job");
            };
            assert_eq!(attempts, 1);
            assert_eq!(retry_decision, None);
            assert!(result.expect("valid config").outcome.has_statistics());
            assert!(
                matches!(backend.poll(handle), PointStatus::Lost(_)),
                "a consumed handle is unknown"
            );
        }
    }

    #[test]
    fn a_running_job_reports_its_own_advancing_heartbeat() {
        let mut backend = LocalThreadBackend::new(1, CancelToken::new());
        let running = backend.submit(endless_job()).unwrap();
        let queued = backend.submit(endless_job()).unwrap();
        let first = beat_above(&mut backend, running, 0);
        assert!(
            matches!(
                backend.poll(queued),
                PointStatus::Pending { heartbeat: Some(0) }
            ),
            "a queued job has not beaten yet"
        );
        beat_above(&mut backend, running, first);
    }

    #[test]
    fn forget_stops_a_running_job_and_drops_its_result() {
        let mut backend = LocalThreadBackend::new(1, CancelToken::new());
        let forgotten = backend.submit(endless_job()).unwrap();
        beat_above(&mut backend, forgotten, 0);
        backend.forget(forgotten);
        // The only thread is free again long before the forgotten run
        // could have finished.
        let next = backend.submit(tiny_job(1)).unwrap();
        assert!(outcome(wait(&mut backend, next)).has_statistics());
        assert!(
            matches!(backend.poll(forgotten), PointStatus::Lost(_)),
            "no late result for a forgotten job"
        );
    }

    #[test]
    fn cancel_interrupts_running_jobs_without_latching() {
        let mut backend = LocalThreadBackend::new(1, CancelToken::new());
        let running = backend.submit(endless_job()).unwrap();
        beat_above(&mut backend, running, 0);
        backend.cancel();
        assert_eq!(
            outcome(wait(&mut backend, running)),
            RunOutcome::Interrupted
        );
        let after = backend.submit(tiny_job(1)).unwrap();
        assert!(outcome(wait(&mut backend, after)).has_statistics());
    }

    #[test]
    fn tripped_shutdown_interrupts_every_job() {
        let shutdown = CancelToken::new();
        let mut backend = LocalThreadBackend::new(1, shutdown.clone());
        let running = backend.submit(endless_job()).unwrap();
        let queued = backend.submit(endless_job()).unwrap();
        beat_above(&mut backend, running, 0);
        shutdown.cancel();
        assert_eq!(
            outcome(wait(&mut backend, running)),
            RunOutcome::Interrupted
        );
        assert_eq!(outcome(wait(&mut backend, queued)), RunOutcome::Interrupted);
    }

    #[test]
    fn injected_panic_is_contained_and_retried() {
        let mut backend = LocalThreadBackend::new(1, CancelToken::new());
        let mut job = tiny_job(7);
        job.inject_panic = true;
        job.retries = 2;
        let handle = backend.submit(job).unwrap();
        let PointStatus::Done {
            result, attempts, ..
        } = wait(&mut backend, handle)
        else {
            panic!("the local pool never loses a job");
        };
        assert_eq!(attempts, 3, "1 try + 2 retries");
        let r = result.expect("panic becomes a Harness result");
        let RunOutcome::Harness(info) = &r.outcome else {
            panic!("expected Harness outcome, got {:?}", r.outcome);
        };
        assert!(info.message.contains("point 7"), "got: {}", info.message);
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
