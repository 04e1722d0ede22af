//! The [`WorkerBackend`] abstraction: where sweep points actually run.
//!
//! The orchestrator ([`run_sweep`](crate::run_sweep)) is backend-agnostic:
//! it submits [`PointJob`]s, polls their [`PointStatus`], and records
//! completed points in the journal. There is one in-process pool and two
//! front ends over it:
//!
//! * [`LocalThreadBackend`] — the pool itself, one OS thread per slot.
//!   Every job runs one attempt under [`execute_point`] (per-point panic
//!   isolation) with a cancellation token of its own, so each job reports
//!   its own heartbeat and can be stopped alone.
//! * [`RemoteBackend`](crate::remote::RemoteBackend) — HTTP submit/poll
//!   against one or more `wormsim-worker` processes, each of which is a
//!   `LocalThreadBackend` behind HTTP (see [`worker`](crate::worker) and
//!   `docs/DISTRIBUTION.md`).
//!
//! A dispatch therefore produces the same result no matter where it runs.
//! Whether a point runs again (a transient outcome, a stall blamed on a
//! tight budget) is decided once, by the sweep's supervisor, so attempt
//! counts and retry decisions are backend-independent too — the property
//! that, with the journal's index order, makes journals byte-identical.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;
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
    /// Test hook: panic inside the executor on every attempt.
    pub inject_panic: bool,
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
    /// Finished: the outcome of the one attempt this dispatch ran.
    Done {
        /// The run result, or the configuration error that rejected it.
        result: Result<RunResult, ExperimentError>,
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
    /// Only when no executor with a free slot is left to take the job
    /// (every worker dead, draining, or full because one died under this
    /// very submit). Point-level failures are never `Err` here — they
    /// surface through [`PointStatus::Done`].
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

/// Runs one attempt of one point with panic isolation — the single
/// executor, run by every [`LocalThreadBackend`] thread. A panic becomes
/// a [`RunOutcome::Harness`] result instead of poisoning the pool.
/// Whether the point runs again is the supervisor's decision
/// (`supervisor.rs`), made from the result this returns.
fn execute_point(job: &PointJob) -> Result<RunResult, ExperimentError> {
    catch_unwind(AssertUnwindSafe(|| {
        if job.inject_panic {
            panic!("injected harness panic at point {}", job.index);
        }
        job.experiment.run()
    }))
    .unwrap_or_else(|payload| Ok(panic_result(&job.experiment, payload.as_ref())))
}

struct LocalState {
    /// Jobs waiting for a thread, in submission order.
    queue: VecDeque<(u64, PointJob)>,
    /// Every submitted job not yet consumed by `poll` or `forget`: its own
    /// cancellation token, and its result once it finished.
    jobs: HashMap<u64, (CancelToken, Option<Result<RunResult, ExperimentError>>)>,
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
/// queue through `execute_point`. Each job runs under a child of the
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
                    let (id, job) = {
                        let mut state = shared.lock();
                        loop {
                            if state.quit {
                                return;
                            }
                            if let Some(next) = state.queue.pop_front() {
                                break next;
                            }
                            state = shared.ready.wait(state).expect("no poisoned backend state");
                        }
                    };
                    let finished = execute_point(&job);
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
        let Some(result) = finished.take() else {
            return PointStatus::Pending {
                heartbeat: Some(cancel.heartbeat()),
            };
        };
        state.jobs.remove(&handle.0);
        PointStatus::Done { result }
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
    use std::time::Instant;
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
            inject_panic: false,
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
            PointStatus::Done { result } => result.expect("valid config").outcome,
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
            assert!(outcome(wait(&mut backend, handle)).has_statistics());
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
    fn an_injected_panic_is_contained_in_one_attempt() {
        let mut backend = LocalThreadBackend::new(1, CancelToken::new());
        let mut job = tiny_job(7);
        job.inject_panic = true;
        let handle = backend.submit(job).unwrap();
        let RunOutcome::Harness(info) = outcome(wait(&mut backend, handle)) else {
            panic!("a panic becomes a Harness result");
        };
        assert!(info.message.contains("point 7"), "got: {}", info.message);
        // The thread survived the panic.
        let next = backend.submit(tiny_job(8)).unwrap();
        assert!(outcome(wait(&mut backend, next)).has_statistics());
    }
}
