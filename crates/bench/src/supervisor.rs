//! Sweep supervision: dispatch, retries, re-dispatch, deadlines, hedging
//! and poison-point quarantine on top of any [`WorkerBackend`].
//!
//! The backend is a transport: it runs one attempt per dispatch and
//! reports it `Done` or `Lost`. Every decision about what runs, and what
//! runs again, is made here, once:
//!
//! * **Dispatch.** [`run_sweep`] hands over every point up front; each
//!   [`tick`](Supervisor::tick) fills free capacity with waiting points,
//!   re-runs first, then fresh points in schedule order. The supervisor
//!   never holds more dispatches than the backend has slots, so no point
//!   waits behind a full executor and a heartbeat frozen at zero means a
//!   hung job. A fail-fast [`abort`](Supervisor::abort) drops the fresh
//!   points still waiting. Once the shutdown token trips, nothing is
//!   dispatched: what still waits is left for `--resume`.
//! * **Retries.** A finished attempt whose outcome is transient (a budget
//!   trip, a harness panic) runs again, up to `--retries` extra attempts,
//!   with the identical seed. A stall the triage confirmed as a circular
//!   wait (`confirmed_unsafe`, the checker's validated cycle) never does:
//!   re-running it would only reproduce the deadlock. A stall the triage
//!   blamed on a tight budget (`budget_artifact`) runs again when there
//!   is a cycle budget to raise, and the last attempt of that chain gets
//!   [`RAISED_BUDGET_FACTOR`]× the budget. The supervisor counts the
//!   attempts and names the decision the journal records. Every live
//!   copy of the finished attempt is dropped before its retry waits.
//! * **Lost dispatches.** A worker that crashed, stopped answering or
//!   garbled its responses loses every point it held
//!   ([`PointStatus::Lost`]). Unless a hedge copy is still live, the
//!   point waits again, verbatim, and is re-dispatched as soon as a slot
//!   is free. Results are bit-deterministic in the experiment, so a
//!   re-run never perturbs the journal or the CSV.
//! * **Hung workers.** A worker whose simulation thread is stuck
//!   (livelocked host, SIGSTOP, a chaos stall) keeps answering `pending`
//!   forever. A dispatch's simulation heartbeat
//!   (`PointStatus::Pending { heartbeat }`, reported per job by both
//!   backends) frozen past the point deadline gets the executor written
//!   off ([`WorkerBackend::write_off`]), and the dispatch is lost on the
//!   spot.
//! * **Stragglers.** With `hedge_after` set, the oldest in-flight point
//!   is re-dispatched to capacity the waiting points left spare once it
//!   has been pending that long. First completion wins; the loser is
//!   forgotten ([`WorkerBackend::forget`]) before it reaches the journal.
//! * **Poison points.** Once `quarantine_after` dispatches of a point's
//!   current attempt have been lost (a point that crashes its workers),
//!   the supervisor stops dispatching it and emits a [`QuarantineRecord`]
//!   with the last infrastructure error; the sweep completes without it
//!   and reports a distinct exit code.
//!
//! Deadlines, hedging and quarantine are off by default. Everything
//! decided here is deterministic in the results, so a point journals the
//! same attempts and decision on every backend.
//!
//! [`run_sweep`]: crate::run_sweep

use crate::backend::{BackendError, PointJob, PointStatus, WorkHandle, WorkerBackend};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use wormsim::observe::json_record;
use wormsim::verify::TriageVerdict;
use wormsim::{CancelToken, ExperimentError, RunOutcome, RunResult};

/// Budget multiplier for the final attempt of a `budget_artifact` retry
/// chain: the re-run gets this many times the configured cycle budget, so
/// a stall the triage blamed on a tight budget has real headroom to
/// finish instead of deterministically reproducing itself.
const RAISED_BUDGET_FACTOR: u64 = 4;

/// Retry decision recorded when a stalled point was triaged
/// `confirmed_unsafe`: the stall is a validated circular wait, retrying
/// is deterministic futility, the result journals as-is.
const DECISION_CONFIRMED_UNSAFE: &str = "confirmed_unsafe_no_retry";
/// Retry decision recorded when a `budget_artifact` stall triggered a
/// retry (the final attempt ran with [`RAISED_BUDGET_FACTOR`]× budget).
const DECISION_BUDGET_RETRIED: &str = "budget_artifact_retried";
/// Retry decision recorded when a `budget_artifact` stall could not be
/// retried: either the retry budget was already spent or the experiment
/// has no cycle budget to raise (re-running the identical configuration
/// would reproduce the identical stall).
const DECISION_BUDGET_NO_RETRY: &str = "budget_artifact_not_retried";

/// Knobs for one sweep's supervision. Everything optional; the default
/// only re-dispatches lost points.
#[derive(Clone, Debug, Default)]
pub(crate) struct SupervisePolicy {
    /// Extra attempts for a point whose attempt ended transiently or in a
    /// `budget_artifact` stall (`--retries`).
    pub retries: u32,
    /// The sweep's shutdown token: once it trips, nothing is dispatched,
    /// and a finished attempt is final.
    pub shutdown: CancelToken,
    /// Write a worker off once a dispatch's simulation heartbeat has been
    /// frozen this long. Only applies to backends that report heartbeats;
    /// a backend reporting `None` is never written off on this path.
    pub point_deadline: Option<Duration>,
    /// Hedge the oldest pending point once it has been in flight this
    /// long (at most one hedge per point).
    pub hedge_after: Option<Duration>,
    /// Quarantine a point once this many dispatches of its current
    /// attempt have been lost. `0` disables quarantine.
    pub quarantine_after: u64,
}

/// What the supervisor did during a sweep — surfaced in the run manifest
/// so injected faults are visible, not silently absorbed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SupervisionReport {
    /// Workers written off for a frozen simulation heartbeat.
    pub workers_written_off: u64,
    /// Lost points dispatched again (worker deaths, write-offs, garbling).
    pub points_redispatched: u64,
    /// Points re-dispatched to idle capacity as straggler hedges.
    pub points_hedged: u64,
    /// Hedged duplicate dispatches discarded after another copy won.
    pub duplicates_discarded: u64,
    /// Journaled points per retry decision, for points where the stall
    /// policy engaged.
    pub retry_decisions: BTreeMap<String, u64>,
}

impl SupervisionReport {
    /// Whether anything noteworthy happened.
    pub fn is_empty(&self) -> bool {
        *self == SupervisionReport::default()
    }
}

/// One quarantined point: why the sweep completed without it.
#[derive(Clone, Debug)]
pub struct QuarantineRecord {
    /// Position in the sweep's deterministic schedule.
    pub index: usize,
    /// The point's configuration digest (journal key).
    pub point_hash: String,
    /// Dispatches of its last attempt before quarantine.
    pub dispatches: u64,
    /// The last infrastructure error its dispatches caused.
    pub last_error: String,
}

json_record!(QuarantineRecord {
    index,
    point_hash,
    dispatches,
    last_error,
});

/// A supervised point's outcome, consumed by the sweep loop.
pub(crate) enum Event {
    /// The point finished (possibly after retries, re-dispatch or a
    /// winning hedge).
    Done {
        index: usize,
        result: Result<RunResult, ExperimentError>,
        /// Attempts it took (1 = first try).
        attempts: u64,
        /// What the stall policy decided, when it engaged.
        retry_decision: Option<String>,
    },
    /// The point exhausted its dispatch budget and was written off.
    Quarantined(QuarantineRecord),
}

/// One live copy of a point on the backend.
struct Dispatch {
    handle: WorkHandle,
    /// Last simulation heartbeat observed from this dispatch.
    beat: Option<u64>,
    /// When the heartbeat last advanced (or the dispatch started).
    advanced: Instant,
}

struct Flight {
    /// The job of the current attempt.
    job: PointJob,
    /// The point's live copies: none while it waits for a slot, one, or
    /// two while hedged.
    copies: Vec<Dispatch>,
    /// Dispatches of the current attempt, hedges and re-dispatches
    /// included.
    dispatches: u64,
    /// The attempt the live copies run (1 = first try).
    attempt: u32,
    /// Whether a `budget_artifact` stall started the raised-budget chain.
    budget_retry: bool,
    /// When the point was first dispatched; `None` while it is fresh.
    started: Option<Instant>,
    hedged: bool,
}

/// Where a finished attempt leads.
enum Verdict {
    /// The flight's job now holds the next attempt; it waits for a slot.
    Retry,
    /// The result is final, with the stall policy's decision if it
    /// engaged.
    Final(Option<&'static str>),
}

impl Flight {
    /// The retry policy, applied to the result of the current attempt.
    /// Until shutdown trips, deterministic in the result and the attempt
    /// number alone.
    fn judge(
        &mut self,
        result: &Result<RunResult, ExperimentError>,
        policy: &SupervisePolicy,
    ) -> Verdict {
        let stall = match result {
            Ok(r) if matches!(r.outcome, RunOutcome::Deadlocked | RunOutcome::LiveLocked) => {
                r.triage.as_ref().map(|t| t.verdict)
            }
            _ => None,
        };
        let transient = matches!(result, Ok(r) if r.outcome.is_transient());
        let budget = self.job.experiment.cycle_budget_value();
        // Only a budget-artifact stall with a budget to raise is worth a
        // deterministic re-run; confirmed-unsafe stalls never retry.
        let stall_retryable = stall == Some(TriageVerdict::BudgetArtifact) && budget.is_some();
        let last = policy.retries.saturating_add(1);
        let stopping = policy.shutdown.is_cancelled();
        if (transient || stall_retryable) && self.attempt < last && !stopping {
            self.budget_retry |= stall_retryable;
            self.attempt += 1;
            self.dispatches = 0;
            let mut experiment = self.job.experiment.clone().attempt(self.attempt);
            if self.budget_retry && self.attempt == last {
                experiment =
                    experiment.cycle_budget(budget.map(|b| b.saturating_mul(RAISED_BUDGET_FACTOR)));
            }
            self.job.experiment = experiment;
            return Verdict::Retry;
        }
        Verdict::Final(match stall {
            Some(TriageVerdict::ConfirmedUnsafe) => Some(DECISION_CONFIRMED_UNSAFE),
            Some(TriageVerdict::BudgetArtifact) if self.budget_retry => {
                Some(DECISION_BUDGET_RETRIED)
            }
            Some(TriageVerdict::BudgetArtifact) => Some(DECISION_BUDGET_NO_RETRY),
            None if self.budget_retry => Some(DECISION_BUDGET_RETRIED),
            None => None,
        })
    }

    /// Submits one more copy of the current attempt: the one place a
    /// point reaches the backend.
    fn dispatch(
        &mut self,
        backend: &mut dyn WorkerBackend,
        now: Instant,
    ) -> Result<(), BackendError> {
        let handle = backend.submit(self.job.clone())?;
        self.copies.push(Dispatch {
            handle,
            beat: None,
            advanced: now,
        });
        self.dispatches += 1;
        self.started.get_or_insert(now);
        Ok(())
    }
}

/// Dispatches a sweep's points and applies the [`SupervisePolicy`].
pub(crate) struct Supervisor {
    policy: SupervisePolicy,
    /// Every unresolved point, in schedule order. The ones without a live
    /// copy wait for a slot; those dispatched before (a loss, a retry)
    /// come first, since fresh points are dispatched in order.
    flights: Vec<Flight>,
    pub(crate) report: SupervisionReport,
}

impl Supervisor {
    /// A supervisor that will run `jobs`, in order, as capacity allows.
    pub(crate) fn new(policy: SupervisePolicy, jobs: Vec<PointJob>) -> Supervisor {
        let flights = jobs
            .into_iter()
            .map(|job| Flight {
                job,
                copies: Vec::new(),
                dispatches: 0,
                attempt: 1,
                budget_retry: false,
                started: None,
                hedged: false,
            })
            .collect();
        Supervisor {
            policy,
            flights,
            report: SupervisionReport::default(),
        }
    }

    /// In-flight dispatch count (hedged points count twice): the number
    /// of backend slots this supervisor is occupying.
    fn dispatched(&self) -> usize {
        self.flights.iter().map(|f| f.copies.len()).sum()
    }

    /// Whether nothing is in flight and nothing waiting will be dispatched.
    pub(crate) fn is_idle(&self) -> bool {
        self.dispatched() == 0 && (self.flights.is_empty() || self.policy.shutdown.is_cancelled())
    }

    /// Fail-fast: drops the fresh points still waiting. Points already
    /// dispatched, and any that come back lost or for a retry, still run.
    pub(crate) fn abort(&mut self) {
        self.flights.retain(|flight| flight.started.is_some());
    }

    /// One supervision round: poll every dispatch and decide what its end
    /// (a result, a loss, a frozen heartbeat) leads to, then fill free
    /// capacity with waiting points and hedge the oldest straggler.
    /// Returns the points that resolved this round.
    ///
    /// # Errors
    ///
    /// Only when a waiting point cannot be dispatched because no live
    /// executor remains.
    pub(crate) fn tick(
        &mut self,
        backend: &mut dyn WorkerBackend,
    ) -> Result<Vec<Event>, BackendError> {
        let mut events = Vec::new();
        let now = Instant::now();
        let mut f = 0;
        while f < self.flights.len() {
            let flight = &mut self.flights[f];
            let mut finished = None;
            let mut lost = None;
            let mut d = 0;
            while d < flight.copies.len() {
                let copy = &mut flight.copies[d];
                let cause = match backend.poll(copy.handle) {
                    PointStatus::Done { result } => {
                        finished = Some((d, result));
                        break;
                    }
                    PointStatus::Lost(cause) => cause,
                    PointStatus::Pending { heartbeat } => {
                        if heartbeat.is_some() && heartbeat != copy.beat {
                            copy.beat = heartbeat;
                            copy.advanced = now;
                        }
                        let frozen = matches!(
                            (self.policy.point_deadline, copy.beat),
                            (Some(deadline), Some(_)) if now.duration_since(copy.advanced) > deadline
                        );
                        if !frozen {
                            d += 1;
                            continue;
                        }
                        // The socket answers but the simulation has not
                        // advanced: a hung worker.
                        self.report.workers_written_off += 1;
                        backend.write_off(copy.handle)
                    }
                };
                flight.copies.remove(d);
                lost = Some(cause);
            }
            if let Some((winner, result)) = finished {
                // The other copies ran the same attempt: first completion
                // wins, and a losing copy's (identical) result is
                // discarded before the journal ever sees it.
                for (d, copy) in flight.copies.drain(..).enumerate() {
                    if d != winner {
                        backend.forget(copy.handle);
                        self.report.duplicates_discarded += 1;
                    }
                }
                match flight.judge(&result, &self.policy) {
                    Verdict::Retry => f += 1,
                    Verdict::Final(decision) => {
                        let flight = self.flights.remove(f);
                        let journaled =
                            matches!(&result, Ok(r) if r.outcome != RunOutcome::Interrupted);
                        if let Some(decision) = decision.filter(|_| journaled) {
                            *self
                                .report
                                .retry_decisions
                                .entry(decision.to_owned())
                                .or_insert(0) += 1;
                        }
                        events.push(Event::Done {
                            index: flight.job.index,
                            result,
                            attempts: u64::from(flight.attempt),
                            retry_decision: decision.map(str::to_owned),
                        });
                    }
                }
                continue;
            }
            // A lost copy whose hedge is still live is simply dropped.
            if let Some(cause) = lost.filter(|_| flight.copies.is_empty()) {
                let budget = self.policy.quarantine_after;
                if budget > 0 && flight.dispatches >= budget {
                    let flight = self.flights.remove(f);
                    events.push(Event::Quarantined(QuarantineRecord {
                        index: flight.job.index,
                        point_hash: flight.job.point_hash,
                        dispatches: flight.dispatches,
                        last_error: cause.to_string(),
                    }));
                    continue;
                }
                if !self.policy.shutdown.is_cancelled() {
                    eprintln!(
                        "re-dispatching point {} (lost on {}: {})",
                        flight.job.index, cause.worker, cause.message
                    );
                }
            }
            f += 1;
        }
        if !self.policy.shutdown.is_cancelled() {
            self.fill(backend, now)?;
            self.maybe_hedge(backend, now);
        }
        Ok(events)
    }

    /// Dispatches waiting points, in order, while the backend has a free
    /// slot: the sweep's one capacity check.
    fn fill(&mut self, backend: &mut dyn WorkerBackend, now: Instant) -> Result<(), BackendError> {
        let held = self.dispatched();
        let waiting = self.flights.iter_mut().filter(|f| f.copies.is_empty());
        for (held, flight) in (held..).zip(waiting) {
            if held >= backend.capacity().max(1) {
                break;
            }
            let lost = flight.dispatches > 0;
            match flight.dispatch(backend, now) {
                Ok(()) => self.report.points_redispatched += u64::from(lost),
                // The executor the check counted died under this very
                // submit and the rest are full: the point waits for a slot.
                Err(_) if backend.capacity() > 0 => break,
                Err(cause) => return Err(cause),
            }
        }
        Ok(())
    }

    /// Re-dispatches the oldest straggler to capacity the waiting points
    /// left spare, at most one hedge per point per sweep. A failed submit
    /// means that capacity died with a worker; the original copy is still
    /// live, so it is no error.
    fn maybe_hedge(&mut self, backend: &mut dyn WorkerBackend, now: Instant) {
        let Some(hedge_after) = self.policy.hedge_after else {
            return;
        };
        let spare = backend.capacity() > self.dispatched();
        let straggler = self
            .flights
            .iter_mut()
            .filter(|flight| spare && !flight.hedged && !flight.copies.is_empty())
            .min_by_key(|flight| flight.started)
            .filter(|flight| {
                flight
                    .started
                    .is_some_and(|at| now.duration_since(at) > hedge_after)
            });
        if let Some(flight) = straggler {
            if flight.dispatch(backend, now).is_ok() {
                flight.hedged = true;
                self.report.points_hedged += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use wormsim::topology::Topology;
    use wormsim::verify::TriageReport;
    use wormsim::{AlgorithmKind, Experiment};

    /// A scriptable backend: each job is resolved by poking the mock, so
    /// the tests control completion order, losses and heartbeats exactly.
    #[derive(Default)]
    struct MockBackend {
        next: u64,
        capacity: usize,
        submitted: Vec<u64>,
        /// The job of every submit, in order.
        jobs: Vec<PointJob>,
        /// Scripted `Done` or `Lost` statuses, consumed by the next poll.
        resolved: HashMap<u64, PointStatus>,
        beats: HashMap<u64, u64>,
        written_off: Vec<u64>,
        forgotten: Vec<u64>,
    }

    impl WorkerBackend for MockBackend {
        fn submit(&mut self, job: PointJob) -> Result<WorkHandle, BackendError> {
            let id = self.next;
            self.next += 1;
            self.submitted.push(id);
            self.jobs.push(job);
            Ok(WorkHandle(id))
        }
        fn poll(&mut self, handle: WorkHandle) -> PointStatus {
            self.resolved
                .remove(&handle.0)
                .unwrap_or(PointStatus::Pending {
                    heartbeat: self.beats.get(&handle.0).copied(),
                })
        }
        fn capacity(&self) -> usize {
            self.capacity
        }
        fn cancel(&mut self) {}
        fn write_off(&mut self, handle: WorkHandle) -> BackendError {
            self.written_off.push(handle.0);
            BackendError {
                worker: "hung".to_owned(),
                message: "heartbeat frozen".to_owned(),
            }
        }
        fn forget(&mut self, handle: WorkHandle) {
            self.forgotten.push(handle.0);
        }
    }

    impl MockBackend {
        fn with_capacity(capacity: usize) -> MockBackend {
            MockBackend {
                capacity,
                ..MockBackend::default()
            }
        }

        fn lose(&mut self, handle: u64, worker: &str) {
            let cause = BackendError {
                worker: worker.to_owned(),
                message: "connection refused".to_owned(),
            };
            self.resolved.insert(handle, PointStatus::Lost(cause));
        }

        fn finish(&mut self, handle: u64) {
            self.finish_with(handle, result());
        }

        fn finish_with(&mut self, handle: u64, result: RunResult) {
            let done = PointStatus::Done { result: Ok(result) };
            self.resolved.insert(handle, done);
        }

        /// The cycle budget each submit carried, in order.
        fn budgets(&self) -> Vec<Option<u64>> {
            self.jobs
                .iter()
                .map(|job| job.experiment.cycle_budget_value())
                .collect()
        }
    }

    fn job(index: usize) -> PointJob {
        let experiment = Experiment::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube)
            .offered_load(0.05)
            .quick()
            .seed(index as u64 + 1);
        PointJob {
            point_hash: experiment.point_hash(),
            experiment,
            index,
            inject_panic: false,
        }
    }

    fn result() -> RunResult {
        Experiment::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube)
            .offered_load(0.05)
            .quick()
            .run()
            .expect("tiny run")
    }

    fn budget_tripped() -> RunResult {
        RunResult {
            outcome: RunOutcome::BudgetExceeded,
            ..result()
        }
    }

    fn stalled(verdict: TriageVerdict) -> RunResult {
        RunResult {
            outcome: RunOutcome::Deadlocked,
            triage: Some(TriageReport {
                verdict,
                edges: 0,
                cycle_messages: Vec::new(),
                cycle_channels: Vec::new(),
            }),
            ..result()
        }
    }

    /// A point with a 1000-cycle budget for the stall policy to raise.
    fn budgeted_job(index: usize) -> PointJob {
        let mut job = job(index);
        job.experiment = job.experiment.cycle_budget(Some(1_000));
        job
    }

    fn retrying(retries: u32) -> SupervisePolicy {
        SupervisePolicy {
            retries,
            ..SupervisePolicy::default()
        }
    }

    /// A supervisor over `jobs` whose first tick dispatched them.
    fn start(
        policy: SupervisePolicy,
        backend: &mut MockBackend,
        jobs: Vec<PointJob>,
    ) -> Supervisor {
        let mut supervisor = Supervisor::new(policy, jobs);
        assert!(supervisor.tick(backend).unwrap().is_empty());
        supervisor
    }

    /// The one `Done` event of `events`: (index, attempts, decision).
    fn done(events: &[Event]) -> (usize, u64, Option<&str>) {
        let [Event::Done {
            index,
            attempts,
            retry_decision,
            ..
        }] = events
        else {
            panic!("expected exactly one completion");
        };
        (*index, *attempts, retry_decision.as_deref())
    }

    fn quarantine_after(budget: u64) -> SupervisePolicy {
        SupervisePolicy {
            quarantine_after: budget,
            ..SupervisePolicy::default()
        }
    }

    #[test]
    fn lost_point_is_redispatched_exactly_once() {
        let mut backend = MockBackend::with_capacity(2);
        let mut supervisor = start(SupervisePolicy::default(), &mut backend, vec![job(0)]);
        backend.lose(0, "a");
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        assert_eq!(backend.submitted, vec![0, 1], "one re-dispatch, same tick");
        assert_eq!(supervisor.flights[0].dispatches, 2);
        assert_eq!(supervisor.dispatched(), 1);
        assert_eq!(supervisor.report.points_redispatched, 1);
        // The re-dispatch is live: no further submit while it is pending.
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        assert_eq!(backend.submitted, vec![0, 1]);
        backend.finish(1);
        let events = supervisor.tick(&mut backend).unwrap();
        let [Event::Done { index: 0, .. }] = events.as_slice() else {
            panic!("expected point 0 to finish on its second dispatch");
        };
        assert!(supervisor.is_idle());
    }

    #[test]
    fn quarantine_trips_once_the_budget_of_lost_dispatches_is_spent() {
        let mut backend = MockBackend::with_capacity(4);
        let mut supervisor = start(quarantine_after(3), &mut backend, vec![job(0)]);
        // Under the budget: re-dispatched each time.
        for (handle, worker) in [(0, "a"), (1, "b")] {
            backend.lose(handle, worker);
            assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        }
        assert_eq!(backend.submitted, vec![0, 1, 2]);
        // The third loss spends the budget: quarantined, not re-dispatched.
        backend.lose(2, "c");
        let events = supervisor.tick(&mut backend).unwrap();
        let [Event::Quarantined(record)] = events.as_slice() else {
            panic!("expected exactly one quarantine event");
        };
        assert_eq!(record.index, 0);
        assert_eq!(record.dispatches, 3);
        assert_eq!(record.last_error, "worker c: connection refused");
        assert_eq!(
            backend.submitted,
            vec![0, 1, 2],
            "no dispatch past the budget"
        );
        assert_eq!(supervisor.report.points_redispatched, 2);
        assert!(supervisor.is_idle());
    }

    #[test]
    fn quarantine_after_one_fires_on_the_first_loss() {
        let mut backend = MockBackend::with_capacity(2);
        let mut supervisor = start(quarantine_after(1), &mut backend, vec![job(0)]);
        backend.lose(0, "a");
        let events = supervisor.tick(&mut backend).unwrap();
        let [Event::Quarantined(record)] = events.as_slice() else {
            panic!("expected exactly one quarantine event");
        };
        assert_eq!(record.dispatches, 1, "only the dispatch actually made");
        assert_eq!(backend.submitted, vec![0], "no second worker is burned");
        assert_eq!(supervisor.report.points_redispatched, 0);
        assert!(supervisor.is_idle());
    }

    #[test]
    fn quarantine_disabled_never_trips() {
        let mut backend = MockBackend::with_capacity(4);
        let mut supervisor = start(quarantine_after(0), &mut backend, vec![job(0)]);
        for handle in 0..10 {
            backend.lose(handle, "carnage");
            assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        }
        assert_eq!(supervisor.dispatched(), 1);
        assert_eq!(supervisor.flights[0].dispatches, 11);
    }

    #[test]
    fn lost_copy_of_a_hedged_point_is_not_redispatched() {
        let mut backend = MockBackend::with_capacity(2);
        let policy = SupervisePolicy {
            hedge_after: Some(Duration::from_millis(0)),
            quarantine_after: 1,
            ..SupervisePolicy::default()
        };
        let mut supervisor = start(policy, &mut backend, vec![job(0)]);
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        assert_eq!(backend.submitted, vec![0, 1], "hedged into the spare slot");
        // The original dies; the hedge is still live, so the loss neither
        // re-dispatches nor quarantines the point.
        backend.lose(0, "a");
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        assert_eq!(backend.submitted, vec![0, 1]);
        assert_eq!(supervisor.dispatched(), 1);
        assert_eq!(supervisor.report.points_redispatched, 0);
        backend.finish(1);
        let events = supervisor.tick(&mut backend).unwrap();
        let [Event::Done { index: 0, .. }] = events.as_slice() else {
            panic!("expected the hedge to finish the point");
        };
        assert!(backend.forgotten.is_empty(), "no losing copy left to drop");
    }

    #[test]
    fn hedged_duplicate_is_discarded_when_the_original_wins() {
        let mut backend = MockBackend::with_capacity(2);
        let policy = SupervisePolicy {
            hedge_after: Some(Duration::from_millis(0)),
            ..SupervisePolicy::default()
        };
        let mut supervisor = start(policy, &mut backend, vec![job(0)]);
        // The point is instantly a straggler; a tick hedges it into the
        // spare slot.
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        assert_eq!(backend.submitted, vec![0, 1]);
        assert_eq!(supervisor.dispatched(), 2);
        assert_eq!(supervisor.report.points_hedged, 1);
        // No third copy: one hedge per point.
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        assert_eq!(backend.submitted, vec![0, 1]);
        // The original finishes first; the hedge must be forgotten, and
        // exactly one Done event reaches the journal.
        backend.finish(0);
        backend.finish(1);
        let events = supervisor.tick(&mut backend).unwrap();
        let [Event::Done { index, .. }] = events.as_slice() else {
            panic!("expected exactly one completion");
        };
        assert_eq!(*index, 0);
        assert_eq!(backend.forgotten, vec![1], "the losing copy is discarded");
        assert_eq!(supervisor.report.duplicates_discarded, 1);
        assert!(supervisor.is_idle());
    }

    #[test]
    fn hedging_needs_spare_capacity() {
        let mut backend = MockBackend::with_capacity(1);
        let policy = SupervisePolicy {
            hedge_after: Some(Duration::from_millis(0)),
            ..SupervisePolicy::default()
        };
        let mut supervisor = start(policy, &mut backend, vec![job(0)]);
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        assert_eq!(backend.submitted, vec![0], "no idle slot, no hedge");
        assert_eq!(supervisor.report.points_hedged, 0);
    }

    #[test]
    fn frozen_heartbeat_writes_the_worker_off_and_redispatches_in_the_same_tick() {
        let mut backend = MockBackend::with_capacity(2);
        let policy = SupervisePolicy {
            point_deadline: Some(Duration::from_millis(0)),
            ..SupervisePolicy::default()
        };
        let mut supervisor = start(policy, &mut backend, vec![job(0)]);
        // No heartbeat reported yet: the deadline must not fire (a
        // backend that cannot distinguish hung from slow stays silent).
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        assert!(backend.written_off.is_empty());
        // A reported heartbeat that then freezes: first tick records it,
        // the next one (past the zero deadline) writes the worker off and
        // dispatches the point again at once.
        backend.beats.insert(0, 7);
        supervisor.tick(&mut backend).unwrap();
        assert!(backend.written_off.is_empty(), "first observation arms it");
        std::thread::sleep(Duration::from_millis(2));
        supervisor.tick(&mut backend).unwrap();
        assert_eq!(backend.written_off, vec![0]);
        assert_eq!(supervisor.report.workers_written_off, 1);
        assert_eq!(
            backend.submitted,
            vec![0, 1],
            "re-dispatched in the same tick"
        );
        assert_eq!(supervisor.report.points_redispatched, 1);
        assert_eq!(supervisor.dispatched(), 1);
        // The fresh dispatch is judged on its own heartbeat, and progress
        // keeps the deadline from firing.
        backend.beats.insert(1, 1);
        supervisor.tick(&mut backend).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        backend.beats.insert(1, 2);
        supervisor.tick(&mut backend).unwrap();
        assert_eq!(backend.written_off, vec![0]);
    }

    #[test]
    fn a_transient_result_is_retried_until_the_attempts_run_out() {
        let mut backend = MockBackend::with_capacity(1);
        let mut supervisor = start(retrying(2), &mut backend, vec![budgeted_job(0)]);
        for handle in [0, 1] {
            backend.finish_with(handle, budget_tripped());
            assert!(supervisor.tick(&mut backend).unwrap().is_empty());
            assert_eq!(supervisor.dispatched(), 1, "the retry replaces the attempt");
        }
        assert_eq!(backend.submitted, vec![0, 1, 2]);
        assert_eq!(
            backend.budgets(),
            vec![Some(1_000); 3],
            "a transient retry reruns the identical configuration"
        );
        backend.finish_with(2, budget_tripped());
        let events = supervisor.tick(&mut backend).unwrap();
        assert_eq!(done(&events), (0, 3, None), "1 try + 2 retries");
        assert!(
            supervisor.report.is_empty(),
            "retries are neither re-dispatches of lost points nor decisions"
        );
        assert!(supervisor.is_idle());
    }

    #[test]
    fn a_confirmed_unsafe_stall_is_never_redispatched() {
        let mut backend = MockBackend::with_capacity(1);
        let mut supervisor = start(retrying(3), &mut backend, vec![budgeted_job(0)]);
        backend.finish_with(0, stalled(TriageVerdict::ConfirmedUnsafe));
        let events = supervisor.tick(&mut backend).unwrap();
        assert_eq!(done(&events), (0, 1, Some(DECISION_CONFIRMED_UNSAFE)));
        assert_eq!(backend.submitted, vec![0]);
        assert_eq!(
            supervisor.report.retry_decisions,
            BTreeMap::from([(DECISION_CONFIRMED_UNSAFE.to_owned(), 1)])
        );
    }

    #[test]
    fn a_budget_artifact_stall_reruns_with_the_raised_budget_last() {
        let mut backend = MockBackend::with_capacity(1);
        let mut supervisor = start(retrying(2), &mut backend, vec![budgeted_job(0)]);
        for handle in [0, 1] {
            backend.finish_with(handle, stalled(TriageVerdict::BudgetArtifact));
            assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        }
        assert_eq!(
            backend.budgets(),
            vec![Some(1_000), Some(1_000), Some(1_000 * RAISED_BUDGET_FACTOR)]
        );
        backend.finish(2);
        let events = supervisor.tick(&mut backend).unwrap();
        assert_eq!(done(&events), (0, 3, Some(DECISION_BUDGET_RETRIED)));

        // No budget to raise: re-running would reproduce the stall.
        let mut unbudgeted = MockBackend::with_capacity(1);
        let mut supervisor = start(retrying(2), &mut unbudgeted, vec![job(1)]);
        unbudgeted.finish_with(0, stalled(TriageVerdict::BudgetArtifact));
        let events = supervisor.tick(&mut unbudgeted).unwrap();
        assert_eq!(done(&events), (1, 1, Some(DECISION_BUDGET_NO_RETRY)));
        assert_eq!(unbudgeted.submitted, vec![0]);
    }

    #[test]
    fn retries_do_not_spend_the_quarantine_budget() {
        let mut backend = MockBackend::with_capacity(1);
        let policy = SupervisePolicy {
            retries: 1,
            quarantine_after: 2,
            ..SupervisePolicy::default()
        };
        let mut supervisor = start(policy, &mut backend, vec![job(0)]);
        backend.lose(0, "a");
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        backend.finish_with(1, budget_tripped());
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        // Three dispatches so far, but only one loss of this attempt.
        backend.lose(2, "b");
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        assert_eq!(backend.submitted, vec![0, 1, 2, 3]);
        backend.finish(3);
        let events = supervisor.tick(&mut backend).unwrap();
        assert_eq!(done(&events), (0, 2, None));
        assert_eq!(supervisor.report.points_redispatched, 2);
    }

    #[test]
    fn a_retry_replaces_every_live_hedge_copy() {
        let mut backend = MockBackend::with_capacity(2);
        let policy = SupervisePolicy {
            retries: 1,
            hedge_after: Some(Duration::from_millis(0)),
            ..SupervisePolicy::default()
        };
        let mut supervisor = start(policy, &mut backend, vec![job(0)]);
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        assert_eq!(backend.submitted, vec![0, 1], "hedged into the spare slot");
        // The original's attempt trips its budget while the hedge of the
        // same attempt still runs: the hedge could only reproduce it.
        backend.finish_with(0, budget_tripped());
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        assert_eq!(backend.forgotten, vec![1]);
        assert_eq!(backend.submitted, vec![0, 1, 2]);
        assert_eq!(supervisor.dispatched(), 1);
        assert_eq!(supervisor.report.duplicates_discarded, 1);
        // One hedge per point: the retry is not hedged again.
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        assert_eq!(backend.submitted, vec![0, 1, 2]);
        backend.finish(2);
        let events = supervisor.tick(&mut backend).unwrap();
        assert_eq!(done(&events), (0, 2, None));
    }

    #[test]
    fn nothing_is_retried_after_shutdown_trips() {
        let mut backend = MockBackend::with_capacity(1);
        let shutdown = CancelToken::new();
        let policy = SupervisePolicy {
            retries: 3,
            shutdown: shutdown.clone(),
            ..SupervisePolicy::default()
        };
        let mut supervisor = start(policy, &mut backend, vec![budgeted_job(0)]);
        shutdown.cancel();
        backend.finish_with(0, budget_tripped());
        let events = supervisor.tick(&mut backend).unwrap();
        assert_eq!(done(&events), (0, 1, None));
        assert_eq!(backend.submitted, vec![0]);
    }

    #[test]
    fn a_dispatch_lost_mid_chain_resumes_at_the_same_attempt() {
        let mut backend = MockBackend::with_capacity(1);
        let mut supervisor = start(retrying(1), &mut backend, vec![budgeted_job(0)]);
        backend.finish_with(0, stalled(TriageVerdict::BudgetArtifact));
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        // The last attempt's dispatch is lost: its re-dispatch is the same
        // attempt, raised budget included, and counts no extra attempt.
        backend.lose(1, "a");
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        let raised = Some(1_000 * RAISED_BUDGET_FACTOR);
        assert_eq!(backend.budgets(), vec![Some(1_000), raised, raised]);
        assert_eq!(supervisor.report.points_redispatched, 1);
        backend.finish(2);
        let events = supervisor.tick(&mut backend).unwrap();
        assert_eq!(done(&events), (0, 2, Some(DECISION_BUDGET_RETRIED)));
    }

    #[test]
    fn a_lost_point_waits_for_a_free_slot() {
        let mut backend = MockBackend::with_capacity(2);
        let mut supervisor = start(
            SupervisePolicy::default(),
            &mut backend,
            vec![job(0), job(1)],
        );
        assert_eq!(backend.submitted, vec![0, 1]);
        // Point 0's worker dies and takes its slot with it: the survivor is
        // busy with point 1, so point 0 waits instead of queueing there.
        backend.lose(0, "a");
        backend.capacity = 1;
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        assert_eq!(backend.submitted, vec![0, 1], "no slot, no dispatch");
        assert_eq!(supervisor.dispatched(), 1);
        assert_eq!(supervisor.report.points_redispatched, 0);
        assert!(!supervisor.is_idle());
        // Point 1 frees the slot, and point 0 takes it in the same tick.
        backend.finish(1);
        let events = supervisor.tick(&mut backend).unwrap();
        assert_eq!(done(&events), (1, 1, None));
        assert_eq!(backend.submitted, vec![0, 1, 2]);
        assert_eq!(backend.jobs[2].index, 0);
        assert_eq!(supervisor.report.points_redispatched, 1);
        backend.finish(2);
        let events = supervisor.tick(&mut backend).unwrap();
        assert_eq!(done(&events), (0, 1, None));
        assert!(supervisor.is_idle());
    }

    #[test]
    fn nothing_is_dispatched_after_shutdown_trips() {
        let mut backend = MockBackend::with_capacity(2);
        let shutdown = CancelToken::new();
        let mut supervisor = start(
            SupervisePolicy {
                shutdown: shutdown.clone(),
                ..SupervisePolicy::default()
            },
            &mut backend,
            vec![job(0), job(1), job(2)],
        );
        assert_eq!(backend.submitted, vec![0, 1]);
        shutdown.cancel();
        // The lost point is left for a resume, and so is the fresh one.
        backend.lose(0, "a");
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        assert_eq!(backend.submitted, vec![0, 1]);
        assert_eq!(supervisor.report.points_redispatched, 0);
        assert!(!supervisor.is_idle(), "point 1 is still in flight");
        backend.finish(1);
        let events = supervisor.tick(&mut backend).unwrap();
        assert_eq!(done(&events), (1, 1, None));
        assert_eq!(backend.submitted, vec![0, 1]);
        assert!(supervisor.is_idle());
    }

    #[test]
    fn abort_drops_fresh_points_but_still_reruns_lost_ones() {
        let mut backend = MockBackend::with_capacity(1);
        let mut supervisor = start(
            SupervisePolicy::default(),
            &mut backend,
            vec![job(0), job(1)],
        );
        supervisor.abort();
        backend.lose(0, "a");
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        assert_eq!(backend.submitted, vec![0, 1]);
        assert_eq!(
            backend.jobs[1].index, 0,
            "the lost point, not the fresh one"
        );
        backend.finish(1);
        let events = supervisor.tick(&mut backend).unwrap();
        assert_eq!(done(&events), (0, 1, None));
        assert!(supervisor.is_idle(), "point 1 was dropped");
    }
}
