//! Sweep supervision: re-dispatch, deadlines, hedging, and poison-point
//! quarantine on top of any [`WorkerBackend`].
//!
//! The backend is a transport: it runs a dispatch and reports it `Done`
//! or `Lost`. Every decision about what to run again is made here, once:
//!
//! * **Lost dispatches.** A worker that crashed, stopped answering or
//!   garbled its responses loses every point it held
//!   ([`PointStatus::Lost`]). If another copy of the point is still live
//!   (a hedge), the lost copy is simply dropped; otherwise the point is
//!   re-dispatched in the same tick, verbatim. Results are
//!   bit-deterministic in the experiment, so a re-run produces the bytes
//!   the lost worker would have — re-dispatch never perturbs the journal
//!   or the CSV.
//! * **Hung workers.** A worker whose simulation thread is stuck
//!   (livelocked host, SIGSTOP, a chaos stall) keeps answering `pending`
//!   forever. The supervisor watches each dispatch's simulation
//!   heartbeat (`PointStatus::Pending { heartbeat }`); a heartbeat frozen
//!   past the point deadline gets the worker written off
//!   ([`WorkerBackend::write_off`]), and the dispatch is lost on the spot.
//! * **Stragglers.** With `hedge_after` set, the oldest in-flight point
//!   is re-dispatched to spare capacity once it has been pending that
//!   long. First completion wins; the loser is forgotten
//!   ([`WorkerBackend::forget`]) before it can reach the journal, so
//!   hedging never perturbs the journal bytes (results are
//!   bit-deterministic in the experiment anyway — the hedge only buys
//!   wall-clock).
//! * **Poison points.** A point that keeps *killing* its workers (crash
//!   on submit, OOM) would otherwise chew through the whole pool. Once
//!   `quarantine_after` of a point's dispatches have been lost, the
//!   supervisor stops dispatching it and emits a [`QuarantineRecord`]
//!   with the last infrastructure error; the sweep completes without it
//!   and reports a distinct exit code.
//!
//! The supervisor owns the set of in-flight points; [`run_sweep`] feeds
//! it jobs and consumes [`Event`]s. Deadlines, hedging and quarantine are
//! off by default — such a sweep only re-dispatches lost points.
//!
//! [`run_sweep`]: crate::run_sweep

use crate::backend::{BackendError, PointJob, PointStatus, WorkHandle, WorkerBackend};
use std::time::{Duration, Instant};
use wormsim::observe::json_record;
use wormsim::{ExperimentError, RunResult};

/// Knobs for one sweep's supervision. Everything optional; the default
/// only re-dispatches lost points.
#[derive(Clone, Debug, Default)]
pub(crate) struct SupervisePolicy {
    /// Write a worker off once a dispatch's simulation heartbeat has been
    /// frozen this long. Only applies to backends that report heartbeats;
    /// a backend reporting `None` is never written off on this path.
    pub point_deadline: Option<Duration>,
    /// Re-dispatch the oldest pending point to idle capacity once it has
    /// been in flight this long (at most one hedge per point).
    pub hedge_after: Option<Duration>,
    /// Quarantine a point once this many of its dispatches have been
    /// lost. `0` disables quarantine.
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
    /// Dispatches the point burned before quarantine.
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
    /// The point finished (possibly after re-dispatch or a winning hedge).
    Done {
        index: usize,
        result: Result<RunResult, ExperimentError>,
        attempts: u64,
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

impl Dispatch {
    fn new(handle: WorkHandle, now: Instant) -> Dispatch {
        Dispatch {
            handle,
            beat: None,
            advanced: now,
        }
    }
}

struct Flight {
    job: PointJob,
    /// The point's live copies: one, or two while hedged.
    copies: Vec<Dispatch>,
    /// Dispatches made so far, hedges and re-dispatches included.
    dispatches: u64,
    started: Instant,
    hedged: bool,
}

/// Tracks every in-flight point and applies the [`SupervisePolicy`].
pub(crate) struct Supervisor {
    policy: SupervisePolicy,
    flights: Vec<Flight>,
    pub(crate) report: SupervisionReport,
}

impl Supervisor {
    pub(crate) fn new(policy: SupervisePolicy) -> Supervisor {
        Supervisor {
            policy,
            flights: Vec::new(),
            report: SupervisionReport::default(),
        }
    }

    /// In-flight dispatch count (hedged points count twice): the number
    /// of backend slots this supervisor is occupying.
    pub(crate) fn dispatched(&self) -> usize {
        self.flights.iter().map(|f| f.copies.len()).sum()
    }

    /// Whether any point is still in flight.
    pub(crate) fn is_idle(&self) -> bool {
        self.flights.is_empty()
    }

    /// Dispatches a fresh point.
    pub(crate) fn submit(
        &mut self,
        backend: &mut dyn WorkerBackend,
        job: PointJob,
    ) -> Result<(), BackendError> {
        let now = Instant::now();
        let handle = backend.submit(job.clone())?;
        self.flights.push(Flight {
            job,
            copies: vec![Dispatch::new(handle, now)],
            dispatches: 1,
            started: now,
            hedged: false,
        });
        Ok(())
    }

    /// One supervision round: poll every dispatch, write off frozen
    /// heartbeats, re-dispatch or quarantine lost points, and hedge the
    /// oldest straggler. Returns the points that resolved this round.
    ///
    /// # Errors
    ///
    /// Only when a lost point cannot be re-dispatched because no live
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
                    PointStatus::Done {
                        result,
                        attempts,
                        retry_decision,
                    } => {
                        finished = Some((d, result, attempts, retry_decision));
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
            if let Some((winner, result, attempts, retry_decision)) = finished {
                let flight = self.flights.swap_remove(f);
                for (d, copy) in flight.copies.iter().enumerate() {
                    if d != winner {
                        // First completion wins: the losing copy's
                        // (identical) result is discarded before the
                        // journal ever sees it.
                        backend.forget(copy.handle);
                        self.report.duplicates_discarded += 1;
                    }
                }
                events.push(Event::Done {
                    index: flight.job.index,
                    result,
                    attempts,
                    retry_decision,
                });
                continue;
            }
            // A lost copy whose hedge is still live is simply dropped.
            if let Some(cause) = lost.filter(|_| flight.copies.is_empty()) {
                let budget = self.policy.quarantine_after;
                if budget > 0 && flight.dispatches >= budget {
                    let flight = self.flights.swap_remove(f);
                    events.push(Event::Quarantined(QuarantineRecord {
                        index: flight.job.index,
                        point_hash: flight.job.point_hash,
                        dispatches: flight.dispatches,
                        last_error: cause.to_string(),
                    }));
                    continue;
                }
                eprintln!(
                    "re-dispatching point {} (lost on {}: {})",
                    flight.job.index, cause.worker, cause.message
                );
                let handle = backend.submit(flight.job.clone())?;
                flight.copies.push(Dispatch::new(handle, now));
                flight.dispatches += 1;
                self.report.points_redispatched += 1;
            }
            f += 1;
        }
        self.maybe_hedge(backend, now);
        Ok(events)
    }

    /// Re-dispatches the oldest straggler to idle capacity, at most one
    /// hedge per point per sweep.
    fn maybe_hedge(&mut self, backend: &mut dyn WorkerBackend, now: Instant) {
        let Some(hedge_after) = self.policy.hedge_after else {
            return;
        };
        if backend.capacity() <= self.dispatched() {
            return;
        }
        let Some(flight) = self
            .flights
            .iter_mut()
            .filter(|flight| !flight.hedged)
            .min_by_key(|flight| flight.started)
        else {
            return;
        };
        if now.duration_since(flight.started) <= hedge_after {
            return;
        }
        // A submit failure here means the spare capacity evaporated
        // between the check and the dispatch (a worker died). The original
        // dispatch is still live, so a failed hedge is not an error.
        if let Ok(handle) = backend.submit(flight.job.clone()) {
            flight.hedged = true;
            flight.copies.push(Dispatch::new(handle, now));
            flight.dispatches += 1;
            self.report.points_hedged += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use wormsim::topology::Topology;
    use wormsim::{AlgorithmKind, Experiment};

    /// A scriptable backend: each job is resolved by poking the mock, so
    /// the tests control completion order, losses and heartbeats exactly.
    #[derive(Default)]
    struct MockBackend {
        next: u64,
        capacity: usize,
        submitted: Vec<u64>,
        /// Scripted `Done` or `Lost` statuses, consumed by the next poll.
        resolved: HashMap<u64, PointStatus>,
        beats: HashMap<u64, u64>,
        written_off: Vec<u64>,
        forgotten: Vec<u64>,
    }

    impl WorkerBackend for MockBackend {
        fn submit(&mut self, _job: PointJob) -> Result<WorkHandle, BackendError> {
            let id = self.next;
            self.next += 1;
            self.submitted.push(id);
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
            let done = PointStatus::Done {
                result: Ok(result()),
                attempts: 1,
                retry_decision: None,
            };
            self.resolved.insert(handle, done);
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
            retries: 0,
            inject_panic: false,
            resumed_from: None,
        }
    }

    fn result() -> RunResult {
        Experiment::new(Topology::torus(&[4, 4]), AlgorithmKind::Ecube)
            .offered_load(0.05)
            .quick()
            .run()
            .expect("tiny run")
    }

    fn quarantine_after(budget: u64) -> Supervisor {
        Supervisor::new(SupervisePolicy {
            quarantine_after: budget,
            ..SupervisePolicy::default()
        })
    }

    #[test]
    fn lost_point_is_redispatched_exactly_once() {
        let mut backend = MockBackend::with_capacity(2);
        let mut supervisor = Supervisor::new(SupervisePolicy::default());
        supervisor.submit(&mut backend, job(0)).unwrap();
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
        let mut supervisor = quarantine_after(3);
        supervisor.submit(&mut backend, job(0)).unwrap();
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
        let mut supervisor = quarantine_after(1);
        supervisor.submit(&mut backend, job(0)).unwrap();
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
        let mut supervisor = quarantine_after(0);
        supervisor.submit(&mut backend, job(0)).unwrap();
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
        let mut supervisor = Supervisor::new(SupervisePolicy {
            hedge_after: Some(Duration::from_millis(0)),
            quarantine_after: 1,
            ..SupervisePolicy::default()
        });
        supervisor.submit(&mut backend, job(0)).unwrap();
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
        let mut supervisor = Supervisor::new(SupervisePolicy {
            hedge_after: Some(Duration::from_millis(0)),
            ..SupervisePolicy::default()
        });
        supervisor.submit(&mut backend, job(0)).unwrap();
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
        let mut supervisor = Supervisor::new(SupervisePolicy {
            hedge_after: Some(Duration::from_millis(0)),
            ..SupervisePolicy::default()
        });
        supervisor.submit(&mut backend, job(0)).unwrap();
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        assert_eq!(backend.submitted, vec![0], "no idle slot, no hedge");
        assert_eq!(supervisor.report.points_hedged, 0);
    }

    #[test]
    fn frozen_heartbeat_writes_the_worker_off_and_redispatches_in_the_same_tick() {
        let mut backend = MockBackend::with_capacity(2);
        let mut supervisor = Supervisor::new(SupervisePolicy {
            point_deadline: Some(Duration::from_millis(0)),
            ..SupervisePolicy::default()
        });
        supervisor.submit(&mut backend, job(0)).unwrap();
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
}
