//! Sweep supervision: deadlines, hedging, and poison-point quarantine on
//! top of any [`WorkerBackend`].
//!
//! The backend trait answers "is this point done yet?"; the supervisor
//! answers the uglier operational questions a long distributed sweep
//! actually hits:
//!
//! * **Hung workers.** A dead socket already fails over, but a worker
//!   whose simulation thread is stuck (livelocked host, SIGSTOP, a chaos
//!   stall) keeps answering `pending` forever. The supervisor watches each
//!   dispatch's simulation heartbeat ([`WorkerBackend::heartbeat`]); a
//!   heartbeat frozen past the point deadline gets the worker written off
//!   ([`WorkerBackend::write_off`]), which routes the point through the
//!   backend's normal failover re-dispatch.
//! * **Stragglers.** With `hedge_after` set, the oldest in-flight point
//!   is re-dispatched to spare capacity once it has been pending that
//!   long. First completion wins; the loser is forgotten
//!   ([`WorkerBackend::forget`]) before it can reach the committer, so
//!   hedging never perturbs the journal bytes (results are
//!   bit-deterministic in the experiment anyway — the hedge only buys
//!   wall-clock).
//! * **Poison points.** A point that keeps *killing* its workers (crash
//!   on submit, OOM) would otherwise chew through the whole pool. Once a
//!   point's dispatch count ([`WorkerBackend::dispatch_history`]) exceeds
//!   `quarantine_after`, the supervisor stops re-dispatching it and emits
//!   a [`QuarantineRecord`] with the last infrastructure error; the sweep
//!   completes without it and reports a distinct exit code.
//!
//! The supervisor owns the set of in-flight points; [`run_sweep`] feeds
//! it jobs and consumes [`Event`]s. All policy is off by default — a
//! sweep with no deadline, no hedging, and quarantine disabled behaves
//! exactly like the pre-supervisor orchestrator.
//!
//! [`run_sweep`]: crate::run_sweep

use crate::backend::{BackendError, PointJob, PointStatus, WorkHandle, WorkerBackend};
use std::time::{Duration, Instant};
use wormsim::{ExperimentError, RunResult};

/// Knobs for one sweep's supervision. Everything optional; the default is
/// a transparent pass-through.
#[derive(Clone, Debug, Default)]
pub(crate) struct SupervisePolicy {
    /// Write a worker off once a dispatch's simulation heartbeat has been
    /// frozen this long. Only applies to backends that report heartbeats;
    /// a backend returning `None` is never written off on this path.
    pub point_deadline: Option<Duration>,
    /// Re-dispatch the oldest pending point to idle capacity once it has
    /// been in flight this long (at most one hedge per point).
    pub hedge_after: Option<Duration>,
    /// Quarantine a point once its dispatch count exceeds this many
    /// attempts across workers. `0` disables quarantine.
    pub quarantine_after: u64,
}

/// What the supervisor did during a sweep — surfaced in the run manifest
/// so injected faults are visible, not silently absorbed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SupervisionReport {
    /// Workers written off for a frozen simulation heartbeat.
    pub workers_written_off: u64,
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

/// A supervised point's outcome, consumed by the sweep loop.
pub(crate) enum Event {
    /// The point finished (possibly after failover or a winning hedge).
    Done {
        index: usize,
        result: Result<RunResult, ExperimentError>,
        attempts: u64,
        retry_decision: Option<String>,
    },
    /// The point exceeded its dispatch budget and was written off.
    Quarantined(QuarantineRecord),
}

struct Dispatch {
    handle: WorkHandle,
    /// Last simulation heartbeat observed from this dispatch.
    beat: Option<u64>,
    /// When the heartbeat last advanced (or the dispatch started).
    advanced: Instant,
    /// Whether this dispatch already triggered a write-off; cleared when
    /// the heartbeat moves again (the point failed over somewhere live).
    written_off: bool,
}

struct Flight {
    index: usize,
    job: PointJob,
    dispatches: Vec<Dispatch>,
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
        self.flights.iter().map(|f| f.dispatches.len()).sum()
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
        let handle = backend.submit(job.clone())?;
        self.flights.push(Flight {
            index: job.index,
            job,
            dispatches: vec![Dispatch {
                handle,
                beat: None,
                advanced: Instant::now(),
                written_off: false,
            }],
            started: Instant::now(),
            hedged: false,
        });
        Ok(())
    }

    /// One supervision round: poll every dispatch, apply heartbeat
    /// deadlines, quarantine dispatch-budget busts, and hedge the oldest
    /// straggler. Returns the points that resolved this round.
    ///
    /// # Errors
    ///
    /// Only unrecoverable backend failures (e.g. every worker dead); a
    /// single worker's death is absorbed by the backend's failover.
    pub(crate) fn tick(
        &mut self,
        backend: &mut dyn WorkerBackend,
    ) -> Result<Vec<Event>, BackendError> {
        let mut events = Vec::new();
        let now = Instant::now();
        let mut f = 0;
        while f < self.flights.len() {
            // Quarantine check first, so a poison point is written off
            // *before* another poll re-dispatches it at a fresh worker.
            if self.policy.quarantine_after > 0 {
                let (dispatches, last_error) = self.flights[f]
                    .dispatches
                    .iter()
                    .map(|d| backend.dispatch_history(d.handle))
                    .max_by_key(|(count, _)| *count)
                    .unwrap_or((1, None));
                if dispatches > self.policy.quarantine_after {
                    let flight = self.flights.swap_remove(f);
                    for dispatch in &flight.dispatches {
                        backend.forget(dispatch.handle);
                    }
                    events.push(Event::Quarantined(QuarantineRecord {
                        index: flight.index,
                        point_hash: flight.job.point_hash.clone(),
                        dispatches,
                        last_error: last_error.unwrap_or_else(|| "no error recorded".to_owned()),
                    }));
                    continue;
                }
            }
            let mut finished = None;
            for d in 0..self.flights[f].dispatches.len() {
                let handle = self.flights[f].dispatches[d].handle;
                match backend.poll(handle)? {
                    PointStatus::Pending => {
                        let beat = backend.heartbeat(handle);
                        let dispatch = &mut self.flights[f].dispatches[d];
                        if beat != dispatch.beat {
                            dispatch.beat = beat;
                            dispatch.advanced = now;
                            dispatch.written_off = false;
                        } else if let (Some(deadline), Some(_)) =
                            (self.policy.point_deadline, dispatch.beat)
                        {
                            if !dispatch.written_off
                                && now.duration_since(dispatch.advanced) > deadline
                            {
                                // The socket answers but the simulation
                                // has not advanced: a hung worker. Write
                                // it off; the next poll fails over.
                                dispatch.written_off = true;
                                backend.write_off(handle);
                                self.report.workers_written_off += 1;
                            }
                        }
                    }
                    PointStatus::Done {
                        result,
                        attempts,
                        retry_decision,
                    } => {
                        finished = Some((d, result, attempts, retry_decision));
                        break;
                    }
                }
            }
            if let Some((winner, result, attempts, retry_decision)) = finished {
                let flight = self.flights.swap_remove(f);
                for (d, dispatch) in flight.dispatches.iter().enumerate() {
                    if d != winner {
                        // First commit wins: the losing copy's (identical)
                        // result is discarded before the committer ever
                        // sees it.
                        backend.forget(dispatch.handle);
                        self.report.duplicates_discarded += 1;
                    }
                }
                events.push(Event::Done {
                    index: flight.index,
                    result,
                    attempts,
                    retry_decision,
                });
                continue;
            }
            f += 1;
        }
        self.maybe_hedge(backend, now)?;
        Ok(events)
    }

    /// Re-dispatches the oldest straggler to idle capacity, at most one
    /// hedge per point per sweep.
    fn maybe_hedge(
        &mut self,
        backend: &mut dyn WorkerBackend,
        now: Instant,
    ) -> Result<(), BackendError> {
        let Some(hedge_after) = self.policy.hedge_after else {
            return Ok(());
        };
        if backend.capacity() <= self.dispatched() {
            return Ok(());
        }
        let Some(flight) = self
            .flights
            .iter_mut()
            .filter(|flight| !flight.hedged)
            .min_by_key(|flight| flight.started)
        else {
            return Ok(());
        };
        if now.duration_since(flight.started) <= hedge_after {
            return Ok(());
        }
        // A submit failure here means the spare capacity evaporated
        // between the check and the dispatch (a worker died). The original
        // dispatch is still live, so a failed hedge is not an error.
        if let Ok(handle) = backend.submit(flight.job.clone()) {
            flight.hedged = true;
            flight.dispatches.push(Dispatch {
                handle,
                beat: None,
                advanced: now,
                written_off: false,
            });
            self.report.points_hedged += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use wormsim::topology::Topology;
    use wormsim::{AlgorithmKind, Experiment};

    /// A scriptable backend: each job is resolved by poking the mock, so
    /// the tests control completion order, heartbeats, and dispatch
    /// counts exactly.
    #[derive(Default)]
    struct MockBackend {
        next: u64,
        capacity: usize,
        submitted: Vec<u64>,
        done: HashMap<u64, (crate::PointOutcome, u64, Option<String>)>,
        beats: HashMap<u64, u64>,
        dispatches: HashMap<u64, (u64, Option<String>)>,
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
        fn poll(&mut self, handle: WorkHandle) -> Result<PointStatus, BackendError> {
            match self.done.remove(&handle.0) {
                Some((result, attempts, retry_decision)) => Ok(PointStatus::Done {
                    result,
                    attempts,
                    retry_decision,
                }),
                None => Ok(PointStatus::Pending),
            }
        }
        fn capacity(&self) -> usize {
            self.capacity
        }
        fn cancel(&mut self) {}
        fn heartbeat(&mut self, handle: WorkHandle) -> Option<u64> {
            self.beats.get(&handle.0).copied()
        }
        fn dispatch_history(&self, handle: WorkHandle) -> (u64, Option<String>) {
            self.dispatches.get(&handle.0).cloned().unwrap_or((1, None))
        }
        fn write_off(&mut self, handle: WorkHandle) {
            self.written_off.push(handle.0);
        }
        fn forget(&mut self, handle: WorkHandle) {
            self.forgotten.push(handle.0);
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

    #[test]
    fn quarantine_trips_once_dispatches_exceed_the_budget() {
        let mut backend = MockBackend {
            capacity: 4,
            ..MockBackend::default()
        };
        let mut supervisor = Supervisor::new(SupervisePolicy {
            quarantine_after: 3,
            ..SupervisePolicy::default()
        });
        supervisor.submit(&mut backend, job(0)).unwrap();
        // At the budget: still re-dispatching.
        backend
            .dispatches
            .insert(0, (3, Some("worker a lost".into())));
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        assert!(backend.forgotten.is_empty());
        // Over the budget: quarantined with the last error, handle freed.
        backend
            .dispatches
            .insert(0, (4, Some("worker b lost".into())));
        let events = supervisor.tick(&mut backend).unwrap();
        let [Event::Quarantined(record)] = events.as_slice() else {
            panic!("expected exactly one quarantine event");
        };
        assert_eq!(record.index, 0);
        assert_eq!(record.dispatches, 4);
        assert_eq!(record.last_error, "worker b lost");
        assert_eq!(backend.forgotten, vec![0]);
        assert!(supervisor.is_idle());
    }

    #[test]
    fn quarantine_disabled_never_trips() {
        let mut backend = MockBackend {
            capacity: 4,
            ..MockBackend::default()
        };
        let mut supervisor = Supervisor::new(SupervisePolicy::default());
        supervisor.submit(&mut backend, job(0)).unwrap();
        backend.dispatches.insert(0, (99, Some("carnage".into())));
        assert!(supervisor.tick(&mut backend).unwrap().is_empty());
        assert_eq!(supervisor.dispatched(), 1);
    }

    #[test]
    fn hedged_duplicate_is_discarded_when_the_original_wins() {
        let mut backend = MockBackend {
            capacity: 2,
            ..MockBackend::default()
        };
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
        // exactly one Done event reaches the committer.
        backend.done.insert(0, (Ok(result()), 1, None));
        backend.done.insert(1, (Ok(result()), 1, None));
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
        let mut backend = MockBackend {
            capacity: 1,
            ..MockBackend::default()
        };
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
    fn frozen_heartbeat_writes_the_worker_off_and_progress_resets_it() {
        let mut backend = MockBackend {
            capacity: 2,
            ..MockBackend::default()
        };
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
        // the next one (past the zero deadline) writes the worker off.
        backend.beats.insert(0, 7);
        supervisor.tick(&mut backend).unwrap();
        assert!(backend.written_off.is_empty(), "first observation arms it");
        std::thread::sleep(Duration::from_millis(2));
        supervisor.tick(&mut backend).unwrap();
        assert_eq!(backend.written_off, vec![0]);
        assert_eq!(supervisor.report.workers_written_off, 1);
        // No double write-off while still frozen...
        std::thread::sleep(Duration::from_millis(2));
        supervisor.tick(&mut backend).unwrap();
        assert_eq!(backend.written_off, vec![0]);
        // ...but progress re-arms the deadline for a future freeze.
        backend.beats.insert(0, 8);
        supervisor.tick(&mut backend).unwrap();
        std::thread::sleep(Duration::from_millis(2));
        supervisor.tick(&mut backend).unwrap();
        assert_eq!(backend.written_off, vec![0, 0]);
    }
}
