//! The sweep orchestrator: a validated [`SweepPlan`] run on the configured
//! backend by [`run_sweep`], and the one exit path
//! ([`run_sweep_or_exit`]) every `study` run ends through.

use crate::backend::{BackendChoice, BackendError, LocalThreadBackend, PointJob, WorkerBackend};
use crate::journal::{Journal, JournalEntry, JournalError, SalvagedLine};
use crate::options::SweepOptions;
use crate::remote::RemoteBackend;
use crate::report::write_csv;
use crate::supervisor::{Event, QuarantineRecord, SupervisePolicy, SupervisionReport, Supervisor};
use std::fmt;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use wormsim::observe::{JsonObject, JsonRecord};
use wormsim::{CancelToken, Experiment, ExperimentError, RunOutcome, RunResult};

/// The token the installed SIGINT handler trips. Process-global because a
/// signal handler has no other way to reach session state.
static SIGINT_TOKEN: OnceLock<CancelToken> = OnceLock::new();

const SIGINT: i32 = 2;

extern "C" fn on_sigint(_signum: i32) {
    // Only async-signal-safe work here: one atomic store through the
    // token. No allocation, no locks, no I/O.
    if let Some(token) = SIGINT_TOKEN.get() {
        token.cancel();
    }
}

/// Installs `handler` for `signum` through `signal(2)`.
///
/// # Safety
///
/// `handler` must be async-signal-safe: no allocation, locks or I/O.
pub(crate) unsafe fn install_signal_handler(signum: i32, handler: extern "C" fn(i32)) {
    extern "C" {
        // Vendored libc-free binding: `signal(2)` is in every libc this
        // simulator builds against.
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SAFETY: `handler` has the exact `extern "C" fn(i32)` shape signal(2)
    // expects, the caller guarantees it is async-signal-safe, and a `fn`
    // pointer's code stays valid for the process lifetime.
    unsafe {
        signal(signum, handler as usize);
    }
}

/// Routes SIGINT (Ctrl-C) to `token` instead of killing the process, so a
/// sweep can stop dispatching, drain in-flight points, write partial
/// CSVs, and print a resume command. First caller wins: the
/// token registered first stays registered for the process lifetime.
pub fn install_sigint_handler(token: &CancelToken) {
    let _ = SIGINT_TOKEN.set(token.clone());
    // SAFETY: `on_sigint` makes one atomic store.
    unsafe { install_signal_handler(SIGINT, on_sigint) };
}

/// A figure sweep failure: the first experiment (lowest index in the
/// sweep's deterministic algorithm-major, load-minor order) whose run
/// returned an error.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepError {
    /// Index of the failed point in the sweep's deterministic order.
    pub index: usize,
    /// Algorithm of the failed point.
    pub algorithm: String,
    /// Offered load of the failed point.
    pub offered_load: f64,
    /// What went wrong.
    pub source: ExperimentError,
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sweep point {} ({} at offered load {}) failed: {}",
            self.index, self.algorithm, self.offered_load, self.source
        )
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Any failure of the sweep *machinery*, as opposed to the simulation: a
/// journal that cannot be read/written, a backend that cannot run points,
/// or an inconsistent plan. A rejected point configuration is not one of
/// them: [`run_sweep`] reports it per point
/// ([`ExperimentsRun::first_config_error`]).
#[derive(Clone, Debug, PartialEq)]
pub enum HarnessError {
    /// The run journal could not be loaded or persisted. Fatal by design:
    /// continuing without checkpoints would silently void the crash-safety
    /// contract.
    Journal(JournalError),
    /// The execution backend failed (a worker died, a handshake was
    /// refused). Fatal: the sweep cannot know which points would be lost.
    Backend(BackendError),
    /// The sweep plan or options were inconsistent (empty journal name,
    /// remote backend without workers, ...).
    Plan {
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Journal(e) => e.fmt(f),
            HarnessError::Backend(e) => e.fmt(f),
            HarnessError::Plan { message } => write!(f, "invalid sweep plan: {message}"),
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Journal(e) => Some(e),
            HarnessError::Backend(e) => Some(e),
            HarnessError::Plan { .. } => None,
        }
    }
}

impl From<JournalError> for HarnessError {
    fn from(e: JournalError) -> Self {
        HarnessError::Journal(e)
    }
}

/// One sweep's raw per-point outcomes from [`run_sweep`].
#[derive(Debug)]
pub struct ExperimentsRun {
    /// Per point, in input order: `None` if the point never ran (shutdown
    /// before dispatch, or cancelled by an earlier failure in fail-fast
    /// mode), otherwise the run result or its configuration error.
    pub outcomes: Vec<Option<PointOutcome>>,
    /// Attempts each completed point took (1 = first try; 0 if never ran).
    pub attempts: Vec<u64>,
    /// Whether the shutdown token tripped before every point completed.
    pub interrupted: bool,
    /// Points spliced in from the resume journal rather than re-run.
    pub resumed: usize,
    /// Whether the resume journal ended in a torn append that
    /// [`Journal::load`] dropped: the sweep re-ran the lost point, but
    /// callers inspecting a crash deserve to know the journal was not
    /// clean.
    pub recovered_truncation: bool,
    /// Corrupted journal lines `--salvage` quarantined to the
    /// `.corrupt.jsonl` sidecar (always 0 without the flag).
    pub salvaged: usize,
    /// Points the supervisor wrote off as poison: their outcome slots are
    /// `None`, their stories live in the `.quarantine.jsonl` sidecar, and
    /// the sweep completed without them.
    pub quarantined: Vec<QuarantineRecord>,
    /// What supervision did: workers written off for frozen heartbeats,
    /// re-dispatched and hedged points, discarded duplicate completions,
    /// and retry decisions.
    pub supervision: SupervisionReport,
    /// Where the journal lives; pass via `--resume` to continue.
    pub journal: PathBuf,
}

/// What to sweep: the experiment list plus the per-sweep policy that used
/// to ride along as positional arguments (`journal_name`, `fail_fast`).
///
/// Build with [`SweepPlan::new`] and the chained setters; [`run_sweep`]
/// validates the plan before touching the filesystem.
#[derive(Clone, Debug)]
pub struct SweepPlan {
    experiments: Vec<Experiment>,
    journal_name: String,
    fail_fast: bool,
}

impl SweepPlan {
    /// A plan over `experiments` with the default journal name
    /// (`sweep.journal.jsonl`) and fail-fast off.
    pub fn new(experiments: Vec<Experiment>) -> SweepPlan {
        SweepPlan {
            experiments,
            journal_name: "sweep.journal.jsonl".to_owned(),
            fail_fast: false,
        }
    }

    /// The plan a binary runs for a named family of points: every
    /// experiment gets the harness settings ([`SweepOptions::apply_to`],
    /// telemetry run ids prefixed `stem`), the journal is
    /// `<stem>.journal.jsonl`, and fail-fast is on.
    pub fn named(stem: &str, experiments: Vec<Experiment>, options: &SweepOptions) -> SweepPlan {
        let experiments = experiments
            .into_iter()
            .map(|e| options.apply_to(e, stem))
            .collect();
        SweepPlan::new(experiments)
            .journal_name(format!("{stem}.journal.jsonl"))
            .fail_fast(true)
    }

    /// Names the journal file created under the options' output directory
    /// when not resuming.
    #[must_use]
    pub fn journal_name(mut self, name: impl Into<String>) -> SweepPlan {
        self.journal_name = name.into();
        self
    }

    /// With fail-fast, the first point whose *configuration* is rejected
    /// cancels the remaining points (figure sweeps: one bad config means
    /// the whole figure is wrong); without it, configuration errors are
    /// recorded per point and the sweep continues (fault sweeps: a plan
    /// that disconnects the network is data, not a bug).
    #[must_use]
    pub fn fail_fast(mut self, fail_fast: bool) -> SweepPlan {
        self.fail_fast = fail_fast;
        self
    }

    /// The planned experiments, in schedule order.
    pub fn experiments(&self) -> &[Experiment] {
        &self.experiments
    }

    /// Checks plan consistency (the journal name must be a bare file
    /// name, not a path).
    ///
    /// # Errors
    ///
    /// A human-readable message.
    pub fn validate(&self) -> Result<(), String> {
        if self.journal_name.is_empty() {
            return Err("journal name must not be empty".into());
        }
        if self.journal_name.contains('/') || self.journal_name.contains('\\') {
            return Err(format!(
                "journal name '{}' must be a file name, not a path (it lands under --out)",
                self.journal_name
            ));
        }
        Ok(())
    }
}

/// Orchestrates a [`SweepPlan`] on the configured backend with the full
/// robustness stack: journaled checkpoints (skipping points already
/// recorded when `options.resume` is set), per-point panic isolation,
/// bounded retries decided by the supervisor, and cooperative shutdown
/// that drains in-flight points.
///
/// The supervisor dispatches the points up to the backend's capacity and
/// polls them to completion. Each finished point is recorded in the
/// journal the moment it finishes, with the machine-dependent wall
/// fields canonicalized to zero; the journal keeps its lines in schedule
/// order, so its bytes are identical whether the sweep ran on one
/// thread, sixteen, or two remote workers, in one go or across crashes
/// and resumes.
///
/// # Errors
///
/// Journal I/O or parse failures, backend infrastructure failures, and
/// inconsistent plans/options. Point-level outcomes — including
/// configuration errors — are reported in the returned
/// [`ExperimentsRun`], not as `Err`.
pub fn run_sweep(plan: &SweepPlan, options: &SweepOptions) -> Result<ExperimentsRun, HarnessError> {
    plan.validate()
        .and_then(|()| options.validate_backend())
        .map_err(|message| HarnessError::Plan { message })?;
    let experiments = plan.experiments();
    let mut salvaged_lines: Vec<SalvagedLine> = Vec::new();
    let mut journal = match &options.resume {
        Some(path) if options.salvage => {
            let (journal, salvaged) = Journal::load_salvaging(path)?;
            salvaged_lines = salvaged;
            journal
        }
        Some(path) => Journal::load(path)?,
        None => Journal::create(Path::new(&options.out_dir).join(&plan.journal_name))?,
    };
    let journal_path = journal.path().to_path_buf();
    if !salvaged_lines.is_empty() {
        let sidecar = Journal::salvage_sidecar(&journal_path);
        write_jsonl_sidecar(&sidecar, &salvaged_lines)?;
        eprintln!(
            "WARNING: salvage recovered {} valid point(s) around {} corrupted journal line(s); \
             bad lines quarantined to {} and their points re-run",
            journal.len(),
            salvaged_lines.len(),
            sidecar.display()
        );
    }
    let hashes: Vec<String> = experiments.iter().map(Experiment::point_hash).collect();

    let total = experiments.len();
    let mut outcomes: Vec<Option<PointOutcome>> = (0..total).map(|_| None).collect();
    let mut attempts = vec![0u64; total];
    for (i, hash) in hashes.iter().enumerate() {
        if let Some(entry) = journal.get(hash) {
            outcomes[i] = Some(Ok(entry.result.clone()));
            attempts[i] = entry.attempts;
        }
    }
    let resumed = outcomes.iter().flatten().count();
    let recovered_truncation = journal.recovered_truncation();
    if resumed > 0 || recovered_truncation {
        let torn = if recovered_truncation {
            " (recovered from a torn final append; the lost point re-runs)"
        } else {
            ""
        };
        eprintln!(
            "resuming: {resumed}/{total} points already journaled in {}{torn}",
            journal_path.display()
        );
    }

    let mut backend: Box<dyn WorkerBackend> = match &options.backend {
        BackendChoice::Local => Box::new(LocalThreadBackend::new(
            options.threads,
            options.shutdown.clone(),
        )),
        BackendChoice::Remote { workers } => {
            Box::new(RemoteBackend::connect(workers).map_err(HarnessError::Backend)?)
        }
    };

    // Every point not resumed, in schedule order.
    let jobs = (0..total)
        .filter(|&i| outcomes[i].is_none())
        .map(|i| PointJob {
            experiment: experiments[i].clone().resumed_from(options.resume.clone()),
            index: i,
            point_hash: hashes[i].clone(),
            inject_panic: options.inject_panic == Some(i),
        })
        .collect();
    let policy = SupervisePolicy {
        point_deadline: options.point_deadline_secs.map(Duration::from_secs_f64),
        hedge_after: options.hedge_after_secs.map(Duration::from_secs_f64),
        quarantine_after: options.quarantine_after,
        retries: options.retries,
        shutdown: options.shutdown.clone(),
    };
    let mut supervisor = Supervisor::new(policy, jobs);
    let mut quarantined: Vec<QuarantineRecord> = Vec::new();
    let mut aborted = false;
    let mut cancel_sent = false;
    let mut done = resumed;
    let mut journaled = 0usize;
    let started = Instant::now();

    loop {
        if options.shutdown.is_cancelled() && !cancel_sent {
            backend.cancel();
            cancel_sent = true;
        }
        if supervisor.is_idle() {
            break;
        }
        let events = supervisor
            .tick(backend.as_mut())
            .map_err(HarnessError::Backend)?;
        let progressed = !events.is_empty();
        for event in events {
            match event {
                Event::Done {
                    index: i,
                    result,
                    attempts: tries,
                    retry_decision,
                } => {
                    match &result {
                        Ok(r) if r.outcome == RunOutcome::Interrupted => {
                            // Shutdown drained this point mid-run: its
                            // partial statistics are not data. Leave the
                            // slot empty so a resume re-runs it.
                            continue;
                        }
                        Ok(r) => {
                            let mut recorded = r.clone();
                            // The only machine-dependent bytes in a result;
                            // zeroing them makes the journal byte-identical
                            // across backends and machines.
                            recorded.wall_seconds = 0.0;
                            recorded.cycles_per_sec = 0.0;
                            journal.record(JournalEntry {
                                point_hash: hashes[i].clone(),
                                index: i,
                                attempts: tries,
                                retry_decision,
                                result: recorded,
                            })?;
                            journaled += 1;
                            if options
                                .fail_after_points
                                .is_some_and(|limit| journaled >= limit)
                            {
                                eprintln!(
                                    "\nfail-after-points: simulating a crash after {journaled} journaled points"
                                );
                                std::process::exit(3);
                            }
                        }
                        Err(_) => {
                            if plan.fail_fast {
                                aborted = true;
                                supervisor.abort();
                            }
                        }
                    }
                    outcomes[i] = Some(result);
                    attempts[i] = tries;
                    done += 1;
                    let remaining = total - done;
                    if remaining == 0 {
                        eprint!("\r  {done}/{total} points              ");
                    } else {
                        // Average seconds per completed point predicts the
                        // rest.
                        let fresh = done.saturating_sub(resumed).max(1);
                        let eta = started.elapsed().as_secs_f64() / fresh as f64 * remaining as f64;
                        eprint!("\r  {done}/{total} points (ETA {eta:.0}s)   ");
                    }
                    let _ = std::io::stderr().flush();
                }
                Event::Quarantined(record) => {
                    // Written off as poison: carry on without it.
                    eprintln!(
                        "\nquarantining point {} after {} dispatches: {}",
                        record.index, record.dispatches, record.last_error
                    );
                    quarantined.push(record);
                    done += 1;
                }
            }
        }
        if !progressed {
            std::thread::sleep(backend.poll_interval());
        }
    }
    eprintln!();

    // Quarantined points count as done, not pending: they must not read
    // as an interruption (which would promise a resume could finish them).
    let interrupted = done < total && !aborted;
    if !quarantined.is_empty() {
        let sidecar = Journal::quarantine_sidecar(&journal_path);
        write_jsonl_sidecar(&sidecar, &quarantined)?;
        eprintln!(
            "{} point(s) quarantined as poison; details in {}",
            quarantined.len(),
            sidecar.display()
        );
    }
    let supervision = supervisor.report;
    if !supervision.is_empty() || !quarantined.is_empty() || !salvaged_lines.is_empty() {
        let manifest = Journal::supervision_sidecar(&journal_path);
        let mut text = String::new();
        let mut object = JsonObject::begin(&mut text);
        object.field_u64("workers_written_off", supervision.workers_written_off);
        object.field_u64("points_redispatched", supervision.points_redispatched);
        object.field_u64("points_hedged", supervision.points_hedged);
        object.field_u64("duplicates_discarded", supervision.duplicates_discarded);
        object.field_u64("points_quarantined", quarantined.len() as u64);
        object.field_u64("journal_lines_salvaged", salvaged_lines.len() as u64);
        let mut decisions = String::new();
        let mut inner = JsonObject::begin(&mut decisions);
        for (decision, count) in &supervision.retry_decisions {
            inner.field_u64(decision, *count);
        }
        inner.finish();
        object.field_raw("retry_decisions", &decisions);
        object.finish();
        text.push('\n');
        write_sidecar(&manifest, &text)?;
        eprintln!("supervision manifest written to {}", manifest.display());
    }
    Ok(ExperimentsRun {
        outcomes,
        attempts,
        interrupted,
        resumed,
        recovered_truncation,
        salvaged: salvaged_lines.len(),
        quarantined,
        supervision,
        journal: journal_path,
    })
}

/// Writes `records` as a JSONL sidecar (quarantine records, salvage
/// captures) atomically next to the journal.
fn write_jsonl_sidecar(path: &Path, records: &[impl JsonRecord]) -> Result<(), HarnessError> {
    let mut text = String::new();
    for record in records {
        record.write_json(&mut text);
        text.push('\n');
    }
    write_sidecar(path, &text)
}

/// Writes a supervision sidecar (the JSONL ones, the manifest) atomically
/// next to the journal.
fn write_sidecar(path: &Path, text: &str) -> Result<(), HarnessError> {
    wormsim::observe::atomic_write(path, text).map_err(|e| {
        HarnessError::Journal(JournalError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })
    })
}

/// The command line to paste to continue an interrupted sweep: the current
/// invocation with any stale `--resume`/`--fail-after-points` stripped and
/// `--resume <journal>` appended.
pub fn resume_command(journal: &Path) -> String {
    let mut parts = Vec::new();
    let mut args = std::env::args();
    while let Some(arg) = args.next() {
        if arg == "--resume" || arg == "--fail-after-points" {
            let _ = args.next();
            continue;
        }
        parts.push(arg);
    }
    parts.push("--resume".to_owned());
    parts.push(journal.display().to_string());
    parts.join(" ")
}

/// One point's outcome: its run result, or the error that rejected its
/// configuration.
pub type PointOutcome = Result<RunResult, ExperimentError>;

impl ExperimentsRun {
    /// The first (lowest-index) point of `plan` whose configuration was
    /// rejected, named the way a fail-fast sweep reports it.
    pub fn first_config_error(&self, plan: &SweepPlan) -> Option<SweepError> {
        self.outcomes.iter().enumerate().find_map(|(i, outcome)| {
            let Some(Err(e)) = outcome else { return None };
            let experiment = &plan.experiments[i];
            Some(SweepError {
                index: i,
                algorithm: experiment.sim().algorithm.name().to_owned(),
                offered_load: experiment.offered_load_value(),
                source: e.clone(),
            })
        })
    }
}

/// Runs a plan for a binary and ends it through the one exit path every
/// study shares: installs the SIGINT handler; on interruption
/// flushes the completed points through `write_partial`, prints the
/// resume command, and exits 130; when the supervisor quarantined poison
/// points it flushes the same partial file and exits 4 (distinct from
/// both success and failure — most points are good data, but the sweep
/// is incomplete by design); on a harness error — or, for a fail-fast
/// plan, the first rejected point configuration — exits 1. Returns only
/// when the sweep completed whole, with one outcome per planned point.
///
/// `write_partial` receives the index-aligned outcomes (`None` = the
/// point never ran) and returns the path it wrote; it is not called when
/// no point completed.
pub fn run_sweep_or_exit(
    plan: &SweepPlan,
    options: &SweepOptions,
    write_partial: impl FnOnce(&[Option<PointOutcome>]) -> std::io::Result<String>,
) -> Vec<PointOutcome> {
    install_sigint_handler(&options.shutdown);
    fn fail(e: &dyn fmt::Display) -> ! {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
    let run = run_sweep(plan, options).unwrap_or_else(|e| fail(&e));
    if plan.fail_fast {
        if let Some(e) = run.first_config_error(plan) {
            fail(&e);
        }
    }
    if !run.interrupted && run.quarantined.is_empty() {
        return run
            .outcomes
            .into_iter()
            .map(|o| o.expect("a whole sweep has an outcome per point"))
            .collect();
    }
    let total = run.outcomes.len();
    let completed = run.outcomes.iter().flatten().count();
    if completed > 0 {
        match write_partial(&run.outcomes) {
            Ok(path) => eprintln!("wrote partial results to {path}"),
            Err(e) => eprintln!("could not write partial CSV: {e}"),
        }
    }
    if run.interrupted {
        eprintln!("interrupted: {completed}/{total} points completed and journaled");
        eprintln!("resume with: {}", resume_command(&run.journal));
        std::process::exit(130);
    }
    eprintln!(
        "quarantined: sweep completed {}/{total} points; {} written off as poison (see {})",
        total - run.quarantined.len(),
        run.quarantined.len(),
        Journal::quarantine_sidecar(&run.journal).display()
    );
    for record in &run.quarantined {
        eprintln!(
            "  point {} after {} dispatches: {}",
            record.index, record.dispatches, record.last_error
        );
    }
    std::process::exit(4);
}

/// [`run_sweep_or_exit`] for a [`SweepPlan::named`] plan: the partial file
/// is the sweep CSV `<stem>.partial.csv`, and the returned results are
/// index-aligned with the plan.
pub fn run_points_or_exit(plan: &SweepPlan, options: &SweepOptions) -> Vec<RunResult> {
    debug_assert!(plan.fail_fast, "configuration errors must exit, not return");
    let stem = plan.journal_name.trim_end_matches(".journal.jsonl");
    run_sweep_or_exit(plan, options, |outcomes| {
        let partial: Vec<RunResult> = outcomes.iter().flatten().flatten().cloned().collect();
        write_csv(&format!("{stem}.partial"), &partial, &options.out_dir)
    })
    .into_iter()
    .map(|outcome| outcome.expect("a fail-fast sweep exits on a configuration error"))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure::tests::{temp_out_dir, tiny_spec};
    use wormsim::MeasurementSchedule;

    #[test]
    fn sweep_plan_validates_journal_names() {
        let plan = SweepPlan::new(Vec::new());
        assert_eq!(plan.journal_name, "sweep.journal.jsonl");
        assert!(!plan.fail_fast);
        assert!(plan.validate().is_ok());
        assert!(SweepPlan::new(Vec::new())
            .journal_name("")
            .validate()
            .is_err());
        assert!(SweepPlan::new(Vec::new())
            .journal_name("nested/name.jsonl")
            .validate()
            .is_err());
        let options = SweepOptions::default();
        let error = run_sweep(&SweepPlan::new(Vec::new()).journal_name("a/b"), &options)
            .expect_err("bad plan must be rejected before any I/O");
        assert!(matches!(error, HarnessError::Plan { .. }), "{error}");
    }

    #[test]
    fn transient_panic_is_retried_until_attempts_exhaust() {
        // The injection fires on every attempt of point 1, so with two
        // retries the point is tried 3 times, ends as a Harness outcome,
        // and the attempt count is recorded.
        let spec = tiny_spec();
        let experiments = wormsim::presets::experiments_for(&spec, MeasurementSchedule::quick(), 5);
        let options = SweepOptions {
            schedule: MeasurementSchedule::quick(),
            seed: 5,
            out_dir: temp_out_dir("retry"),
            threads: 1,
            retries: 2,
            inject_panic: Some(1),
            ..SweepOptions::default()
        };
        let plan = SweepPlan::new(experiments.clone())
            .journal_name("retry.journal.jsonl")
            .fail_fast(true);
        let run = run_sweep(&plan, &options).unwrap();
        assert!(!run.interrupted);
        assert_eq!(run.resumed, 0);
        assert_eq!(run.attempts[1], 3, "retries exhausted: 1 try + 2 retries");
        assert!(run
            .attempts
            .iter()
            .enumerate()
            .all(|(i, &a)| i == 1 || a == 1));
        let Some(Ok(result)) = &run.outcomes[1] else {
            panic!("point 1 must carry a result");
        };
        assert!(matches!(result.outcome, RunOutcome::Harness(_)));
        // The journaled entry remembers the attempts too.
        let journal = Journal::load(&run.journal).unwrap();
        let entry = journal
            .get(&experiments[1].point_hash())
            .expect("point 1 journaled");
        assert_eq!(entry.attempts, 3);
        std::fs::remove_dir_all(&options.out_dir).ok();
    }

    #[test]
    fn local_and_remote_backends_name_the_same_build_time_rejection() {
        // The configuration validates, but a radius-3 neighborhood does not
        // fit radix 6: the traffic pattern rejects it when the network is
        // built. A remote sweep must name that error, not an I/O failure.
        use wormsim::engine::EngineError;
        use wormsim::{AlgorithmKind, Topology, TrafficConfig};
        let point = Experiment::new(Topology::torus(&[6, 6]), AlgorithmKind::Ecube)
            .traffic(TrafficConfig::Local { radius: 3 })
            .offered_load(0.1)
            .quick();
        assert!(point.validate().is_ok());
        let plan = SweepPlan::new(vec![point]).fail_fast(true);
        let local_dir = temp_out_dir("reject-local");
        let remote_dir = temp_out_dir("reject-remote");
        let local = SweepOptions {
            schedule: MeasurementSchedule::quick(),
            out_dir: local_dir.clone(),
            threads: 1,
            ..SweepOptions::default()
        };
        let worker = crate::worker::LoopbackWorker::spawn(1).unwrap().addr;
        let remote = SweepOptions {
            schedule: MeasurementSchedule::quick(),
            out_dir: remote_dir.clone(),
            backend: BackendChoice::Remote {
                workers: vec![worker.to_string()],
            },
            ..SweepOptions::default()
        };
        let local_error = run_sweep(&plan, &local)
            .expect("local sweep")
            .first_config_error(&plan);
        let remote_error = run_sweep(&plan, &remote)
            .expect("remote sweep")
            .first_config_error(&plan);
        assert!(
            matches!(
                &local_error,
                Some(SweepError {
                    source: ExperimentError::Engine(EngineError::Traffic(_)),
                    ..
                })
            ),
            "{local_error:?}"
        );
        assert_eq!(local_error, remote_error);
        std::fs::remove_dir_all(&local_dir).ok();
        std::fs::remove_dir_all(&remote_dir).ok();
    }
}
