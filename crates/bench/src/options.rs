//! The harness flag grammar: the flags every `study <id>` takes besides
//! its own axis flags (see `study::parse`), and the options the benchmark
//! and the tests build directly.

use crate::backend::BackendChoice;
use crate::cli::{self, Flag};
use wormsim::topology::Topology;
use wormsim::{CancelToken, Experiment, MeasurementSchedule, ObserveConfig};

/// The harness options every study shares: how its points run, where
/// they are journaled and what telemetry they write — never what the
/// points are (that is the study's row and its axis flags).
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Measurement schedule (`--quick` selects the short one).
    pub schedule: MeasurementSchedule,
    /// Topology override (`--topo torus:32x32`, `--topo 8^3`, ...); `None`
    /// keeps each figure's own network (the paper's 16×16 torus), so
    /// default goldens and resume journals stay bit-identical.
    pub topology: Option<Topology>,
    /// Base RNG seed (`--seed N`).
    pub seed: u64,
    /// Output directory for CSV files (`--out DIR`, default `results`).
    pub out_dir: String,
    /// Worker threads (`--threads N`, default: all cores).
    pub threads: usize,
    /// Directory for per-run sample streams and manifests
    /// (`--observe DIR`); `None` disables them.
    pub observe_dir: Option<String>,
    /// Directory for per-run JSONL event traces (`--trace-out DIR`);
    /// `None` disables them.
    pub trace_dir: Option<String>,
    /// Cycles between time-series samples (`--sample-every N`, 0 = the
    /// observe layer's default stride).
    pub sample_every: u64,
    /// Deep telemetry (`--metrics`): per-channel/per-VC-class counters,
    /// latency histograms, the phase profiler, and per-run
    /// `metrics.json` + `heatmap.csv` exports. Requires `--observe`.
    pub metrics: bool,
    /// Per-run simulated-cycle cap (`--cycle-budget N`); runs cut short
    /// record `RunOutcome::BudgetExceeded`. `None` disables the cap.
    pub cycle_budget: Option<u64>,
    /// Per-run wall-clock cap in seconds (`--wall-budget SECS`), checked
    /// between sampling periods. `None` disables the cap.
    pub wall_budget_secs: Option<f64>,
    /// Journal to resume from (`--resume FILE`): points already recorded
    /// there are skipped and their results spliced back in bit-identically;
    /// new completions append to the same file.
    pub resume: Option<String>,
    /// Extra attempts for points with transient outcomes — budget trips
    /// and harness panics (`--retries N`, default 1). The supervisor
    /// dispatches each retry, with the identical seed, as soon as a slot
    /// is free.
    pub retries: u32,
    /// Supervision: write a worker off once a point's simulation
    /// heartbeat has been frozen this long (`--point-deadline SECS`);
    /// `None` disables hung-worker detection.
    pub point_deadline_secs: Option<f64>,
    /// Supervision: re-dispatch the oldest straggling point to idle
    /// capacity once it has been in flight this long
    /// (`--hedge-after SECS`); `None` disables hedging.
    pub hedge_after_secs: Option<f64>,
    /// Supervision: quarantine a point once it has burned this many
    /// dispatches across workers (`--quarantine-after N`, default 3;
    /// `0` disables quarantine and lets a poison point retry forever).
    pub quarantine_after: u64,
    /// With `--resume`, accept a journal with corrupted mid-file lines
    /// (`--salvage`): every valid record is recovered, bad lines are
    /// quarantined to a `.corrupt.jsonl` sidecar, and their points
    /// re-run. Off by default — silent corruption should be loud.
    pub salvage: bool,
    /// Test hook (`--fail-after-points N`): simulate a crash by exiting
    /// the process (status 3) once N points have been journaled this run,
    /// without flushing anything else. Exercises the resume path.
    pub fail_after_points: Option<usize>,
    /// Test hook (not CLI-exposed): panic inside the worker at this point
    /// index, exercising per-point panic isolation.
    pub inject_panic: Option<usize>,
    /// Cooperative shutdown flag. Binaries route SIGINT here via
    /// [`install_sigint_handler`](crate::install_sigint_handler); tests
    /// trip it directly.
    pub shutdown: CancelToken,
    /// Where points execute: the in-process pool (the default), or the
    /// workers named by `--worker ADDR`.
    pub backend: BackendChoice,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            schedule: MeasurementSchedule::default(),
            topology: None,
            seed: 1993,
            out_dir: "results".to_owned(),
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            observe_dir: None,
            trace_dir: None,
            sample_every: 0,
            metrics: false,
            cycle_budget: None,
            wall_budget_secs: None,
            resume: None,
            retries: 1,
            point_deadline_secs: None,
            hedge_after_secs: None,
            quarantine_after: 3,
            salvage: false,
            fail_after_points: None,
            inject_panic: None,
            shutdown: CancelToken::new(),
            backend: BackendChoice::Local,
        }
    }
}

impl AsMut<SweepOptions> for SweepOptions {
    fn as_mut(&mut self) -> &mut SweepOptions {
        self
    }
}

impl SweepOptions {
    /// The harness flag table, for any command line that holds the options
    /// (`study`'s [`StudyArgs`](crate::study::StudyArgs), or the options
    /// alone).
    #[rustfmt::skip] // one row per line
    pub fn flags<T: AsMut<SweepOptions>>() -> Vec<Flag<T>> {
        vec![
            Flag { name: "--quick", metavar: None, apply: |o, _| { o.as_mut().schedule = MeasurementSchedule::quick(); Ok(()) }, help: "the short measurement schedule" },
            Flag { name: "--saturation", metavar: None, apply: |o, _| { o.as_mut().schedule = MeasurementSchedule::saturation(); Ok(()) }, help: "the schedule for points past saturation" },
            Flag { name: "--topo", metavar: Some("T"), apply: |o, v| { o.as_mut().topology = Some(cli::parse_topology(v)?); Ok(()) }, help: "network: torus:32x32, mesh:8x8, 8^3 (default: the study's own)" },
            Flag { name: "--seed", metavar: Some("N"), apply: |o, v| { o.as_mut().seed = cli::parse_int("seed", v, 0)?; Ok(()) }, help: "base RNG seed (default 1993)" },
            Flag { name: "--out", metavar: Some("DIR"), apply: |o, v| { o.as_mut().out_dir = v.to_owned(); Ok(()) }, help: "CSV and journal directory (default results)" },
            Flag { name: "--threads", metavar: Some("N"), apply: |o, v| { o.as_mut().threads = cli::parse_int("thread count", v, 1)?; Ok(()) }, help: "points run at once (default: all cores)" },
            Flag { name: "--observe", metavar: Some("DIR"), apply: |o, v| { o.as_mut().observe_dir = Some(v.to_owned()); Ok(()) }, help: "per-run sample streams and manifests" },
            Flag { name: "--trace-out", metavar: Some("DIR"), apply: |o, v| { o.as_mut().trace_dir = Some(v.to_owned()); Ok(()) }, help: "per-run JSONL event traces" },
            Flag { name: "--sample-every", metavar: Some("N"), apply: |o, v| { o.as_mut().sample_every = cli::parse_int("sample stride", v, 1)?; Ok(()) }, help: "cycles between samples" },
            Flag { name: "--metrics", metavar: None, apply: |o, _| { o.as_mut().metrics = true; Ok(()) }, help: "deep telemetry into the --observe directory" },
            Flag { name: "--cycle-budget", metavar: Some("N"), apply: |o, v| { o.as_mut().cycle_budget = Some(cli::parse_int("cycle budget", v, 1)?); Ok(()) }, help: "per-run simulated-cycle cap" },
            Flag { name: "--wall-budget", metavar: Some("SECS"), apply: |o, v| { o.as_mut().wall_budget_secs = Some(cli::parse_positive("wall budget", v)?); Ok(()) }, help: "per-run wall-clock cap" },
            Flag { name: "--resume", metavar: Some("JOURNAL"), apply: |o, v| { o.as_mut().resume = Some(v.to_owned()); Ok(()) }, help: "skip the points this journal records" },
            Flag { name: "--salvage", metavar: None, apply: |o, _| { o.as_mut().salvage = true; Ok(()) }, help: "with --resume, recover a journal with corrupted lines" },
            Flag { name: "--retries", metavar: Some("N"), apply: |o, v| { o.as_mut().retries = cli::parse_int("retry count", v, 0)?; Ok(()) }, help: "extra attempts for transient outcomes (default 1)" },
            Flag { name: "--point-deadline", metavar: Some("SECS"), apply: |o, v| { o.as_mut().point_deadline_secs = Some(cli::parse_positive("--point-deadline", v)?); Ok(()) }, help: "write off a worker whose heartbeat froze this long" },
            Flag { name: "--hedge-after", metavar: Some("SECS"), apply: |o, v| { o.as_mut().hedge_after_secs = Some(cli::parse_positive("--hedge-after", v)?); Ok(()) }, help: "re-dispatch a straggler pending this long" },
            Flag { name: "--quarantine-after", metavar: Some("N"), apply: |o, v| { o.as_mut().quarantine_after = cli::parse_int("dispatch budget", v, 0)?; Ok(()) }, help: "quarantine a point after N dispatches (default 3, 0 never)" },
            Flag { name: "--fail-after-points", metavar: Some("N"), apply: |o, v| { o.as_mut().fail_after_points = Some(cli::parse_int("--fail-after-points", v, 1)?); Ok(()) }, help: "test hook: exit 3 once N points are journaled" },
            Flag { name: "--worker", metavar: Some("HOST:PORT"), apply: |o, v| { o.as_mut().add_worker(v.to_owned()); Ok(()) }, help: "shard across this wormsim-worker, not the local pool (repeatable)" },
        ]
    }

    /// The harness grammar one flag at a time, for tests: applies `flag`
    /// (pulling its value from `args` if it takes one) and returns `true`,
    /// or `false` for a flag not in [`SweepOptions::flags`].
    #[cfg(test)]
    pub(crate) fn apply_flag(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let table = Self::flags();
        let Some((row, value)) = cli::take(&table, flag, args)? else {
            return Ok(false);
        };
        (row.apply)(self, &value)?;
        Ok(true)
    }

    /// The cross-flag checks, once every flag is applied.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the conflicting flags.
    pub fn finish(&self) -> Result<(), String> {
        if self.metrics && self.observe_dir.is_none() {
            return Err("--metrics needs --observe DIR (metrics export to the observe dir)".into());
        }
        if self.salvage && self.resume.is_none() {
            return Err(
                "--salvage needs --resume JOURNAL (it relaxes how that journal is loaded)".into(),
            );
        }
        self.validate_backend()
    }

    /// Adds a `--worker HOST:PORT` address; it selects the remote backend.
    fn add_worker(&mut self, addr: String) {
        match &mut self.backend {
            BackendChoice::Remote { workers } => workers.push(addr),
            BackendChoice::Local => {
                self.backend = BackendChoice::Remote {
                    workers: vec![addr],
                }
            }
        }
    }

    /// Checks backend-dependent option consistency: the remote backend
    /// cannot stream telemetry (observe and trace files would land on the
    /// worker's filesystem, not here). An empty worker list is refused
    /// when the backend connects.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the conflicting flags.
    pub fn validate_backend(&self) -> Result<(), String> {
        let remote = matches!(self.backend, BackendChoice::Remote { .. });
        if remote && (self.observe_dir.is_some() || self.trace_dir.is_some()) {
            return Err("--observe/--trace-out are incompatible with --worker \
                 (telemetry would land on the worker's filesystem)"
                .into());
        }
        Ok(())
    }

    /// Applies the per-run harness settings to one sweep point: the
    /// budgets and — with `--observe`/`--trace-out` — telemetry whose run
    /// ids start with `prefix`. The shutdown token is not attached here:
    /// the backend runs each point under a token of its own.
    pub fn apply_to(&self, experiment: Experiment, prefix: &str) -> Experiment {
        experiment
            .observe(ObserveConfig {
                out_dir: self.observe_dir.as_deref().map(Into::into),
                trace_dir: self.trace_dir.as_deref().map(Into::into),
                sample_every: self.sample_every,
                prefix: prefix.to_owned(),
                metrics: self.metrics,
            })
            .cycle_budget(self.cycle_budget)
            .wall_budget_secs(self.wall_budget_secs)
    }

    /// The `--topo` override, or the paper's default 16×16 torus.
    ///
    /// For studies of a single network rather than a
    /// [`FigureSpec`](wormsim::presets::FigureSpec) sweep.
    pub fn topology_or_paper(&self) -> Topology {
        self.topology
            .clone()
            .unwrap_or_else(wormsim::presets::paper_topology)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Parses harness flags alone, the way `study::parse` does after a
    /// study's axis flags.
    pub(crate) fn parse(args: &[&str]) -> Result<SweepOptions, String> {
        let mut options = SweepOptions::default();
        let mut args = args.iter().map(|s| (*s).to_owned());
        while let Some(arg) = args.next() {
            if !options.apply_flag(&arg, &mut args)? {
                return Err(format!("unknown argument '{arg}'"));
            }
        }
        options.finish()?;
        Ok(options)
    }

    #[test]
    fn options_parse_well_formed_args() {
        let options = parse(&["--quick", "--seed", "7", "--threads", "3", "--out", "o"]).unwrap();
        assert_eq!(options.seed, 7);
        assert_eq!(options.threads, 3);
        assert_eq!(options.out_dir, "o");
    }

    #[test]
    fn options_parse_topology_override() {
        let options = parse(&["--topo", "8^3"]).unwrap();
        assert_eq!(options.topology, Some(Topology::k_ary_n_cube(8, 3)));
        assert_eq!(parse(&[]).unwrap().topology, None);
        assert!(parse(&["--topo"]).is_err());
        assert!(parse(&["--topo", "donut:9"]).is_err());
    }

    #[test]
    fn options_parse_observability_flags() {
        let options = parse(&[
            "--observe",
            "obs",
            "--trace-out",
            "traces",
            "--sample-every",
            "250",
            "--metrics",
        ])
        .unwrap();
        assert_eq!(options.observe_dir.as_deref(), Some("obs"));
        assert_eq!(options.trace_dir.as_deref(), Some("traces"));
        assert_eq!(options.sample_every, 250);
        assert!(options.metrics);
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.observe_dir, None);
        assert_eq!(defaults.trace_dir, None);
        assert_eq!(defaults.sample_every, 0);
        assert!(!defaults.metrics);
        // Metrics export into the observe dir, so it must be set.
        let err = parse(&["--metrics"]).unwrap_err();
        assert!(err.contains("--observe"), "got: {err}");
    }

    #[test]
    fn options_reject_zero_threads() {
        assert!(parse(&["--threads", "0"]).is_err());
    }

    #[test]
    fn options_reject_bad_sample_every() {
        assert!(parse(&["--sample-every", "0"]).is_err());
        assert!(parse(&["--sample-every", "soon"]).is_err());
        assert!(parse(&["--sample-every"]).is_err());
        assert!(parse(&["--observe"]).is_err());
        assert!(parse(&["--trace-out"]).is_err());
    }

    #[test]
    fn options_reject_malformed_integers() {
        assert!(parse(&["--threads", "three"]).is_err());
        assert!(parse(&["--threads", "-1"]).is_err());
        assert!(parse(&["--seed", "2e9"]).is_err());
        assert!(parse(&["--seed", "0xbeef"]).is_err());
        assert!(parse(&["--threads", "1.0"]).is_err());
        assert!(parse(&["--seed", "12three"]).is_err());
        assert!(parse(&["--seed", "-4"]).is_err());
    }

    #[test]
    fn options_parse_budget_flags() {
        let options = parse(&["--cycle-budget", "5000", "--wall-budget", "1.5"]).unwrap();
        assert_eq!(options.cycle_budget, Some(5_000));
        assert_eq!(options.wall_budget_secs, Some(1.5));
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.cycle_budget, None);
        assert_eq!(defaults.wall_budget_secs, None);
        assert!(parse(&["--cycle-budget", "0"]).is_err());
        assert!(parse(&["--wall-budget", "-2"]).is_err());
    }

    #[test]
    fn options_parse_supervision_flags() {
        let options = parse(&[
            "--point-deadline",
            "30",
            "--hedge-after",
            "5.5",
            "--quarantine-after",
            "2",
            "--resume",
            "results/sweep.journal.jsonl",
            "--salvage",
        ])
        .unwrap();
        assert_eq!(options.point_deadline_secs, Some(30.0));
        assert_eq!(options.hedge_after_secs, Some(5.5));
        assert_eq!(options.quarantine_after, 2);
        assert!(options.salvage);
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.point_deadline_secs, None);
        assert_eq!(defaults.hedge_after_secs, None);
        assert_eq!(defaults.quarantine_after, 3);
        assert!(parse(&["--point-deadline", "0"]).is_err());
        assert!(parse(&["--hedge-after", "-1"]).is_err());
        assert!(parse(&["--quarantine-after", "many"]).is_err());
        assert!(parse(&["--salvage"]).is_err(), "--salvage needs --resume");
    }

    #[test]
    fn apply_flag_leaves_foreign_flags_to_the_caller() {
        let mut options = SweepOptions::default();
        let mut rest = ["9", "--loads"].iter().map(|s| (*s).to_owned());
        assert_eq!(options.apply_flag("--seed", &mut rest), Ok(true));
        assert_eq!(options.seed, 9);
        assert_eq!(options.apply_flag("--loads", &mut rest), Ok(false));
        assert_eq!(
            rest.next().as_deref(),
            Some("--loads"),
            "a foreign flag's value is not consumed"
        );
        // Cross-flag checks wait for `finish`.
        assert_eq!(options.apply_flag("--metrics", &mut rest), Ok(true));
        assert!(options.finish().unwrap_err().contains("--observe"));
    }

    #[test]
    fn options_reject_missing_values_and_unknown_flags() {
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--threads"]).is_err());
        assert!(parse(&["--warp-speed"]).is_err());
    }

    #[test]
    fn options_parse_robustness_flags() {
        let options = parse(&[
            "--resume",
            "results/fig3.journal.jsonl",
            "--retries",
            "3",
            "--fail-after-points",
            "2",
        ])
        .unwrap();
        assert_eq!(
            options.resume.as_deref(),
            Some("results/fig3.journal.jsonl")
        );
        assert_eq!(options.retries, 3);
        assert_eq!(options.fail_after_points, Some(2));
        let defaults = parse(&[]).unwrap();
        assert_eq!(defaults.resume, None);
        assert_eq!(defaults.retries, 1);
        assert_eq!(defaults.fail_after_points, None);
        assert!(!defaults.shutdown.is_cancelled());
        assert!(parse(&["--resume"]).is_err());
        assert_eq!(parse(&["--retries", "0"]).unwrap().retries, 0);
        assert!(parse(&["--retries", "many"]).is_err());
        assert!(parse(&["--retries", "-1"]).is_err());
        assert!(parse(&["--retries", "2.5"]).is_err());
        assert!(parse(&["--fail-after-points", "0"]).is_err());
    }

    #[test]
    fn options_parse_backend_flags() {
        assert_eq!(parse(&[]).unwrap().backend, BackendChoice::Local);
        let options = parse(&["--worker", "127.0.0.1:9000", "--worker", "127.0.0.1:9001"]).unwrap();
        assert_eq!(
            options.backend,
            BackendChoice::Remote {
                workers: vec!["127.0.0.1:9000".to_owned(), "127.0.0.1:9001".to_owned()],
            },
            "--worker selects the remote backend"
        );
        // Remote with local telemetry flags is rejected up front.
        let err =
            parse(&["--worker", "w:1", "--observe", "obs"]).expect_err("observe cannot shard");
        assert!(err.contains("--observe"), "got: {err}");
    }
}
