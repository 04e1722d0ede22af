//! The harness flag grammar: the flags every `study <id>` takes after its
//! own axis flags (see `study::parse`), and the options the benchmark,
//! `chaos_soak` and the tests build directly.

use crate::backend::BackendChoice;
use crate::cli;
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
    /// and harness panics (`--retries N`, default 1). Retries reuse the
    /// identical seed; only the backoff delay between attempts is jittered.
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
    /// [`install_sigint_handler`]; tests trip it directly.
    pub shutdown: CancelToken,
    /// Where points execute (`--backend local|remote`, `--worker ADDR`);
    /// defaults to the in-process pool.
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

impl SweepOptions {
    /// The harness flags, for `study`'s usage line (after the axis
    /// flags).
    pub const USAGE: &'static str = "[--quick|--saturation] [--topo T] [--seed N] [--out DIR] \
         [--threads N] [--observe DIR] [--trace-out DIR] [--sample-every N] [--metrics] \
         [--cycle-budget N] [--wall-budget SECS] [--resume JOURNAL] [--salvage] [--retries N] \
         [--point-deadline SECS] [--hedge-after SECS] [--quarantine-after N] \
         [--backend local|remote] [--worker HOST:PORT]...";

    /// One step of the harness flag grammar: applies `flag` (pulling its
    /// value from `args` if it takes one) and returns `true`, or returns
    /// `false` for a flag that is not a harness flag — `study::parse`
    /// matches the study's axis flags first and delegates everything else
    /// here.
    ///
    /// # Errors
    ///
    /// A human-readable message for a missing or malformed value.
    pub fn apply_flag(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        let mut value = |what: &str| args.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag {
            "--quick" => self.schedule = MeasurementSchedule::quick(),
            "--saturation" => self.schedule = MeasurementSchedule::saturation(),
            "--topo" => self.topology = Some(cli::parse_topology(&value("a value")?)?),
            "--seed" => self.seed = cli::parse_seed(&value("a value")?)?,
            "--out" => self.out_dir = value("a directory")?,
            "--threads" => self.threads = cli::parse_threads(&value("a value")?)?,
            "--observe" => self.observe_dir = Some(value("a directory")?),
            "--trace-out" => self.trace_dir = Some(value("a directory")?),
            "--sample-every" => self.sample_every = cli::parse_sample_every(&value("a value")?)?,
            "--metrics" => self.metrics = true,
            "--cycle-budget" => {
                self.cycle_budget = Some(cli::parse_cycle_budget(&value("a value")?)?);
            }
            "--wall-budget" => {
                self.wall_budget_secs = Some(cli::parse_wall_budget(&value("a value")?)?);
            }
            "--resume" => self.resume = Some(value("a journal file")?),
            "--retries" => self.retries = cli::parse_retries(&value("a value")?)?,
            "--point-deadline" => {
                self.point_deadline_secs =
                    Some(cli::parse_supervise_secs(flag, &value("a value")?)?);
            }
            "--hedge-after" => {
                self.hedge_after_secs = Some(cli::parse_supervise_secs(flag, &value("a value")?)?);
            }
            "--quarantine-after" => {
                self.quarantine_after = cli::parse_quarantine_after(&value("a value")?)?;
            }
            "--salvage" => self.salvage = true,
            "--fail-after-points" => {
                self.fail_after_points = Some(cli::parse_fail_after(&value("a value")?)?);
            }
            "--backend" => self.set_backend(&value("'local' or 'remote'")?)?,
            "--worker" => self.add_worker(value("HOST:PORT")?),
            _ => return Ok(false),
        }
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

    /// Applies a `--backend` value.
    ///
    /// # Errors
    ///
    /// On anything other than `local` or `remote`, or `local` after
    /// `--worker` already implied remote.
    pub fn set_backend(&mut self, value: &str) -> Result<(), String> {
        match value {
            "local" => match &self.backend {
                BackendChoice::Remote { workers } if !workers.is_empty() => {
                    return Err("--backend local conflicts with --worker".into());
                }
                _ => self.backend = BackendChoice::Local,
            },
            "remote" => {
                if self.backend == BackendChoice::Local {
                    self.backend = BackendChoice::Remote {
                        workers: Vec::new(),
                    };
                }
            }
            other => {
                return Err(format!(
                    "--backend must be 'local' or 'remote', got '{other}'"
                ))
            }
        }
        Ok(())
    }

    /// Adds a `--worker HOST:PORT` address, switching to the remote
    /// backend if not already selected.
    pub fn add_worker(&mut self, addr: String) {
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
    /// needs at least one worker and cannot stream telemetry (observe and
    /// trace files would land on the worker's filesystem, not here).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the conflicting flags.
    pub fn validate_backend(&self) -> Result<(), String> {
        if let BackendChoice::Remote { workers } = &self.backend {
            if workers.is_empty() {
                return Err("--backend remote needs at least one --worker HOST:PORT".into());
            }
            if self.observe_dir.is_some() || self.trace_dir.is_some() {
                return Err(
                    "--observe/--trace-out are incompatible with --backend remote \
                     (telemetry would land on the worker's filesystem)"
                        .into(),
                );
            }
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
        assert_eq!(
            parse(&["--backend", "local"]).unwrap().backend,
            BackendChoice::Local
        );
        let options = parse(&["--worker", "127.0.0.1:9000", "--worker", "127.0.0.1:9001"]).unwrap();
        assert_eq!(
            options.backend,
            BackendChoice::Remote {
                workers: vec!["127.0.0.1:9000".to_owned(), "127.0.0.1:9001".to_owned()],
            },
            "--worker implies the remote backend"
        );
        // Remote without workers, or with local telemetry flags, is
        // rejected up front.
        assert!(parse(&["--backend", "remote"]).is_err());
        assert!(parse(&["--backend", "tape"]).is_err());
        assert!(parse(&["--worker", "w:1", "--backend", "local"]).is_err());
        let err =
            parse(&["--worker", "w:1", "--observe", "obs"]).expect_err("observe cannot shard");
        assert!(err.contains("--observe"), "got: {err}");
    }
}
